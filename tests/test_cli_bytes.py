"""The CLI's bytes against the committed fingerprint, ``tools/cli_bytes.json``.

``tools/cli_bytes.py`` writes that file by running its command list as
fresh ``python -S -m probaccept`` processes.  Here the same commands, on
the same base files, run in process through ``cli.main``, with stdout and
stderr captured as UTF-8 and ``COLUMNS=80``, the width ``argparse`` takes
when writing to a pipe; the records must equal the committed ones.  A
failure names each differing command as ``cli_bytes.py --compare`` does.

``argparse`` help and usage texts can change between Python versions, so
under a major.minor version other than the one that wrote the file the
records whose live output is argparse's own text, a ``--help`` run or a
stderr that begins ``usage:``, are left out of the comparison; every
other record is compared under any version.  An intended change of the
CLI's bytes rewrites the file:

    python tools/cli_bytes.py . tools/cli_bytes.json
"""

import importlib.util
import io
import os
import platform
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from probaccept.cli import main

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_bytes", TOOLS / "cli_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_bytes = _tool()


def run_in_process(workdir: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    """``main(argv)`` run in ``workdir``: its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse: --help, --version, usage errors
                code = 0 if exc.code is None else exc.code
    finally:
        os.chdir(home)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def argparse_text(argv: list[str], stderr: bytes) -> bool:
    """Whether a run's output is argparse's own help or usage text."""
    return "--help" in argv or stderr.startswith(b"usage:")


def test_cli_bytes_match_the_committed_fingerprint(monkeypatch):
    committed = cli_bytes.load(TOOLS / "cli_bytes.json")
    written, running = committed["python"], platform.python_version()
    monkeypatch.setenv("COLUMNS", "80")
    versioned: set[str] = set()  # the argvs whose live output is argparse's

    def run(workdir: str, argv: list[str]) -> tuple[int, bytes, bytes]:
        code, stdout, stderr = run_in_process(workdir, argv)
        if argparse_text(argv, stderr):
            versioned.add(" ".join(argv))
        return code, stdout, stderr

    before, after = committed["records"], cli_bytes.records(run)
    if written.split(".")[:2] != running.split(".")[:2]:
        before, after = (
            [r for r in found if " ".join(r["argv"]) not in versioned] for found in (before, after)
        )
    lines = cli_bytes.differences(before, after)
    if len(lines) > 1:
        pytest.fail("\n".join([f"fingerprint written by Python {written}", *lines]))
