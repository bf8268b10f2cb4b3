"""``python -m probaccept``, and the ``probaccept`` script's entry: the CLI
process, with the cyclic collector off from before ``cli`` loads."""

import gc

gc.disable()  # before the imports, whose collections free next to nothing

from .cli import run  # noqa: E402

if __name__ == "__main__":
    run()
