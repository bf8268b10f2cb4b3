"""The record classes behave as the frozen dataclasses they replace.

Each public record class is compared with a reference
``dataclasses.dataclass(frozen=True)`` built here over the same fields,
on sample values drawn from the library: fields, ``asdict``, ``astuple``,
``replace``, equality, hashing, ``repr``, frozen writes, copies and
pickles.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from probaccept import (
    Acceptance,
    AcceptanceLevel,
    AcceptedRejection,
    AcceptedSet,
    BinomialTestSpec,
    CombinedRejection,
    Decision,
    ExtensionEnumeration,
    LeveledStatement,
    ProbabilityBound,
    RejectionRegion,
    Strand,
    atom,
    binomial_rejection_region,
    combine_tests,
    conjunction_support,
    enumerate_extensions,
    fair_lottery,
    rejection_to_acceptance,
    strands,
    teng_accept,
    threshold_accept,
)

NO_DEFAULT = dataclasses.MISSING

# Each record class's fields as the frozen dataclass declared them: name,
# type as written, default.
FIELDS = {
    AcceptanceLevel: [("epsilon", "Fraction", NO_DEFAULT), ("strict", "bool", False)],
    Acceptance: [
        ("label", "str", NO_DEFAULT),
        ("statement", "Formula", NO_DEFAULT),
        ("probability", "Fraction", NO_DEFAULT),
        ("support", "Fraction", NO_DEFAULT),
    ],
    AcceptedSet: [
        ("policy", "str", NO_DEFAULT),
        ("level", "AcceptanceLevel", NO_DEFAULT),
        ("accepted", "tuple[Acceptance, ...]", NO_DEFAULT),
        ("background", "FormulaSet", NO_DEFAULT),
        ("weakly_consistent", "bool", NO_DEFAULT),
    ],
    ExtensionEnumeration: [
        ("policy", "str", NO_DEFAULT),
        ("level", "AcceptanceLevel", NO_DEFAULT),
        ("extensions", "tuple[AcceptedSet, ...]", NO_DEFAULT),
        ("witness_orders", "tuple[tuple[str, ...], ...]", NO_DEFAULT),
        ("conjunction", "FormulaSet", NO_DEFAULT),
        ("conjunction_weakly_consistent", "bool", NO_DEFAULT),
        ("intersection", "FormulaSet", NO_DEFAULT),
        ("exhaustive", "bool", NO_DEFAULT),
        ("permutation_count", "int", NO_DEFAULT),
        ("seed", "int", NO_DEFAULT),
    ],
    LeveledStatement: [
        ("statement", "Formula", NO_DEFAULT),
        ("support_lower_bound", "Fraction", NO_DEFAULT),
        ("premise_count", "int", NO_DEFAULT),
        ("exact_probability", "Fraction | None", None),
    ],
    Strand: [("kernel", "FormulaSet", NO_DEFAULT), ("background", "FormulaSet", NO_DEFAULT)],
    ProbabilityBound: [("lower", "Fraction", NO_DEFAULT), ("upper", "Fraction | None", None)],
    BinomialTestSpec: [
        ("n", "int", NO_DEFAULT),
        ("p0", "Fraction", NO_DEFAULT),
        ("epsilon", "Fraction", NO_DEFAULT),
        ("sided", "str", "two_sided"),
    ],
    RejectionRegion: [
        ("n", "int", NO_DEFAULT),
        ("rejected_counts", "frozenset[int]", NO_DEFAULT),
        ("achieved_size", "Fraction", NO_DEFAULT),
    ],
    AcceptedRejection: [
        ("statement", "str", NO_DEFAULT),
        ("epsilon", "Fraction", NO_DEFAULT),
        ("support", "ProbabilityBound", NO_DEFAULT),
        ("achieved_size", "Fraction", NO_DEFAULT),
        ("directional", "bool", NO_DEFAULT),
        ("alternative_note", "str", ""),
    ],
    CombinedRejection: [
        ("statement", "str", NO_DEFAULT),
        ("support_lower_bound", "Fraction", NO_DEFAULT),
        ("premise_count", "int", NO_DEFAULT),
        ("independent", "bool", NO_DEFAULT),
    ],
}


def samples():
    """Two unequal instances of every record class, built by the library."""
    base = fair_lottery(3)
    third = AcceptanceLevel(Fraction(1, 3))
    threshold = threshold_accept(base, third)
    teng = teng_accept(base, base.candidate_labels, third)
    spec = BinomialTestSpec(100, Fraction(1, 2), Fraction(1, 100))
    upper = BinomialTestSpec(100, Fraction(1, 2), Fraction(1, 100), "upper")
    rejections = [rejection_to_acceptance(s, Decision.REJECT) for s in (spec, upper)]
    kernels = strands(threshold.accepted_formulas, base.background)
    return {
        AcceptanceLevel: (third, AcceptanceLevel(Fraction(1, 3), strict=True)),
        Acceptance: threshold.accepted[:2],
        AcceptedSet: (threshold, teng),
        ExtensionEnumeration: tuple(
            enumerate_extensions(base, policy, third) for policy in ("sequential", "teng")
        ),
        LeveledStatement: (
            conjunction_support(base.model, threshold.accepted_formulas, third),
            LeveledStatement(atom("a"), Fraction(1, 2), 2),
        ),
        Strand: (kernels[0], kernels[1]),
        ProbabilityBound: (ProbabilityBound(Fraction(1, 2)), ProbabilityBound("1/4", 1)),
        BinomialTestSpec: (spec, upper),
        RejectionRegion: (binomial_rejection_region(spec), binomial_rejection_region(upper)),
        AcceptedRejection: tuple(rejections),
        CombinedRejection: (combine_tests(rejections), combine_tests(rejections, True)),
    }


SAMPLES = samples()


def reference(cls):
    """A frozen dataclass of the class's name over its declared fields."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (name, kind, dataclasses.field(default=default))
            if default is not NO_DEFAULT
            else (name, kind)
            for name, kind, default in FIELDS[cls]
        ],
        frozen=True,
        slots=cls is ProbabilityBound,
    )


def twin(cls, value):
    """The reference dataclass instance of the same field values."""
    return reference(cls)(*(getattr(value, name) for name, _, _ in FIELDS[cls]))


def described(fields):
    return [
        (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
         f.metadata, f.kw_only)
        for f in fields
    ]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestRecordAsDataclass:
    def test_fields_and_match_args(self, cls):
        ref = reference(cls)
        assert dataclasses.is_dataclass(cls)
        assert described(dataclasses.fields(cls)) == described(dataclasses.fields(ref))
        assert cls.__match_args__ == ref.__match_args__
        assert repr(cls.__dataclass_params__) == repr(ref.__dataclass_params__)
        for value in SAMPLES[cls]:
            assert dataclasses.is_dataclass(value)
            assert described(dataclasses.fields(value)) == described(dataclasses.fields(ref))

    def test_asdict_and_astuple(self, cls):
        for value in SAMPLES[cls]:
            assert dataclasses.asdict(value) == dataclasses.asdict(twin(cls, value))
            assert dataclasses.astuple(value) == dataclasses.astuple(twin(cls, value))

    def test_eq_hash_and_repr(self, cls):
        first, second = SAMPLES[cls]
        assert first == first and first != second
        assert first != twin(cls, first)  # another class, as between dataclasses
        for value in (first, second):
            ref = twin(cls, value)
            assert dataclasses.replace(value) == value
            assert hash(value) == hash(ref)
            if cls is not ProbabilityBound:  # which writes its own
                assert repr(value) == repr(ref)

    def test_frozen_writes_raise_as_a_dataclass_does(self, cls):
        value = SAMPLES[cls][0]
        ref = twin(cls, value)
        for name in (FIELDS[cls][0][0], "not_a_field"):
            for verb, write in (
                ("assign to", lambda v: setattr(v, name, 1)),
                ("delete", lambda v: delattr(v, name)),
            ):
                message = f"^cannot {verb} field '{name}'$"
                with pytest.raises(dataclasses.FrozenInstanceError, match=message):
                    write(value)
                # a slotted dataclass of Python 3.11 raises TypeError on a
                # name that is no field, where the record refuses it as above
                if cls is not ProbabilityBound or name != "not_a_field":
                    with pytest.raises(dataclasses.FrozenInstanceError, match=message):
                        write(ref)
        assert value == SAMPLES[cls][0]

    def test_copies_and_pickles(self, cls):
        for value in SAMPLES[cls]:
            for copied in (
                copy.copy(value),
                copy.deepcopy(value),
                pickle.loads(pickle.dumps(value)),
            ):
                assert type(copied) is cls and copied is not value
                assert copied == value and repr(copied) == repr(value)
                assert hash(copied) == hash(value)


@pytest.mark.parametrize(
    ("value", "change", "message"),
    [
        (AcceptanceLevel(Fraction(1, 3)), {"epsilon": 0}, "epsilon must lie strictly"),
        (AcceptanceLevel(Fraction(1, 3)), {"strict": "no"}, "strict must be a bool"),
        (ProbabilityBound(Fraction(1, 2)), {"upper": Fraction(1, 4)}, "invalid probability bound"),
        (BinomialTestSpec(10, "1/2", "1/10"), {"n": 0}, "sample size n must lie"),
        (BinomialTestSpec(10, "1/2", "1/10"), {"sided": "left"}, "sidedness must be one of"),
        (
            LeveledStatement(atom("a"), Fraction(1, 2), 2),
            {"exact_probability": Fraction(1, 3)},
            "below the guaranteed floor",
        ),
    ],
    ids=["level_epsilon", "level_strict", "bound", "spec_n", "spec_sided", "leveled"],
)
def test_replace_checks_as_the_constructor_does(value, change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(value, **change)


def test_replace_converts_as_the_constructor_does():
    level = dataclasses.replace(AcceptanceLevel(Fraction(1, 3)), epsilon="1/4")
    assert level == AcceptanceLevel(Fraction(1, 4)) and type(level.epsilon) is Fraction
    bound = dataclasses.replace(ProbabilityBound("1/4", 1), lower="1/2")
    assert (bound.lower, bound.upper) == (Fraction(1, 2), Fraction(1))


def test_a_slotted_record_keeps_no_instance_dict():
    bound = ProbabilityBound(Fraction(1, 4), Fraction(1, 2))
    assert not hasattr(bound, "__dict__")
    assert ProbabilityBound.__slots__ == ("lower", "upper")
    # the state a pickle of the frozen slotted dataclass held was a list
    assert bound.__getstate__() == [Fraction(1, 4), Fraction(1, 2)]
