"""The eight result types: fields, construction, repr, equality, immutability."""

import inspect

import pytest

from cfinite.core import CFiniteSeq
from cfinite.corpus import NamedSequence
from cfinite.dimers import DimerProductReport
from cfinite.factor import FactorPair
from cfinite.guess import GuessConfig, PolyRelation, ProofCertificate
from cfinite.roots import ProductVerdict, RepetitionProfile

FIB = CFiniteSeq([0, 1], [1, 1])
PELL = CFiniteSeq([0, 1], [2, 1])
CERT = ProofCertificate(4, 8, "equal", True)
PROFILE = RepetitionProfile((1, 1, 2))
VERDICT = ProductVerdict(True, (2, 2), PROFILE, PROFILE, "")

# (type, fields in order, positional arguments, repr)
RECORDS = [
    (GuessConfig, ("max_order",), (6,), "GuessConfig(max_order=6)"),
    (
        ProofCertificate,
        ("order_bound", "terms_checked", "statement", "verified"),
        (4, 8, "equal", True),
        "ProofCertificate(order_bound=4, terms_checked=8, statement='equal', verified=True)",
    ),
    (
        PolyRelation,
        ("order", "degree", "support", "coefficients"),
        (1, 2, ((2, 0), (0, 2)), (1, -1)),
        "PolyRelation(order=1, degree=2, support=((2, 0), (0, 2)), coefficients=(1, -1))",
    ),
    (
        RepetitionProfile,
        ("multiplicities",),
        ((1, 1, 2),),
        "RepetitionProfile(multiplicities=(1, 1, 2))",
    ),
    (
        ProductVerdict,
        ("is_product", "orders", "expected", "observed", "note"),
        (True, (2, 2), PROFILE, PROFILE, "checked"),
        "ProductVerdict(is_product=True, orders=(2, 2), "
        "expected=RepetitionProfile(multiplicities=(1, 1, 2)), "
        "observed=RepetitionProfile(multiplicities=(1, 1, 2)), note='checked')",
    ),
    (
        FactorPair,
        ("left", "right", "certificate"),
        (FIB, PELL, CERT),
        f"FactorPair(left={FIB!r}, right={PELL!r}, certificate=ProofCertificate("
        "order_bound=4, terms_checked=8, statement='equal', verified=True))",
    ),
    (
        DimerProductReport,
        (
            "width",
            "weights",
            "seq",
            "minimal_order",
            "factor_orders",
            "verdict",
            "applicable",
            "note",
        ),
        (4, (1, 1), FIB, 2, (2,), VERDICT, True, ""),
        f"DimerProductReport(width=4, weights=(1, 1), seq={FIB!r}, "
        "minimal_order=2, factor_orders=(2,), verdict=ProductVerdict("
        "is_product=True, orders=(2, 2), expected=RepetitionProfile(multiplicities="
        "(1, 1, 2)), observed=RepetitionProfile(multiplicities=(1, 1, 2)), note=''), "
        "applicable=True, note='')",
    ),
    (
        NamedSequence,
        ("name", "arity", "builder", "description"),
        ("fib", 0, abs, "Fibonacci"),
        "NamedSequence(name='fib', arity=0, builder=<built-in function abs>, "
        "description='Fibonacci')",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def fields_of(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
class TestRecords:
    def test_fields_in_order(self, cls, names, args, text):
        assert tuple(inspect.signature(cls).parameters) == names

    def test_positional_and_keyword_construction(self, cls, names, args, text):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert fields_of(by_position, names) == fields_of(by_keyword, names) == args

    def test_repr(self, cls, names, args, text):
        assert repr(cls(*args)) == text

    def test_equal_records_hash_alike(self, cls, names, args, text):
        a, b = cls(*args), cls(*args)
        assert a == b and hash(a) == hash(b)

    def test_immutable(self, cls, names, args, text):
        record = cls(*args)
        with pytest.raises(AttributeError):
            setattr(record, names[0], args[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert fields_of(record, names) == args


def test_guess_config_rejects_order_below_1():
    with pytest.raises(ValueError):
        GuessConfig(max_order=0)


def test_repetition_profile_sorts():
    assert RepetitionProfile([2, 1, 1]).multiplicities == (1, 1, 2)
    assert RepetitionProfile([2, 1, 1]) == RepetitionProfile((1, 2, 1))


def test_product_verdict_note_defaults_to_empty():
    assert ProductVerdict(False, (2, 2), PROFILE, PROFILE).note == ""


def test_records_are_tuples():
    # records unpack, index and compare equal to the plain tuple of their fields
    left, right, cert = FactorPair(FIB, PELL, CERT)
    assert (left, right, cert) == (FIB, PELL, CERT)
    assert GuessConfig(6)[0] == 6
    assert ProofCertificate(4, 8, "equal", True) == (4, 8, "equal", True)
    assert RepetitionProfile([2, 1]) == ((1, 2),)
    assert len(VERDICT) == 5
    assert all(cls._fields == names for cls, names, *_ in RECORDS)


def test_str_of_records_without_their_own_is_the_repr():
    assert str(GuessConfig(6)) == "GuessConfig(max_order=6)"
    assert str(NamedSequence("fib", 0, abs, "F")) == repr(NamedSequence("fib", 0, abs, "F"))
