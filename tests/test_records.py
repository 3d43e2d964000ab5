"""zkit's record classes against the stdlib dataclasses they replace.

Each record class is compared with its dataclass twin (tests/helpers.py)
on sample instances: repr, hash, equality within and across classes,
defaults, and `limits`' replace.  Each record class is also checked on
its own: an instance equals itself without comparing fields, a frozen
one refuses assignment and deletion, __post_init__ sees every field,
and copies and pickles are equal with equal hashes.  The last test
checks that the CLI starts without loading dataclasses or inspect.
"""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import dataclass_twin, record_classes
from zkit import IntegerRing, Limits, PrimeField, Rationals
from zkit.dsl import IntLit
from zkit.limits import current_limits, limits, set_limits
from zkit.records import record, replace

CLASSES = record_classes()
Z = IntegerRing()

# two argument tuples per class whose __post_init__ checks its fields;
# other classes take the generic values below, position by position
SAMPLES = {
    "PrimeField": ((7,), (11,)),
    "ResidueRing": ((6,), (10,)),
    "PolyContext": ((Rationals(), 2, "grevlex"), (PrimeField(5), 1, "lex")),
    "QuotientRing": ((Rationals(), ("x",), (), "grevlex"),
                     (PrimeField(5), ("y",), ((((2,), 1),),), "lex")),
    "Fraction": ((Z, Z.element(2), Z.element(3), 0),
                 (Z, Z.element(5), Z.element(7), 2)),
    "ZarElt": ((Z, (Z.element(2),)), (Z, (Z.element(3), Z.element(5)))),
}
VALUES_A = (1, "a", (2, 3), None, IntLit(4))
VALUES_B = (2, "b", (3,), 0.5, IntLit(5))


def _samples(cls):
    if cls.__name__ in SAMPLES:
        return SAMPLES[cls.__name__]
    n = len(cls.__record_fields__)
    return (tuple(VALUES_A[i % 5] for i in range(n)),
            tuple(VALUES_B[i % 5] for i in range(n)))


def _fields(obj):
    return [(f.name, getattr(obj, f.name))
            for f in dataclasses.fields(obj)]


def _own_repr(cls):
    """True when the class body defines __repr__, which the record keeps."""
    return cls.__repr__ is not IntLit.__repr__


def test_record_classes_are_found():
    modules = {cls.__module__ for cls in CLASSES}
    assert modules == {f"zkit.{m}" for m in (
        "dsl", "poly", "rings", "ideals", "lattice", "localization",
        "gluing", "schemes", "interp", "limits")}
    # a record never extends another record, which dataclass_twin assumes
    for cls in CLASSES:
        assert not any("__record_fields__" in vars(k) for k in cls.__mro__[1:])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_matches_its_dataclass_twin(cls):
    twin = dataclass_twin(cls)
    a, b = _samples(cls)
    recs = [cls(*a), cls(*b), cls(*a)]
    twins = [twin(*a), twin(*b), twin(*a)]
    for rec, tw in zip(recs, twins):
        assert [(n, getattr(rec, n)) for n, _ in _fields(tw)] == _fields(tw)
        if not _own_repr(cls):
            assert repr(rec) == repr(tw)
        # the twin is another class: equal fields never make them equal
        assert rec != tw and tw != rec
        assert rec.__eq__(object()) is NotImplemented
    for i in range(3):
        for j in range(3):
            assert (recs[i] == recs[j]) == (twins[i] == twins[j])
            assert (recs[i] != recs[j]) == (twins[i] != twins[j])
    # each field on its own: compared fields make the instances differ
    for k in range(len(a)):
        mixed = a[:k] + b[k:k + 1] + a[k + 1:]
        rec, tw = cls(*mixed), twin(*mixed)
        assert (rec == recs[0]) == (tw == twins[0])
        if cls.__hash__ is not None:
            assert hash(rec) == hash(tw)
    if twin.__hash__ is None:
        assert cls.__hash__ is None
        return
    assert [hash(r) for r in recs] == [hash(t) for t in twins]
    # with equal hashes and equality, sets and dicts keep one order
    assert ([hash(r) for r in {recs[1]: 0, recs[0]: 1, recs[2]: 2}]
            == [hash(t) for t in {twins[1]: 0, twins[0]: 1, twins[2]: 2}])
    for name in [n for n, _ in _fields(twins[0])] + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(recs[0], name, 1)
        with pytest.raises(AttributeError):
            delattr(recs[0], name)


class _Incomparable:
    """A field value whose __eq__ must not be called."""

    def __eq__(self, other):
        raise AssertionError("a field's __eq__ was called")

    __hash__ = object.__hash__


def _frozen(cls):
    """Frozen records hash; mutable ones have no __hash__."""
    return cls.__hash__ is not None


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_equals_itself_without_comparing_fields(cls):
    obj = cls.__new__(cls)
    vars(obj).update({f.name: _Incomparable() for f in cls.__record_fields__})
    assert obj == obj
    assert not obj != obj


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_frozen_record_refuses_assignment_and_deletion(cls):
    rec = cls(*_samples(cls)[0])
    before = dict(vars(rec))
    for f in cls.__record_fields__:
        if _frozen(cls):
            with pytest.raises(AttributeError):
                setattr(rec, f.name, 1)
            with pytest.raises(AttributeError):
                delattr(rec, f.name)
        else:
            setattr(rec, f.name, 1)
            assert getattr(rec, f.name) == 1
    if _frozen(cls):
        assert vars(rec) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_post_init_sees_every_field(cls, monkeypatch):
    """__post_init__ runs after every field is stored: on the class
    itself where it defines one, and on a record subclass that adds one
    otherwise."""
    args = _samples(cls)[0]
    expected = {f.name: a for f, a in zip(cls.__record_fields__, args)}
    seen = []
    own = vars(cls).get("__post_init__")

    def capture(self):
        seen.append({f.name: getattr(self, f.name)
                     for f in cls.__record_fields__})
        if own is not None:
            own(self)

    if own is not None:
        monkeypatch.setattr(cls, "__post_init__", capture)
        cls(*args)
    else:
        sub = record(frozen=_frozen(cls))(
            type(cls.__name__, (cls,), {"__post_init__": capture}))
        sub(*args)
    assert seen == [expected]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_copies_and_pickles_to_an_equal_object(cls):
    rec = cls(*_samples(cls)[0])
    for other in (copy.copy(rec), copy.deepcopy(rec),
                  pickle.loads(pickle.dumps(rec))):
        assert other.__class__ is rec.__class__
        assert other == rec
        if _frozen(cls):
            assert hash(other) == hash(rec)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_defaults_match_the_twin(cls):
    twin = dataclass_twin(cls)
    required = [f for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    args = _samples(cls)[0][:len(required)]
    if cls.__name__ == "QuotientRing":
        args += (("x",),)  # with no variables the class is FieldRing
    rec, tw = cls(*args), twin(*args)
    assert [(n, getattr(rec, n)) for n, _ in _fields(tw)] == _fields(tw)
    for f in dataclasses.fields(twin):
        assert getattr(cls, f.name, "absent") == getattr(twin, f.name, "absent")
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(cls(*args), f.name) is not getattr(rec, f.name)


def test_interp_records_are_mutable_and_unhashable():
    from zkit.interp import Options, Report
    report = Report()
    report.results.append(1)
    assert Report().results == [] and report.results == [1]
    options = Options(seed=3)
    options.seed = 4
    assert options == Options(seed=4) and options != Options()
    with pytest.raises(TypeError):
        hash(options)


def test_ring_hom_relation_checks_are_evidence_not_data():
    from zkit.rings import RingHom
    twin = dataclass_twin(RingHom)
    a = RingHom(Z, Z, (), (1,))
    b = RingHom(Z, Z, (), (2,))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(twin(Z, Z, (), (1,)))
    assert "relation_checks" not in repr(a)


def test_limits_replace_matches_dataclasses_replace():
    twin = dataclass_twin(Limits)
    for changes in ({}, {"max_pairs": 5}, {"max_exponent": 3,
                                            "check_bases": True}):
        new = replace(Limits(), **changes)
        expected = dataclasses.replace(twin(), **changes)
        assert repr(new) == repr(expected)
        assert hash(new) == hash(expected)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        replace(Limits(), max_paris=5)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        dataclasses.replace(twin(), max_paris=5)
    before = current_limits()
    with limits(max_basis=7) as current:
        assert current == replace(before, max_basis=7)
    assert current_limits() is before
    try:
        assert set_limits(max_pairs=9) == replace(before, max_pairs=9)
    finally:
        set_limits(max_pairs=before.max_pairs)
    assert current_limits() == before


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """The CLI's start-up builds its record classes without the
    dataclasses machinery (and the inspect module it loads).  -S keeps
    site-packages .pth hooks, which may import anything, out of the
    count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, zkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
