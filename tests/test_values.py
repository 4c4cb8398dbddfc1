"""The package's value classes: equality, hashing, repr, immutability and copies.

SkewShape, CoverMove, KostkaMatrix and ClassSignature are frozen
values; Report is filled in as a suite runs, so it stays mutable and has no hash.
"""

import copy
import pickle

import pytest

from kostka import ClassSignature, CoverMove, KostkaMatrix, Report, SkewShape, kostka_matrix

SHAPE = SkewShape((2, 1))

# class -> (positional arguments, the same values by keyword, its field values in order, its pinned repr)
CASES = {
    CoverMove: (("row", 1, 2), {"kind": "row", "i": 1, "j": 2}, ("row", 1, 2), "CoverMove(kind='row', i=1, j=2)"),
    SkewShape: (
        ((3, 2), (1,)),
        {"outer": [3, 2, 0], "inner": (1,)},
        ((3, 2), (1,)),
        "SkewShape(outer=(3, 2), inner=(1,))",
    ),
    KostkaMatrix: (
        (2, ((2,), (1, 1)), ((1, 1), (0, 1))),
        {"n": 2, "partitions": ((2,), (1, 1)), "values": ((1, 1), (0, 1))},
        (2, ((2,), (1, 1)), ((1, 1), (0, 1))),
        "KostkaMatrix(n=2, partitions=((2,), (1, 1)), values=((1, 1), (0, 1)))",
    ),
    ClassSignature: (
        (SHAPE, 1, (((2, 1), 3),), ((1, 1), (1, 2)), 0, (2, 0)),
        {
            "shape": SHAPE,
            "index": 1,
            "skeleton": (((2, 1), 3),),
            "available": ((1, 1), (1, 2)),
            "paired_columns": 0,
            "row_counts": (2, 0),
        },
        (SHAPE, 1, (((2, 1), 3),), ((1, 1), (1, 2)), 0, (2, 0)),
        "ClassSignature(shape=SkewShape(outer=(2, 1), inner=()), index=1, skeleton=(((2, 1), 3),), "
        "available=((1, 1), (1, 2)), paired_columns=0, row_counts=(2, 0))",
    ),
    Report: (
        ("demo", 3, [{"x": 1}], 0.5),
        {"name": "demo", "checked": 3, "violations": [{"x": 1}], "elapsed": 0.5},
        ("demo", 3, [{"x": 1}], 0.5),
        "Report(name='demo', checked=3, violations=[{'x': 1}], elapsed=0.5)",
    ),
}
FROZEN = [cls for cls in CASES if cls is not Report]
names = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
frozen_names = pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)


def build(cls):
    args, kwargs, _, _ = CASES[cls]
    return cls(*args), cls(**kwargs)


@names
def test_positional_and_keyword_construction_agree(cls):
    a, b = build(cls)
    assert a == b and not a != b
    assert a is not b


@frozen_names
def test_equal_values_hash_alike(cls):
    a, b = build(cls)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_report_has_no_hash():
    with pytest.raises(TypeError):
        hash(Report(name="demo"))


@names
def test_not_equal_to_a_tuple_or_another_class(cls):
    a, _ = build(cls)
    args, _, fields, _ = CASES[cls]
    assert a != fields and fields != a
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert a != subclass(*args)
    for other in CASES:
        if other is not cls:
            assert a != build(other)[0]


def test_unequal_fields_are_unequal():
    assert CoverMove("row", 1, 2) != CoverMove("column", 1, 2)
    assert SkewShape((3, 2), (1,)) != SkewShape((3, 2))
    assert Report(name="demo") != Report(name="demo", checked=1)


@names
def test_repr_is_pinned(cls):
    a, _ = build(cls)
    assert repr(a) == CASES[cls][3]


@frozen_names
def test_assignment_and_deletion_raise(cls):
    a, _ = build(cls)
    field = CASES[cls][3].partition("(")[2].partition("=")[0]
    before = repr(a)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == before


@names
def test_copies_and_pickles_are_equal(cls):
    a, _ = build(cls)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a


def test_matrix_equality_ignores_its_index():
    a, b = build(KostkaMatrix)
    a._index.clear()
    assert a == b and hash(a) == hash(b)
    assert kostka_matrix(2) == b
    assert pickle.loads(pickle.dumps(b)).value((1, 1), (2,)) == 0


def test_reports_do_not_share_violations():
    a, b = Report(name="a"), Report(name="b")
    a.violations.append({"x": 1})
    assert b.violations == [] and Report(name="c").violations == []


def test_report_stays_mutable():
    report = Report(name="demo")
    report.checked = 4
    report.violations += [{"x": 1}]
    assert report == Report("demo", 4, [{"x": 1}])
    assert not report.ok
