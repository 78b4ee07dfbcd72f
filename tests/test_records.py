"""The value types: immutable, compared and hashed by their fields, with
the repr a generated class would have, and keyword construction."""

import copy
import pickle

import pytest

from cuoco.figures import FigureSpec
from cuoco.geometry import Classification, Point, Triangle, TriangleMetrics, _point
from cuoco.three_sum import ThreeSum


def _triangle(**fields):
    return Triangle(**{"A": Point(0, 0), "B": Point(1, 0), "C": Point(0, 1), **fields})


# (type, keyword fields, the same fields positionally, repr)
FROZEN = [
    (Point, {"x": 1, "y": 2}, (1, 2), "Point(x=1, y=2)"),
    (Triangle, {"A": Point(0, 0), "B": Point(1, 0), "C": Point(0, 1)},
     (Point(0, 0), Point(1, 0), Point(0, 1)),
     "Triangle(A=Point(x=0, y=0), B=Point(x=1, y=0), C=Point(x=0, y=1))"),
    (TriangleMetrics,
     {"a": 5, "b": 3, "c": 4, "alpha": 1.5, "beta": 0.6, "gamma": 0.9, "s": 6, "area": 6,
      "cosines": (0, 0.8, 0.6)},
     (5, 3, 4, 1.5, 0.6, 0.9, 6, 6, (0, 0.8, 0.6)),
     "TriangleMetrics(a=5, b=3, c=4, alpha=1.5, beta=0.6, gamma=0.9, s=6, area=6, "
     "cosines=(0, 0.8, 0.6))"),
    (Classification, {"kind": "obtuse", "vertex": "C"}, ("obtuse", "C"),
     "Classification(kind='obtuse', vertex='C')"),
    (ThreeSum, {"L": 9, "M": 16, "N": 25}, (9, 16, 25), "ThreeSum(L=9, M=16, N=25)"),
    (FigureSpec, {"kind": "cuoco", "precision": 3}, ("cuoco", True, 3),
     "FigureSpec(kind='cuoco', labels=True, precision=3)"),
]


@pytest.mark.parametrize("cls, fields, positional, text", FROZEN, ids=[row[0].__name__ for row in FROZEN])
class TestFrozenTypes:
    def test_assignment_and_deletion_raise(self, cls, fields, positional, text):
        obj = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(obj, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.unknown = 1
        assert getattr(obj, name) == fields[name]

    def test_equal_fields_give_equal_objects_and_hashes(self, cls, fields, positional, text):
        first, second = cls(**fields), cls(*positional)
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_repr(self, cls, fields, positional, text):
        assert repr(cls(**fields)) == text

    def test_keyword_and_positional_construction_agree(self, cls, fields, positional, text):
        obj = cls(**fields)
        for name, value in fields.items():
            assert getattr(obj, name) == value
        assert obj == cls(*positional)

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                            lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_give_equal_objects(self, cls, fields, positional, text, round_trip):
        obj = cls(**fields)
        other = round_trip(obj)
        assert type(other) is cls
        assert other == obj and hash(other) == hash(obj)
        assert repr(other) == text

    def test_slotted_without_instance_dict(self, cls, fields, positional, text):
        obj = cls(**fields)
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "unknown", 1)


def test_unequal_fields_and_other_types_compare_unequal():
    assert Point(1, 2) != Point(2, 1)
    assert Classification("right", "A") != Classification("right", "B")
    assert Classification("acute") == Classification("acute", None)
    assert ThreeSum(1, 2, 3) != (1, 2, 3)
    assert Point(1, 2).__eq__((1, 2)) is NotImplemented


@pytest.mark.parametrize("x, y", [(1, 2), (0.5, -0.0), (3, 4.25)])
def test_unchecked_point_equals_checked_point(x, y):
    assert _point(x, y) == Point(x, y)
    assert hash(_point(x, y)) == hash(Point(x, y))


def test_triangle_stored_fields_stay_out_of_equality_hash_and_repr():
    first, second = _triangle(), _triangle()
    assert first.metrics.area == 0.5  # computed on construction
    object.__setattr__(second, "twice_area", 99.0)
    object.__setattr__(second, "frame", ())
    assert first == second
    assert hash(first) == hash(second)
    assert repr(second) == repr(first)
    assert "twice_area" not in repr(first) and "frame" not in repr(first)
    assert first != _triangle(C=Point(0, 2))
