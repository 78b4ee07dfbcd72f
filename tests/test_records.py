"""The value types: immutable, compared and hashed by their fields, with
the repr a generated class would have, and keyword construction. Metrics
are a view of a triangle's frame and have no field constructor."""

import copy
import pickle

import pytest

from cuoco.figures import FigureSpec
from cuoco.geometry import Classification, Point, Triangle, TriangleMetrics, _point
from cuoco.three_sum import ThreeSum


def _triangle(**fields):
    return Triangle(**{"A": Point(0, 0), "B": Point(1, 0), "C": Point(0, 1), **fields})


# (type, keyword fields, the same fields positionally, repr) of the types
# built from their fields.
CONSTRUCTED = [
    (Point, {"x": 1, "y": 2}, (1, 2), "Point(x=1, y=2)"),
    (Triangle, {"A": Point(0, 0), "B": Point(1, 0), "C": Point(0, 1)},
     (Point(0, 0), Point(1, 0), Point(0, 1)),
     "Triangle(A=Point(x=0, y=0), B=Point(x=1, y=0), C=Point(x=0, y=1))"),
    (Classification, {"kind": "obtuse", "vertex": "C"}, ("obtuse", "C"),
     "Classification(kind='obtuse', vertex='C')"),
    (ThreeSum, {"L": 9, "M": 16, "N": 25}, (9, 16, 25), "ThreeSum(L=9, M=16, N=25)"),
    (FigureSpec, {"kind": "cuoco", "precision": 3}, ("cuoco", True, 3),
     "FigureSpec(kind='cuoco', labels=True, precision=3)"),
]
# (type, a builder of a new value, its fields, repr) of every value type: a
# TriangleMetrics is the view of the 5-3-4 triangle's frame, right at A.
FROZEN = [
    *((cls, lambda cls=cls, fields=fields: cls(**fields), fields, text)
      for cls, fields, _, text in CONSTRUCTED),
    (TriangleMetrics, lambda: _triangle(B=Point(4, 0), C=Point(0, 3)).metrics,
     {"a": 5.0, "b": 3.0, "c": 4.0, "alpha": 1.5707963267948966, "beta": 0.6435011087932844,
      "gamma": 0.9272952180016122, "s": 6.0, "area": 6.0, "cosines": (0.0, 0.8, 0.6)},
     "TriangleMetrics(a=5.0, b=3.0, c=4.0, alpha=1.5707963267948966, beta=0.6435011087932844, "
     "gamma=0.9272952180016122, s=6.0, area=6.0, cosines=(0.0, 0.8, 0.6))"),
]
FROZEN_TYPES = pytest.mark.parametrize("cls, build, fields, text", FROZEN,
                                       ids=[row[0].__name__ for row in FROZEN])
ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"])


class TestFrozenTypes:
    @FROZEN_TYPES
    def test_assignment_and_deletion_raise(self, cls, build, fields, text):
        obj = build()
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(obj, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.unknown = 1
        assert getattr(obj, name) == fields[name]

    @FROZEN_TYPES
    def test_equal_fields_give_equal_objects_and_hashes(self, cls, build, fields, text):
        first, second = build(), build()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    @FROZEN_TYPES
    def test_repr(self, cls, build, fields, text):
        assert repr(build()) == text

    @pytest.mark.parametrize("cls, fields, positional, text", CONSTRUCTED,
                             ids=[row[0].__name__ for row in CONSTRUCTED])
    def test_keyword_and_positional_construction_agree(self, cls, fields, positional, text):
        obj = cls(**fields)
        for name, value in fields.items():
            assert getattr(obj, name) == value
        assert obj == cls(*positional)

    @FROZEN_TYPES
    @ROUND_TRIPS
    def test_copy_and_pickle_give_equal_objects(self, cls, build, fields, text, round_trip):
        obj = build()
        other = round_trip(obj)
        assert type(other) is cls
        assert other == obj and hash(other) == hash(obj)
        assert repr(other) == text

    @FROZEN_TYPES
    def test_slotted_without_instance_dict(self, cls, build, fields, text):
        obj = build()
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "unknown", 1)


@ROUND_TRIPS
def test_metrics_copies_carry_the_frame(round_trip):
    # A copy is the view of the whole frame, constructions and all, not of
    # a frame rebuilt from the nine fields.
    t = _triangle(B=Point(4, 0), C=Point(0, 3))
    other = round_trip(t.metrics)
    assert other.frame == t.frame
    assert other.classification == t.metrics.classification
    with pytest.raises(TypeError):
        TriangleMetrics(*(getattr(t.metrics, name) for name in TriangleMetrics._fields))


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
