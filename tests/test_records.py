"""The records: immutable, compared by their fields and hashed by them when
they are hashable, with the repr a generated class would have, and a field
constructor taking the fields positionally or by name. Metrics and the two
circles are views of a triangle's frame and have no field constructor."""

import copy
import pickle

import pytest

from cuoco import circles, decomposition, figures, geometry, three_sum
from cuoco.circles import CircumcircleData, IncircleData, circumcircle, incircle
from cuoco.decomposition import (CuocoDecomposition, DerivationStep, DerivationTrace, PairAreas,
                                 RectanglePanel, SimilarityReport, SquareOnSide, build,
                                 derive_cosine_theorem)
from cuoco.figures import FigureSpec
from cuoco.geometry import Classification, Point, Triangle, TriangleMetrics, _point
from cuoco.three_sum import InterpretationReport, Solution, ThreeSum, interpret_sides


def _triangle(**fields):
    return Triangle(**{"A": Point(0, 0), "B": Point(1, 0), "C": Point(0, 1), **fields})


def _right():
    """The 5-3-4 triangle, right at A, with integer vertices."""
    return _triangle(B=Point(4, 0), C=Point(0, 3))


UNIT_SQUARE = (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))
UNIT_SQUARE_TEXT = "(Point(x=0, y=0), Point(x=1, y=0), Point(x=1, y=1), Point(x=0, y=1))"
RIGHT_TEXT = "Triangle(A=Point(x=0, y=0), B=Point(x=4, y=0), C=Point(x=0, y=3))"

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
    (Solution, {"x": 0.5, "y": 1.5, "z": 2.5}, (0.5, 1.5, 2.5), "Solution(x=0.5, y=1.5, z=2.5)"),
    (PairAreas, {"R": 1.5, "S": -2, "T": 0}, (1.5, -2, 0), "PairAreas(R=1.5, S=-2, T=0)"),
    (SquareOnSide, {"side": "c", "vertices": UNIT_SQUARE}, ("c", UNIT_SQUARE),
     f"SquareOnSide(side='c', vertices={UNIT_SQUARE_TEXT})"),
    (RectanglePanel, {"label": "S2", "host": "c", "signed_area": -1, "quad": UNIT_SQUARE},
     ("S2", "c", -1, UNIT_SQUARE),
     f"RectanglePanel(label='S2', host='c', signed_area=-1, quad={UNIT_SQUARE_TEXT})"),
    (SimilarityReport, {"vertex": "B", "ch": 3.0, "ck": 4.5, "residual": 0.0, "scale": 12.0},
     ("B", 3.0, 4.5, 0.0, 12.0),
     "SimilarityReport(vertex='B', ch=3.0, ck=4.5, residual=0.0, scale=12.0)"),
    (DerivationStep, {"expression": "R1 + T2", "panels": ("R1", "T2"), "value": 25},
     ("R1 + T2", ("R1", "T2"), 25), "DerivationStep(expression='R1 + T2', panels=('R1', 'T2'), value=25)"),
]
STEPS_TEXT = ", ".join(
    f"DerivationStep(expression={expression!r}, panels={panels!r}, value=25.0)"
    for expression, panels in (("a^2", ()), ("R1 + T2", ("R1", "T2")), ("R2 + T1", ("R2", "T1")),
                               ("(b^2 - S1) + (c^2 - S2)", ("S1", "S2")),
                               ("b^2 + c^2 - 2*S", ("S1", "S2"))))
# (type, a builder of a new value, some of its fields, repr or None) of every
# record type; the builders' records are of the 5-3-4 triangle. A None repr
# is the one the fields give, each as its value's repr.
RECORDS = [
    *((cls, lambda cls=cls, fields=fields: cls(**fields), fields, text)
      for cls, fields, _, text in CONSTRUCTED),
    (TriangleMetrics, lambda: _right().metrics,
     {"a": 5.0, "b": 3.0, "c": 4.0, "alpha": 1.5707963267948966, "beta": 0.6435011087932844,
      "gamma": 0.9272952180016122, "s": 6.0, "area": 6.0, "cosines": (0.0, 0.8, 0.6)},
     "TriangleMetrics(a=5.0, b=3.0, c=4.0, alpha=1.5707963267948966, beta=0.6435011087932844, "
     "gamma=0.9272952180016122, s=6.0, area=6.0, cosines=(0.0, 0.8, 0.6))"),
    (IncircleData, lambda: incircle(_right()),
     {"triangle": _right(), "center": Point(1.0, 1.0), "radius": 1.0,
      "tangent_lengths": {"A": 1.0, "B": 3.0, "C": 2.0}},
     f"IncircleData(triangle={RIGHT_TEXT}, center=Point(x=1.0, y=1.0), radius=1.0, "
     "tangent_points={'a': Point(x=1.6, y=1.7999999999999998), 'b': Point(x=0.0, y=1.0), "
     "'c': Point(x=1.0, y=0.0)}, tangent_params={'a': 0.6, 'b': 0.6666666666666666, 'c': 0.25}, "
     "tangent_lengths={'A': 1.0, 'B': 3.0, 'C': 2.0})"),
    (CircumcircleData, lambda: circumcircle(_right()),
     {"triangle": _right(), "center": Point(2.0, 1.5), "radius": 2.5},
     f"CircumcircleData(triangle={RIGHT_TEXT}, center=Point(x=2.0, y=1.5), radius=2.5, "
     "splits={'A': {'B': 0.6435011087932844, 'C': 0.9272952180016122}, "
     "'B': {'C': 0.0, 'A': 0.6435011087932844}, 'C': {'A': 0.9272952180016122, 'B': 0.0}})"),
    (CuocoDecomposition, lambda: build(_right()),
     {"triangle": _right(), "metrics": _right().metrics, "pair_areas": PairAreas(9, 0, 16)}, None),
    (DerivationTrace, lambda: derive_cosine_theorem(build(_right())),
     {"residual": 0.0, "max_deviation": 0.0},
     f"DerivationTrace(steps=({STEPS_TEXT}), residual=0.0, max_deviation=0.0)"),
    (InterpretationReport, lambda: interpret_sides(incircle(_right())),
     {"kind": "sides", "system": ThreeSum(5.0, 3.0, 4.0), "solution": Solution(2.0, 3.0, 1.0)},
     "InterpretationReport(kind='sides', system=ThreeSum(L=5.0, M=3.0, N=4.0), "
     "solution=Solution(x=2.0, y=3.0, z=1.0), mapping={'x': 'tangent length at C', "
     "'y': 'tangent length at B', 'z': 'tangent length at A'}, "
     "geometric={'x': 2.0, 'y': 3.0, 'z': 1.0}, closed_form={'x': 2.0, 'y': 3.0, 'z': 1.0}, "
     "max_residual=0.0, all_positive=True, classification=Classification(kind='right', "
     "vertex='A'), acute_iff_positive=None, passed=True)"),
]
RECORD_TYPES = pytest.mark.parametrize("cls, build, fields, text", RECORDS,
                                       ids=[row[0].__name__ for row in RECORDS])
VIEWS = (TriangleMetrics, IncircleData, CircumcircleData)
ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"])


def _repr(obj, text):
    """text, or for None the repr the record's fields give."""
    shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in obj._fields)
    return text or f"{type(obj).__name__}({shown})"


def _hash(obj):
    """hash(obj), or None for a record with a dict among its fields, which
    raises TypeError as a tuple holding a dict does."""
    try:
        return hash(obj)
    except TypeError:
        assert any(isinstance(value, dict) for value in obj._values(obj))
        return None


class TestFrozenTypes:
    def test_every_public_record_type_is_listed(self):
        public = {value for module in (geometry, decomposition, three_sum, circles, figures)
                  for name, value in vars(module).items()
                  if not name.startswith("_") and isinstance(value, type)
                  and issubclass(value, geometry._Record)}
        assert public == {row[0] for row in RECORDS}

    @RECORD_TYPES
    def test_fields(self, cls, build, fields, text):
        obj = build()
        assert {name: getattr(obj, name) for name in fields} == fields
        assert set(fields) <= set(cls._fields)

    @RECORD_TYPES
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

    @RECORD_TYPES
    def test_equal_fields_give_equal_objects_and_hashes(self, cls, build, fields, text):
        first, second = build(), build()
        assert first is not second
        assert first == second and not first != second
        assert _hash(first) == _hash(second)
        if _hash(first) is not None:
            assert len({first, second}) == 1

    @RECORD_TYPES
    def test_repr(self, cls, build, fields, text):
        obj = build()
        assert repr(obj) == _repr(obj, text)

    @pytest.mark.parametrize("cls, fields, positional, text", CONSTRUCTED,
                             ids=[row[0].__name__ for row in CONSTRUCTED])
    def test_keyword_and_positional_construction_agree(self, cls, fields, positional, text):
        obj = cls(**fields)
        for name, value in fields.items():
            assert getattr(obj, name) == value
        assert obj == cls(*positional)

    @RECORD_TYPES
    @ROUND_TRIPS
    def test_copy_and_pickle_give_equal_objects(self, cls, build, fields, text, round_trip):
        obj = build()
        other = round_trip(obj)
        assert type(other) is cls
        assert other == obj and _hash(other) == _hash(obj)
        assert repr(other) == _repr(obj, text)

    @RECORD_TYPES
    def test_slotted_without_instance_dict(self, cls, build, fields, text):
        obj = build()
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "unknown", 1)


@pytest.mark.parametrize("values, named", [
    ((1, 2), {}), ((1, 2, 3, 4), {}), ((1, 2), {"U": 3}), ((1, 2, 3), {"T": 4}),
    ((1,), {"R": 2, "T": 3}), ((), {"R": 1, "S": 2, "T": 3, "U": 4})],
    ids=["missing", "extra", "unknown", "repeated", "repeated-first", "unknown-named"])
def test_field_constructor_refuses_a_missing_or_extra_field(values, named):
    with pytest.raises(TypeError, match=r"PairAreas\(\) takes each of its fields \(R, S, T\) once"):
        PairAreas(*values, **named)
    assert PairAreas(1, 2, T=3) == PairAreas(1, S=2, T=3) == PairAreas(T=3, R=1, S=2)


@pytest.mark.parametrize("cls", VIEWS, ids=[cls.__name__ for cls in VIEWS])
def test_views_have_no_field_constructor(cls):
    view = next(build for row_cls, build, _, _ in RECORDS if row_cls is cls)()
    fields = {name: getattr(view, name) for name in cls._fields}
    for args, kwargs in (((), {}), (tuple(fields.values()), {}), ((), fields)):
        with pytest.raises(TypeError, match="is a view and has no field constructor"):
            cls(*args, **kwargs)


@ROUND_TRIPS
def test_metrics_copies_carry_the_frame(round_trip):
    # A copy is the view of the whole frame, constructions and all, not of
    # a frame rebuilt from the nine fields.
    t = _right()
    other = round_trip(t.metrics)
    assert other.frame == t.frame
    assert other.classification == t.metrics.classification


@pytest.mark.parametrize("view", [incircle, circumcircle], ids=["incircle", "circumcircle"])
@ROUND_TRIPS
def test_circle_copies_are_views_of_the_triangle(view, round_trip):
    t = _right()
    other = round_trip(view(t))
    assert other.triangle == t and other.triangle.frame == t.frame
    # Each read builds a fresh value, equal to the last.
    assert other.center == other.center and other.center is not other.center


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
