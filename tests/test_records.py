"""The contract every swcohom record keeps: a fixed repr, read-only
fields in a fixed order, construction by position or keyword with its
defaults, equality and hashing by field values as a tuple, and copies
and pickles equal to the original.
"""

import collections
import copy
import keyword
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import swcohom
from swcohom.chamber import ChamberCount, make_path, signed_preimage_count
from swcohom.divisibility import DivisibilityReport, sw_divisibility_lower_bound
from swcohom.fourmanifold import DonaldsonVerdict, FourManifoldData, donaldson_k
from swcohom.lattices import (
    AdmissibilityVerdict,
    GramMatrix,
    LatticeVector,
    ValidationResult,
    donaldson_admissible,
    e8_gram,
    minus_identity,
)
from swcohom.rational import _Record
from swcohom.reduction import (
    DegreeReport,
    MissVerdict,
    ProperDemoReport,
    ReductionProblem,
    StabilityVerdict,
    builtin_compact,
    proper_not_bounded_demo,
)

_ZERO = builtin_compact("zero", 2)

# each factory builds a fresh instance; the pinned reprs keep the
# `Name(field=value, ...)` form that reports and logs have always shown
RECORDS = [
    (lambda: signed_preimage_count(make_path(3), Fraction(1, 2)),
     "ChamberCount(point_angle=Fraction(1, 2), chamber='first_half', "
     "signed_count=4)"),
    (lambda: donaldson_k(-8, 8),
     "DonaldsonVerdict(k=0, admissible=True)"),
    (lambda: ValidationResult(False, "not symmetric"),
     "ValidationResult(valid=False, failure='not symmetric')"),
    (lambda: donaldson_admissible(e8_gram()),
     "AdmissibilityVerdict(admissible=False, min_norm=0, "
     "witness=LatticeVector(coords=(0, 0, 0, 0, 0, 0, 0, 0)), basis=None)"),
    # the reduction layer's rationals are (numerator, denominator) pairs
    (lambda: DegreeReport(subspace_V=(((1, 1), (0, 1)),),
                          reduced_dim=1, degree=-1,
                          miss=MissVerdict(True, (1, 3), 160)),
     "DegreeReport(subspace_V=(((1, 1), (0, 1)),), "
     "reduced_dim=1, degree=-1, "
     "miss=MissVerdict(ok=True, worst_distance_squared=(1, 3), "
     "samples_checked=160))"),
    (lambda: MissVerdict(ok=True, worst_distance_squared=(1, 3),
                         samples_checked=160),
     "MissVerdict(ok=True, worst_distance_squared=(1, 3), "
     "samples_checked=160)"),
    (lambda: StabilityVerdict(1, 1, True),
     "StabilityVerdict(degree_small=1, degree_large=1, equal=True)"),
    (lambda: proper_not_bounded_demo(3),
     "ProperDemoReport(N=3, literal_spike_norms=(Fraction(3, 1), "
     "Fraction(5, 1)), literal_unit_ball_hits=(), "
     "corrected_preimage_norms=(Fraction(15, 8), Fraction(47, 16)), "
     "corrected_value_norms=(Fraction(15, 16), Fraction(31, 32)), "
     "literal_found_unbounded=False, corrected_found_unbounded=True)"),
    (lambda: sw_divisibility_lower_bound(6, 6),
     "DivisibilityReport(d=6, k=6, p=2, kappa=3, a_coeffs=((1, 1), "
     "(1, 1), (11, 12), (5, 6)), "
     "denominators=(1, 1, 12, 6), lower_bound=12, "
     "lemma_cokernel_order=None, sharp=None)"),
    (lambda: FourManifoldData(0, 3, 19, 0),
     "FourManifoldData(b1=0, b_plus=3, b_minus=19, c_squared=0)"),
    (lambda: minus_identity(2),
     "GramMatrix(n=2, entries=((-1, 0), (0, -1)))"),
    (lambda: LatticeVector([1, -2]),
     "LatticeVector(coords=(1, -2))"),
    (lambda: ReductionProblem(2, 2, [[1, 0], [0, 1]], _ZERO, 2),
     "ReductionProblem(domain_dim=2, target_dim=2, "
     "linear_part=(((1, 1), (0, 1)), ((0, 1), (1, 1))), "
     f"compact_part={_ZERO!r}, bound_radius=(2, 1))"),
]


@pytest.mark.parametrize("make, expected", RECORDS,
                         ids=[r[1].partition("(")[0] for r in RECORDS])
def test_record_contract(make, expected):
    a, b = make(), make()
    assert repr(a) == expected
    field = expected.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == b and copy.copy(a) == a
    assert hash(a) == hash(b)


# every record, its fields in order, its constructor's arguments by
# keyword, and the plain tuple it holds when that is not the arguments'
# values (a GramMatrix counts its rows)
CONSTRUCTORS = [
    (ChamberCount, "point_angle chamber signed_count",
     dict(point_angle=Fraction(1, 2), chamber="first_half", signed_count=4),
     None),
    (DonaldsonVerdict, "k admissible", dict(k=0, admissible=True), None),
    (ValidationResult, "valid failure",
     dict(valid=False, failure="not symmetric"), None),
    (AdmissibilityVerdict, "admissible min_norm witness basis",
     dict(admissible=True, min_norm=-2, witness=None,
          basis=(LatticeVector([1, 0]), LatticeVector([0, 1]))), None),
    (DegreeReport, "subspace_V reduced_dim degree miss",
     dict(subspace_V=(((1, 1), (0, 1)),), reduced_dim=1, degree=-1,
          miss=MissVerdict(True, (1, 3), 160)), None),
    (MissVerdict, "ok worst_distance_squared samples_checked",
     dict(ok=True, worst_distance_squared=(1, 3), samples_checked=160), None),
    (StabilityVerdict, "degree_small degree_large equal",
     dict(degree_small=1, degree_large=1, equal=True), None),
    (ProperDemoReport,
     "N literal_spike_norms literal_unit_ball_hits corrected_preimage_norms "
     "corrected_value_norms literal_found_unbounded corrected_found_unbounded",
     dict(N=3, literal_spike_norms=(Fraction(3, 1),), literal_unit_ball_hits=(),
          corrected_preimage_norms=(Fraction(15, 8),),
          corrected_value_norms=(Fraction(15, 16),),
          literal_found_unbounded=False, corrected_found_unbounded=True), None),
    (DivisibilityReport,
     "d k p kappa a_coeffs denominators lower_bound lemma_cokernel_order sharp",
     dict(d=4, k=4, p=1, kappa=2, a_coeffs=((1, 1), (1, 2), (1, 3)),
          denominators=(1, 2, 3), lower_bound=6, lemma_cokernel_order=12,
          sharp=False), None),
    (FourManifoldData, "b1 b_plus b_minus c_squared",
     dict(b1=0, b_plus=3, b_minus=19, c_squared=0), None),
    (GramMatrix, "n entries", dict(entries=((-1, 0), (0, -1))),
     (2, ((-1, 0), (0, -1)))),
    (LatticeVector, "coords", dict(coords=(1, -2)), None),
    (ReductionProblem,
     "domain_dim target_dim linear_part compact_part bound_radius",
     dict(domain_dim=2, target_dim=2,
          linear_part=(((1, 1), (0, 1)), ((0, 1), (1, 1))),
          compact_part=_ZERO, bound_radius=(2, 1)), None),
]


@pytest.mark.parametrize("cls, fields, kwargs, values", CONSTRUCTORS,
                         ids=[row[0].__name__ for row in CONSTRUCTORS])
def test_record_construction(cls, fields, kwargs, values):
    args = tuple(kwargs.values())
    values = args if values is None else values
    record = cls(*args)
    assert record == cls(**kwargs) and type(cls(**kwargs)) is cls
    assert cls._fields == tuple(fields.split())
    assert cls.__match_args__ == cls._fields
    assert [getattr(record, name) for name in cls._fields] == list(values)
    # a tuple: equal to the plain tuple of its values, and unpacked to them
    assert record == values and hash(record) == hash(values)
    first, *rest = record
    assert (first, *rest) == values
    # copy and pickle rebuild the same type, defined where swcohom says,
    # with the same values: a compact part, equal only to itself, is
    # compared by its pickle
    assert cls.__module__ == f"swcohom.{swcohom._EXPORTS[cls.__name__]}"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(record, protocol)
        loaded = pickle.loads(data)
        assert type(loaded) is cls and pickle.dumps(loaded, protocol) == data
    loaded = copy.deepcopy(record)
    assert type(loaded) is cls and pickle.dumps(loaded) == pickle.dumps(record)
    # a missing, extra, repeated or unknown argument
    name = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, **{name: kwargs[name]})
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=None)


def test_record_defaults():
    assert ValidationResult(True) == (True, None)
    assert ValidationResult(True).failure is None
    report = DivisibilityReport(6, 6, 2, 3, ((1, 1),), (1,), 12)
    assert report.lemma_cokernel_order is None and report.sharp is None
    assert report == DivisibilityReport(6, 6, 2, 3, ((1, 1),), (1,), 12,
                                        None, None)


# -- _Record against collections.namedtuple ----------------------------------

_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    # a record's __new__ names cls and calls tuple.__new__
    lambda name: not keyword.iskeyword(name) and name not in ("cls", "tuple"))
_VALUES = st.none() | st.integers() | st.text(max_size=3) | st.tuples(
    st.integers(), st.booleans())


def _record_class(fields, defaults):
    # a record written as the package writes one: a class statement with
    # its own __new__, defaults on the last parameters
    first_default = len(fields) - len(defaults)
    params = ", ".join(
        name if i < first_default else f"{name}=_defaults[{i - first_default}]"
        for i, name in enumerate(fields))
    source = (
        "class Record(_Record):\n"
        "    __slots__ = ()\n"
        f"    _fields = {tuple(fields)!r}\n"
        f"    def __new__(cls, {params}):\n"
        f"        return tuple.__new__(cls, ({''.join(f + ', ' for f in fields)}))\n")
    namespace = {"_Record": _Record, "_defaults": defaults}
    exec(source, namespace)
    return namespace["Record"]


@st.composite
def _classes_and_calls(draw):
    fields = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    defaults = tuple(draw(st.lists(_VALUES, max_size=len(fields))))
    # the first fields by position, now and then one past the last;
    # some of the rest by keyword, and now and then one keyword more,
    # for a field given by position or one the record has not
    args = draw(st.lists(_VALUES, max_size=len(fields) + 1))
    names = [name for name in fields[len(args):] if draw(st.booleans())]
    names += draw(st.lists(st.sampled_from(fields) | _NAMES, max_size=1))
    kwargs = {name: draw(_VALUES) for name in names}
    return fields, defaults, args, kwargs


@given(_classes_and_calls())
def test_record_matches_namedtuple(case):
    fields, defaults, args, kwargs = case
    record = _record_class(fields, defaults)
    oracle = collections.namedtuple("Record", fields, defaults=defaults)
    try:
        expected = oracle(*args, **kwargs)
    except TypeError:
        with pytest.raises(TypeError):
            record(*args, **kwargs)
        return
    got = record(*args, **kwargs)
    assert type(got) is record
    assert tuple(got) == tuple(expected)
    assert repr(got) == repr(expected)
    assert hash(got) == hash(expected)
    assert [getattr(got, name) for name in fields] == list(expected)
