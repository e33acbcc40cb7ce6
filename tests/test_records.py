"""The contract every swcohom record keeps: a fixed repr, read-only
fields, equality and hashing by field values, and copies equal to the
original.
"""

import copy
from fractions import Fraction

import pytest

from swcohom.chamber import make_path, signed_preimage_count
from swcohom.divisibility import sw_divisibility_lower_bound
from swcohom.fourmanifold import FourManifoldData, donaldson_k
from swcohom.lattices import (
    GramMatrix,
    LatticeVector,
    ValidationResult,
    donaldson_admissible,
    e8_gram,
    minus_identity,
)
from swcohom.reduction import (
    DegreeReport,
    MissVerdict,
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
