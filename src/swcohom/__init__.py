"""Exact-arithmetic tools for divisibility bounds on Seiberg-Witten
invariants, definite unimodular lattices, and degree computations for
finite-dimensional reductions of compact perturbations of the identity.
"""

from .chamber import (
    ChamberCount,
    LatitudePath,
    make_path,
    signed_preimage_count,
    wall_crossing_jump,
)
from .chern import (
    HClass,
    KClass,
    chern_character,
    chern_character_inverse_monomial,
    minimal_integral_multiplier,
    one_minus_exp,
)
from .degree import brouwer_degree
from .divisibility import (
    DivisibilityReport,
    hurewicz_cokernel_order,
    hurewicz_kernel_order,
    k_from_bplus,
    sharpness_scan,
    sw_divisibility_lower_bound,
)
from .fourmanifold import (
    DonaldsonVerdict,
    FourManifoldData,
    dirac_index_d,
    divisibility_constraint,
    donaldson_k,
    expected_moduli_dimension,
)
from .lattices import (
    AdmissibilityVerdict,
    GramMatrix,
    LatticeVector,
    ValidationResult,
    diagonal_witness,
    donaldson_admissible,
    e8_gram,
    enumerate_coset_by_norm,
    find_characteristic,
    is_characteristic,
    minus_identity,
    validate,
)
from .rational import format_rational, parse_rational
from .reduction import (
    DegreeReport,
    MissVerdict,
    PiecewisePolynomialMap,
    PolynomialMap,
    ProperDemoReport,
    ReductionProblem,
    StabilityVerdict,
    builtin_compact,
    choose_reduction_subspace,
    proper_not_bounded_demo,
    reduce_and_degree,
    stability_check,
    verify_miss_condition,
)
from .series import (
    TruncatedSeries,
    compose,
    exp_series,
    log_one_minus,
    taylor_coefficients_a,
)

__version__ = "0.1.0"
