"""Exact-arithmetic tools for divisibility bounds on Seiberg-Witten
invariants, definite unimodular lattices, and degree computations for
finite-dimensional reductions of compact perturbations of the identity.

Importing the package loads none of its submodules.  Each public name
below is looked up in its submodule on first use (PEP 562), so a
process loads only the layers it calls.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("chamber", ("ChamberCount", "LatitudePath", "make_path",
                 "signed_preimage_count", "wall_crossing_jump")),
    ("chern", ("HClass", "KClass", "chern_character",
               "chern_character_inverse_monomial",
               "minimal_integral_multiplier", "one_minus_exp")),
    ("degree", ("brouwer_degree",)),
    ("divisibility", ("DivisibilityReport", "hurewicz_cokernel_order",
                      "hurewicz_kernel_order", "sharpness_scan",
                      "sw_divisibility_lower_bound")),
    ("fourmanifold", ("DonaldsonVerdict", "FourManifoldData",
                      "dirac_index_d", "divisibility_constraint",
                      "donaldson_k", "expected_moduli_dimension",
                      "k_from_bplus")),
    ("lattices", ("AdmissibilityVerdict", "GramMatrix", "LatticeVector",
                  "ValidationResult", "diagonal_witness",
                  "donaldson_admissible", "e8_gram",
                  "enumerate_coset_by_norm", "find_characteristic",
                  "is_characteristic", "minus_identity", "validate")),
    ("rational", ("format_rational", "parse_rational")),
    ("reduction", ("DegreeReport", "MissVerdict", "PiecewisePolynomialMap",
                   "PolynomialMap", "ProperDemoReport", "ReductionProblem",
                   "StabilityVerdict", "builtin_compact",
                   "choose_reduction_subspace", "proper_not_bounded_demo",
                   "reduce_and_degree", "stability_check",
                   "verify_miss_condition")),
    ("series", ("TruncatedSeries", "log_one_minus", "taylor_coefficients_a")),
) for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
