"""The package namespace: every public name, resolved on first use."""

import pkgutil
from importlib import import_module

import pytest

import swcohom

PUBLIC = {
    "AdmissibilityVerdict", "ChamberCount", "DegreeReport",
    "DivisibilityReport", "DonaldsonVerdict", "FourManifoldData",
    "GramMatrix", "HClass", "KClass", "LatitudePath", "LatticeVector",
    "MissVerdict", "PiecewisePolynomialMap", "PolynomialMap",
    "ProperDemoReport", "ReductionProblem", "StabilityVerdict",
    "TruncatedSeries", "ValidationResult", "brouwer_degree",
    "builtin_compact", "chern_character", "chern_character_inverse_monomial",
    "choose_reduction_subspace", "diagonal_witness",
    "dirac_index_d", "divisibility_constraint", "donaldson_admissible",
    "donaldson_k", "e8_gram", "enumerate_coset_by_norm",
    "expected_moduli_dimension", "find_characteristic", "format_rational",
    "hurewicz_cokernel_order", "hurewicz_kernel_order", "is_characteristic",
    "k_from_bplus", "log_one_minus", "make_path",
    "minimal_integral_multiplier", "minus_identity", "one_minus_exp",
    "parse_rational", "proper_not_bounded_demo", "reduce_and_degree",
    "sharpness_scan", "signed_preimage_count", "stability_check",
    "sw_divisibility_lower_bound", "taylor_coefficients_a", "validate",
    "verify_miss_condition", "wall_crossing_jump",
}


def test_all_is_the_public_api():
    assert len(swcohom.__all__) == len(PUBLIC)
    assert set(swcohom.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_name_is_its_defining_modules_object(name):
    value = getattr(swcohom, name)
    module = import_module(value.__module__)
    assert name in module.__all__
    assert getattr(module, name) is value


# cli's one name is main, the in-process entry point, and linalg is an
# internal layer
INTERNAL = {"cli", "linalg"}


@pytest.mark.parametrize("module", sorted(
    {m.name for m in pkgutil.iter_modules(swcohom.__path__)} - INTERNAL))
def test_submodule_all_is_public(module):
    # a name public in its submodule is public in the package too
    assert set(import_module(f"swcohom.{module}").__all__) <= set(swcohom.__all__)


def test_dir_covers_all():
    assert PUBLIC <= set(dir(swcohom))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        swcohom.nope


def test_star_import_binds_every_name():
    namespace = {}
    exec("from swcohom import *", namespace)
    assert PUBLIC <= set(namespace)
