"""Exact-arithmetic toolkit: root data, central-quotient lifting obstructions,
spin branching and plethysm identities, quadratic form invariants, and the
Heisenberg local-global conjugacy laboratory.

The names below are loaded from their layer on first use, so importing one
layer (``liftcalc.heisenberg``, say) does not load the others.
"""

from importlib import import_module

_EXPORTS = {
    "intmat": (
        "BoundError",
        "FinAbGroup",
        "InputError",
        "IntMatrix",
        "SmithForm",
        "cokernel_invariants",
        "ext1_to_Z",
        "smith_normal_form",
        "torus_lift",
    ),
    "rootdata": (
        "BasedRootDatum",
        "CentralQuotientData",
        "center_characters",
        "central_quotient_data",
        "datum_by_name",
        "dual",
        "half_sum_positive_roots",
        "simple_type",
        "validate",
    ),
    "cmdata": (
        "CMEmbeddingData",
        "galois_char_feasible",
        "hecke_extension_feasible",
    ),
    "lifting": (
        "HodgeFamily",
        "ObstructionReport",
        "ParameterPair",
        "algebraicity_class",
        "classify_simple_types",
        "geometric_lift_exists",
        "lift_archimedean_parameter",
        "obstruction_classes",
        "twist_by_witness",
    ),
    "weights": (
        "LatticeMap",
        "WeightMultiset",
        "center_action_parity",
        "irrep_weight_multiset",
        "kuga_satake_embedding",
        "restrict_multiset",
        "spin_weight_multiset",
        "verify_plethysm",
        "verify_spin_branching",
        "verify_spin_factorization",
        "weyl_dimension",
    ),
    "qforms": (
        "QForm",
        "QFormInvariants",
        "diagonalize",
        "even_clifford_split",
        "hilbert_symbol",
        "invariants",
        "k3_primitive",
    ),
    "heisenberg": (
        "HeisenbergGroup",
        "MonomialRep",
        "elementwise_projective_conjugate",
        "globally_twist_equivalent",
        "heisenberg_group",
        "rep_determinant",
        "rep_rho",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_LAYER_OF]
__version__ = "0.1.0"


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value
