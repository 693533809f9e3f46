"""Gabor frame analysis on finite LCA groups with exact p-adic and S-adelic
lattice arithmetic.

Submodules and exported names load on first use (PEP 562), so the exact
layer (``padic``, ``adeles``) can be used without importing numpy.  A name is
looked up in its submodule on every access and never stored here, so a
wrapper installed on the submodule is always the object returned.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("groups", "gabor", "zak", "padic", "adeles", "experiments")

#: Exported name -> (submodule, attribute).
_EXPORTS = {name: (module, name) for module, names in (
    ("groups", (
        "CARDINALITY_CAP", "CardinalityCapError", "DualElement", "FiniteLcaGroup",
        "GroupElement", "GroupShapeError", "Subgroup", "all_subgroups", "annihilator",
        "coset_transversal", "enumerate_subgroup", "full_subgroup", "lattice_volume",
        "pairing", "pairing_is_one", "parse_group_spec", "trivial_subgroup")),
    ("gabor", (
        "FrameReport", "NotAFrameError", "TfLattice", "WexlerRazResult", "Window",
        "WindowNotOnbError", "adjoint_lattice", "canonical_dual", "commutation_defect",
        "constant_window", "delta_window", "density_check", "fourier_transform",
        "frame_bounds", "frame_operator", "indicator_window", "inverse_fourier_transform",
        "janssen_operator", "lift_finite_index", "push_finite_subgroup", "random_window",
        "s0_norm", "standard_onb", "stft", "tensor_onb", "tf_shift", "tf_shift_plane",
        "wexler_raz_check", "finite_transference_check")),
    ("zak", (
        "ZakGrid", "min_modulus", "plane_quadratic_mass", "quasiperiodicity_residual",
        "zak_frame_bounds", "zak_transform")),
    ("padic", (
        "NotPrimeError", "PadicScalar", "Place", "RationalMatrix", "SingularMatrixError",
        "certify_prime", "in_gl_n_zp", "local_modular", "padic_abs", "valuation")),
    ("adeles", (
        "AdeleAutomorphism", "AdeleLattice", "AdeleVector", "BalianLowVerdict",
        "ModularValue", "PlaceSet", "balian_low_classifier", "deformation_margin",
        "global_modular", "lattice_equality", "lattice_membership",
        "parse_lca_group_spec")),
    ("experiments", (
        "SweepReport", "critical_density_trend", "density_exhaustive",
        "periodized_gaussian", "window_stability_sweep")),
) for name in names}
_EXPORTS["adele_lattice_volume"] = ("adeles", "lattice_volume")

__all__ = sorted([*_SUBMODULES, *_EXPORTS])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(f"{__name__}.{module}"), attr)


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})
