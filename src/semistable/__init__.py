"""Exact arithmetic for semistable 3-fold smoothing germs.

Validates singularity germs in normal form, enumerates admissible weighted
blowups, computes valuations, discrepancies and exceptional divisor
equations, takes the singularity census of the blown-up family, resolves the
associated cyclic quotient surfaces, and tracks index-one covers.  All
computations are exact; there is no floating point anywhere.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a command line process
loads only the modules its subcommand runs.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "census": (
        "CornerEntry", "InteriorEntry", "OriginEntry", "ReducedPerturbation",
        "SingularityCensus", "census", "reduced_g_coefficients",
    ),
    "contractions": (
        "ContractionRecord", "admissible_weights_T", "build_contraction",
        "enumerate_contractions", "fixed_weights_DE", "is_admissible",
    ),
    "cover": ("CoverData", "cover_data", "verify_cover"),
    "errors": (
        "DomainRejection", "GermRejection", "NonAdmissibleWeight",
        "SemistabilityViolation", "UnsupportedForm", "ZeroPolynomialError",
    ),
    "germs": (
        "FibreQuotientData", "GermSpec", "fibre_singularity", "isolatedness_probe",
        "normal_form", "validate_germ",
    ),
    "lattices": (
        "QuotientLattice", "WeightVector", "fraction_to_str", "is_primitive",
        "lattice_contains", "mu_n_character", "parse_weight",
    ),
    "polynomials": (
        "SparsePoly", "format_poly", "poly_from_json", "poly_to_json",
        "squarefree_multiplicities", "valuation_with_weights",
    ),
    "resolution": (
        "DualGraph", "GraphVertex", "SurfaceCone", "duval_graph", "fibre_cone",
        "hj_evaluate", "hj_expansion", "ray_to_weight", "resolve_cyclic",
        "toric_subdivide", "weight_to_ray",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import a public name's module on first use and keep the name here."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _EXPORTS:  # a submodule not imported yet, e.g. semistable.lattices
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    def __setattr__(self, name, value):
        # Loading the submodule semistable.census makes the import system set
        # this package's `census` to the module, in whatever order user code
        # imports things; the public name stays the census function.
        if name == "census" and isinstance(value, type(sys)):
            value = value.census
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
