"""Exact arithmetic for semistable 3-fold smoothing germs.

Validates singularity germs in normal form, enumerates admissible weighted
blowups, computes valuations, discrepancies and exceptional divisor
equations, takes the singularity census of the blown-up family, resolves the
associated cyclic quotient surfaces, and tracks index-one covers.  All
computations are exact; there is no floating point anywhere.
"""

from .census import (
    CornerEntry,
    InteriorEntry,
    OriginEntry,
    ReducedPerturbation,
    SingularityCensus,
    census,
    corner_singularities,
    interior_census,
    origin_singularity,
    reduced_g_coefficients,
)
from .contractions import (
    ContractionRecord,
    admissible_weights_T,
    build_contraction,
    discrepancy,
    enumerate_contractions,
    fixed_weights_DE,
    is_admissible,
)
from .cover import CoverData, cover_data, verify_cover
from .errors import (
    DomainRejection,
    GermRejection,
    InternalError,
    NonAdmissibleWeight,
    SemistabilityViolation,
    UnsupportedForm,
    ZeroPolynomialError,
)
from .germs import (
    FibreQuotientData,
    GermSpec,
    fibre_singularity,
    isolatedness_probe,
    normal_form,
    validate_germ,
)
from .lattices import (
    QuotientLattice,
    WeightVector,
    fraction_from_str,
    fraction_to_str,
    is_primitive,
    lattice_contains,
    mu_n_character,
    parse_weight,
    weight_in_lattice,
    weight_is_primitive,
)
from .polynomials import (
    GradedPiece,
    SparsePoly,
    format_poly,
    graded_decomposition,
    graded_piece,
    is_homogeneous,
    is_mu_n_invariant,
    monomial_weight,
    poly_from_json,
    poly_to_json,
    squarefree_multiplicities,
    valuation,
    valuation_with_weights,
)
from .resolution import (
    DualGraph,
    GraphVertex,
    SurfaceCone,
    duval_graph,
    fibre_cone,
    hj_evaluate,
    hj_expansion,
    ray_to_weight,
    resolve_cyclic,
    toric_subdivide,
    weight_to_ray,
)

__version__ = "0.1.0"
