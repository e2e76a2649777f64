"""Exact and numeric certificates for trees whose Laplacian reaches the
maximal eigenvalue multiplicity p-1 (p = number of pendant vertices).

The package decides when the bound is attained, lists the attaining
eigenvalues, constructs explicit eigenvector bases, classifies the
multiplicity of the eigenvalue 1, and sweeps all small trees with every
verdict cross-checked between independent exact and floating-point routes.
"""

__version__ = "0.1.0"

from .trees import (
    Tree,
    from_edge_list,
    single_vertex,
    parse_edge_list_text,
    distance,
    path_between,
)
from .exact import (
    LambdaParam,
    IntPolynomial,
    laplacian,
    tree_inertia,
    rational_nullity,
    char_poly,
    cyclotomic,
    minimal_poly_lambda,
    root_multiplicity,
    multiplicity_exact,
)
from .numeric import (
    Spectrum,
    eigen_symmetric,
    cluster_multiplicity,
    residual_norm,
    numeric_rank,
)
from .construct import (
    EigenPair,
    ConstructionTrace,
    path_eigenpair,
    path_internal_zero_vector,
    eigenbasis_extremal,
)
from .classify import (
    CongruenceCertificate,
    GammaWitness,
    ClassificationReport,
    pendant_distance_gcd,
    admissible_q,
    is_extremal,
    extremal_lambda_set,
    has_unit_extremal,
    in_gamma,
    classify_m1,
)
from .census import (
    ORDER_CAP,
    CatalogEntry,
    Certificate,
    certify,
    free_trees,
    canonical_form,
    canonical_relabel,
    prufer_count_oracle,
    tree_name,
    build_catalog,
)
from . import errors

__all__ = [
    "__version__",
    "errors",
    # trees
    "Tree",
    "from_edge_list",
    "single_vertex",
    "parse_edge_list_text",
    "distance",
    "path_between",
    # exact
    "LambdaParam",
    "IntPolynomial",
    "laplacian",
    "tree_inertia",
    "rational_nullity",
    "char_poly",
    "cyclotomic",
    "minimal_poly_lambda",
    "root_multiplicity",
    "multiplicity_exact",
    # numeric
    "Spectrum",
    "eigen_symmetric",
    "cluster_multiplicity",
    "residual_norm",
    "numeric_rank",
    # construct
    "EigenPair",
    "ConstructionTrace",
    "path_eigenpair",
    "path_internal_zero_vector",
    "eigenbasis_extremal",
    # classify
    "CongruenceCertificate",
    "GammaWitness",
    "ClassificationReport",
    "pendant_distance_gcd",
    "admissible_q",
    "is_extremal",
    "extremal_lambda_set",
    "has_unit_extremal",
    "in_gamma",
    "classify_m1",
    # census
    "ORDER_CAP",
    "CatalogEntry",
    "Certificate",
    "certify",
    "free_trees",
    "canonical_form",
    "canonical_relabel",
    "prufer_count_oracle",
    "tree_name",
    "build_catalog",
]
