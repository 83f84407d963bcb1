"""Exact computation of graded dimensions for quadratic path-algebra
quotients: quiver doubles and their preprojective-style relations, matrix
Hilbert series, Koszulity evidence, and integer torsion reports."""

from .field import QQ, FieldError, FieldSpec
from .quiver import (
    Arrow,
    Classification,
    DYNKIN,
    EXTENDED,
    OTHER,
    Quiver,
    QuiverError,
    adjacency_double,
    classify,
    double,
    find_extended_dynkin_subquiver,
    parse_quiver,
    relation_count_matrix,
)
from .series import (
    CompareResult,
    EQUAL,
    FIRST_GEQ,
    FIRST_LEQ,
    INCOMPARABLE,
    MatrixSeries,
    closed_form,
    free_product_series,
    identity_series,
    inverse,
    termwise_compare,
)
from .algebra import (
    AlgebraError,
    GradedEngine,
    Generator,
    Presentation,
    Relation,
    associated_graded,
    free_product,
    generator_matrix,
    hilbert_series,
    preprojective_presentation,
    relation_dim_matrix,
)
from .koszul import (
    GSReport,
    KoszulVerdict,
    TorTable,
    golod_shafarevich_check,
    koszul_complex_kernel,
    koszulity_verdict,
    tor_dimensions,
)
from .torsion import (
    BlockReport,
    SmithReport,
    TorsionError,
    torsion_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
