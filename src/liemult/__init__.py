"""liemult: exact-arithmetic toolkit for nilpotent Lie algebras.

Builds algebras from structure constants over Q or GF(p), computes lower
central series, centers, quotients and the dimension of the Schur multiplier
(degree-2 homology of the exterior complex), evaluates the bracket-word
tensor maps, and verifies the known upper bounds on the multiplier dimension.
"""

from .algebra import (
    LieAlgebra,
    QuotientPresentation,
    SeriesChain,
    Subspace,
    build,
)
from .bounds import (
    BoundReport,
    bound_report,
    derived_subalgebra_bound,
    main_theorem_bound,
    moneyhun_bound,
    verify_central_quotient_bound,
)
from .catalog import CatalogEntry, abelian, entries, get, standard_filiform
from .errors import LieError
from .fields import QQ, PrimeField, parse_field_spec
from .homology import BoundaryPair, boundary_matrices, multiplier_dim
from .linalg import Matrix, RowSpan
from .words import PsiImage, free_defect, normed_bracket, psi_image_dim, psi_image_dims

__version__ = "0.1.0"

__all__ = [
    "LieAlgebra",
    "QuotientPresentation",
    "SeriesChain",
    "Subspace",
    "build",
    "BoundReport",
    "bound_report",
    "derived_subalgebra_bound",
    "main_theorem_bound",
    "moneyhun_bound",
    "verify_central_quotient_bound",
    "CatalogEntry",
    "abelian",
    "entries",
    "get",
    "standard_filiform",
    "LieError",
    "QQ",
    "PrimeField",
    "parse_field_spec",
    "BoundaryPair",
    "boundary_matrices",
    "multiplier_dim",
    "Matrix",
    "RowSpan",
    "PsiImage",
    "free_defect",
    "normed_bracket",
    "psi_image_dim",
    "psi_image_dims",
    "__version__",
]
