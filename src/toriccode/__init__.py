"""Parameterized linear codes from clutters over finite fields.

The pipeline: a clutter on n vertices gives s edge monomials, whose
evaluation on the torus (K*)^n cuts out a set X of projective points.
Evaluating all degree-d forms on X yields the code C_X(d).  This package
computes the code parameters, the algebraic invariants of the vanishing
ideal I(X), and the complete-intersection classification of I(X).
"""

from .clutter import Clutter, ClutterError, IncidenceMatrix, incidence, load_clutter, parse_clutter, uniformity
from .errors import BudgetExceededError
from .eval_code import (
    LinearCode,
    code,
    h_vector,
    hilbert_function,
    regularity,
)
from .finite_field import FiniteField, field_from_q, make_field
from .intlattice import (
    CiReport,
    ci_classify,
    phi_injective,
    rank_rational,
    smith_normal_form,
)
from .mindist import (
    DistanceResult,
    distance_report,
    min_distance,
    min_distance_bruteforce,
    min_distance_isd,
    torus_distance,
)
from .toric_set import ToricSet, enumerate_X, equals_torus, profile, projective_torus, size_of_X
from .vanishing_ideal import (
    ReducedGB,
    binomial_in_IX,
    degree_complexity,
    hilbert_IA,
    interpolate_gb,
    verify_gb_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CiReport",
    "Clutter",
    "ClutterError",
    "DistanceResult",
    "FiniteField",
    "IncidenceMatrix",
    "LinearCode",
    "ReducedGB",
    "ToricSet",
    "binomial_in_IX",
    "ci_classify",
    "code",
    "degree_complexity",
    "distance_report",
    "enumerate_X",
    "equals_torus",
    "field_from_q",
    "h_vector",
    "hilbert_IA",
    "hilbert_function",
    "incidence",
    "interpolate_gb",
    "load_clutter",
    "make_field",
    "min_distance",
    "min_distance_bruteforce",
    "min_distance_isd",
    "parse_clutter",
    "phi_injective",
    "profile",
    "projective_torus",
    "rank_rational",
    "regularity",
    "size_of_X",
    "smith_normal_form",
    "torus_distance",
    "uniformity",
    "verify_gb_structure",
]
