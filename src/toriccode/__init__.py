"""Parameterized linear codes from clutters over finite fields.

The pipeline: a clutter on n vertices gives s edge monomials, whose
evaluation on the torus (K*)^n cuts out a set X of projective points.
Evaluating all degree-d forms on X yields the code C_X(d).  This package
computes the code parameters, the algebraic invariants of the vanishing
ideal I(X), and the complete-intersection classification of I(X).

Every submodule but `cli` is registered lazily (`importlib.util.LazyLoader`):
it sits in sys.modules and on the package, and runs on the first read of
one of its attributes.  The public names resolve through `__getattr__` from
`_EXPORTS`, the one table of them.  So importing the package runs no
submodule, importing the CLI runs only `cli`, and neither loads numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the public names, by the submodule that defines each
_EXPORTS = {
    "clutter": (
        "Clutter", "ClutterError", "IncidenceMatrix", "incidence", "load_clutter",
        "parse_clutter", "uniformity",
    ),
    "errors": ("BudgetExceededError",),
    "eval_code": ("LinearCode", "code", "h_vector", "hilbert_function", "regularity"),
    "finite_field": ("FiniteField", "field_from_q", "make_field"),
    "intlattice": (
        "CiReport", "ci_classify", "phi_injective", "profile", "rank_rational", "size_of_X",
        "smith_normal_form",
    ),
    "mindist": (
        "DistanceResult", "distance_report", "min_distance", "min_distance_bruteforce",
        "min_distance_isd", "torus_distance",
    ),
    "toric_set": ("ToricSet", "enumerate_X", "equals_torus", "projective_torus"),
    "vanishing_ideal": (
        "ReducedGB", "binomial_in_IX", "degree_complexity", "hilbert_IA", "interpolate_gb",
        "verify_gb_structure",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _register_lazily(name: str) -> None:
    """Put the submodule in sys.modules and on the package, to run on the
    first read of one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    globals()[name] = module


for _name in (*_EXPORTS, "_linalg", "limits"):
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
