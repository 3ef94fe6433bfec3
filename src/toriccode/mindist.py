"""Minimum distance of parameterized codes.

Three routes: exhaustive search over projective codeword classes, an
information-set search, and the closed torus formula (exact when X is the
full torus, an upper bound delta'_d under the rank/normality hypotheses
otherwise).  `min_distance` chooses among them.  Every result is an
interval [lower, value] that holds delta; it is a single number when exact.

Information-set search enumerates, for w = 1, 2, ..., every codeword with
at most w nonzeros on an information set I, and stops as soon as a lower
bound on the weight of all codewords not yet seen reaches the lightest one
found.  On C_X(d) one systematic form suffices.  X permutes the
coordinates regularly (p -> x*p) and maps the code to itself, so a
codeword with at most w nonzeros on a translate x*I is moved by x to one
with at most w nonzeros on I, which was enumerated.  A lighter codeword
thus has at least w+1 nonzeros on each of the n translates, and as every
coordinate lies in k of them, its weight is at least ceil(n(w+1)/k): Chen's
bound for cyclic codes, for a regular group action.  A code without that
structure (`LinearCode.transitive` false) is searched Brouwer-Zimmermann
style, on systematic forms over disjoint information sets with the bound
sum_j max(0, w+1 - deficit_j).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from . import _linalg
from .clutter import Clutter, incidence, uniformity
from .errors import BudgetExceededError
from .eval_code import LinearCode, _hilbert_counts, code
from .finite_field import FiniteField
from .intlattice import rank_rational
from .toric_set import ToricSet, enumerate_X, equals_torus

DEFAULT_CLASS_BUDGET = 10 ** 7
METHODS = ("auto", "bruteforce", "isd", "formula")
_CHUNK_ROWS = 1 << 14


@dataclass
class DistanceResult:
    """delta lies in [lower, value]; both equal it when exact."""

    value: int  # an upper bound: the weight of `witness` when there is one
    method: str  # bruteforce | isd | formula | regularity | bound-only
    exact: bool
    witness: np.ndarray | None = None  # a codeword of weight == value, encodings
    lower: int = 1

    def __post_init__(self):
        if self.exact:
            self.lower = self.value

    def __repr__(self):
        if self.exact:
            return f"DistanceResult({self.value}, {self.method}, exact)"
        return f"DistanceResult([{self.lower}, {self.value}], {self.method})"


def _message_blocks(q: int, k: int):
    """All nonzero messages of length k up to scalar: first nonzero entry 1.

    Yields (pivot, tail_matrix) chunks; the message is e_pivot followed by
    the free tail on coordinates pivot+1..k-1.
    """
    for pivot in range(k):
        free = k - pivot - 1
        total = q ** free
        radix = q ** np.arange(free, dtype=np.int64)
        for start in range(0, total, _CHUNK_ROWS):
            ids = np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)
            tails = (ids[:, None] // radix[None, :]) % q
            yield pivot, tails


def _encode(F: FiniteField, messages: np.ndarray, G: np.ndarray) -> np.ndarray:
    """messages (r x k) times G (k x n) over the field."""
    r = messages.shape[0]
    out = np.zeros((r, G.shape[1]), dtype=F.dtype)
    for j in range(G.shape[0]):
        col = messages[:, j]
        nz = np.nonzero(col)[0]
        if nz.size:
            out[nz] = F.add(out[nz], F.mul(col[nz, None].astype(F.dtype), G[j][None, :]))
    return out


def min_distance_bruteforce(
    C: LinearCode,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> DistanceResult:
    """Exhaustive minimum distance over one codeword per scalar class.

    The time budget is checked between message blocks.  On expiry the
    lightest codeword so far is returned with exact=False and lower 1.
    """
    F = C.field
    q = F.q
    k = C.dimension
    if k == 0:
        raise ValueError("zero code has no minimum distance")
    classes = (q ** k - 1) // (q - 1)
    if classes > class_budget:
        raise BudgetExceededError(
            f"{classes} projective classes > budget {class_budget}; use isd"
        )
    start = time.monotonic()
    best = None
    witness = None
    for pivot, tails in _message_blocks(q, k):
        if (
            best is not None
            and time_budget is not None
            and time.monotonic() - start > time_budget
        ):
            return DistanceResult(best, "bruteforce", exact=False, witness=witness)
        rows = tails.shape[0]
        msgs = np.zeros((rows, k), dtype=F.dtype)
        msgs[:, pivot] = 1
        if tails.shape[1]:
            msgs[:, pivot + 1 :] = tails
        words = _encode(F, msgs, C.generator)
        weights = np.count_nonzero(words, axis=1)
        i = int(np.argmin(weights))
        if best is None or weights[i] < best:
            best = int(weights[i])
            witness = words[i].copy()
    return DistanceResult(value=best, method="bruteforce", exact=True, witness=witness)


def _systematic_forms(F: FiniteField, G: np.ndarray):
    """Maximal family of systematic forms on pairwise-disjoint information
    sets, rank-completing trailing partial sets from already-used columns.

    Returns (forms, deficits): each form is a k x n matrix in RREF, and its
    deficit is the number of its pivots on already-used columns.
    """
    k, n = G.shape
    used = np.zeros(n, dtype=bool)
    forms, deficits = [], []
    while True:
        order = [c for c in range(n) if not used[c]] + [c for c in range(n) if used[c]]
        R, pivots = _linalg.rref(F, G, col_order=order)
        fresh = [c for c in pivots if not used[c]]
        if not fresh:
            break
        forms.append(R)
        deficits.append(k - len(fresh))
        for c in fresh:
            used[c] = True
    return forms, deficits


def _coeff_patterns(F: FiniteField, w: int) -> np.ndarray:
    """Nonzero coefficient tuples of length w with first entry 1 (projective)."""
    units = F.exp.astype(np.int64)
    if w == 1:
        return np.ones((1, 1), dtype=np.int64)
    total = (F.q - 1) ** (w - 1)
    radix = (F.q - 1) ** np.arange(w - 1, dtype=np.int64)
    ids = np.arange(total, dtype=np.int64)
    pat = np.ones((total, w), dtype=np.int64)
    pat[:, 1:] = units[(ids[:, None] // radix[None, :]) % (F.q - 1)]
    return pat


def min_distance_isd(
    C: LinearCode, time_budget: float | None = None
) -> DistanceResult:
    """Information-set search (see the module docstring).

    Enumerates messages of increasing weight w on each systematic form: one
    form with the bound ceil(n(w+1)/k) when C is transitive, else the
    Brouwer-Zimmermann forms and bound.  Stops as soon as the bound after
    weight w reaches the lightest codeword seen.  On time budget exhaustion
    that weight is returned with exact=False, and `lower` is the bound
    after the last completed weight.
    """
    F = C.field
    k, n = C.generator.shape
    if k == 0:
        raise ValueError("zero code has no minimum distance")
    start = time.monotonic()
    if C.transitive:
        forms = [_linalg.rref(F, C.generator)[0]]

        def bound(w):
            return -(-n * (w + 1) // k)
    else:
        forms, deficits = _systematic_forms(F, C.generator)

        def bound(w):
            return sum(max(0, w + 1 - d) for d in deficits)

    upper = None
    witness = None
    for w in range(1, k + 1):
        patterns = _coeff_patterns(F, w)
        support_chunk = max(1, (1 << 20) // max(1, patterns.shape[0] * n))
        for G_sys in forms:
            combos = combinations(range(k), w)
            while True:
                batch = list(islice(combos, support_chunk))
                if not batch:
                    break
                if time_budget is not None and time.monotonic() - start > time_budget:
                    value = n if upper is None else upper
                    return DistanceResult(
                        value=value,
                        method="isd",
                        exact=False,
                        witness=witness,
                        lower=min(value, bound(w - 1)),
                    )
                sel = np.array(batch, dtype=np.int64)  # (b, w) row indices
                rows = G_sys[sel]  # (b, w, n)
                words = np.zeros((sel.shape[0], patterns.shape[0], n), dtype=F.dtype)
                for t in range(w):
                    coeff = patterns[:, t].astype(F.dtype)  # (P,)
                    prod = F.mul(coeff[None, :, None], rows[:, t, :][:, None, :])
                    words = F.add(words, prod)
                weights = np.count_nonzero(words, axis=2)
                i = int(np.argmin(weights))
                bi, pi = divmod(i, patterns.shape[0])
                if upper is None or weights[bi, pi] < upper:
                    upper = int(weights[bi, pi])
                    witness = words[bi, pi].copy()
        if bound(w) >= upper:
            break
    return DistanceResult(value=upper, method="isd", exact=True, witness=witness)


def torus_distance(q: int, n: int, d: int) -> int:
    """Closed-form minimum distance of the degree-d code on the full torus
    in P^(n-1) over GF(q)."""
    if q < 3:
        raise ValueError("need q >= 3")
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 1:
        raise ValueError("need d >= 1")
    reg = (q - 2) * (n - 1)
    if d >= reg:
        return 1
    kk = (d - 1) // (q - 2)
    ell = d - kk * (q - 2)
    return (q - 1) ** (n - kk - 2) * (q - 1 - ell)


def delta_prime(C: Clutter | None, X: ToricSet, d: int) -> int | None:
    """delta'_d: the torus formula in P^(n-1) for a uniform clutter with
    rank(A) = n, an upper bound assuming a normal edge subring; for the
    torus itself (C None) the formula in P^(s-1).  None when it does not
    apply."""
    if C is None:
        return torus_distance(X.field.q, X.s, d)
    uniform, _ = uniformity(C)
    if uniform and rank_rational(incidence(C).A) == C.n:
        return torus_distance(X.field.q, C.n, d)
    return None


def min_distance(
    X: ToricSet,
    d: int,
    reg: int,
    method: str = "auto",
    prime: int | None = None,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> DistanceResult:
    """delta_d of C_X(d) by `method`, for X of regularity reg.

    auto takes the first route that applies: the torus formula; delta = 1
    for d >= reg, where the code is all of GF(q)^|X|; brute force within
    the class budget; information-set search.  formula is the torus formula
    when X is the torus, else `prime` (delta'_d) as an upper bound only.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if d < 1:
        raise ValueError("need d >= 1")
    q = X.field.q
    if method in ("auto", "formula") and equals_torus(X):
        return DistanceResult(torus_distance(q, X.s, d), "formula", exact=True)
    if method == "formula":
        if prime is None:
            raise ValueError(
                "formula method needs X = torus, or a uniform clutter with rank(A) = n"
            )
        return DistanceResult(prime, "bound-only", exact=False)
    if method == "auto" and d >= reg:
        return DistanceResult(1, "regularity", exact=True)
    cd = code(X, d)
    if method == "auto":
        classes = (q ** cd.dimension - 1) // (q - 1)
        method = "bruteforce" if classes <= class_budget else "isd"
    if method == "bruteforce":
        return min_distance_bruteforce(cd, class_budget, time_budget)
    return min_distance_isd(cd, time_budget)


def distance_report(
    C: Clutter,
    F: FiniteField,
    d: int,
    method: str = "auto",
    X: ToricSet | None = None,
    enum_budget: int | None = None,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> dict:
    """Assemble delta_d together with every applicable bound for one degree."""
    if X is None:
        kwargs = {} if enum_budget is None else {"budget": enum_budget}
        X = enumerate_X(C, F, **kwargs)
    counts = _hilbert_counts(X)
    reg = len(counts) - 1
    dim = counts[min(d, reg)]
    prime = delta_prime(C, X, d)
    result = min_distance(X, d, reg, method, prime, class_budget, time_budget)
    report = {
        "d": d,
        "length": len(X),
        "dimension": dim,
        "delta": result.value,
        "delta_method": result.method,
        "delta_exact": result.exact,
        "singleton": len(X) - dim + 1,
        "regularity": reg,
        "delta_one_shortcut": d >= reg,
        "equals_torus": equals_torus(X),
        "delta_prime": prime,
        "delta_prime_note": (
            "upper bound assuming a normal edge subring (user-asserted)"
            if prime is not None
            else "not applicable: needs a uniform clutter with rank(A) = n"
        ),
    }
    if d >= reg and result.exact and result.value != 1:
        raise AssertionError("distance must be 1 at or past the regularity")
    return report
