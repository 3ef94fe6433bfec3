"""Minimum distance of parameterized codes.

Three routes: exhaustive search over the messages with first coefficient
1, an information-set search, and the closed torus formula (exact when X
is the full torus, an upper bound delta'_d under the rank/normality
hypotheses otherwise).  `min_distance(X, d, method)` chooses among them, and
`distance_report` adds the dimension and the bounds of one degree; both
read the regularity, H_X(d) and Delta_d from the one walk of X
(`eval_code.walk_of`).  Every result is an interval [lower, value] that
holds delta; it is a single number when exact.

`code(X, d)` records on C_X(d) as `LinearCode.floor` a proven lower bound
on delta: the footprint bound of that walk, or the shifted box bound on the
Smith grid of X when that is larger (`eval_code.box_bound`), scanned until
it reaches the lightest generator row.

Both searches are one loop, `_search`, fed by a plan: a generator of
blocks of words to weigh.  The loop weighs the generator rows first, and
returns the lightest exactly when it meets the floor, before the plan takes
a step, so before any table is built and whatever the budgets.  Each block
carries a proven lower bound on the codewords not yet weighed, and the
messages the plan will have weighed at the end of its current stage.  Before
each block the loop raises `lower` to that bound and returns exactly once
the lightest codeword so far meets it; it returns the interval
[lower, lightest] when the messages pass the class budget or the time
budget has run out.  Otherwise it weighs the block and keeps the lightest
codeword as the witness.  A plan that ends leaves an exact result.

* The brute-force plan weighs the q^(k-1) messages with first coefficient
  1, one stage; on its first step it raises BudgetExceededError when they
  exceed the class budget.  It proves no bound, so a time-out reports the
  floor as the lower end.
* The information-set plan weighs the messages of weight w = 1, 2, ...,
  one stage each, and proves Chen's bound after each weight; ceil(n/k)
  counts as proven before the first block.  A stage counts the messages
  up to its weight, so the loop does not start a weight that would take
  their total past the class budget.

Both plans take as given that a group acting regularly on the
coordinates maps the code to itself, as X does on every C_X(d): x in X
moves the point p to x*p and only rescales the evaluation row of each
monomial.  On a code without such an action they still return the weight
of a codeword, but not necessarily the least one.

Information-set search enumerates, for w = 1, 2, ..., every codeword with
at most w nonzeros on the information set I of the generator matrix, which
is in RREF, and stops as soon as a lower bound on the weight of all
codewords not yet seen reaches the lightest one found.  A codeword with at
most w nonzeros on a translate x*I is moved by x to one with at most w
nonzeros on I, which was enumerated.  A lighter codeword thus has at least
w+1 nonzeros on each of the n translates, and as every coordinate lies in k
of them, its weight is at least ceil(n(w+1)/k): Chen's bound for cyclic
codes, for a regular group action.

Brute force weighs only the q^(k-1) messages with first coefficient 1.  In
RREF the pivot column c* of row 0 is e_1, so a message's first coefficient
is its codeword's entry at c*.  Every nonzero codeword has a translate of
the same weight that is nonzero at c*, and a scalar multiple of that
translate has first coefficient 1.

Both plans build words packed (`FiniteField.pack`) from the table
S[u, i] = pack(g^u * row_i) of every unit multiple of every row, built once
per generator matrix, add them with `FiniteField.add_packed`, and the loop
unpacks only the witness.  It weighs words by comparison, not field
arithmetic: wt(a - b) = #{j : a_j != b_j}.  The span of some rows is closed
under negation, and so is the set of unit multiples of one row, so
comparing a with every word b of such a set weighs every a + b as well.
Brute force compares each head word with the whole span of the tail rows
at once; information-set search compares the sum of w-1 scaled rows with
the unit multiples of the w-th.  Apart from S, no array either search
allocates exceeds max(_CELL_CAP, (q-1)n) cells, _CELL_CAP = 2^18 of
`eval_code`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .clutter import Clutter, uniformity
from .errors import BudgetExceededError
from .eval_code import _CELL_CAP, LinearCode, code, walk_of
from .finite_field import FiniteField
from .intlattice import incidence_rank
from .limits import DEFAULT_CLASS_BUDGET, METHODS, field_order, prime_power
from .toric_set import ToricSet, equals_torus


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


def _scaled_rows(F: FiniteField, G: np.ndarray) -> np.ndarray:
    """S[u, i] = pack(g^u * G[i]) for every unit g^u, shape (q-1, k, n)."""
    return F.pack(F.mul(F.exp[:, None, None], G[None, :, :]))


def _weights(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """wt(a - b) along axis: the places where the words differ, for packed
    words and encodings alike."""
    return (a != b).sum(axis=axis, dtype=np.int32)


def _span(F: FiniteField, S: np.ndarray) -> np.ndarray:
    """All q^m combinations of the m rows that S (q-1, m, n) scales, packed,
    one per row of the result, the zero word first."""
    n = S.shape[2]
    B = np.zeros((1, n), dtype=S.dtype)
    for i in range(S.shape[1]):
        B = np.concatenate([B, F.add_packed(S[:, i, None, :], B[None]).reshape(-1, n)])
    return B


def _search(
    C: LinearCode, method: str, plan, class_budget: int, time_budget: float | None
) -> DistanceResult:
    """The one search loop of both methods (see the module docstring).

    Each block of `plan` is (heads, tails, proven, spent): packed words
    heads (..., H, n) and tails (..., T, n), whose differences
    heads[..., i] - tails[..., j] are weighed; `proven`, a lower bound on
    every codeword the plan has not weighed yet; and `spent`, the messages
    the plan will have weighed at the end of its current stage.
    """
    F, G = C.field, C.generator
    if G.shape[0] == 0:
        raise ValueError("zero code has no minimum distance")
    start = time.monotonic()
    row_weights = _weights(G, 0, axis=1)
    best = int(row_weights.min())
    witness = G[int(np.argmin(row_weights))].copy()
    lower = max(1, C.floor)
    if best <= lower:
        return DistanceResult(best, method, exact=True, witness=witness)
    for heads, tails, proven, spent in plan:
        lower = max(lower, proven)
        if best <= lower:
            break
        late = time_budget is not None and time.monotonic() - start > time_budget
        if spent > class_budget or late:
            return DistanceResult(best, method, exact=False, witness=witness, lower=lower)
        weights = _weights(heads[..., :, None, :], tails[..., None, :, :], axis=-1)
        if weights.min(initial=best) < best:
            *at, h, t = np.unravel_index(int(np.argmin(weights)), weights.shape)
            best = int(weights[(*at, h, t)])
            witness = F.sub(F.unpack(heads[(*at, h)]), F.unpack(tails[(*at, t)]))
    return DistanceResult(best, method, exact=True, witness=witness)


def _bruteforce_plan(C: LinearCode, class_budget: int):
    """The q^(k-1) messages with first coefficient 1, in blocks of head
    words against B, the span of the last k2 rows, k2 < k as large as
    q^k2 * n <= _CELL_CAP allows.  Raises BudgetExceededError on its first
    step when those messages exceed the class budget."""
    F, G = C.field, C.generator
    q, (k, n) = F.q, G.shape
    messages = q ** (k - 1)
    if messages > class_budget:
        raise BudgetExceededError(
            f"{messages} messages with first coefficient 1 > budget {class_budget}; use isd"
        )
    S = _scaled_rows(F, G)
    k2 = 0
    while k2 < k - 1 and q ** (k2 + 1) * n <= _CELL_CAP:
        k2 += 1
    free = k - k2 - 1  # the head coefficients after the first
    B = _span(F, S[:, k - k2:])
    Z = np.zeros((q, k, n), dtype=S.dtype)  # Z[c, i] = pack(c * G[i]), c an encoding
    Z[F.exp] = S
    block = max(1, _CELL_CAP // (len(B) * n))
    radix = q ** np.arange(free, dtype=np.int64)
    for first in range(0, q ** free, block):
        ids = np.arange(first, min(first + block, q ** free), dtype=np.int64)
        digits = (ids[:, None] // radix[None, :]) % q
        heads = np.broadcast_to(S[0, 0], (ids.size, n))
        for j in range(free):
            heads = F.add_packed(heads, Z[digits[:, j], 1 + j])
        yield heads, B, 1, messages


def _isd_plan(C: LinearCode):
    """The messages of weight w = 1, 2, ..., k on the information set, w
    rows with coefficients, the first 1: per block, the sums of the first
    w-1 scaled rows of each support as heads and the unit multiples of its
    last row as tails.  A weight-w block carries Chen's bound
    ceil(nw/k) after weight w-1, and the messages of weights 1 to w,
    C(k, w) (q-1)^(w-1) at weight w.  Each weight opens with an empty block
    that carries both, so the search can stop on Chen's bound or the class
    budget before the weight builds a word."""
    F, G = C.field, C.generator
    k, n = G.shape
    S = _scaled_rows(F, G)
    units = F.q - 1
    weighed = 0
    for w in range(1, k + 1):
        weighed += comb(k, w) * units ** (w - 1)
        proven = -(-n * w // k)
        yield S[0, :0], S[0, :0], proven, weighed
        # unit indices: 0 for the first coefficient, all for the middle
        # w-2 (enumerated in blocks of patterns), all for the last
        last = np.arange(units if w > 1 else 1)
        middles = units ** max(0, w - 2)
        radix = units ** np.arange(max(0, w - 2), dtype=np.int64)
        per_support = last.size * n
        pattern_block = min(middles, max(1, _CELL_CAP // per_support))
        support_block = max(1, _CELL_CAP // (pattern_block * per_support))
        combos = combinations(range(k), w)
        while batch := list(islice(combos, support_block)):
            sel = np.array(batch, dtype=np.int64)  # (b, w) row indices
            lasts = S[last[None, :], sel[:, -1, None]]  # (b, L, n)
            first_rows = S[0, sel[:, 0], None] if w > 1 else np.zeros((1, 1, n), S.dtype)
            for first in range(0, middles, pattern_block):
                ids = np.arange(first, min(first + pattern_block, middles), dtype=np.int64)
                mid = (ids[:, None] // radix[None, :]) % units  # (P, w-2)
                partial = np.broadcast_to(first_rows, (len(sel), ids.size, n))
                for t in range(1, w - 1):
                    partial = F.add_packed(partial, S[mid[None, :, t - 1], sel[:, t, None]])
                yield partial, lasts, proven, weighed


def min_distance_bruteforce(
    C: LinearCode,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> DistanceResult:
    """Exhaustive minimum distance over the messages with first coefficient
    1, which a group acting regularly on the coordinates and mapping C to
    itself makes enough (see the module docstring).

    Raises BudgetExceededError when the q^(k-1) messages exceed the class
    budget and the lightest generator row is above C.floor.  On time budget
    expiry the lightest codeword so far is returned with exact=False and
    lower the floor.
    """
    return _search(C, "bruteforce", _bruteforce_plan(C, class_budget), class_budget, time_budget)


def min_distance_isd(
    C: LinearCode,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> DistanceResult:
    """Information-set search on the systematic form C.generator, with
    Chen's bound ceil(n(w+1)/k), which a group acting regularly on the
    coordinates and mapping C to itself makes valid (see the module
    docstring).

    The class budget bounds the messages weighed, C(k, w) (q-1)^(w-1) at
    weight w: a weight that would take their total past it is not started.
    On that, or on time budget exhaustion, the lightest codeword so far is
    returned with exact=False, and `lower` is the larger of the floor and
    the bound after the last completed weight.
    """
    return _search(C, "isd", _isd_plan(C), class_budget, time_budget)


def torus_distance(q: int, n: int, d: int) -> int:
    """Closed-form minimum distance of the degree-d code on the full torus
    in P^(n-1) over GF(q)."""
    field_order(*prime_power(q))
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
        return torus_distance(X.q, X.s, d)
    uniform, _ = uniformity(C)
    if uniform and incidence_rank(C) == C.n:
        return torus_distance(X.q, C.n, d)
    return None


def min_distance(
    X: ToricSet,
    d: int,
    method: str = "auto",
    prime: int | None = None,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> DistanceResult:
    """delta_d of C_X(d) by `method`.

    auto takes the first route that applies: the torus formula; delta = 1
    for d at or past the regularity of X, where the code is all of
    GF(q)^|X|; brute force when its q^(k-1) messages, k = H_X(d), are within
    the class budget; information-set search.
    formula is the torus formula when X is the torus, else `prime`
    (delta'_d) as an upper bound only.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if d < 1:
        raise ValueError("need d >= 1")
    q = X.q
    if method in ("auto", "formula") and equals_torus(X):
        return DistanceResult(torus_distance(q, X.s, d), "formula", exact=True)
    if method == "formula":
        if prime is None:
            raise ValueError(
                "formula method needs X = torus, or a uniform clutter with rank(A) = n"
            )
        return DistanceResult(prime, "bound-only", exact=False)
    if method == "auto" and d >= walk_of(X).regularity:
        return DistanceResult(1, "regularity", exact=True)
    cd = code(X, d)
    if method == "auto":
        method = "bruteforce" if q ** (cd.dimension - 1) <= class_budget else "isd"
    if method == "bruteforce":
        return min_distance_bruteforce(cd, class_budget, time_budget)
    return min_distance_isd(cd, class_budget, time_budget)


def distance_report(
    C: Clutter | None,
    X: ToricSet,
    d: int,
    method: str = "auto",
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> dict:
    """Assemble delta_d together with every applicable bound for one degree.

    X is the set of C, or the projective torus when C is None."""
    walk = walk_of(X)
    reg, dim = walk.regularity, walk.hilbert(d)
    prime = delta_prime(C, X, d)
    result = min_distance(X, d, method, prime, class_budget, time_budget)
    if C is None:
        note = "the torus formula"
    elif prime is not None:
        note = "upper bound assuming a normal edge subring (user-asserted)"
    else:
        note = "not applicable: needs a uniform clutter with rank(A) = n"
    report = {
        "d": d,
        "length": len(X),
        "dimension": dim,
        "delta": result.value,
        "delta_lower": result.lower,
        "delta_method": result.method,
        "delta_exact": result.exact,
        "delta_prime": prime,
        "delta_prime_note": note,
        "singleton": len(X) - dim + 1,
        "regularity": reg,
        "delta_one_shortcut": d >= reg,
        "equals_torus": equals_torus(X),
    }
    if d >= reg and result.exact and result.value != 1:
        raise AssertionError("distance must be 1 at or past the regularity")
    return report
