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
it reaches the lightest generator row.  Both searches start from that row
and stop, with an exact result, as soon as their lightest codeword reaches
the floor: when the row already does, before any table is built.  A search
stopped by its time budget reports the floor as its lower end when nothing
better is proven.

The class budget bounds the messages either search weighs.  Brute force
refuses a code whose q^(k-1) messages exceed it (BudgetExceededError);
information-set search does not start the weight that would take its
total past it, and reports the interval proven so far.

Both searches take as given that a group acting regularly on the
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

Both searches run on the packed words of `FiniteField.pack`: they share
the table S[u, i] = pack(g^u * row_i) of every unit multiple of every row,
built once per generator matrix, add with `FiniteField.add_packed`, and
unpack only the witness.  They weigh words by comparison, not field
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
from .finite_field import FiniteField, field_order, prime_power
from .intlattice import incidence_rank
from .toric_set import ToricSet, equals_torus

DEFAULT_CLASS_BUDGET = 10 ** 7
METHODS = ("auto", "bruteforce", "isd", "formula")


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


def _difference(F: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b for packed words, as encodings."""
    return F.sub(F.unpack(a), F.unpack(b))


def min_distance_bruteforce(
    C: LinearCode,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> DistanceResult:
    """Exhaustive minimum distance over the messages with first coefficient
    1, which a group acting regularly on the coordinates and mapping C to
    itself makes enough (see the module docstring).

    The class budget bounds the q^(k-1) messages weighed, one per
    projective class with a nonzero first coefficient.  The message splits
    into head and tail coordinates.  The span B of the last k2 rows is
    built once, k2 < k as large as q^k2 * n <= _CELL_CAP allows.  Each
    head word a (first coefficient 1) is weighed against all of B at once:
    as b runs over B so does -b, and wt(a - b) = #{j : a_j != b_j}.  The
    search starts from the lightest generator row and stops once its
    lightest codeword reaches C.floor; the time budget is checked before
    each block of head words, and on expiry the lightest codeword so far
    is returned with exact=False and lower the floor.
    """
    F = C.field
    q = F.q
    k, n = C.generator.shape
    if k == 0:
        raise ValueError("zero code has no minimum distance")
    messages = q ** (k - 1)
    if messages > class_budget:
        raise BudgetExceededError(
            f"{messages} messages with first coefficient 1 > budget {class_budget}; use isd"
        )
    start = time.monotonic()
    row_weights = _weights(C.generator, 0, axis=1)
    best = int(row_weights.min())
    witness = C.generator[int(np.argmin(row_weights))].copy()
    if best <= C.floor:
        return DistanceResult(best, "bruteforce", exact=True, witness=witness)
    S = _scaled_rows(F, C.generator)
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
        if best <= C.floor:
            return DistanceResult(best, "bruteforce", exact=True, witness=witness)
        if time_budget is not None and time.monotonic() - start > time_budget:
            return DistanceResult(
                best, "bruteforce", exact=False, witness=witness, lower=max(1, C.floor)
            )
        ids = np.arange(first, min(first + block, q ** free), dtype=np.int64)
        digits = (ids[:, None] // radix[None, :]) % q
        heads = np.broadcast_to(S[0, 0], (ids.size, n))
        for j in range(free):
            heads = F.add_packed(heads, Z[digits[:, j], 1 + j])
        weights = _weights(heads[:, None, :], B[None], axis=2)
        h, t = divmod(int(np.argmin(weights)), len(B))
        if weights[h, t] < best:
            best, witness = int(weights[h, t]), _difference(F, heads[h], B[t])
    return DistanceResult(value=best, method="bruteforce", exact=True, witness=witness)


def min_distance_isd(
    C: LinearCode,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    time_budget: float | None = None,
) -> DistanceResult:
    """Information-set search on the systematic form C.generator, with
    Chen's bound ceil(n(w+1)/k), which a group acting regularly on the
    coordinates and mapping C to itself makes valid (see the module
    docstring).

    Enumerates messages of increasing weight w.  A message is w rows with
    coefficients, the first 1: the first w-1 scaled rows are gathered from
    S and added, and the last is weighed against every unit at once by
    comparison with its unit multiples in S.  The lightest codeword seen
    starts as the lightest generator row.  Stops as soon as it reaches
    C.floor, checked before each block, or the bound after weight w.

    The class budget bounds the messages weighed, C(k, w) (q-1)^(w-1) at
    weight w: a weight that would take their total past it is not started.
    On that, or on time budget exhaustion, the lightest codeword so far is
    returned with exact=False, and `lower` is the larger of the floor and
    the bound after the last completed weight.
    """
    F = C.field
    G = C.generator  # in RREF, a systematic form
    k, n = G.shape
    if k == 0:
        raise ValueError("zero code has no minimum distance")
    start = time.monotonic()

    def bound(w):
        return -(-n * (w + 1) // k)

    # a systematic row has at most n-k+1 nonzeros: the lightest one bounds
    # delta before any message is weighed
    row_weights = _weights(G, 0, axis=1)
    upper = int(row_weights.min())
    witness = G[int(np.argmin(row_weights))]
    if upper <= C.floor:
        return DistanceResult(value=upper, method="isd", exact=True, witness=witness)

    def stopped(w):
        return DistanceResult(
            value=upper,
            method="isd",
            exact=False,
            witness=witness,
            lower=min(upper, max(bound(w - 1), C.floor)),
        )

    S = _scaled_rows(F, G)
    units = F.q - 1
    weighed = 0
    for w in range(1, k + 1):
        weighed += comb(k, w) * units ** (w - 1)
        if weighed > class_budget:
            return stopped(w)
        # unit indices: 0 for the first coefficient, all for the middle
        # w-2 (enumerated in blocks of patterns), all for the last
        last = np.arange(units if w > 1 else 1)
        middles = units ** max(0, w - 2)
        radix = units ** np.arange(max(0, w - 2), dtype=np.int64)
        per_support = last.size * n
        pattern_block = min(middles, max(1, _CELL_CAP // per_support))
        support_block = max(1, _CELL_CAP // (pattern_block * per_support))
        combos = combinations(range(k), w)
        while True:
            batch = list(islice(combos, support_block))
            if not batch:
                break
            sel = np.array(batch, dtype=np.int64)  # (b, w) row indices
            lasts = S[last[None, :], sel[:, -1, None]]  # (b, L, n)
            for first in range(0, middles, pattern_block):
                if upper <= C.floor:
                    return DistanceResult(
                        value=upper, method="isd", exact=True, witness=witness
                    )
                if time_budget is not None and time.monotonic() - start > time_budget:
                    return stopped(w)
                ids = np.arange(first, min(first + pattern_block, middles), dtype=np.int64)
                mid = (ids[:, None] // radix[None, :]) % units  # (P, w-2)
                if w == 1:
                    partial = np.zeros((sel.shape[0], 1, n), dtype=S.dtype)
                else:
                    partial = np.broadcast_to(
                        S[0, sel[:, 0]][:, None, :], (sel.shape[0], ids.size, n)
                    )
                for t in range(1, w - 1):
                    partial = F.add_packed(partial, S[mid[None, :, t - 1], sel[:, t, None]])
                weights = _weights(partial[:, :, None, :], lasts[:, None], axis=3)
                bi, pi, li = np.unravel_index(int(np.argmin(weights)), weights.shape)
                if weights[bi, pi, li] < upper:
                    upper = int(weights[bi, pi, li])
                    witness = _difference(F, partial[bi, pi], lasts[bi, li])
        if max(bound(w), C.floor) >= upper:
            break
    return DistanceResult(value=upper, method="isd", exact=True, witness=witness)


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
