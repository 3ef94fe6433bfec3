"""Algebraic toric sets: X parameterized by a clutter, and the projective torus.

Points live in P^(s-1) over GF(q) and always have all coordinates nonzero,
so each is stored canonically (first coordinate scaled to 1) as the vector
of primitive-power exponents of its coordinates.  Point order is the
lexicographic order of those exponent vectors, which makes every downstream
computation deterministic.

In exponent space the projective torus is (Z/(q-1))^(s-1), and both X and
the torus are subgroups of it spanned by the columns of a generator
matrix: the difference matrix of the clutter, or [0; I].  Both are built
by one closure over those columns (`_span`), in memory O(|X|) and time
O(|X|) per column, and the enumeration budget bounds |X| itself.  The
closure also records, for each column b_j, the index r_j of the span of
b_1..b_(j-1) in that of b_1..b_j; with these mixed radices every character
of X gets an integer label in [0, |X|) (`ToricSet.radices`).

The size of X needs no points: B = U D W with U, W unimodular and D the
Smith form diag(d_1, ..., d_r), so X is isomorphic to the image of D on
(Z/m)^n, m = q-1, and |X| = prod m/gcd(m, d_i) (`size_of_X`).  The
factors d_i are `intlattice.difference_factors(C)`, the ones the
complete-intersection verdict reads.  They and the rank of the incidence
matrix (`intlattice.incidence_rank`) come from one integer echelon of the
difference rows per clutter.  `profile` reads |X| and the comparison with
the torus from that closed form, and the rank from that echelon;
`equals_torus` serves callers that already hold the points.
"""

from __future__ import annotations

from math import gcd, prod

import numpy as np

from .clutter import Clutter, difference_matrix, uniformity
from .errors import BudgetExceededError
from .finite_field import FiniteField
from .intlattice import difference_factors, incidence_rank

DEFAULT_ENUM_BUDGET = 10 ** 8


class ToricSet:
    """A finite set of all-unit projective points over one field.

    ``logs`` is the |X| x s integer matrix of primitive-power exponents of
    the canonical coordinates, rows sorted lexicographically.  ``gens`` is
    an s x g integer matrix whose row i is the character of t_i: X is the
    image of (Z/(q-1))^g under a -> gens @ a mod q-1, so the monomial t^e
    takes the value g^(a . (e @ gens)) at the point of a.  Immutable after
    construction.

    ``radices`` holds, for each column b_j of gens, the least r_j >= 1 with
    r_j b_j in the span S_(j-1) of the columns before it, so that |X| is
    their product.  A character of X is fixed by its key k = e @ gens mod
    m, m = q-1, and k_j = chi(b_j) ranges over one coset of (m/r_j)Z/m once
    chi is fixed on S_(j-1): the digit floor(k_j / (m/r_j)) picks it out of
    [0, r_j).  The label sum_j floor(k_j / (m/r_j)) prod_(i<j) r_i is
    therefore a bijection from the characters of X onto [0, |X|).
    """

    def __init__(
        self,
        field: FiniteField,
        logs: np.ndarray,
        gens: np.ndarray,
        radices: tuple[int, ...],
        source: str,
    ):
        logs = np.asarray(logs, dtype=np.int64)
        gens = np.array(gens, dtype=np.int64)
        if logs.ndim != 2 or gens.ndim != 2:
            raise ValueError("logs and gens must be 2-d")
        if gens.shape[0] != logs.shape[1]:
            raise ValueError("gens needs one row per coordinate")
        if logs.size and (logs.min() < 0 or logs.max() >= field.q - 1):
            raise ValueError("exponents out of range")
        if len(radices) != gens.shape[1] or prod(radices) != logs.shape[0]:
            raise ValueError("radices need one entry per column of gens, with product |X|")
        self.field = field
        self.logs = logs
        self.logs.setflags(write=False)
        self.gens = gens
        self.gens.setflags(write=False)
        self.radices = tuple(int(r) for r in radices)
        self.source = source

    @property
    def s(self) -> int:
        return self.logs.shape[1]

    def __len__(self):
        return self.logs.shape[0]

    def __repr__(self):
        return f"ToricSet({len(self)} points in P^{self.s - 1} over {self.field!r}, {self.source})"


def _span(gens: np.ndarray, m: int, budget: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Rows of the subgroup of (Z/m)^s spanned by the columns of gens,
    sorted lexicographically, and the r of each column (see below).

    S starts as {0}.  For each column b, r is the least r >= 1 with r*b in
    S; it divides the order of b, since {k : k*b in S} is a subgroup of Z
    that holds that order.  S + <b> is then the disjoint union of the
    cosets S + k*b for k = 0..r-1, so no deduplication is needed.  Raises
    BudgetExceededError before S would grow past the budget.
    """
    s = gens.shape[0]
    S = np.zeros((1, s), dtype=np.int64)
    radices = []
    for b in gens.T % m:
        order = m // gcd(m, *(int(x) for x in b))
        for r in range(1, order + 1):
            if order % r == 0 and (r == order or (S == r * b % m).all(axis=1).any()):
                break
        if len(S) * r > budget:
            raise BudgetExceededError(
                f"X would reach {len(S) * r} points > budget {budget}"
            )
        steps = np.arange(r, dtype=np.int64)[:, None] * b % m  # r x s
        S = ((steps[:, None, :] + S[None, :, :]) % m).reshape(-1, s)
        radices.append(r)
    return S[np.lexsort(S.T[::-1])], tuple(radices)


def size_of_X(C: Clutter, q: int) -> int:
    """|X| over GF(q) without building X: prod m/gcd(m, d_i), m = q-1, over
    the Smith invariant factors d_i of the difference matrix."""
    m = q - 1
    return prod(m // gcd(m, d) for d in difference_factors(C))


def enumerate_X(C: Clutter, F: FiniteField, budget: int = DEFAULT_ENUM_BUDGET) -> ToricSet:
    """All points [ (x^v1 : ... : x^vs) ] for x in the affine torus (K*)^n.

    X is a group: the subgroup of the projective torus spanned by the
    columns b_j of the difference matrix B = V - V[0], the images of the
    coordinate characters of (K*)^n.  It is built by closure over those
    n columns, with O(n |X|) row operations and never a walk over the
    (q-1)^n tuples; raises BudgetExceededError before |X| would pass the
    budget.
    """
    B = difference_matrix(C)  # s x n; row 0 is zero, giving the canonical 0 column
    logs, radices = _span(B, F.q - 1, budget)
    return ToricSet(F, logs, B, radices, source=f"X({C})")


def projective_torus(s: int, F: FiniteField, budget: int = DEFAULT_ENUM_BUDGET) -> ToricSet:
    """The torus T in P^(s-1): all points with every coordinate nonzero.

    Built by the same closure as enumerate_X, over gens [0; I_(s-1)], so
    the budget bounds |T| = (q-1)^(s-1) in the same way.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    gens = np.eye(s, s - 1, k=-1, dtype=np.int64)  # [0; I_(s-1)]
    logs, radices = _span(gens, F.q - 1, budget)
    return ToricSet(F, logs, gens, radices, source=f"T(s={s})")


def equals_torus(X: ToricSet) -> bool:
    """Whether X is all of the projective torus in its ambient space.

    Every X lies in T (its coordinates are units and its first log is 0),
    so equality is a size test.
    """
    return len(X) == (X.field.q - 1) ** (X.s - 1)


def profile(C: Clutter, q: int) -> dict:
    """Size/rank report of X over GF(q), used to judge applicability of
    the torus bounds.  No point is built: |X| is size_of_X(C, q), and the
    rank is incidence_rank(C).

    Normality of the edge subring is asserted by the caller, never verified
    here; the note in the report says so.
    """
    size = size_of_X(C, q)
    r = incidence_rank(C)
    uniform, _ = uniformity(C)
    expected = (q - 1) ** (C.n - 1)
    return {
        "n": C.n,
        "s": C.s,
        "q": q,
        "points": size,
        "rank": r,
        "rank_is_n": r == C.n,
        "uniform": uniform,
        "torus_bound_degree": expected,
        "degree_matches_torus_bound": size == expected,
        "equals_ambient_torus": size == (q - 1) ** (C.s - 1),
        "note": "normality of the edge subring is user-asserted, not verified",
    }


def points_csv(X: ToricSet) -> str:
    """CSV dump of canonical coordinates as primitive-power indices
    (0 is reserved for the zero element and never occurs for X)."""
    header = ",".join(f"t{j + 1}" for j in range(X.s))
    lines = [header]
    for row in X.logs:
        lines.append(",".join(str(int(e) + 1) for e in row))
    return "\n".join(lines) + "\n"
