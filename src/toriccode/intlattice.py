"""Exact integer linear algebra behind the complete-intersection test and |X|.

Two lattice facts of a clutter are computed once each, and memoized on
the frozen, hashable Clutter: the Smith invariant factors d_i of the
difference matrix B = V - V[0] (`difference_factors`), and the rank over Q
of the incidence matrix A (`incidence_rank`).  The CI verdict reads both:
the edge vectors are independent when rank A = s, and multiplication by
q-1 is injective on Z^n / <v_i - v_1> when gcd(q-1, d_i) = 1 for every i.
|X| = prod (q-1)/gcd(q-1, d_i) (`toric_set.size_of_X`) reads the same
factors, and delta'_d and `toric_set.profile` the same rank.

Everything here runs on arbitrary-precision Python ints, so there is no
overflow to signal.  The Smith normal form uses the pivot rule "smallest
nonzero absolute value, ties broken row-major".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .clutter import Clutter, difference_matrix, incidence, uniformity


def _to_int_rows(M) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in M]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def rank_rational(M) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    A = _to_int_rows(M)
    if not A or not A[0]:
        return 0
    m, n = len(A), len(A[0])
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                A[i][j] = (A[i][j] * A[r][c] - A[i][c] * A[r][j]) // prev
            A[i][c] = 0
        prev = A[r][c]
        r += 1
    return r


@dataclass
class SnfResult:
    invariant_factors: list[int]
    rank: int
    shape: tuple[int, int]


def smith_normal_form(M) -> SnfResult:
    """Smith normal form: the positive invariant factors d1 | d2 | ..."""
    D = _to_int_rows(M)
    m = len(D)
    n = len(D[0]) if D else 0

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]

    def swap_cols(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]

    def add_row(src, dst, factor):
        for c in range(n):
            D[dst][c] += factor * D[src][c]

    def add_col(src, dst, factor):
        for r in range(m):
            D[r][dst] += factor * D[r][src]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    t = 0
    while t < min(m, n):
        found = find_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        # clear row and column t; pivot re-selection keeps entries shrinking
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    qt = D[i][t] // D[t][t]
                    add_row(t, i, -qt)
                    if D[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j]:
                    qt = D[t][j] // D[t][t]
                    add_col(t, j, -qt)
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
        D[t][t] = abs(D[t][t])
        # divisibility: pull a bad entry into column t and redo
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    factors = [D[i][i] for i in range(min(m, n)) if D[i][i] != 0]
    return SnfResult(invariant_factors=factors, rank=len(factors), shape=(m, n))


@lru_cache(maxsize=256)
def difference_factors(C: Clutter) -> tuple[int, ...]:
    """The Smith invariant factors of the difference matrix B = V - V[0]:
    Z^n / <v_i - v_1> is Z^(n-r) + sum Z/d_i, and X is the image of
    (Z/(q-1))^n under B."""
    return tuple(smith_normal_form(difference_matrix(C)).invariant_factors)


@lru_cache(maxsize=256)
def incidence_rank(C: Clutter) -> int:
    """The rank over Q of the incidence matrix A, that of the edge vectors."""
    return rank_rational(incidence(C).A)


def phi_injective(C: Clutter, q: int) -> bool:
    """Injectivity of multiplication by q-1 on Z^n / Z{v_i - v_1}: no
    torsion factor of the quotient shares a prime with q-1."""
    if q < 3:
        raise ValueError("need q >= 3")
    return all(gcd(q - 1, d) == 1 for d in difference_factors(C))


@dataclass
class CiReport:
    applicable: bool
    is_ci: bool | None
    vectors_independent: bool | None
    phi_injective: bool | None
    reason: str


def ci_classify(C: Clutter, q: int) -> CiReport:
    """Complete-intersection classification for uniform clutters, q >= 3:
    I(X) is a complete intersection when the edge vectors are independent
    (incidence_rank) and phi_injective holds (difference_factors).

    For non-uniform clutters the algebraic test is out of scope and the
    report says so (applicable = False).
    """
    if q < 3:
        raise ValueError("need q >= 3")
    uniform, _ = uniformity(C)
    if not uniform:
        return CiReport(
            applicable=False,
            is_ci=None,
            vectors_independent=None,
            phi_injective=None,
            reason="clutter is not uniform; algebraic CI test not applicable",
        )
    independent = incidence_rank(C) == C.s
    injective = phi_injective(C, q) if independent else None
    if not independent:
        reason = "characteristic vectors are linearly dependent"
    elif not injective:
        reason = "multiplication by q-1 has a kernel on Z^n/L (torsion shares a factor with q-1)"
    else:
        reason = "vectors independent and multiplication by q-1 injective: X is the projective torus"
    return CiReport(
        applicable=True,
        is_ci=independent and injective,
        vectors_independent=independent,
        phi_injective=injective,
        reason=reason,
    )
