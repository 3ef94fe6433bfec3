"""Exact integer linear algebra behind the complete-intersection test and |X|.

Both lattice facts of a clutter come from one integer row echelon of its
difference rows v_i - v_1 (`_insert`), memoized on the frozen, hashable
Clutter (`lattice_facts`).  The rows are inserted until the echelon is
saturated, its rank at the ceiling (n - 1 for a uniform clutter, n
otherwise) with every pivot 1: it then holds every integer point of its
rational span, so a further row would leave it as it is, and the work
follows the rows needed to reach saturation rather than the s - 1 rows.
From it come:

* the Smith invariant factors d_i of the difference matrix B = V - V[0]
  (`difference_factors`), from one Smith form of that echelon, together
  with its unimodular column transform, from which `toric_set` builds X
  and labels its characters;
* the rank over Q of the incidence matrix A (`incidence_rank`), that of the
  edge vectors: the row space of V is that of B plus <v_1>, so rank A is
  rank B, plus 1 when inserting v_1 enlarges the echelon.

The CI verdict reads both: the edge vectors are independent when
rank A = s, and multiplication by q-1 is injective on Z^n / <v_i - v_1>
when gcd(q-1, d_i) = 1 for every i.  |X| = prod (q-1)/gcd(q-1, d_i)
(`size_of_X`) reads the same factors, and delta'_d and `profile` the same
rank: `ci` and `profile` need nothing outside this module and `clutter`,
and no numpy.

`rank_rational` and `smith_normal_form` take any integer matrix through
the same echelon: the rank is its number of rows, and the Smith form is
finished on those r <= n rows alone, since row operations keep the row
lattice and with it the invariant factors and the column transform.  The
echelon is kept in Hermite normal form (`_hermite`), so on a
full-column-rank input no entry exceeds the lattice's determinant, and
with it the Hadamard bound.
Everything here runs on arbitrary-precision Python ints, so there is no
overflow to signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from typing import NamedTuple

from .clutter import Clutter, uniformity
from .limits import field_order, prime_power


def _to_int_rows(M) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in M]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b > 0, for a, b not both 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _hermite(basis: dict[int, list[int]]) -> None:
    """Reduce every entry above a pivot into [0, pivot), pivot columns in
    ascending order.  The row of pivot column c is zero left of c, so
    reducing at c leaves the columns already done as they are, and the
    rows end in Hermite normal form.  An entry already in range costs one
    comparison."""
    cols = sorted(basis)
    for j, c in enumerate(cols):
        b = basis[c]
        p = b[c]
        for above in cols[:j]:
            row = basis[above]
            f = row[c] // p
            if f:
                basis[above] = [x - f * y for x, y in zip(row, b)]


def _insert(basis: dict[int, list[int]], v: list[int]) -> bool:
    """Insert the integer row v into an echelon basis, its rows keyed by
    pivot column with positive pivots: True when the basis gains a row.

    At the leading column of v, an entry that the pivot divides is cleared
    by subtracting a multiple of the pivot row.  Otherwise an extended-gcd
    step replaces the pivot row and v by a unimodular combination of the
    two: the pivot becomes their gcd and v gets a zero there.  Either way
    the lattice spanned by the basis and v does not change.  A leading
    column with no pivot takes v, as it stands, as a new row.  When a
    merge or a new row changed the basis, it is Hermite-reduced
    (`_hermite`), which keeps its entries from growing on dense input.
    """
    n, c, merged = len(v), 0, False
    while True:
        while c < n and not v[c]:
            c += 1
        if c == n or c not in basis:
            break
        b = basis[c]
        p, a = b[c], v[c]
        if a % p == 0:
            f = a // p
            v = [x - f * y for x, y in zip(v, b)]
        else:
            # [[x, y], [a/g, -p/g]] has determinant -1
            g, x, y = _xgcd(p, a)
            u, w = a // g, p // g
            basis[c] = [x * bi + y * vi for bi, vi in zip(b, v)]
            v = [u * bi - w * vi for bi, vi in zip(b, v)]
            merged = True
    added = c < n
    if added:
        basis[c] = v if v[c] > 0 else [-x for x in v]
    if added or merged:
        _hermite(basis)
    return added


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    """The rows of an integer echelon form of the given rows, in pivot
    order; they span the same lattice."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        _insert(basis, row)
    return [basis[c] for c in sorted(basis)]


def rank_rational(M) -> int:
    """Rank over Q: the number of rows of an integer echelon form of M."""
    return len(_echelon(_to_int_rows(M)))


@dataclass
class SnfResult:
    invariant_factors: list[int]
    rank: int
    shape: tuple[int, int]
    # Q: an n x n unimodular matrix with P M Q = diag(d_1, ..., d_r, 0, ...)
    # for some unimodular P, so column j of M Q is d_j times a column of
    # P^-1 (zero past the rank)
    transform: tuple[tuple[int, ...], ...]


def smith_normal_form(M) -> SnfResult:
    """Smith normal form: the positive invariant factors d1 | d2 | ...,
    and the column transform Q that brings M to it.

    The rows are first brought to echelon form, which keeps the row
    lattice; the pivot loop (smallest nonzero absolute value, ties broken
    row-major) then runs on those r <= n rows only, and every column
    operation it makes is made on Q too.  `shape` is that of M.
    """
    rows = _to_int_rows(M)
    shape = (len(rows), len(rows[0]) if rows else 0)
    D = _echelon(rows)
    m, n = len(D), shape[1]
    Qt = [[0] * n for _ in range(n)]  # the columns of Q
    for j in range(n):
        Qt[j][j] = 1

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]

    def swap_cols(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        Qt[i], Qt[j] = Qt[j], Qt[i]

    def add_row(src, dst, factor):
        for c in range(n):
            D[dst][c] += factor * D[src][c]

    def add_col(src, dst, factor):
        for row in D:
            if row[src]:
                row[dst] += factor * row[src]
        Qt[dst] = [x + factor * y for x, y in zip(Qt[dst], Qt[src])]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        return best
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
        for i in range(t + 1, m if D[t][t] > 1 else t + 1):
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
    return SnfResult(
        invariant_factors=factors, rank=len(factors), shape=shape, transform=tuple(zip(*Qt))
    )


class LatticeFacts(NamedTuple):
    difference_factors: tuple[int, ...]
    incidence_rank: int
    transform: tuple[tuple[int, ...], ...]  # Q of the Smith form of B


@lru_cache(maxsize=256)
def lattice_facts(C: Clutter) -> LatticeFacts:
    """The Smith factors of B, with the column transform Q that brings B
    to its Smith form, and the rank of A, from one echelon of the
    difference rows v_i - v_1: one Smith form of that echelon, then v_1
    inserted into it.  Row operations keep the row lattice, so Q serves B
    as it serves the echelon.

    The insertion stops once the echelon is saturated: its rank is the
    ceiling of the difference rows (n - 1 for a uniform clutter, whose
    differences lie in the hyperplane sum x = 0, else n) and every pivot
    is 1.  Such an echelon holds every integer point of its rational span,
    so each remaining row would reduce to zero by subtraction alone, with
    no gcd merge and no Hermite step: the basis is the one that inserting
    every row gives."""
    v1, *rest = C.vectors
    ceiling = C.n - 1 if uniformity(C)[0] else C.n
    basis: dict[int, list[int]] = {}
    for v in rest:
        if len(basis) == ceiling and all(b[c] == 1 for c, b in basis.items()):
            break
        _insert(basis, [a - b for a, b in zip(v, v1)])
    snf = smith_normal_form([basis[c] for c in sorted(basis)])
    rank = len(basis) + _insert(basis, list(v1))
    return LatticeFacts(tuple(snf.invariant_factors), rank, snf.transform)


def difference_factors(C: Clutter) -> tuple[int, ...]:
    """The Smith invariant factors of the difference matrix B = V - V[0]:
    Z^n / <v_i - v_1> is Z^(n-r) + sum Z/d_i, and X is the image of
    (Z/(q-1))^n under B."""
    return lattice_facts(C).difference_factors


def incidence_rank(C: Clutter) -> int:
    """The rank over Q of the incidence matrix A, that of the edge vectors."""
    return lattice_facts(C).incidence_rank


def size_of_X(C: Clutter, q: int) -> int:
    """|X| over GF(q) without building X: prod m/gcd(m, d_i), m = q-1, over
    the Smith invariant factors d_i of the difference matrix.  q must name
    a field (`field_order`)."""
    m = field_order(*prime_power(q)) - 1
    return prod(m // gcd(m, d) for d in difference_factors(C))


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


def phi_injective(C: Clutter, q: int) -> bool:
    """Injectivity of multiplication by q-1 on Z^n / Z{v_i - v_1}: no
    torsion factor of the quotient shares a prime with q-1."""
    field_order(*prime_power(q))
    return all(gcd(q - 1, d) == 1 for d in difference_factors(C))


@dataclass
class CiReport:
    applicable: bool
    is_ci: bool | None
    vectors_independent: bool | None
    phi_injective: bool | None
    reason: str


def ci_classify(C: Clutter, q: int) -> CiReport:
    """Complete-intersection classification for uniform clutters over GF(q):
    I(X) is a complete intersection when the edge vectors are independent
    (incidence_rank) and phi_injective holds (difference_factors).

    For non-uniform clutters the algebraic test is out of scope and the
    report says so (applicable = False).
    """
    field_order(*prime_power(q))
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
