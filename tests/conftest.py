"""Shared fixtures and independent oracles.

Most oracles here deliberately avoid the package's vectorized kernels:
they use Fraction arithmetic, scalar integer arithmetic on field tables
built here (`oracle_field_ops`) and exhaustive loops so that test
expectations are derived by a second, simpler route.
The GF(q) oracles for H_X, the generator matrix and the reduced basis
instead do the linear algebra that the package replaces by integer
character keys: rank and reduced row echelon form of evaluation matrices.
The lattice oracles for the complete-intersection verdict and delta'_d
recompute the rank and the Smith form on every call, from matrices built
here, by routines that share no code with the package: a Smith form by
pivot search over the whole remaining matrix (`oracle_snf_pivot_rule`),
Bareiss and Fraction elimination for the rank.  The package reads both
facts from one integer echelon per clutter, and stops inserting rows once
that echelon is saturated.  `oracle_lattice_facts` is the one exception:
it runs the package's echelon and Smith form on every row, so that the
facts of the saturated echelon, transform included, are checked against
those of all the rows.  The package builds X from the Smith
form of its generators; here X is the image of every unit tuple
(`oracle_enumerate_X`) or the closure over its generators
(`oracle_span`), and a basis vanishes on X when each element does
(`oracle_vanishing_defect`).  The structure checks of a reduced basis
run element by element over its `HomogPoly` form
(`oracle_verify_gb_structure`), where the package reads its two exponent
arrays.
The package computes neither H_(S/I_A) nor binomial membership in I(X);
the paper's statements about them are checked here.  H_(S/I_A)(d) counts
the distinct sums of d edge vectors (`oracle_hilbert_IA`).  Membership
is decided by evaluation on X (`oracle_binomial_in_IX`) and, as the
package's character labels would decide it, by the character test on
the Smith presentation of X (`same_character`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from toriccode import Clutter, field_from_q, parse_clutter, torus_distance, uniformity
from toriccode._linalg import rref
from toriccode.eval_code import evaluate_rows
from toriccode.intlattice import LatticeFacts, _insert, smith_normal_form

# ---------------------------------------------------------------------------
# clutter battery: small graphs with known structure
# ---------------------------------------------------------------------------

def _cycle(n):
    return [[i, i + 1] for i in range(1, n)] + [[1, n]]


def _complete(n):
    return [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1)]


BATTERY_DOCS = {
    # odd cycles
    "C3": {"n": 3, "edges": _cycle(3)},
    "C5": {"n": 5, "edges": _cycle(5)},
    "C7": {"n": 7, "edges": _cycle(7)},
    # even cycles
    "C4": {"n": 4, "edges": _cycle(4)},
    "C6": {"n": 6, "edges": _cycle(6)},
    # complete graphs
    "K4": {"n": 4, "edges": _complete(4)},
    "K5": {"n": 5, "edges": _complete(5)},
    # trees
    "P3": {"n": 3, "edges": [[1, 2], [2, 3]]},
    "P4": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
    "star4": {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
    "T7": {"n": 7, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [3, 6], [6, 7]]},
    # unicyclic with an odd cycle
    "U4": {"n": 4, "edges": [[1, 2], [2, 3], [1, 3], [3, 4]]},
    "U6": {"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5], [5, 6]]},
    "U7": {"n": 7, "edges": [[1, 2], [2, 3], [1, 3], [3, 4], [4, 5], [5, 6], [6, 7]]},
}

BATTERY = {name: parse_clutter(doc) for name, doc in BATTERY_DOCS.items()}

# ground truth from graph structure: a connected graph parameterizes the
# full torus exactly when its edge vectors are independent and the
# difference lattice is primitive, which holds for trees and for
# unicyclic graphs whose cycle is odd
CI_EXPECTED = {
    "C3": True, "C5": True, "C7": True,
    "C4": False, "C6": False,
    "K4": False, "K5": False,
    "P3": True, "P4": True, "star4": True, "T7": True,
    "U4": True, "U6": True, "U7": True,
}

# connected graphs containing an odd cycle
NON_BIPARTITE = ["C3", "C5", "C7", "K4", "K5", "U4", "U6", "U7"]

TRIANGLE = BATTERY["C3"]
K4 = BATTERY["K4"]


@pytest.fixture
def battery():
    return BATTERY


@pytest.fixture
def triangle():
    return TRIANGLE


@pytest.fixture
def k4():
    return K4


# ---------------------------------------------------------------------------
# random clutters for property tests
# ---------------------------------------------------------------------------

FIELD_SIZES = [3, 4, 5, 7, 8, 9]


def _largest(base: int, limit: int) -> int:
    """Largest k with base^k <= limit."""
    k = 0
    while base ** (k + 1) <= limit:
        k += 1
    return k


@st.composite
def clutters_over_fields(draw, max_torus):
    """(clutter, q) with (q-1)^n <= 10^5 tuples to walk, so that the
    tuple-walk oracle stays fast, and at most max_torus torus points in
    P^(s-1)."""
    q = draw(st.sampled_from(FIELD_SIZES))
    m = q - 1
    n_max = min(_largest(m, 10 ** 5), 8)
    s_max = _largest(m, max_torus) + 1
    n = draw(st.integers(3, n_max))
    s = draw(st.integers(2, s_max))
    edges = draw(
        st.lists(
            st.frozensets(st.integers(1, n), min_size=2, max_size=3),
            min_size=s,
            max_size=s,
            unique=True,
        )
    )
    # keep the inclusion-minimal edges, so that the family is a clutter
    edges = [e for e in edges if not any(f < e for f in edges)]
    assume(len(edges) >= 2)
    used = sorted(set().union(*edges))
    label = {v: i + 1 for i, v in enumerate(used)}
    doc = {"n": len(used), "edges": [sorted(label[v] for v in e) for e in edges]}
    return parse_clutter(doc), q


@st.composite
def uniform_clutters_over_fields(draw, max_torus):
    """(clutter, q) whose edges all have one size k in {2, 3}: a disjoint
    union of up to three blocks of k+1 to k+3 vertices, with at most
    max_torus torus points in P^(s-1).  A block's edges are random
    k-subsets, or the k-windows {i, ..., i+k-1} mod its size: a cycle for
    k = 2.  Two blocks with independent edge vectors and nonzero
    determinants above 1 (two odd cycles, say) give the difference lattice
    torsion, so that multiplication by q-1 can fail to be injective."""
    q = draw(st.sampled_from(FIELD_SIZES))
    s_max = _largest(q - 1, max_torus) + 1
    k = draw(st.integers(2, 3))
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        room = s_max - len(edges)
        if room < 1:
            break
        size = draw(st.integers(k + 1, k + 3))
        if size <= room and draw(st.booleans()):
            block = [sorted((i + j) % size + 1 for j in range(k)) for i in range(size)]
        else:
            subsets = list(itertools.combinations(range(1, size + 1), k))
            block = draw(
                st.lists(st.sampled_from(subsets), min_size=1, max_size=min(room, 4), unique=True)
            )
        edges += [[n + v for v in e] for e in block]
        n += size
    assume(len(edges) >= 2)
    used = sorted(set().union(*edges))
    label = {v: i + 1 for i, v in enumerate(used)}
    doc = {"n": len(used), "edges": [[label[v] for v in e] for e in edges]}
    return parse_clutter(doc), q


@st.composite
def clutters_with_v1_in_span(draw):
    """Non-uniform clutters with v_1 in the rational span of the
    differences v_i - v_1: three disjoint pairs and two disjoint triples
    on the same six vertices, one vertex of each pair in each triple, so
    that the three pair vectors sum to the two triple vectors.  A relation
    whose coefficients sum to 1, not 0, puts every v_j in the span of the
    v_i - v_j, whatever the edge order; then rank A = rank B.  Extra edges
    of size 2 or 3, on up to two more vertices, keep the relation."""
    order = draw(st.permutations(range(1, 7)))
    pairs = [sorted(order[i:i + 2]) for i in (0, 2, 4)]
    sides = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    first = sorted(p[side] for p, side in zip(pairs, sides))
    second = sorted(p[1 - side] for p, side in zip(pairs, sides))
    edges = [frozenset(e) for e in pairs + [first, second]]
    extra = draw(
        st.lists(st.frozensets(st.integers(1, 8), min_size=2, max_size=3), max_size=4)
    )
    for e in extra:
        if not any(e <= f or f <= e for f in edges):
            edges.append(e)
    edges = draw(st.permutations(edges))
    used = sorted(set().union(*edges))
    label = {v: i + 1 for i, v in enumerate(used)}
    return parse_clutter({"n": len(used), "edges": [sorted(label[v] for v in e) for e in edges]})


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def row_space_contains(field, R, pivots, v) -> bool:
    """Whether v lies in the row space described by an rref (R, pivots)."""
    w = np.array(v, dtype=field.dtype, copy=True)
    for i, c in enumerate(pivots):
        f = int(w[c])
        if f:
            w = field.sub(w, field.mul(np.asarray(f), R[i]))
    return not np.any(w)


def oracle_rref(field, M):
    """Reduced row echelon form by one column at a time: scan the columns
    left to right, take the first row with a nonzero entry as the pivot
    row, and clear the column in the rows that have a nonzero there.
    Returns (R, pivots) as `_linalg.rref` does."""
    R = np.array(M, dtype=field.dtype, copy=True)
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        below = np.nonzero(R[r:, c])[0]
        if below.size == 0:
            continue
        pr = r + int(below[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r] = field.mul(R[r], int(field.inv(piv)))
        f = R[:, c].copy()
        f[r] = 0
        touched = np.nonzero(f)[0]
        if touched.size:
            R[touched] = field.sub(R[touched], field.mul(f[touched, None], R[r][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def oracle_rank(field, M) -> int:
    """Rank by plain row echelon: eliminate below the pivot only, and only
    in the columns to its right.  Shares no code with `_linalg.rref`."""
    R = np.array(M, dtype=field.dtype, copy=True)
    nrows, ncols = R.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        below = np.nonzero(R[r:, c])[0]
        if below.size == 0:
            continue
        pr = r + int(below[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = int(R[r, c])
        rest = R[r, c + 1:]
        if piv != 1:
            rest = field.mul(rest, int(field.inv(piv)))
            R[r, c + 1:] = rest
        rows = r + 1 + np.nonzero(R[r + 1:, c])[0]
        if rows.size:
            f = R[rows, c]
            R[rows, c + 1:] = field.sub(R[rows, c + 1:], field.mul(f[:, None], rest[None, :]))
        r += 1
    return r


def multiplication_injective(relation_rows, factor: int) -> bool:
    """Is multiplication by ``factor`` injective on Z^n / L, where L is the
    lattice spanned by the given integer rows?"""
    if factor == 0:
        raise ValueError("factor must be nonzero")
    rows = [[int(x) for x in row] for row in relation_rows]
    if not rows:
        return True
    return all(gcd(factor, d) == 1 for d in oracle_snf_pivot_rule(rows))


def difference_matrix(C: Clutter) -> np.ndarray:
    """The s x n matrix B = V - V[0], row 0 zero: its columns generate X in
    exponent space."""
    V = np.array(C.vectors, dtype=np.int64)
    return V - V[0]


def difference_rows(C: Clutter) -> list[list[int]]:
    return difference_matrix(C)[1:].tolist()


def oracle_lattice_facts(C: Clutter) -> LatticeFacts:
    """`intlattice.lattice_facts` without its stopping rule: every
    difference row v_i - v_1 is inserted into the echelon, then the Smith
    form of that echelon, then v_1 inserted into it."""
    v1, *rest = C.vectors
    basis: dict[int, list[int]] = {}
    for v in rest:
        _insert(basis, [a - b for a, b in zip(v, v1)])
    snf = smith_normal_form([basis[c] for c in sorted(basis)])
    rank = len(basis) + _insert(basis, list(v1))
    return LatticeFacts(tuple(snf.invariant_factors), rank, snf.transform)


def oracle_phi_injective(C: Clutter, q: int) -> bool:
    """Multiplication by q-1 on Z^n / Z{v_i - v_1}, from a fresh Smith form."""
    return multiplication_injective(difference_rows(C), q - 1)


def oracle_ci_classify(C: Clutter, q: int) -> tuple:
    """(applicable, is_ci, vectors_independent, phi_injective) of the CI
    test for uniform clutters: the rank of A^T, then the injectivity of
    multiplication by q-1 on the difference rows, each computed afresh."""
    uniform, _ = uniformity(C)
    if not uniform:
        return False, None, None, None
    if oracle_rank_bareiss(C.vectors) != C.s:
        return True, False, False, None
    injective = oracle_phi_injective(C, q)
    return True, injective, True, injective


def oracle_delta_prime(C: Clutter, q: int, d: int):
    """delta'_d of a clutter: the torus formula in P^(n-1) when C is
    uniform and rank A = n, from a fresh rank; None otherwise."""
    uniform, _ = uniformity(C)
    if uniform and oracle_rank_fraction(C.vectors) == C.n:
        return torus_distance(q, C.n, d)
    return None


def oracle_rank_bareiss(M) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    A = [[int(x) for x in row] for row in M]
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


def oracle_snf_pivot_rule(M) -> list[int]:
    """Invariant factors by the Smith loop on the whole matrix: at each
    step the pivot is the smallest nonzero absolute value left, ties broken
    row-major; its row and column are cleared, and an entry the pivot does
    not divide is pulled into its row before the step is redone.  Entries
    can grow fast on dense matrices: inputs with a few columns or 0/+-1
    entries only."""
    D = [[int(x) for x in row] for row in M]
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

    t = 0
    while t < min(m, n):
        found = min(
            ((abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j]),
            default=None,
        )
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(t, i, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(t, j, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
        D[t][t] = abs(D[t][t])
        bad = next(
            (i for i in range(t + 1, m) for j in range(t + 1, n) if D[i][j] % D[t][t]),
            None,
        )
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return [D[i][i] for i in range(min(m, n)) if D[i][i] != 0]


def oracle_rank_fraction(M) -> int:
    """Rank over the rationals via plain Fraction elimination."""
    rows = [[Fraction(int(x)) for x in row] for row in M]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_det_fraction(M) -> Fraction:
    """Determinant via Fraction elimination, for square integer matrices."""
    rows = [[Fraction(int(x)) for x in row] for row in M]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = rows[c][c]
        rows[c] = [x / inv for x in rows[c]]
        for r in range(c + 1, n):
            if rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def oracle_snf_minor_gcd(M) -> list[int]:
    """Invariant factors via gcds of k x k minors.  Exponential; tiny inputs only."""
    A = [[int(x) for x in row] for row in M]
    m, n = len(A), len(A[0])
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[A[r][c] for c in cols] for r in rows]
                g = gcd(g, int(oracle_det_fraction(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def oracle_toric_points(C: Clutter, F) -> frozenset:
    """Brute-force canonical point set: loop over all unit tuples with
    scalar integer arithmetic (`oracle_field_ops`), canonicalize by
    dividing by the first coordinate, collect encoded tuples."""
    _, mul, exp, log = oracle_field_ops(F)
    m = F.q - 1
    pts = set()
    for x in itertools.product(range(1, F.q), repeat=C.n):
        coords = []
        for edge in C.edges:
            val = 1
            for v in edge:
                val = mul(val, x[v - 1])
            coords.append(val)
        first_inv = exp[-log[coords[0]] % m]
        pts.add(tuple(mul(c, first_inv) for c in coords))
    return frozenset(pts)


def oracle_enumerate_X(C: Clutter, F) -> np.ndarray:
    """Exponent rows of X, sorted: the images of all (q-1)^n unit tuples
    under the difference matrix, deduplicated at once as base-(q-1)
    numbers, first coordinate most significant, so that numeric order is
    the lexicographic order of rows."""
    m = F.q - 1
    V = np.array(C.vectors, dtype=np.int64)
    B = V - V[0]
    assert m ** C.s < 2 ** 63
    total = m ** C.n
    radix = m ** np.arange(C.n, dtype=np.int64)
    place = m ** np.arange(C.s - 1, -1, -1, dtype=np.int64)
    codes = np.empty(total, dtype=np.int64)
    for start in range(0, total, 1 << 16):
        ids = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        a = (ids[:, None] // radix[None, :]) % m
        codes[start:start + len(ids)] = ((a @ B.T) % m) @ place
    codes = np.unique(codes)
    return (codes[:, None] // place[None, :]) % m


def oracle_span(gens: np.ndarray, m: int) -> np.ndarray:
    """Rows of the subgroup of (Z/m)^s spanned by the columns of gens,
    sorted lexicographically, by closure.

    S starts as {0}.  For each column b, r is the least r >= 1 with r*b in
    S, found by scanning S; it divides the order of b.  S + <b> is then the
    disjoint union of the cosets S + k*b for k = 0..r-1.
    """
    s = gens.shape[0]
    S = np.zeros((1, s), dtype=np.int64)
    for b in np.asarray(gens, dtype=np.int64).T % m:
        order = m // gcd(m, *(int(x) for x in b))
        for r in range(1, order + 1):
            if order % r == 0 and (r == order or (S == r * b % m).all(axis=1).any()):
                break
        steps = np.arange(r, dtype=np.int64)[:, None] * b % m  # r x s
        S = ((steps[:, None, :] + S[None, :, :]) % m).reshape(-1, s)
    return S[np.lexsort(S.T[::-1])]


def same_character(a_plus, a_minus, X) -> bool:
    """Membership of t^(a+) - t^(a-) in I(X) as the package's labels decide
    it, with no point: equal degree and (a+ - a-) @ X.chars = 0 mod
    X.orders, on X's Smith presentation."""
    diff = np.array(a_plus, dtype=np.int64) - np.array(a_minus, dtype=np.int64)
    return sum(a_plus) == sum(a_minus) and not (diff @ X.chars % np.array(X.orders)).any()


def oracle_binomial_in_IX(a_plus, a_minus, X) -> bool:
    """Membership of t^(a+) - t^(a-) in I(X) by evaluation: a homogeneous
    binomial that vanishes at every point of X."""
    if sum(a_plus) != sum(a_minus):
        return False
    rows = evaluate_rows(X, np.array([a_plus, a_minus], dtype=np.int64))
    return not np.any(X.field.sub(rows[0], rows[1]))


def oracle_points_csv(X) -> str:
    """The CSV dump of X row by row: a header t1,...,ts, then the
    primitive-power indices (log + 1) of each point."""
    lines = [",".join(f"t{j + 1}" for j in range(X.s))]
    for row in X.logs:
        lines.append(",".join(str(int(e) + 1) for e in row))
    return "\n".join(lines) + "\n"


def oracle_field_tables(p: int, k: int, modulus, primitive: int):
    """(digits, exp, log) of GF(p^k) with the given monic modulus (constant
    first) and primitive element, by scalar loops: the base-p digits of
    every encoding by repeated division, and the powers of the primitive
    element one after another, each the previous digit polynomial times
    that of the primitive element, reduced by the modulus from the top."""
    q = p ** k
    digits = []
    for e in range(q):
        row = []
        for _ in range(k):
            e, r = divmod(e, p)
            row.append(r)
        digits.append(row)
    factor = [(j, c) for j, c in enumerate(digits[primitive]) if c]
    exp, log = [], [-1] * q
    power = [1] + [0] * (k - 1)
    for i in range(q - 1):
        enc = sum(c * p ** j for j, c in enumerate(power))
        exp.append(enc)
        log[enc] = i
        prod = [0] * (2 * k)
        for j, a in enumerate(power):
            if a:
                for l, c in factor:
                    prod[j + l] += a * c
        for top in range(2 * k - 1, k - 1, -1):
            lead = prod[top] % p
            if lead:
                for j in range(k):
                    prod[top - k + j] -= lead * modulus[j]
        power = [c % p for c in prod[:k]]
    return digits, exp, log


def oracle_field_ops(F):
    """(add, mul, exp, log) of GF(q) on integer encodings, from the tables
    of `oracle_field_tables` for F.modulus and the primitive element
    F.exp[1]: a sum adds base-p digits mod p, a product adds logs mod q-1.
    No FiniteField kernel is called."""
    p, m = F.p, F.q - 1
    digits, exp, log = oracle_field_tables(p, F.k, F.modulus, int(F.exp[1]))

    def add(a: int, b: int) -> int:
        return sum((x + y) % p * p ** j for j, (x, y) in enumerate(zip(digits[a], digits[b])))

    def mul(a: int, b: int) -> int:
        return exp[(log[a] + log[b]) % m] if a and b else 0

    return add, mul, exp, log


def oracle_min_weight(F, G) -> int:
    """Exhaustive minimum weight over all nonzero messages, scalar loop
    with the arithmetic of `oracle_field_ops`.  Only usable for q**k up to
    a few thousand."""
    add, mul, _, _ = oracle_field_ops(F)
    k, n = G.shape
    rows = [[int(e) for e in row] for row in np.asarray(G)]
    best = None
    for msg in itertools.product(range(F.q), repeat=k):
        if not any(msg):
            continue
        w = 0
        for j in range(n):
            acc = 0
            for i in range(k):
                acc = add(acc, mul(msg[i], rows[i][j]))
            w += acc != 0
        if best is None or w < best:
            best = w
    return best


def oracle_one_form_isd(p: int, G) -> int:
    """What information-set search with the transitive bound returns on
    the systematic matrix G = [I_k | A] over the prime field GF(p) = Z/p:
    with M(w) the least weight of a message with at most w nonzeros, M(w)
    for the first w with ceil(n(w+1)/k) >= M(w), or M(k).  Every one of
    the p^k - 1 messages is weighed by integer arithmetic mod p."""
    G = np.asarray(G, dtype=np.int64)
    k, n = G.shape
    messages = np.array(list(itertools.product(range(p), repeat=k))[1:], dtype=np.int64)
    weights = np.count_nonzero(messages @ G % p, axis=1)
    support = np.count_nonzero(messages, axis=1)
    for w in range(1, k + 1):
        best = int(weights[support <= w].min())
        if -(-n * (w + 1) // k) >= best:
            break
    return best


def oracle_first_coefficient_one_weight(p: int, G) -> int:
    """The least weight of m G over the p^(k-1) messages m with m[0] = 1,
    over the prime field GF(p) = Z/p by integer arithmetic mod p.  When G
    is in RREF and a group acting regularly on the coordinates maps its
    code to itself, this is the minimum distance."""
    G = np.asarray(G, dtype=np.int64)
    tails = itertools.product(range(p), repeat=G.shape[0] - 1)
    messages = np.array([(1, *tail) for tail in tails], dtype=np.int64)
    return int(np.count_nonzero(messages @ G % p, axis=1).min())


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array as opaque byte strings, one element each."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def oracle_standard_walk(gens: np.ndarray, m: int, max_degree: int):
    """Yield (Delta_d, leads_d, tails_d) for d = 0, 1, ..., max_degree by
    a walk over all standard monomials, with no use of ts.

    The candidates of degree d are Delta_(d-1) times t_1..t_s, sorted and
    deduplicated as the bytes of top - e[::-1] in big-endian words (which
    ascend as e does in revlex).  A candidate lies outside the ideal of the
    lower leading terms when it occurs nnz(c) times among the products;
    of those, the first in ascending revlex of each key is standard, and
    every later one is a leading term whose tail is that first one.
    """
    s = gens.shape[0]
    width = next(b for b in (1, 2, 4, 8) if 256 ** b > max_degree)
    word = np.dtype(f">u{width}")
    top = np.iinfo(word).max
    std = np.zeros((1, s), dtype=np.int64)
    yield std, std[:0], std[:0]
    step = np.eye(s, dtype=np.int64)
    for _ in range(max_degree):
        cand = (std[:, None, :] + step[None, :, :]).reshape(-1, s)
        flipped = (top - cand[:, ::-1]).astype(word)
        _, index, hits = np.unique(_rows(flipped), return_index=True, return_counts=True)
        cand = cand[index[hits == np.count_nonzero(cand[index], axis=1)]]
        _, first, group = np.unique(
            _rows((cand @ gens) % m), return_index=True, return_inverse=True
        )
        standard = np.zeros(len(cand), dtype=bool)
        standard[first] = True
        std = cand[standard]
        yield std, cand[~standard], cand[first[group[~standard]]]


def oracle_hilbert_IA(C: Clutter, d: int) -> int:
    """Distinct degree-d sums of edge incidence vectors."""
    cols = [tuple(col) for col in np.array(C.vectors, dtype=int)]
    sums = set()
    for combo in itertools.combinations_with_replacement(cols, d):
        sums.add(tuple(sum(v) for v in zip(*combo)))
    return len(sums)


def oracle_torus_h_vector(s: int, q: int) -> list[int]:
    """Coefficients of (1 + t + ... + t^(q-2))**(s-1)."""
    block = np.ones(q - 1, dtype=np.int64)
    out = np.array([1], dtype=np.int64)
    for _ in range(s - 1):
        out = np.polymul(out, block)
    return [int(c) for c in out]


def exponent_matrix(s: int, d: int) -> np.ndarray:
    """Exponent vectors of all degree-d monomials in s variables, as rows,
    in descending reverse-lexicographic order (t1^d first, ts^d last)."""
    if d == 0:
        return np.zeros((1, s), dtype=np.int64)
    rows = []
    # stars and bars: bar positions inside d + s - 1 slots
    for bars in itertools.combinations(range(d + s - 1), s - 1):
        cuts = (-1, *bars, d + s - 1)
        rows.append(tuple(b - a - 1 for a, b in zip(cuts, cuts[1:])))
    rows.sort(key=lambda e: tuple(reversed(e)))
    return np.array(rows, dtype=np.int64)


def outside_leads(E: np.ndarray, lts) -> np.ndarray:
    """The rows of E that no leading term in lts divides."""
    if not len(lts) or E.size == 0:
        return E
    L = np.array(lts, dtype=np.int64)
    divisible = (E[:, None, :] >= L[None, :, :]).all(axis=2).any(axis=1)
    return E[~divisible]


def oracle_standard_count(G, d) -> int:
    """Number of degree-d monomials outside the leading-term ideal of G."""
    return len(outside_leads(exponent_matrix(G.s, d), G.leading_terms))


def _residue_rows(X, d):
    """One degree-d exponent row per residue class mod q-1: monomials in
    one class agree on X, whose coordinates are units."""
    return np.unique(exponent_matrix(X.s, d) % (X.field.q - 1), axis=0)


def oracle_hilbert_rank(X, d) -> int:
    """H_X(d) as the GF(q) rank of the degree-d evaluation rows."""
    return oracle_rank(X.field, evaluate_rows(X, _residue_rows(X, d)))


def oracle_regularity(X) -> int:
    """Least d with oracle_hilbert_rank(X, d) = |X|, by linear search."""
    d = 0
    while oracle_hilbert_rank(X, d) < len(X):
        d += 1
    return d


def oracle_code_generator(X, d):
    """RREF generator of C_X(d) from all degree-d evaluation rows."""
    R, pivots = rref(X.field, evaluate_rows(X, _residue_rows(X, d)))
    return R[: len(pivots)]


def oracle_interpolate_gb(X):
    """(terms of each element, standard counts) of the reduced revlex basis
    of I(X), by one GF(q) rref per degree over the candidate evaluations.

    A candidate that is not a pivot column closes into a basis element
    with the pivot columns it depends on as its tail.
    """
    F, s = X.field, X.s
    lts, elements, counts = [], [], {0: 1}
    stable_at = 0 if len(X) == 1 else None
    d = 0
    while stable_at is None or d <= stable_at:
        d += 1
        cands = outside_leads(exponent_matrix(s, d)[::-1], lts)
        R, pivots = rref(F, evaluate_rows(X, cands).T)
        counts[d] = len(pivots)
        cand_tuples = [tuple(int(x) for x in row) for row in cands]
        for j in range(len(cands)):
            if j in pivots:
                continue
            terms = [(cand_tuples[j], 1)]
            for i, p in enumerate(pivots):
                if p < j and int(R[i, j]):
                    terms.append((cand_tuples[p], int(F.neg(int(R[i, j])))))
            # later candidates are larger in revlex
            terms.sort(key=lambda t: -cand_tuples.index(t[0]))
            elements.append(tuple(terms))
            lts.append(cand_tuples[j])
        if stable_at is None and len(pivots) == len(X):
            stable_at = d
    elements.sort(key=lambda t: (sum(t[0][0]), tuple(reversed(t[0][0]))))
    return elements, counts


def oracle_verify_gb_structure(G) -> dict:
    """The structure checks of `verify_gb_structure`, element by element
    over `G.elements` with their coefficients in GF(G.q): (i) every pure
    binomial ti^(q-1) - ts^(q-1), i < s, is an element, with coefficients
    1 and -1; (ii) no exponent exceeds q-1; (iii) every element is a
    homogeneous binomial with disjoint supports."""
    q, s = G.q, G.s
    minus_one = int(field_from_q(q).neg(1))
    pure_needed = set()
    for i in range(s - 1):
        lead = tuple((q - 1) if j == i else 0 for j in range(s))
        tail = tuple((q - 1) if j == s - 1 else 0 for j in range(s))
        pure_needed.add((lead, tail))
    pure_found = set()
    per_var_ok = True
    binomial_ok = True
    for g in G.elements:
        for expo, _ in g.terms:
            if any(e > q - 1 for e in expo):
                per_var_ok = False
        if not (is_binomial(g) and support_disjoint(g)):
            binomial_ok = False
            continue
        (a, ca), (b, cb) = g.terms
        if sum(a) != sum(b):
            binomial_ok = False
        if ca == 1 and cb == minus_one and (a, b) in pure_needed:
            pure_found.add((a, b))
    return {
        "pure_powers_present": pure_found == pure_needed,
        "per_variable_degree_le_q_minus_1": per_var_ok,
        "homogeneous_binomials_disjoint_support": binomial_ok,
        "missing_pure_powers": sorted(pure_needed - pure_found),
    }


def oracle_vanishing_defect(G, X) -> int:
    """How many basis elements t^lead - t^tail fail to vanish on X (0 = all
    vanish): an element vanishes at a point exactly when both monomials
    take the same primitive-power exponent there."""
    return int(((G.leads - G.tails) @ X.logs.T % (X.q - 1)).any(axis=1).sum())


def torus_gens(s: int) -> np.ndarray:
    """[0; I_(s-1)], the s x (s-1) generator matrix of the projective
    torus in exponent space: X is the image of (Z/m)^(s-1) under it."""
    return np.eye(s, s - 1, k=-1, dtype=np.int64)


# helpers on the HomogPoly form of a basis element

def degree(g) -> int:
    return sum(g.lead)


def is_binomial(g) -> bool:
    return len(g.terms) == 2


def support_disjoint(g) -> bool:
    if len(g.terms) != 2:
        return False
    (a, _), (b, _) = g.terms
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def term_string(g, F) -> str:
    """The terms of g as text: a coefficient 1 is left out, -1 is a sign,
    and any other is g^i for its log i."""
    parts = []
    for expo, enc in g.terms:
        mono = "*".join(
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(expo) if e
        ) or "1"
        if enc == 1:
            coeff = ""
        elif enc == int(F.neg(1)):
            coeff = "-"
        else:
            coeff = f"g^{int(F.log[enc])}*"
        if not parts:
            parts.append(f"{coeff}{mono}" if coeff != "-" else f"-{mono}")
        elif coeff == "-":
            parts.append(f"- {mono}")
        elif coeff == "":
            parts.append(f"+ {mono}")
        else:
            parts.append(f"+ {coeff}{mono}")
    return " ".join(parts)
