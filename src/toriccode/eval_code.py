"""Evaluation codes C_X(d) and the Hilbert data of the point set X.

Degree-d forms are evaluated at the canonical representatives of X; since
those have first coordinate 1, plain evaluation already agrees with the
normalization by t1^d.

On X the monomial t^e is a character, and distinct characters of a
finite group are linearly independent (Artin).  In the Smith coordinates
of X (`ToricSet.orders`, `ToricSet.chars`) the character of t^e is the
vector c = e @ X.chars mod X.orders, with 0 <= c_j < o_j, labelled by its
mixed-radix value in [0, |X|).  So two degree-d monomials agree on X
exactly when their labels agree, I(X) is spanned by the binomials
t^e - t^e' of equal degree and label, and the revlex-least monomial of
each label is standard.  Multiplying by t_i adds c(t_i), so one table
(`shift_table`) moves every label.

Every point of X has unit coordinates, so ts is a nonzerodivisor mod I(X),
and in revlex then mod the initial ideal too (Bayer-Stillman): Delta_d,
the standard monomials of degree d, is ts Delta_(d-1) together with N_d,
those of degree d prime to ts, and h_d = |N_d|.  The N_d are the Artinian
reduction of S/I(X); together they hold one monomial per character of X.
One walk (`standard_walk`) lists them degree by degree, in ascending
revlex, through the regularity r.  The walk depends on X alone:
`walk_of(X)` takes it once and keeps it while X lives.  H_X(d) is
|N_0| + ... + |N_d|; the regularity, the h-vector, the rows behind C_X(d),
the searches of `mindist` and the basis in `vanishing_ideal` all read that
one walk, with no field arithmetic.  The leading terms of the reduced
revlex Groebner basis (all prime to ts, of degree at most r+1) and their
tails come from the N_d in one pass (`StandardWalk.reduced_basis`).  Only the
generator matrix of C_X(d) is computed over GF(q), as the reduced row
echelon form of the evaluations of Delta_d; RREF is unique for a row space,
so the choice of monomials does not show in it.  When Delta_d holds more
than half of the characters of X, `code` eliminates instead the smaller
generator of the dual, the inverse characters outside Delta_d, and reads
the same RREF off it.

Setting ts = 1 takes the revlex basis to a degree-compatible basis of the
affine vanishing ideal of X, whose standard monomials are the N_d.  A
nonzero form of degree d reduces to an affine f of degree at most d with
leading monomial M in N_0, ..., N_d, and f is nonzero at no fewer points of
X than there are multiples of M among the N_j: the footprint bound
(Geil-Hoeholdt 2000; Martinez-Bernal, Pitones and Villarreal 2017).  So
delta_d is at least the least such count, `StandardWalk.footprint(d)`.
In its Smith coordinates X is a grid of roots of unity, and C_X(d) a
monomial-Cartesian code on it, so the footprint of a Cartesian grid,
maximized over every shift of the characters of Delta_d, bounds delta_d
too (`box_bound`).  `code` records the larger of the two on C_X(d) as the
floor of both distance searches.

Blocked loops (the footprint count, the box scan, the searches of
`mindist`) size their blocks by _CELL_CAP = 2^18 cells: 2 MiB at 8 bytes a
cell, the size of a per-core L2 cache.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .finite_field import FiniteField
from .toric_set import ToricSet

_CELL_CAP = 1 << 18  # cells of the largest array a block of a count, a scan or a search allocates
_BOX_BUDGET = 1 << 24  # (shift, monomial) pairs the box bound of one code weighs


def shift_table(chars: np.ndarray, orders) -> np.ndarray:
    """T[i, l] = label(c(l) + c(t_i) - c(ts)) for i < s-1, in the Smith
    coordinates c of `ToricSet`, where the label of c is
    sum_j c_j prod_(k<j) o_k: the label of u t_i for u of label l (see
    `standard_walk`).  Digit j of the label moves on its own, so T is built
    one digit at a time, the new digit more significant than those before
    it."""
    step = (chars[:-1] - chars[-1]) % np.array(orders)  # (s-1) x len(orders)
    T = np.zeros((len(step), 1), dtype=np.int64)
    weight = 1
    for j, o in enumerate(orders):
        if o > 1:
            digit = (np.arange(o) + step[:, j, None]) % o * weight  # (s-1) x o
            T = (digit[:, :, None] + T[:, None, :]).reshape(len(step), -1)
            weight *= o
    return T


def standard_walk(shift: np.ndarray):
    """Yield the walk through N_d, for d = 0, 1, ..., r, r the regularity:
    (rows, labels, last), the monomials of N_0, ..., N_d one after another,
    the label of each and its last variable below ts (0 for the monomial
    1).  Each is a prefix of one array of |X| entries that the walk fills
    degree by degree, so the last yield is all of it.

    N_d holds the degree-d standard monomials prime to ts, in ascending
    revlex.  A monomial u stands for the character key(u) - deg(u) key(ts),
    labelled as in `ToricSet`; ``shift`` is the table of `shift_table`, so
    the label of u t_i is shift[i, label of u].  The ideal is spanned by the
    binomials of equal degree and key.

    A monomial u of degree d prime to ts is standard when no degree-d
    monomial of its key is divisible by ts, that is when no standard
    monomial n of degree j < d has the key of u ts^(j-d), and u is the
    least of its key in revlex.  So each standard monomial n owns the label
    of its character, and u is standard when it is the first of its label
    in degree d and the label has no owner yet.  Candidates are the
    products p t_i of p in N_(d-1) and i < s with i at least the last
    variable of p: each monomial prime to ts arises once, from its own
    parent, and taking the variables from the last down lists them in
    ascending revlex.  The walk ends at the degree r where every label has
    an owner, so sum |N_d| = |X|.
    """
    s, size = shift.shape[0] + 1, shift.shape[1]
    owner = np.full(size, -1, dtype=np.int64)  # label -> row
    first = np.full(size, size * s, dtype=np.int64)  # label -> first candidate, within a degree
    rows = np.zeros((size, s), dtype=np.int64)  # N_0, N_1, ... one after another
    labels = np.zeros(size, dtype=np.int64)  # label of each row
    last = np.zeros(size, dtype=np.int64)  # last variable of each row (0 for 1)
    owner[0] = 0
    descending = np.arange(s - 2, -1, -1)[:, None]
    lo, hi = 0, 1
    yield rows[:1], labels[:1], last[:1]
    while lo < hi < size:
        v, parent = np.nonzero(last[lo:hi] <= descending)
        parent += lo
        var = descending[v, 0]
        label = shift[var, labels[parent]]
        free = np.flatnonzero(owner[label] < 0)
        taken = label[free]
        np.minimum.at(first, taken, free)
        new = free[first[taken] == free]
        first[taken] = size * s

        end = hi + len(new)
        index = np.arange(hi, end)
        i = var[new]
        rows[hi:end] = rows[parent[new]]
        rows[index, i] += 1
        labels[hi:end] = label[new]
        last[hi:end] = i
        owner[labels[hi:end]] = index
        lo, hi = hi, end
        yield rows[:hi], labels[:hi], last[:hi]


def evaluate_rows(X: ToricSet, E: np.ndarray) -> np.ndarray:
    """Evaluate the monomials with exponent rows E at every point of X.

    Returns the len(E) x |X| matrix of field encodings.  Valid because all
    coordinates of X are units, so evaluation happens in exponent space;
    an exponent may be negative, as for the rows of `StandardWalk.dual`.
    """
    F = X.field
    R = (np.asarray(E, dtype=np.int64) @ X.logs.T) % (F.q - 1)
    return F.exp[R]


@dataclass
class LinearCode:
    """A linear code over GF(q) that a group acting regularly on the
    coordinates maps to itself, as every C_X(d) built by `code` is; the
    searches of `mindist` rest on that action."""

    generator: np.ndarray  # RREF, dimension x length, field encodings
    d: int
    field: FiniteField
    source: str
    # a proven lower bound on the minimum distance; both searches stop once
    # a codeword reaches it
    floor: int = 1

    @property
    def length(self) -> int:
        return self.generator.shape[1]

    @property
    def dimension(self) -> int:
        return self.generator.shape[0]

    def __repr__(self):
        return (
            f"LinearCode[{self.length},{self.dimension}] over {self.field!r} "
            f"(d={self.d}, {self.source})"
        )


class StandardWalk:
    """The standard monomials of X from one walk, taken at construction
    through the regularity r.

    ``rows`` holds N_0, ..., N_r one after another, |X| monomials in all
    (N_d is empty past r), ``labels`` the label of each and ``last`` its
    last variable below ts: the arrays of the walk.  N_d is the slice
    ``rows[H_X(d-1):H_X(d)]``.  ``h_vector`` is (|N_0|, ..., |N_r|) and
    ``hilbert_counts`` is (H_X(0), ..., H_X(r)).  All are read-only, as
    `walk_of` hands one walk to every caller that asks about X; the walk
    adds only the footprint of each degree it is asked for.
    """

    def __init__(self, X: ToricSet):
        # the walk keeps no reference to X, so the memo of walk_of does not
        # keep X alive
        self._shift = shift_table(X.chars, X.orders)
        ends = []
        for rows, labels, last in standard_walk(self._shift):
            ends.append(len(rows))
        for a in (rows, labels, last):
            a.setflags(write=False)
        self.rows, self.labels, self.last = rows, labels, last
        self.hilbert_counts = tuple(ends)
        self.h_vector = tuple(b - a for a, b in zip((0, *ends), ends))
        self.regularity = len(ends) - 1
        self._least = {}  # degree d -> the least count of multiples over N_d

    def standard(self, d: int) -> np.ndarray:
        """Delta_d = ts^d N_0, ts^(d-1) N_1, ..., N_d in ascending revlex."""
        h = self.h_vector[: d + 1]
        delta = self.rows[: sum(h)].copy()
        delta[:, -1] += np.repeat(d - np.arange(len(h)), h)  # ts^(d-j) N_j
        return delta

    def hilbert(self, d: int) -> int:
        """H_X(d) = |N_0| + ... + |N_d|."""
        return self.hilbert_counts[min(d, self.regularity)]

    def dual(self, d: int) -> np.ndarray:
        """The exponents of t^(-u) ts^(deg u - d) for u in N_(d+1), ...,
        N_r: their evaluations span the dual of C_X(d) (see `code`)."""
        h = self.h_vector
        dual = -self.rows[self.hilbert(d) :]
        dual[:, -1] = np.repeat(np.arange(1, len(h) - d), h[d + 1 :])
        return dual

    def footprint(self, d: int) -> int:
        """The least number of multiples in N_0, ..., N_r of a monomial of
        N_0, ..., N_d: a lower bound on delta_d (see the module docstring).
        A monomial of N_d, d >= 1, is a multiple of its parent in N_(d-1)
        (see `standard_walk`), which so has at least as many multiples: the
        least count over N_d alone is the bound.  It is 1, with no count,
        from the regularity on.  Each degree is counted once, on its first
        request, and kept; the monomials are counted in blocks of rows, so
        that no array exceeds _CELL_CAP cells."""
        if d >= self.regularity:
            return 1
        if d not in self._least:
            # the N_j are prime to ts: their other exponents are the affine ones
            standard = self.rows[:, :-1]
            counted = standard[self.hilbert(d) - self.h_vector[d] : self.hilbert(d)]
            block = max(1, _CELL_CAP // standard.size)
            self._least[d] = min(
                int((standard >= counted[i : i + block, None]).all(axis=2).sum(axis=1).min())
                for i in range(0, len(counted), block)
            )
        return self._least[d]

    def reduced_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The leading terms of the reduced revlex basis and, row by row,
        their tails, as two read-only arrays, in one pass over the N_d: by
        degree, and in descending revlex within a degree.

        The leading terms are prime to ts and have degree at most r+1.  The
        candidates are the products p t_i, p in N_0, ..., N_r and i < s at
        least the last variable of p, as in the walk; each monomial prime
        to ts of degree at most r+1 is one of them.  The standard ones are
        the monomials n != 1 of the N_d, each the product of its parent
        n / t_k, k its last variable, and t_k; the parent is standard and
        prime to ts, so it owns the label inverse[k, label(n)] of the
        inverse table of shift.  Any other candidate is a leading term when
        each divisor (p / t_k) t_i, p_k > 0, is standard, where p / t_k owns
        the label inverse[k, label(p)].  Its tail is the owner of its label
        times ts^(d - j), d its degree and j that of the owner.
        """
        rows, labels, last, shift = self.rows, self.labels, self.last, self._shift
        size, s = rows.shape
        index = np.arange(size)
        owner = np.empty(size, dtype=np.int64)
        owner[labels] = index
        inverse = np.empty_like(shift)
        inverse[np.arange(s - 1)[:, None], shift] = index
        degree = np.repeat(np.arange(len(self.h_vector)), self.h_vector)
        standard = np.zeros((s - 1, size), dtype=bool)  # whether p t_i is standard, by [i, p]
        standard[last[1:], owner[inverse[last[1:], labels[1:]]]] = True

        descending = np.arange(s - 2, -1, -1)[:, None]
        v, p = np.nonzero((last <= descending) & ~standard[::-1])
        i = descending[v, 0]
        # nearly every candidate that is not a leading term has a divisor
        # (p / t_k) t_i outside the standard monomials for k the first
        # variable of p: that one divisor is tested first, on every
        # candidate, and all of them only on those that pass
        k = np.argmax(rows[p, :-1] > 0, axis=1)
        keep = standard[i, owner[inverse[k, labels[p]]]] | (p == 0)
        p, i = p[keep], i[keep]
        c, k = np.nonzero(rows[p, :-1])  # the divisors (p / t_k) t_i of candidate c
        below = owner[inverse[k, labels[p[c]]]]  # the rows p / t_k
        lead = np.ones(len(p), dtype=bool)
        lead[c[~standard[i[c], below]]] = False
        p, i = p[lead], i[lead]

        leads = rows[p]
        leads[np.arange(len(p)), i] += 1
        o = owner[shift[i, labels[p]]]
        tails = rows[o]
        tails[:, -1] += degree[p] + 1 - degree[o]
        # candidates run in ascending revlex within each degree
        order = np.argsort(degree[p][::-1], kind="stable")
        leads, tails = leads[::-1][order], tails[::-1][order]
        leads.setflags(write=False)
        tails.setflags(write=False)
        return leads, tails


_WALKS: weakref.WeakKeyDictionary[ToricSet, StandardWalk] = weakref.WeakKeyDictionary()


def walk_of(X: ToricSet) -> StandardWalk:
    """The StandardWalk of X, built on the first request and kept while X
    lives."""
    walk = _WALKS.get(X)
    if walk is None:
        walk = _WALKS[X] = StandardWalk(X)
    return walk


def box_bound(X: ToricSet, d: int, stop: int) -> int:
    """The shifted box bound on delta_d, scanned until it reaches ``stop``.

    In the Smith coordinates of X the point of b in prod [0, o_j) gives t^e
    the value prod_j zeta_j^(c_j b_j), zeta_j of order o_j and
    c = e @ X.chars mod X.orders: X is the grid mu_(o_1) x ... x mu_(o_r),
    and C_X(d) is spanned by the evaluations of the monomials x^a, a in A,
    the characters of Delta_d.  A nonzero f = sum_(a in A) f_a x^a has a
    leading exponent M in A, and is nonzero at no fewer than
    prod_j (o_j - M_j) points of the grid (the footprint of a Cartesian
    set).  Multiplying f by the unit x^b keeps its weight and moves its
    exponents to A + b mod o.  So delta_d is at least the max over shifts b
    of the min over a in A of prod_j (o_j - (a_j + b_j) mod o_j).

    The shifts are taken in the order of their labels, in blocks of at most
    _CELL_CAP (shift, monomial) pairs.  The scan stops once the max reaches
    ``stop``, or after _BOX_BUDGET pairs; a partial max is a proven bound
    too.  Coordinates with o_j = 1 add a factor 1 and are dropped.
    """
    walk = walk_of(X)
    orders = np.array(X.orders, dtype=np.int64)
    kept = orders > 1
    A = (walk.standard(d) @ X.chars % orders)[:, kept]
    orders = orders[kept]
    weights = np.cumprod(np.concatenate(([1], orders[:-1])))  # of each digit in a label
    # factors[j][a_j + b_j] = o_j - (a_j + b_j) mod o_j, as a_j + b_j < 2 o_j - 1
    factors = [o - np.arange(2 * o - 1) % o for o in orders]
    shifts = min(len(X), max(1, _BOX_BUDGET // len(A)))
    block = max(1, _CELL_CAP // len(A))
    best = 0
    for first in range(0, shifts, block):
        labels = np.arange(first, min(first + block, shifts))
        least = np.ones((len(labels), len(A)), dtype=np.int64)
        for a, o, weight, factor in zip(A.T, orders, weights, factors):
            least *= factor[a + (labels // weight % o)[:, None]]
        best = max(best, int(least.min(axis=1).max()))
        if best >= stop:
            break
    return best


def code(X: ToricSet, d: int) -> LinearCode:
    """The parameterized code C_X(d) with its canonical generator matrix,
    from the walk of X.

    X acts regularly on the coordinates: x in X moves the point p to x*p,
    which only rescales the evaluation row of each monomial t^e (by
    t^e(x)), so it maps C_X(d) to itself; C_X(d) is an abelian group code.

    The generator is the RREF of the evaluations of Delta_d, k = H_X(d)
    rows, when 2k <= |X|.  Otherwise the smaller generator of the dual is
    eliminated.  Distinct characters are orthogonal over X, and |X| divides
    q-1, so the dual of C_X(d) is spanned by the inverses of the characters
    outside Delta_d: the evaluations of `StandardWalk.dual`, |X| - k rows.
    Its RREF on the reversed columns has as pivots, read back, the
    complement J of the lexicographically first information set I of
    C_X(d) (matroid duality), and I holds the pivots of the RREF of
    C_X(d).  With the dual's rows [A on I | identity on J], the RREF of
    C_X(d) is [identity on I | -A^T on J]: the same matrix, as RREF is
    unique for a row space.

    Its floor is the footprint bound of the walk and, when that is below
    the lightest generator row, the larger box bound (`box_bound`), scanned
    until it reaches that row.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    walk = walk_of(X)
    F, n, k = X.field, len(X), walk.hilbert(d)
    if d >= walk.regularity:
        # the code is all of GF(q)^|X|, whose RREF basis is the identity;
        # elimination would cost O(|X|^3)
        G = np.eye(n, dtype=F.dtype)
    elif 2 * k > n:
        R, pivots = _linalg.rref(F, evaluate_rows(X, walk.dual(d))[:, ::-1])
        J = n - 1 - np.array(pivots, dtype=np.int64)
        information = np.ones(n, dtype=bool)
        information[J] = False
        I = np.flatnonzero(information)
        G = np.zeros((k, n), dtype=F.dtype)
        G[np.arange(k), I] = 1
        G[:, J] = F.neg(R[: len(J), ::-1][:, I].T)
    else:
        R, pivots = _linalg.rref(F, evaluate_rows(X, walk.standard(d)))
        G = R[: len(pivots)]
    floor = walk.footprint(d)
    lightest = int((G != 0).sum(axis=1).min())
    if floor < lightest:
        floor = max(floor, box_bound(X, d, lightest))
    return LinearCode(generator=G, d=d, field=F, source=X.source, floor=floor)


def hilbert_function(X: ToricSet, d: int) -> int:
    """H_X(d) = dim of the degree-d piece of the homogeneous coordinate ring."""
    if d < 0:
        raise ValueError("need d >= 0")
    return walk_of(X).hilbert(d)


def regularity(X: ToricSet) -> int:
    """Least d with H_X(d) = |X|; bounded above by (q-2)(s-1)."""
    return walk_of(X).regularity


def h_vector(X: ToricSet) -> list[int]:
    """h_d = |N_d|, the standard monomials of degree d prime to ts, through
    the regularity; entries are positive and sum to |X|."""
    return list(walk_of(X).h_vector)
