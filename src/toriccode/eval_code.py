"""Evaluation codes C_X(d) and the Hilbert data of the point set X.

Degree-d forms are evaluated at the canonical representatives of X; since
those have first coordinate 1, plain evaluation already agrees with the
normalization by t1^d.

On X the monomial t^e is the character with key e @ X.gens mod q-1, and
distinct characters of a finite group are linearly independent (Artin).
So two degree-d monomials agree on X exactly when their keys agree, I(X)
is spanned by the binomials t^e - t^e' of equal keys, and the revlex-least
monomial of each key is standard.

Every point of X has unit coordinates, so ts is a nonzerodivisor mod I(X),
and in revlex then mod the initial ideal too (Bayer-Stillman): Delta_d,
the standard monomials of degree d, is ts Delta_(d-1) together with N_d,
those of degree d prime to ts, and h_d = |N_d|.  The N_d are the Artinian
reduction of S/I(X); together they hold one monomial per character of X.
One walk (`standard_walk`) lists them degree by degree, in ascending
revlex, with the new leading terms of the reduced revlex Groebner basis
(all prime to ts) and their tails.  The walk depends on X alone:
`walk_of(X)` takes it once, through the regularity r, and keeps it while X
lives.  H_X(d) is |N_0| + ... + |N_d|; the regularity, the h-vector, the
rows behind C_X(d), the searches of `mindist` and the basis in
`vanishing_ideal` all read that one walk, with no field arithmetic; the
basis alone asks it for degree r+1, one step past the regularity.  Only the
generator matrix of C_X(d) is computed over GF(q), as the reduced row
echelon form of the evaluations of Delta_d; RREF is unique for a row space,
so the choice of monomials does not show in it.

Setting ts = 1 takes the revlex basis to a degree-compatible basis of the
affine vanishing ideal of X, whose standard monomials are the N_d.  A
nonzero form of degree d reduces to an affine f of degree at most d with
leading monomial M in N_0, ..., N_d, and f is nonzero at no fewer points of
X than there are multiples of M among the N_j: the footprint bound
(Geil-Hoeholdt 2000; Martinez-Bernal, Pitones and Villarreal 2017).  So
delta_d is at least the least such count, `StandardWalk.footprint(d)`,
which `code` records on C_X(d) as the floor of both distance searches.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from . import _linalg
from .finite_field import FiniteField
from .toric_set import ToricSet

_CELL_CAP = 1 << 20  # cells of the largest array a block of a count or search allocates


def standard_walk(gens: np.ndarray, m: int, radices):
    """Yield (N_d, leading_d) for d = 0, 1, ..., r+1, r the regularity.

    The key of t^e is e @ gens mod m, labelled as in `ToricSet` by the
    mixed radices of the columns of gens; the ideal is spanned by the
    binomials of equal degree and key.  N_d holds the degree-d standard
    monomials prime to ts, in ascending revlex.  leading_d() returns the
    leading terms of degree d of the reduced revlex basis, in ascending
    revlex, and, row by row, their tails: the standard monomial of the
    same key; it reads only rows the walk has finished, so it may be called
    after the walk has moved on.

    A monomial u of degree d prime to ts is standard when no degree-d
    monomial of its key is divisible by ts, that is when no standard
    monomial n of degree j < d has the key of u ts^(j-d), and u is the
    least of its key in revlex.  So each standard monomial n owns the label
    of key(n) - deg(n) key(ts), and u is standard when it is the first of
    its such label in degree d and the label has no owner yet.  Candidates
    are the products p t_i of p in N_(d-1) and i < s with i at least the
    last variable of p: each monomial prime to ts arises once, from its
    own parent, and taking the variables from the last down lists them in
    ascending revlex.  A candidate p t_i that is not standard is a leading
    term when each divisor (p / t_k) t_i, k < i, is standard, which two
    tables of rows answer: n / t_k and n t_i for every standard n.  Its
    tail is ts^(d-j) times the owner of its label, of degree j.  The walk
    ends after the first empty N_d, at d = r+1.
    """
    s = gens.shape[0]
    kept = [j for j, r in enumerate(radices) if r > 1]
    radix = np.array([radices[j] for j in kept], dtype=np.int64)
    size = int(np.prod(radix))
    unit = m // radix  # digit j of a key k is k_j // unit_j
    weight = np.cumprod(np.concatenate(([1], radix)))[:-1]
    cols = np.asarray(gens, dtype=np.int64)[:, kept] % m
    step = (cols[:-1] - cols[-1]) % m  # key(u t_i / ts) - key(u)

    owner = np.full(size, -1, dtype=np.int64)  # label -> row
    first = np.full(size, size * s, dtype=np.int64)  # label -> first candidate, within a degree
    rows = np.zeros((size, s), dtype=np.int64)  # N_0, N_1, ... one after another
    keys = np.zeros((size, len(kept)), dtype=np.int64)  # label keys of the rows
    last = np.zeros(size, dtype=np.int64)  # last variable of each row (0 for 1)
    child = np.full((size, s - 1), -1, dtype=np.int64)  # row of n t_i, if standard
    divisor = np.full((size, s - 1), -1, dtype=np.int64)  # row of n / t_k, if any
    starts = [0, 1]  # N_d is rows[starts[d]:starts[d + 1]]
    owner[0] = 0
    descending = np.arange(s - 2, -1, -1)[:, None]

    def leading(d, parent, var, label, standard):
        other = np.flatnonzero(~standard)
        below = divisor[parent[other]]  # the rows p / t_k
        proper = (below < 0) | (child[below, var[other, None]] >= 0)
        lead = other[proper.all(axis=1)]
        leads = rows[parent[lead]]
        leads[np.arange(len(lead)), var[lead]] += 1
        o = owner[label[lead]]
        tails = rows[o]
        tails[:, -1] += d - (np.searchsorted(starts, o, side="right") - 1)
        return leads, tails

    yield rows[:1], lambda: (rows[:0], rows[:0])
    d = 0
    while starts[-1] > starts[-2]:
        d += 1
        lo, hi = starts[-2], starts[-1]
        v, parent = np.nonzero(last[lo:hi] <= descending)
        parent += lo
        var = descending[v, 0]
        key = (keys[parent] + step[var]) % m
        label = (key // unit) @ weight
        free = np.flatnonzero(owner[label] < 0)
        np.minimum.at(first, label[free], free)
        new = free[first[label[free]] == free]
        first[label[free]] = size * s
        standard = np.zeros(len(label), dtype=bool)
        standard[new] = True

        end = hi + len(new)
        index = np.arange(hi, end)
        p, i = parent[new], var[new]
        rows[hi:end] = rows[p]
        rows[index, i] += 1
        keys[hi:end] = key[new]
        last[hi:end] = i
        owner[label[new]] = index
        # (p / t_k) t_i is standard when p t_i is, since standard monomials
        # are closed under division
        below = divisor[p]
        divisor[hi:end] = np.where(below < 0, -1, child[below, i[:, None]])
        divisor[index, i] = p
        child[p, i] = index
        starts.append(end)
        yield rows[hi:end], partial(leading, d, parent, var, label, standard)


def evaluate_rows(X: ToricSet, E: np.ndarray) -> np.ndarray:
    """Evaluate the monomials with exponent rows E at every point of X.

    Returns the len(E) x |X| matrix of field encodings.  Valid because all
    coordinates of X are units, so evaluation happens in exponent space.
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
    length: int
    dimension: int
    d: int
    field: FiniteField
    source: str
    # a proven lower bound on the minimum distance; both searches stop once
    # a codeword reaches it
    floor: int = 1

    def __repr__(self):
        return (
            f"LinearCode[{self.length},{self.dimension}] over {self.field!r} "
            f"(d={self.d}, {self.source})"
        )


class StandardWalk:
    """The standard monomials of X from one walk, taken at construction
    through the regularity r.

    ``artinian`` holds N_0, ..., N_r, |X| monomials in all; N_d is empty
    past r.  ``h_vector`` is (|N_0|, ..., |N_r|) and ``hilbert_counts`` is
    (H_X(0), ..., H_X(r)).  All are read-only, as `walk_of` hands one walk
    to every caller that asks about X.
    """

    def __init__(self, X: ToricSet):
        # the walk references the arrays of X, never X itself, so the memo
        # of walk_of does not keep X alive
        self._steps = standard_walk(X.gens, X.field.q - 1, X.radices)
        artinian, self._leading = [], []  # N_d and leading_d of each degree walked
        total = 0
        while total < len(X):
            N, leading = next(self._steps)
            N.setflags(write=False)
            artinian.append(N)
            self._leading.append(leading)
            total += len(N)
        self.artinian = tuple(artinian)
        self.h_vector = tuple(len(N) for N in self.artinian)
        self.hilbert_counts = tuple(accumulate(self.h_vector))
        self.regularity = len(self.artinian) - 1

    def standard(self, d: int) -> np.ndarray:
        """Delta_d = ts^d N_0, ts^(d-1) N_1, ..., N_d in ascending revlex."""
        blocks = [N.copy() for N in self.artinian[: d + 1]]
        for j, N in enumerate(blocks):
            N[:, -1] += d - j
        return np.concatenate(blocks)

    def hilbert(self, d: int) -> int:
        """H_X(d) = |N_0| + ... + |N_d|."""
        return self.hilbert_counts[min(d, self.regularity)]

    def footprint(self, d: int) -> int:
        """The least number of multiples in N_0, ..., N_r of a monomial of
        N_0, ..., N_d: a lower bound on delta_d (see the module docstring).
        It is 1, with no count, from the regularity on.  The monomials are
        counted in blocks of rows, so that no array exceeds _CELL_CAP
        cells."""
        if d >= self.regularity:
            return 1
        # the N_j are prime to ts: their other exponents are the affine ones
        standard = np.concatenate(self.artinian)[:, :-1]
        bounded = standard[: self.hilbert(d)]
        block = max(1, _CELL_CAP // standard.size)
        return min(
            int((standard >= bounded[i : i + block, None]).all(axis=2).sum(axis=1).min())
            for i in range(0, len(bounded), block)
        )

    def leading(self, d: int):
        """The leading terms of degree d <= r+1 of the reduced revlex basis
        and their tails, as standard_walk gives them.  The first request
        for degree r+1 walks its step."""
        if d == len(self._leading):
            self._leading.append(next(self._steps)[1])
        return self._leading[d]()


_WALKS: weakref.WeakKeyDictionary[ToricSet, StandardWalk] = weakref.WeakKeyDictionary()


def walk_of(X: ToricSet) -> StandardWalk:
    """The StandardWalk of X, built on the first request and kept while X
    lives."""
    walk = _WALKS.get(X)
    if walk is None:
        walk = _WALKS[X] = StandardWalk(X)
    return walk


def code(X: ToricSet, d: int) -> LinearCode:
    """The parameterized code C_X(d) with its canonical generator matrix,
    from Delta_d of the walk of X.

    X acts regularly on the coordinates: x in X moves the point p to x*p,
    which only rescales the evaluation row of each monomial t^e (by
    t^e(x)), so it maps C_X(d) to itself; C_X(d) is an abelian group code.
    Its floor is the footprint bound of the walk.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    walk = walk_of(X)
    if d >= walk.regularity:
        # the code is all of GF(q)^|X|, whose RREF basis is the identity;
        # elimination would cost O(|X|^3)
        G = np.eye(len(X), dtype=X.field.dtype)
    else:
        R, pivots = _linalg.rref(X.field, evaluate_rows(X, walk.standard(d)))
        G = R[: len(pivots)]
    return LinearCode(
        generator=G,
        length=len(X),
        dimension=len(G),
        d=d,
        field=X.field,
        source=X.source,
        floor=walk.footprint(d),
    )


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
