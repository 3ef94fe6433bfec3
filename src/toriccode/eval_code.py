"""Evaluation codes C_X(d) and the Hilbert data of the point set X.

Degree-d forms are evaluated at the canonical representatives of X; since
those have first coordinate 1, plain evaluation already agrees with the
normalization by t1^d.

On X the monomial t^e is the character with key e @ X.gens mod q-1, and
distinct characters of a finite group are linearly independent (Artin).
So the degree-d monomials span a space whose dimension H_X(d) is the
number of distinct keys of degree d, and one monomial per key is a basis.
Both come from one integer walk over keys (`_sumset_walk`): H_X, the
regularity and the h-vector need no field arithmetic.  Only the generator
matrix of C_X(d) is computed over GF(q), as the reduced row echelon form of
the evaluations of one monomial per key; RREF is unique for a row space,
so the choice of monomials does not show in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from . import _linalg
from .finite_field import FiniteField
from .toric_set import ToricSet


@dataclass(frozen=True)
class Monomial:
    exponents: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __str__(self):
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"t{i + 1}")
            elif e > 1:
                parts.append(f"t{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def exponent_matrix(s: int, d: int) -> np.ndarray:
    """Exponent vectors of all degree-d monomials in s variables, as rows,
    in descending reverse-lexicographic order (t1^d first, ts^d last)."""
    if s < 1 or d < 0:
        raise ValueError("need s >= 1 and d >= 0")
    if d == 0:
        return np.zeros((1, s), dtype=np.int64)
    rows = []
    # stars and bars: bar positions inside d + s - 1 slots
    for bars in combinations(range(d + s - 1), s - 1):
        prev = -1
        e = []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(d + s - 1 - prev - 1)
        rows.append(tuple(e))
    rows.sort(key=lambda e: tuple(reversed(e)))
    return np.array(rows, dtype=np.int64)


def monomials(s: int, d: int) -> list[Monomial]:
    """Degree-d monomials in descending revlex order."""
    return [Monomial(tuple(int(x) for x in row)) for row in exponent_matrix(s, d)]


def _sumset_walk(gens: np.ndarray, m: int):
    """Yield K_0, K_1, K_2, ... where K_d = {e @ gens mod m : e >= 0, |e| = d}.

    K_0 = {0} and K_d = K_{d-1} + (rows of gens) mod m.  Each K_d comes as
    an array with one exponent row e per element, the first e of degree d
    that reaches it in the walk.
    """
    s, g = gens.shape
    keys = np.zeros((1, g), dtype=np.int64)
    reps = np.zeros((1, s), dtype=np.int64)
    step = np.eye(s, dtype=np.int64)
    while True:
        yield reps
        keys = ((keys[:, None, :] + gens[None, :, :]) % m).reshape(-1, g)
        reps = (reps[:, None, :] + step[None, :, :]).reshape(-1, s)
        # rows as opaque bytes: np.unique(axis=0) sorts several times slower
        rows = keys.view(np.dtype((np.void, keys.itemsize * g)))
        _, first = np.unique(rows, return_index=True)
        keys, reps = keys[first], reps[first]


def evaluate_rows(X: ToricSet, E: np.ndarray) -> np.ndarray:
    """Evaluate the monomials with exponent rows E at every point of X.

    Returns the len(E) x |X| matrix of field encodings.  Valid because all
    coordinates of X are units, so evaluation happens in exponent space.
    """
    F = X.field
    R = (np.asarray(E, dtype=np.int64) @ X.logs.T) % (F.q - 1)
    return F.exp[R]


def evaluation_matrix(X: ToricSet, d: int) -> np.ndarray:
    """Rows = degree-d monomials (descending revlex), columns = points of X."""
    return evaluate_rows(X, exponent_matrix(X.s, d))


@dataclass
class LinearCode:
    generator: np.ndarray  # RREF, dimension x length, field encodings
    length: int
    dimension: int
    d: int
    field: FiniteField
    source: str
    # whether a group acts regularly on the coordinates and maps the code to
    # itself; information-set search then needs a single systematic form
    transitive: bool = False

    def __repr__(self):
        return (
            f"LinearCode[{self.length},{self.dimension}] over {self.field!r} "
            f"(d={self.d}, {self.source})"
        )


def code(X: ToricSet, d: int) -> LinearCode:
    """The parameterized code C_X(d) with its canonical generator matrix.

    The code is transitive: x in X moves the point p to x*p, which
    permutes the coordinates regularly and only rescales the evaluation row
    of each monomial t^e (by t^e(x)), so C_X(d) is an abelian group code.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    reps = next(islice(_sumset_walk(X.gens, X.field.q - 1), d, None))
    if len(reps) == len(X):
        # d >= regularity: the code is all of GF(q)^|X|, whose RREF basis
        # is the identity; elimination would cost O(|X|^3)
        G = np.eye(len(X), dtype=X.field.dtype)
    else:
        R, pivots = _linalg.rref(X.field, evaluate_rows(X, reps))
        G = R[: len(pivots)]
    return LinearCode(
        generator=G,
        length=len(X),
        dimension=len(G),
        d=d,
        field=X.field,
        source=X.source,
        transitive=True,
    )


def hilbert_function(X: ToricSet, d: int) -> int:
    """H_X(d) = dim of the degree-d piece of the homogeneous coordinate ring."""
    if d < 0:
        raise ValueError("need d >= 0")
    for e, reps in enumerate(_sumset_walk(X.gens, X.field.q - 1)):
        # K_e only grows (t1 has the zero character), and never past |X|
        if e == d or len(reps) == len(X):
            return len(reps)


def _hilbert_counts(X: ToricSet) -> list[int]:
    """[H_X(0), ..., H_X(r)] through the regularity r <= (q-2)(s-1)."""
    bound = (X.field.q - 2) * (X.s - 1)
    counts = []
    for reps in islice(_sumset_walk(X.gens, X.field.q - 1), bound + 1):
        counts.append(len(reps))
        if counts[-1] == len(X):
            return counts
    raise AssertionError("Hilbert function failed to reach |X| by (q-2)(s-1)")


def regularity(X: ToricSet) -> int:
    """Least d with H_X(d) = |X|; bounded above by (q-2)(s-1)."""
    return len(_hilbert_counts(X)) - 1


def h_vector(X: ToricSet) -> list[int]:
    """First differences of H_X through the regularity; entries are positive
    and sum to |X|."""
    counts = _hilbert_counts(X)
    return [counts[0]] + [b - a for a, b in zip(counts, counts[1:])]


def singleton_bound(X: ToricSet, d: int) -> int:
    """|X| - H_X(d) + 1, the Singleton bound for delta_d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return len(X) - hilbert_function(X, d) + 1


def monomial_count(s: int, d: int) -> int:
    return comb(s + d - 1, d)
