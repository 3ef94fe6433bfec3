"""Evaluation codes C_X(d) and the Hilbert data of the point set X.

Degree-d forms are evaluated at the canonical representatives of X; since
those have first coordinate 1, plain evaluation already agrees with the
normalization by t1^d.

On X the monomial t^e is the character with key e @ X.gens mod q-1, and
distinct characters of a finite group are linearly independent (Artin).
So two degree-d monomials agree on X exactly when their keys agree, I(X)
is spanned by the binomials t^e - t^e' of equal keys, and the revlex-least
monomial of each key is standard.  One walk (`standard_walk`) lists, degree
by degree, the standard monomials Delta_d in ascending revlex, the new
leading terms of the reduced revlex Groebner basis and their tails.  H_X(d)
is |Delta_d|; the regularity, the h-vector, the rows behind C_X(d) and the
basis in `vanishing_ideal` all come from it, with no field arithmetic.
Only the generator matrix of C_X(d) is computed over GF(q), as the reduced
row echelon form of the evaluations of Delta_d; RREF is unique for a row
space, so the choice of monomials does not show in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .finite_field import FiniteField
from .toric_set import ToricSet


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array as opaque byte strings, one element each;
    np.unique over them is several times faster than with axis=0."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def standard_walk(gens: np.ndarray, m: int, max_degree: int):
    """Yield (Delta_d, leads_d, tails_d) for d = 0, 1, ..., max_degree.

    The key of t^e is e @ gens mod m, and the ideal is spanned by the
    binomials of equal degree and key.  Delta_d holds the degree-d standard
    monomials of its revlex Groebner basis, in ascending revlex, one per
    key; leads_d the basis's leading terms of degree d, in ascending revlex,
    and tails_d, row by row, the standard monomial of the same key.

    Standard monomials form an order ideal, so the candidates of degree d
    are Delta_(d-1) times t_1..t_s.  A candidate c lies outside the ideal
    of the lower leading terms exactly when all its degree-(d-1) divisors
    are standard, that is when c occurs nnz(c) times among the products.
    Of those, the first in ascending revlex for its key is standard and
    every later one is a leading term whose tail is that first one.  Rows
    are sorted as the bytes of top - e[::-1] in big-endian words wide
    enough for max_degree, which ascend as e does in revlex.
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


def _walk(X: ToricSet):
    """standard_walk over the keys of X, up to (q-2)(s-1)+1: one past the
    bound on the regularity, the last degree of a reduced-basis element."""
    q = X.field.q
    return standard_walk(X.gens, q - 1, (q - 2) * (X.s - 1) + 1)


def _standard(X: ToricSet, d: int) -> np.ndarray:
    """Delta_d, or Delta_r for d past the regularity r: its size |X| is
    H_X(d) from r on (t1 has the zero key), and the walk is not continued."""
    for e, (std, _, _) in enumerate(_walk(X)):
        if e == d or len(std) == len(X):
            return std


def code(X: ToricSet, d: int) -> LinearCode:
    """The parameterized code C_X(d) with its canonical generator matrix.

    The code is transitive: x in X moves the point p to x*p, which
    permutes the coordinates regularly and only rescales the evaluation row
    of each monomial t^e (by t^e(x)), so C_X(d) is an abelian group code.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    std = _standard(X, d)
    if len(std) == len(X):
        # d >= regularity: the code is all of GF(q)^|X|, whose RREF basis
        # is the identity; elimination would cost O(|X|^3)
        G = np.eye(len(X), dtype=X.field.dtype)
    else:
        R, pivots = _linalg.rref(X.field, evaluate_rows(X, std))
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
    return len(_standard(X, d))


def _hilbert_counts(X: ToricSet) -> list[int]:
    """[H_X(0), ..., H_X(r)] through the regularity r <= (q-2)(s-1)."""
    counts = []
    for std, _, _ in _walk(X):
        counts.append(len(std))
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
