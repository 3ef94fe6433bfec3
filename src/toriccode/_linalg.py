"""Vectorized Gaussian elimination over GF(q) on encoding matrices."""

from __future__ import annotations

import numpy as np


def rref(field, M):
    """Reduced row echelon form of M over the field.

    Pivot columns are chosen scanning columns left to right, always taking
    the first row with a nonzero entry.  Returns (R, pivots) where pivots
    lists pivot column indices in the order they were used.

    When the next column has no nonzero entry in the rows not yet reduced,
    one ``any`` over those rows finds the next column that has one.  Rows r
    and below are zero left of the pivot column c, so each pivot updates,
    from column c on, every row with a nonzero entry f in column c: it
    adds -f times the pivot row, with -f read from the negated field
    elements (`minus`, formed once per call).  When there are at least q
    such rows, the multiples of the pivot row by every negated element are
    formed once and gathered by f.
    """
    R = np.array(M, dtype=field.dtype, copy=True)
    if R.ndim != 2:
        raise ValueError("need a 2-d matrix")
    nrows, ncols = R.shape
    minus = field.neg(np.arange(field.q, dtype=field.dtype))
    pivots = []
    r = c = 0
    while r < nrows and c < ncols:
        below = np.nonzero(R[r:, c])[0]
        if not below.size:
            nonzero = R[r:, c:].any(axis=0)
            j = int(nonzero.argmax())
            if not nonzero[j]:
                break
            c += j
            below = np.nonzero(R[r:, c])[0]
        pr = r + int(below[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r, c:] = field.mul(R[r, c:], int(field.inv(piv)))
        f = R[:, c].copy()
        f[r] = 0
        rows = np.nonzero(f)[0]
        if rows.size:
            row = R[r, c:]
            if field.q <= rows.size:
                update = field.mul(minus[:, None], row)[f[rows]]
            else:
                update = field.mul(minus[f[rows], None], row)
            R[rows, c:] = field.add(R[rows, c:], update)
        pivots.append(c)
        r += 1
        c += 1
    return R, pivots


def rank(field, M) -> int:
    """The rank of M over the field: the number of pivots of its rref."""
    return len(rref(field, M)[1])
