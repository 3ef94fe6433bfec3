"""Vectorized Gaussian elimination over GF(q) on encoding matrices."""

from __future__ import annotations

import numpy as np


def rref(field, M, col_order=None):
    """Reduced row echelon form of M over the field.

    Pivot columns are chosen scanning columns in ``col_order`` (natural
    order by default), always taking the first row with a nonzero entry.
    Returns (R, pivots) where pivots lists pivot column indices in the
    order they were used.
    """
    R = np.array(M, dtype=field.dtype, copy=True)
    if R.ndim != 2:
        raise ValueError("need a 2-d matrix")
    nrows, ncols = R.shape
    order = range(ncols) if col_order is None else col_order
    pivots = []
    r = 0
    for c in order:
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


def rank(field, M) -> int:
    """Rank via plain row echelon: eliminate below the pivot only, and only
    in columns to the right.  Cheaper than rref when only the count matters."""
    R = np.array(M, dtype=field.dtype, copy=True)
    if R.ndim != 2:
        raise ValueError("need a 2-d matrix")
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

