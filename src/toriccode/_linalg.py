"""Vectorized Gaussian elimination over GF(q) on encoding matrices."""

from __future__ import annotations

import numpy as np


def rref(field, M, col_order=None):
    """Reduced row echelon form of M over the field.

    Pivot columns are chosen scanning columns in ``col_order``, a
    permutation of the columns (natural order by default), always taking
    the first row with a nonzero entry.  Returns (R, pivots) where pivots
    lists pivot column indices in the order they were used.

    The columns are permuted once, so that the scan runs left to right.
    When the next column has no nonzero entry in the rows not yet reduced,
    one ``any`` over those rows finds the next column that has one.  Rows r
    and below are zero left of the pivot column c, so each pivot updates,
    from column c on, every row with a nonzero entry f in column c: it
    subtracts f times the pivot row, read from a table of the negated
    multiples of that row by every field element when there are at least q
    such rows.
    """
    R = np.array(M, dtype=field.dtype, copy=True)
    if R.ndim != 2:
        raise ValueError("need a 2-d matrix")
    nrows, ncols = R.shape
    if col_order is not None:
        order = np.asarray(col_order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(ncols)):
            raise ValueError("col_order must be a permutation of the columns")
        R = R[:, order]
    elements = np.arange(field.q, dtype=field.dtype)[:, None]
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
                update = field.neg(field.mul(elements, row))[f[rows]]
            else:
                update = field.neg(field.mul(f[rows, None], row))
            R[rows, c:] = field.add(R[rows, c:], update)
        pivots.append(c)
        r += 1
        c += 1
    if col_order is not None:
        out = np.empty_like(R)
        out[:, order] = R
        R, pivots = out, [int(order[c]) for c in pivots]
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

