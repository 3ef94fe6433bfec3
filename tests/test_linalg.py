"""`_linalg.rref` against the column-by-column elimination of
conftest.oracle_rref: the same R and pivots."""

import numpy as np
import pytest

from conftest import oracle_rref
from toriccode import field_from_q
from toriccode._linalg import rref


def _matrices(q, rng):
    """Random matrices, tall and wide; rank-deficient ones, whose rows
    repeat combinations of other rows; sparse ones, whose pivots lie far
    apart; and the empty and zero matrices."""
    F = field_from_q(q)
    for rows, cols in [(1, 1), (3, 7), (7, 3), (5, 5), (12, 40), (40, 12), (2, 90)]:
        yield rng.integers(0, q, size=(rows, cols))
        basis = rng.integers(0, q, size=(max(1, rows // 2), cols)).astype(F.dtype)
        coeffs = rng.integers(0, q, size=(rows, len(basis))).astype(F.dtype)
        products = F.mul(coeffs[:, :, None], basis[None, :, :])
        yield F.sum_axis(products, axis=1)
        yield rng.integers(0, q, size=(rows, cols)) * (rng.random((rows, cols)) < 0.1)
    yield np.zeros((0, 4), dtype=np.int64)
    yield np.zeros((3, 5), dtype=np.int64)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 25, 27])
def test_rref_matches_oracle(q):
    F = field_from_q(q)
    rng = np.random.default_rng(q)
    for M in _matrices(q, rng):
        M = np.asarray(M).astype(F.dtype)
        R, pivots = rref(F, M)
        expected_R, expected_pivots = oracle_rref(F, M)
        assert R.dtype == expected_R.dtype
        assert np.array_equal(R, expected_R) and pivots == expected_pivots
