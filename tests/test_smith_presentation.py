"""The Smith presentation of X against independent routes.

X is built from the box prod [0, o_j) of the Smith form of its generator
matrix B (`toric_set`): b -> (B Q) b mod m, m = q-1, o_j = m/gcd(m, d_j).
Here the points are checked against the image of every unit tuple
(`oracle_enumerate_X`) and against the closure over the columns of B
(`oracle_span`); Q against a Fraction determinant; the character
coordinates against B Q computed afresh; and the box map against the
points, on random small clutters and tori.
"""

import itertools
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    BATTERY,
    FIELD_SIZES,
    clutters_over_fields,
    difference_matrix,
    oracle_det_fraction,
    oracle_enumerate_X,
    oracle_points_csv,
    oracle_span,
    torus_gens,
)
from toriccode import BudgetExceededError, enumerate_X, field_from_q, projective_torus, size_of_X
from toriccode.intlattice import lattice_facts
from toriccode.toric_set import points_csv

_CLUTTERS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _box_points(X) -> list[tuple[int, ...]]:
    """The image sum_j b_j (m/o_j) c_j mod m of every b in prod [0, o_j),
    c_j the column j of chars."""
    m = X.field.q - 1
    unit = np.array([m // o for o in X.orders])
    box = itertools.product(*(range(o) for o in reversed(X.orders)))
    B = np.array([b[::-1] for b in box], dtype=np.int64).reshape(-1, len(X.orders))
    return [tuple(p) for p in ((B * unit) @ X.chars.T % m).tolist()]


def _check_presentation(X, gens):
    m = X.q - 1
    assert np.array_equal(X.logs, oracle_span(gens, m))
    assert prod(X.orders) == len(X)
    # the point of label sum_j b_j prod_(i<j) o_i: a bijection onto X
    points = _box_points(X)
    assert len(set(points)) == len(points) == len(X)
    assert set(points) == {tuple(p) for p in X.logs.tolist()}


@_CLUTTERS
@given(clutters_over_fields(max_torus=4096))
def test_clutter_presentation(case):
    C, q = case
    F = field_from_q(q)
    X = enumerate_X(C, F.q)
    assert np.array_equal(X.logs, oracle_enumerate_X(C, F))
    assert len(X) == size_of_X(C, q)
    _check_presentation(X, difference_matrix(C))


@_CLUTTERS
@given(clutters_over_fields(max_torus=4096))
def test_smith_transform(case):
    """Q is unimodular, column j of B Q is a multiple of d_j (zero past the
    rank), and the character coordinates are (B Q)_ij / gcd(m, d_j) mod o_j."""
    C, q = case
    m = q - 1
    Q = [list(row) for row in lattice_facts(C).transform]
    assert abs(oracle_det_fraction(Q)) == 1
    factors = lattice_facts(C).difference_factors
    d = [*factors, *[0] * (C.n - len(factors))]
    B = difference_matrix(C).tolist()
    BQ = [[sum(b * Q[k][j] for k, b in enumerate(row)) for j in range(C.n)] for row in B]
    X = enumerate_X(C, q)
    assert X.orders == tuple(m // gcd(m, dj) for dj in d)
    for i, row in enumerate(BQ):
        for j, x in enumerate(row):
            assert (x % d[j] == 0) if d[j] else x == 0, (i, j)
            g = gcd(m, d[j])
            assert x % g == 0 and X.chars[i, j] == x // g % (m // g), (i, j)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FIELD_SIZES), st.integers(2, 6))
def test_torus_presentation(q, s):
    m = q - 1
    assume(m ** (s - 1) <= 4096)
    T = projective_torus(s, q)
    assert T.orders == (m,) * (s - 1) and np.array_equal(T.chars, torus_gens(s))
    rows = [(0, *b) for b in itertools.product(range(m), repeat=s - 1)]
    assert T.logs.tolist() == [list(r) for r in rows]
    _check_presentation(T, torus_gens(s))


# the battery over every field, up to the 32768 points of U6 over GF(9)
_CSV_CASES = [
    (name, q)
    for name in sorted(BATTERY)
    for q in FIELD_SIZES
    if size_of_X(BATTERY[name], q) <= 2 ** 15
]


@pytest.mark.parametrize("name,q", _CSV_CASES)
def test_points_csv_matches_per_row_form(name, q):
    X = enumerate_X(BATTERY[name], q)
    assert points_csv(X) == oracle_points_csv(X)


def test_budget_before_building():
    # 8^7 torus points and the 8^6 points of C7 over GF(9), each over a
    # budget of one point less, are refused from the orders alone
    F = field_from_q(9)
    with pytest.raises(BudgetExceededError, match=f"{8 ** 7} points"):
        projective_torus(8, F.q, budget=8 ** 7 - 1)
    with pytest.raises(BudgetExceededError, match=f"{8 ** 6} points"):
        enumerate_X(BATTERY["C7"], F.q, budget=8 ** 6 - 1)
