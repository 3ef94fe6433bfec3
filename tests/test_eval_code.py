"""Code construction, Hilbert data, degree bounds."""

from itertools import islice
from math import comb

import numpy as np
import pytest

from conftest import oracle_torus_h_vector
from toriccode import (
    code,
    enumerate_X,
    field_from_q,
    h_vector,
    hilbert_function,
    make_field,
    projective_torus,
    regularity,
)
from toriccode.eval_code import StandardWalk, evaluate_rows, standard_walk
from toriccode.vanishing_ideal import _mono_str


def _torus_standard(s, q, d):
    """Delta_d of the torus in P^(s-1) over GF(q): every degree-d monomial
    when d <= q-2, as I(T) starts in degree q-1."""
    T = projective_torus(s, field_from_q(q))
    std, _, _ = next(islice(standard_walk(T.gens, q - 1, d), d, None))
    return std


class TestMonomialOrder:
    def test_s3_d2_descending_revlex(self):
        names = [_mono_str(e) for e in _torus_standard(3, 5, 2)[::-1]]
        assert names == ["t1^2", "t1*t2", "t2^2", "t1*t3", "t2*t3", "t3^2"]

    def test_t1_first_ts_last(self):
        E = _torus_standard(4, 5, 3)  # ascending revlex
        assert list(E[0]) == [0, 0, 0, 3]
        assert list(E[-1]) == [3, 0, 0, 0]

    def test_counts(self):
        for s, d in [(2, 5), (3, 4), (5, 2)]:
            assert len(_torus_standard(s, 7, d)) == comb(s + d - 1, d)

    def test_degree_zero(self):
        E = _torus_standard(3, 5, 0)
        assert E.shape == (1, 3) and not E.any()

    def test_str_of_constant(self):
        assert _mono_str((0, 0)) == "1"


class TestEvaluation:
    def test_torus_s2_q3_matrix(self):
        # T = {(1:1), (1:2)}; degree-1 monomials t1, t2
        F = make_field(3, 1)
        T = projective_torus(2, F)
        M = evaluate_rows(T, np.eye(2, dtype=np.int64))
        assert M.shape == (2, 2)
        cols = sorted(tuple(int(x) for x in col) for col in M.T)
        assert cols == [(1, 1), (1, 2)]

    def test_code_dimensions_triangle_gf9(self, triangle):
        X = enumerate_X(triangle, make_field(3, 2))
        expect = [3, 6, 10, 15, 21, 28, 36, 43, 49, 54, 58, 61, 63, 64]
        got = [hilbert_function(X, d) for d in range(1, 15)]
        assert got == expect

    def test_code_object(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        cd = code(X, 1)
        assert cd.length == 8 and cd.dimension == 6
        assert cd.generator.shape == (6, 8)
        # generator rows must be independent: rref of G keeps 6 pivots
        from toriccode._linalg import rank as gf_rank

        assert gf_rank(cd.field, cd.generator) == 6

    def test_dimension_equals_hilbert(self, battery):
        F = make_field(3, 1)
        for C in (battery["C4"], battery["star4"]):
            X = enumerate_X(C, F)
            for d in (1, 2):
                assert code(X, d).dimension == hilbert_function(X, d)

    def test_d0_and_negative(self, triangle):
        X = enumerate_X(triangle, make_field(3, 1))
        assert hilbert_function(X, 0) == 1
        with pytest.raises(ValueError):
            hilbert_function(X, -1)
        with pytest.raises(ValueError):
            code(X, 0)


class TestRegularityAndHVector:
    def test_triangle_gf9(self, triangle):
        X = enumerate_X(triangle, make_field(3, 2))
        assert regularity(X) == 14
        assert h_vector(X) == oracle_torus_h_vector(3, 9)

    def test_k4(self, k4):
        X3 = enumerate_X(k4, make_field(3, 1))
        assert regularity(X3) == 2
        assert h_vector(X3) == [1, 5, 2]
        X4 = enumerate_X(k4, make_field(2, 2))
        assert regularity(X4) == 3
        assert h_vector(X4) == [1, 5, 13, 8]

    @pytest.mark.parametrize("s,q", [(2, 3), (2, 5), (3, 4), (4, 3)])
    def test_torus_closed_forms(self, s, q):
        T = projective_torus(s, field_from_q(q))
        assert regularity(T) == (s - 1) * (q - 2)
        assert h_vector(T) == oracle_torus_h_vector(s, q)

    def test_h_vector_sums_to_size(self, battery):
        F = make_field(3, 1)
        for C in battery.values():
            X = enumerate_X(C, F)
            assert sum(h_vector(X)) == len(X)

    def test_monotone_until_regularity(self, k4):
        X = enumerate_X(k4, make_field(2, 2))
        r = regularity(X)
        vals = [hilbert_function(X, d) for d in range(r + 2)]
        assert all(a < b for a, b in zip(vals[: r + 1], vals[1 : r + 1]))
        assert vals[r] == len(X) and vals[r + 1] == len(X)
        assert hilbert_function(X, r - 1) < len(X)


def _singleton(X, d):
    return len(X) - hilbert_function(X, d) + 1


def test_standard_walk_in_any_order(k4):
    """One StandardWalk asked for degrees in any order, around its counts,
    gives what a walk from degree 0 to each degree gives."""
    X = enumerate_X(k4, field_from_q(5))
    fresh = {d: StandardWalk(X).standard(d) for d in range(8)}
    walk = StandardWalk(X)
    counts = None
    for d in (2, 2, 3, 1, 7, 0, 4, 5, 5, 6):
        if d == 4:
            counts = walk.hilbert_counts()
        assert np.array_equal(walk.standard(d), fresh[d])
    assert counts == [len(fresh[d]) for d in range(len(counts))]
    assert counts[-1] == len(X) and len(counts) - 1 == regularity(X)


class TestSingleton:
    def test_k4_gf3_values(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        assert [_singleton(X, d) for d in (1, 2, 3)] == [3, 1, 1]

    def test_k4_gf4_values(self, k4):
        X = enumerate_X(k4, make_field(2, 2))
        assert [_singleton(X, d) for d in range(1, 7)] == [22, 9, 1, 1, 1, 1]

    def test_triangle_gf9_values(self, triangle):
        X = enumerate_X(triangle, make_field(3, 2))
        expect = [62, 59, 55, 50, 44, 37, 29, 22, 16, 11, 7, 4, 2, 1]
        assert [_singleton(X, d) for d in range(1, 15)] == expect
