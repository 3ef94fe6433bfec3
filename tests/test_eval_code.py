"""Code construction, Hilbert data, degree bounds."""

import gc
import weakref
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (
    BATTERY,
    clutters_over_fields,
    oracle_rank,
    oracle_rref,
    oracle_standard_count,
    oracle_torus_h_vector,
)
from toriccode import (
    code,
    distance_report,
    enumerate_X,
    h_vector,
    hilbert_function,
    interpolate_gb,
    make_field,
    min_distance,
    projective_torus,
    regularity,
)
from toriccode import _linalg, eval_code
from toriccode.eval_code import StandardWalk, evaluate_rows, walk_of
from toriccode.vanishing_ideal import _mono_str


def _torus_standard(s, q, d):
    """Delta_d of the torus in P^(s-1) over GF(q): every degree-d monomial
    when d <= q-2, as I(T) starts in degree q-1."""
    return StandardWalk(projective_torus(s, q)).standard(d)


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
        T = projective_torus(2, F.q)
        M = evaluate_rows(T, np.eye(2, dtype=np.int64))
        assert M.shape == (2, 2)
        cols = sorted(tuple(int(x) for x in col) for col in M.T)
        assert cols == [(1, 1), (1, 2)]

    def test_code_dimensions_triangle_gf9(self, triangle):
        X = enumerate_X(triangle, 9)
        expect = [3, 6, 10, 15, 21, 28, 36, 43, 49, 54, 58, 61, 63, 64]
        got = [hilbert_function(X, d) for d in range(1, 15)]
        assert got == expect

    def test_code_object(self, k4):
        X = enumerate_X(k4, 3)
        cd = code(X, 1)
        assert cd.length == 8 and cd.dimension == 6
        assert cd.generator.shape == (6, 8)
        # generator rows must be independent: an echelon of G keeps 6 pivots
        assert oracle_rank(cd.field, cd.generator) == 6

    def test_dimension_equals_hilbert(self, battery):
        F = make_field(3, 1)
        for C in (battery["C4"], battery["star4"]):
            X = enumerate_X(C, F.q)
            for d in (1, 2):
                assert code(X, d).dimension == hilbert_function(X, d)

    def test_d0_and_negative(self, triangle):
        X = enumerate_X(triangle, 3)
        assert hilbert_function(X, 0) == 1
        with pytest.raises(ValueError):
            hilbert_function(X, -1)
        with pytest.raises(ValueError):
            code(X, 0)


class TestRegularityAndHVector:
    def test_triangle_gf9(self, triangle):
        X = enumerate_X(triangle, 9)
        assert regularity(X) == 14
        assert h_vector(X) == oracle_torus_h_vector(3, 9)

    def test_k4(self, k4):
        X3 = enumerate_X(k4, 3)
        assert regularity(X3) == 2
        assert h_vector(X3) == [1, 5, 2]
        X4 = enumerate_X(k4, 4)
        assert regularity(X4) == 3
        assert h_vector(X4) == [1, 5, 13, 8]

    @pytest.mark.parametrize("s,q", [(2, 3), (2, 5), (3, 4), (4, 3)])
    def test_torus_closed_forms(self, s, q):
        T = projective_torus(s, q)
        assert regularity(T) == (s - 1) * (q - 2)
        assert h_vector(T) == oracle_torus_h_vector(s, q)

    def test_h_vector_sums_to_size(self, battery):
        F = make_field(3, 1)
        for C in battery.values():
            X = enumerate_X(C, F.q)
            assert sum(h_vector(X)) == len(X)

    def test_monotone_until_regularity(self, k4):
        X = enumerate_X(k4, 4)
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
    X = enumerate_X(k4, 5)
    fresh = {d: StandardWalk(X).standard(d) for d in range(8)}
    walk = StandardWalk(X)
    counts = None
    for d in (2, 2, 3, 1, 7, 0, 4, 5, 5, 6):
        if d == 4:
            counts = list(walk.hilbert_counts)
        assert np.array_equal(walk.standard(d), fresh[d])
    assert counts == [len(fresh[d]) for d in range(len(counts))]
    assert counts[-1] == len(X) and len(counts) - 1 == regularity(X)


def test_one_walk_per_point_set(k4, monkeypatch):
    """Every reader of the standard monomials of X shares the one walk of
    X, and the walk goes when X goes."""
    calls = []
    original = eval_code.standard_walk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(eval_code, "standard_walk", counted)
    gc.collect()
    kept = len(eval_code._WALKS)
    X = enumerate_X(k4, 5)
    r = regularity(X)
    assert [hilbert_function(X, d) for d in range(r + 2)] == [*walk_of(X).hilbert_counts, len(X)]
    assert sum(h_vector(X)) == len(X)
    assert code(X, 1).dimension == hilbert_function(X, 1) and code(X, r).dimension == len(X)
    assert min_distance(X, 1).exact and min_distance(X, 2, "isd").exact
    assert distance_report(k4, X, 2)["regularity"] == r
    assert oracle_standard_count(interpolate_gb(X), r + 1) == len(X)
    assert len(calls) == 1 and len(eval_code._WALKS) == kept + 1
    x, walk = weakref.ref(X), weakref.ref(walk_of(X))
    del X
    gc.collect()
    assert x() is None and walk() is None and len(eval_code._WALKS) == kept


class TestSingleton:
    def test_k4_gf3_values(self, k4):
        X = enumerate_X(k4, 3)
        assert [_singleton(X, d) for d in (1, 2, 3)] == [3, 1, 1]

    def test_k4_gf4_values(self, k4):
        X = enumerate_X(k4, 4)
        assert [_singleton(X, d) for d in range(1, 7)] == [22, 9, 1, 1, 1, 1]

    def test_triangle_gf9_values(self, triangle):
        X = enumerate_X(triangle, 9)
        expect = [62, 59, 55, 50, 44, 37, 29, 22, 16, 11, 7, 4, 2, 1]
        assert [_singleton(X, d) for d in range(1, 15)] == expect


def _eliminated_shapes(X, d):
    """The generator of C_X(d) and the shape of each matrix `code` hands
    to `_linalg.rref`."""
    with mock.patch.object(_linalg, "rref", wraps=_linalg.rref) as rref:
        G = code(X, d).generator
    return G, [call.args[1].shape for call in rref.call_args_list]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(clutters_over_fields(max_torus=256))
def test_generator_from_either_side_is_the_rref(case):
    """Below the regularity, `code` eliminates the k = H_X(d) evaluations
    of Delta_d when 2k <= |X| and the |X| - k rows of the dual otherwise;
    either way the generator is, byte for byte, the RREF of the
    evaluations of Delta_d."""
    X = enumerate_X(*case)
    walk = walk_of(X)
    n = len(X)
    for d in range(1, walk.regularity):
        k = walk.hilbert(d)
        R, pivots = oracle_rref(X.field, evaluate_rows(X, walk.standard(d)))
        G, shapes = _eliminated_shapes(X, d)
        assert shapes == [(n - k, n) if 2 * k > n else (k, n)]
        assert G.dtype == R.dtype and G.shape == (k, n)
        assert G.tobytes() == R[: len(pivots)].tobytes()


@pytest.mark.parametrize("name,q,d,side", [
    ("C4", 4, 1, -1), ("C4", 8, 4, 1), ("P3", 8, 2, -1), ("P3", 8, 3, 1),
])
def test_generator_next_to_half_the_length(name, q, d, side):
    """2k = |X| + side: the last code eliminated on its own side and the
    first eliminated on the side of its dual give the RREF of Delta_d."""
    X = enumerate_X(BATTERY[name], q)
    walk = walk_of(X)
    n, k = len(X), walk.hilbert(d)
    assert 2 * k == n + side
    R, pivots = oracle_rref(X.field, evaluate_rows(X, walk.standard(d)))
    G, shapes = _eliminated_shapes(X, d)
    assert shapes == [(n - k, n) if side > 0 else (k, n)]
    assert G.dtype == R.dtype and G.tobytes() == R[: len(pivots)].tobytes()


def _oracle_footprint(X, d):
    """min over M in N_0..N_d of the number of N in N_0..N_r that M
    divides, by a scalar loop over the affine exponents of the walk."""
    walk = walk_of(X)
    rows = [tuple(int(e) for e in row[:-1]) for row in walk.rows]
    return min(
        sum(all(n >= m for m, n in zip(M, N)) for N in rows)
        for M in rows[: walk.hilbert(d)]
    )


def test_footprint_counts_each_degree_once():
    """footprint(d), the least count of multiples over N_0..N_d, is taken
    from N_d alone, counted on the first request for degree d and kept, in
    any order of requests."""
    X = enumerate_X(BATTERY["C6"], 5)
    walk = StandardWalk(X)
    expected = {d: _oracle_footprint(X, d) for d in range(walk.regularity)}
    assert walk.footprint(2) == expected[2] and list(walk._least) == [2]
    for d in (1, 0, 2, 4, 3, 1):
        assert walk.footprint(d) == expected[d]
    assert sorted(walk._least) == [0, 1, 2, 3, 4]
    assert walk.footprint(walk.regularity) == 1 and len(walk._least) == 5
