"""Exact integer linear algebra: rational rank, Smith form, CI classifier."""

import itertools
import random
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    BATTERY,
    FIELD_SIZES,
    _complete,
    difference_rows,
    clutters_over_fields,
    clutters_with_v1_in_span,
    multiplication_injective,
    oracle_ci_classify,
    oracle_delta_prime,
    oracle_det_fraction,
    oracle_lattice_facts,
    oracle_phi_injective,
    oracle_rank_bareiss,
    oracle_rank_fraction,
    oracle_snf_minor_gcd,
    oracle_snf_pivot_rule,
    uniform_clutters_over_fields,
)
from toriccode import (
    ci_classify,
    enumerate_X,
    intlattice,
    parse_clutter,
    rank_rational,
    smith_normal_form,
)
from toriccode.intlattice import (
    _echelon,
    difference_factors,
    incidence_rank,
    lattice_facts,
    phi_injective,
)
from toriccode.mindist import delta_prime


class TestRank:
    def test_matches_fraction_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, n = rng.integers(1, 6, size=2)
            M = rng.integers(-4, 5, size=(m, n))
            assert rank_rational(M) == oracle_rank_fraction(M)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=1, max_size=9
            )
        )
    )
    def test_matches_fraction_oracle(self, rows):
        assert rank_rational(rows) == oracle_rank_fraction(rows) == oracle_rank_bareiss(rows)

    def test_rank_deficient(self):
        M = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
        assert rank_rational(M) == 2

    def test_triangle_incidence_det(self, triangle):
        A = triangle.vectors  # the rows of A^T: the same |det| and rank as A
        assert abs(oracle_det_fraction(A)) == 2  # odd cycle
        assert rank_rational(A) == 3

    def test_even_cycle_rank(self, battery):
        assert rank_rational(battery["C4"].vectors) == 3  # bipartite: rank n - 1

    def test_big_entries(self):
        # Python ints keep this exact where floats would not
        M = [[10**12, 10**12 + 1], [10**12 - 1, 10**12]]
        assert rank_rational(M) == 2
        M2 = [[10**12, 10**12], [10**12, 10**12]]
        assert rank_rational(M2) == 1


class TestSmithNormalForm:
    def test_classic_2x2(self):
        r = smith_normal_form(np.diag([2, 3]))
        assert r.invariant_factors == [1, 6]

    def test_divisibility_chain_and_positivity(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m, n = rng.integers(1, 5, size=2)
            M = rng.integers(-6, 7, size=(m, n))
            r = smith_normal_form(M)
            assert all(f > 0 for f in r.invariant_factors)
            for a, b in zip(r.invariant_factors, r.invariant_factors[1:]):
                assert b % a == 0

    def test_matches_minor_gcd_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m, n = rng.integers(1, 4, size=2)
            M = rng.integers(-5, 6, size=(m, n))
            assert smith_normal_form(M).invariant_factors == oracle_snf_minor_gcd(M)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=12
            )
        )
    )
    def test_tall_matches_minor_gcd_oracle(self, rows):
        # more rows than columns: the echelon merges rows by extended gcd
        r = smith_normal_form(rows)
        assert r.invariant_factors == oracle_snf_minor_gcd(rows)
        assert r.rank == len(r.invariant_factors)
        assert r.shape == (len(rows), len(rows[0]))

    def test_gcd_merge_of_two_rows(self):
        # neither pivot divides the other: the lattice is Z x 3Z
        assert smith_normal_form([[2, 3], [3, 3]]).invariant_factors == [1, 3]
        assert smith_normal_form([[4, 0], [6, 0], [0, 5]]).invariant_factors == [1, 10]

    def test_zero_matrix(self):
        r = smith_normal_form(np.zeros((2, 3), dtype=np.int64))
        assert r.invariant_factors == []
        assert r.rank == 0

    def test_triangle_difference_lattice_is_primitive(self, triangle):
        rows = difference_rows(triangle)
        assert smith_normal_form(rows).invariant_factors == [1, 1]
        assert oracle_snf_minor_gcd(rows) == [1, 1]


def _hadamard_square(rows) -> int:
    """The square of prod max(1, |row|): it bounds the square of every
    nonzero maximal minor, so of the lattice's determinant."""
    bound = 1
    for row in rows:
        bound *= max(1, sum(int(x) * int(x) for x in row))
    return bound


def _check_hermite(E, rows):
    """E is in Hermite normal form, and no entry exceeds the Hadamard
    bound of the full-column-rank input rows."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in E]
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(E, pivots)):
        assert row[c] > 0
        assert all(0 <= E[above][c] < row[c] for above in range(i))
    bound = _hadamard_square(rows)
    assert all(x * x <= bound for row in E for x in row)


# dense 9 x 8 of rank 8, entries in [-4, 4]: without the reduction above
# the pivots its echelon held an entry of 5.4e49
DENSE_9x8 = [
    [0, 4, -4, -2, -4, 2, 0, 1],
    [-4, 1, -2, 2, 0, 2, -4, 4],
    [3, 2, -4, -1, -1, -3, 2, 1],
    [-1, -2, 2, -1, 1, 4, 0, 2],
    [-2, -3, 3, 4, -3, 2, 4, 3],
    [-3, 3, -3, -2, 4, 2, -1, -2],
    [3, 4, -4, 3, 2, 1, 3, -3],
    [-2, -3, 4, -4, -4, -1, 4, 4],
    [-3, 3, 3, 3, -3, 3, -4, 3],
]


class TestHermiteEchelon:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                min_size=n, max_size=n + 2,
            )
        ).filter(lambda rows: oracle_rank_fraction(rows) == len(rows[0]))
    )
    def test_dense_full_column_rank(self, rows):
        assert smith_normal_form(rows).invariant_factors == oracle_snf_minor_gcd(rows)
        _check_hermite(_echelon(rows), rows)

    def test_dense_9x8(self):
        E = _echelon(DENSE_9x8)
        assert len(E) == 8
        _check_hermite(E, DENSE_9x8)
        # the product of the factors is the gcd of the maximal minors
        minors = [oracle_det_fraction(DENSE_9x8[:i] + DENSE_9x8[i + 1:]) for i in range(9)]
        det = gcd(*(int(m) for m in minors))
        assert prod(smith_normal_form(DENSE_9x8).invariant_factors) == det

    def test_clutter_facts_unchanged(self, battery):
        # recorded before the echelon was Hermite-reduced
        ranks = {"C3": 3, "C4": 3, "C5": 5, "C6": 5, "C7": 7, "K4": 4, "K5": 5, "P3": 2,
                 "P4": 3, "T7": 6, "U4": 4, "U6": 6, "U7": 7, "star4": 3}
        assert {name: lattice_facts(C)[:2] for name, C in battery.items()} == {
            name: ((1,) * (rank - 1), rank) for name, rank in ranks.items()
        }
        assert lattice_facts(TWO_TRIANGLES)[:2] == ((1, 1, 1, 1, 2), 6)
        assert lattice_facts(TRIPLES)[:2] == ((1, 1, 1, 2), 5)


class TestMultiplicationInjective:
    def test_synthetic_index_two(self):
        # Z^2 / Z(2,0) has 2-torsion: multiplication by 2 is not injective
        assert multiplication_injective([[2, 0]], 2) is False
        assert multiplication_injective([[2, 0]], 3) is True

    def test_full_lattice(self):
        assert multiplication_injective([[1, 0], [0, 1]], 12) is True

    def test_matches_snf_gcd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rows = rng.integers(-3, 4, size=(2, 3))
            fs = smith_normal_form(rows).invariant_factors
            for factor in (2, 3, 4):
                expect = all(np.gcd(factor, f) == 1 for f in fs)
                assert multiplication_injective(rows, factor) == expect


class TestCiClassify:
    def test_triangle_is_ci_every_q(self, triangle):
        for q in (3, 4, 5, 9):
            rep = ci_classify(triangle, q)
            assert rep.applicable and rep.is_ci
            assert rep.vectors_independent and rep.phi_injective

    def test_even_cycle_never_ci(self, battery):
        for q in (3, 4, 5):
            rep = ci_classify(battery["C4"], q)
            assert rep.applicable and not rep.is_ci
            assert not rep.vectors_independent

    def test_k4_not_ci(self, k4):
        rep = ci_classify(k4, 3)
        assert rep.applicable and not rep.is_ci

    def test_tree_is_ci(self, battery):
        for name in ("P3", "P4", "star4", "T7"):
            rep = ci_classify(battery[name], 4)
            assert rep.applicable and rep.is_ci

    def test_non_uniform_not_applicable(self):
        C = parse_clutter({"n": 3, "edges": [[1, 2], [3]]})
        rep = ci_classify(C, 3)
        assert rep.applicable is False
        assert rep.is_ci is None

    def test_q2_rejected(self, triangle):
        with pytest.raises(ValueError):
            ci_classify(triangle, 2)

    def test_phi_injective_helper(self, triangle):
        assert phi_injective(triangle, 3) is True
        assert phi_injective(triangle, 9) is True


def _verdict(rep):
    return rep.applicable, rep.is_ci, rep.vectors_independent, rep.phi_injective


def _check_lattice_facts(C, q):
    # the memoized Smith form and rank against a fresh route for each of
    # the CI verdict, phi and delta'_d
    assert _verdict(ci_classify(C, q)) == oracle_ci_classify(C, q)
    assert phi_injective(C, q) == oracle_phi_injective(C, q)
    X = enumerate_X(C, q)
    for d in (1, 2, 3):
        assert delta_prime(C, X, d) == oracle_delta_prime(C, q, d)


# uniform, with independent edge vectors and a difference lattice with
# torsion (Smith factors end in 2): phi fails for odd q
TWO_TRIANGLES = parse_clutter(
    {"n": 6, "edges": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]}
)
TRIPLES = parse_clutter(
    {"n": 6, "edges": [[3, 5, 6], [1, 4, 5], [1, 3, 4], [1, 2, 3], [2, 4, 6]]}
)


def _shuffled_complete(n):
    edges = _complete(n)
    random.Random(n).shuffle(edges)
    return parse_clutter({"n": n, "edges": edges}), 3


# the complete 3-uniform clutter on 7 vertices, s = 35
TRIPLES_OF_7 = parse_clutter(
    {"n": 7, "edges": [list(e) for e in itertools.combinations(range(1, 8), 3)]}
)
# its echelon reaches rank n - 1 = 5 with a pivot 2, which the seventh
# difference row merges to 1: a rule without the unit-pivot check stops early
PIVOT_TWO = parse_clutter(
    {"n": 6, "edges": [[2, 4, 5], [3, 5, 6], [1, 4, 6], [1, 2, 6], [2, 3, 4], [1, 3, 4],
                       [1, 4, 5], [1, 3, 5], [4, 5, 6]]}
)
# its echelon has rank n - 2 = 3 and unit pivots after three difference
# rows and reaches rank n - 1 at the fifth: a ceiling of n - 2 stops early
RANK_THREE_FIRST = parse_clutter(
    {"n": 5, "edges": [[1, 2, 3], [2, 3, 5], [1, 3, 4], [1, 4, 5], [3, 4, 5], [1, 2, 4],
                       [2, 3, 4], [1, 3, 5], [1, 2, 5], [2, 4, 5]]}
)


class TestLatticeFacts:
    @pytest.mark.parametrize("name", sorted(BATTERY))
    @pytest.mark.parametrize("q", FIELD_SIZES)
    def test_battery_matches_oracle(self, name, q):
        _check_lattice_facts(BATTERY[name], q)

    @pytest.mark.parametrize("C", [TWO_TRIANGLES, TRIPLES], ids=["two_triangles", "triples"])
    def test_torsion_reaches_phi(self, C):
        assert difference_factors(C)[-1] == 2 and incidence_rank(C) == C.s
        for q in (3, 4, 5, 9):
            rep = ci_classify(C, q)
            assert rep.vectors_independent and rep.phi_injective == (q % 2 == 0)
            assert rep.is_ci == rep.phi_injective
            _check_lattice_facts(C, q)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(
        st.one_of(
            clutters_over_fields(max_torus=4096),
            uniform_clutters_over_fields(max_torus=4096),
        )
    )
    def test_memo_matches_fresh_oracles(self, case):
        C, _ = case
        assert difference_factors(C) == tuple(oracle_snf_pivot_rule(difference_rows(C)))
        assert incidence_rank(C) == oracle_rank_fraction(C.vectors)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(
        st.one_of(
            clutters_over_fields(max_torus=4096),
            uniform_clutters_over_fields(max_torus=4096),
        )
    )
    @example(_shuffled_complete(6))
    @example(_shuffled_complete(7))
    @example(_shuffled_complete(8))
    @example(_shuffled_complete(9))
    @example(_shuffled_complete(10))
    @example(_shuffled_complete(11))
    @example(_shuffled_complete(12))
    @example((TRIPLES_OF_7, 3))
    @example((PIVOT_TWO, 3))
    @example((RANK_THREE_FIRST, 3))
    # an even cycle: s = n and rank n - 1, so the echelon never saturates
    @example((BATTERY["C6"], 3))
    def test_saturated_echelon_matches_every_row(self, case):
        # the factors, the rank and the transform Q that X is built from
        C, _ = case
        assert lattice_facts.__wrapped__(C) == oracle_lattice_facts(C)

    def test_stops_at_saturation(self, monkeypatch):
        # K10 in lexicographic edge order saturates long before the last
        # of its s - 1 = 44 difference rows
        C = parse_clutter({"n": 10, "edges": _complete(10)})
        bases = []
        insert = intlattice._insert

        def counted(basis, v):
            bases.append(id(basis))
            return insert(basis, v)

        monkeypatch.setattr(intlattice, "_insert", counted)
        facts = lattice_facts.__wrapped__(C)
        # the Smith form echelons in a basis of its own; the last insert
        # into the difference echelon is that of v_1
        difference_inserts = bases.count(bases[0]) - 1
        assert difference_inserts < C.s - 1
        monkeypatch.undo()
        assert facts == oracle_lattice_facts(C)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(clutters_with_v1_in_span())
    # v12 + v34 + v56 = v135 + v246
    @example(parse_clutter({"n": 6, "edges": [[1, 2], [3, 4], [5, 6], [1, 3, 5], [2, 4, 6]]}))
    @example(parse_clutter({"n": 6, "edges": [[1, 3, 5], [1, 2], [3, 4], [5, 6], [2, 4, 6]]}))
    @example(
        parse_clutter(
            {"n": 6, "edges": [[1, 2], [3, 4], [1, 3, 5], [5, 6], [2, 4, 6], [1, 4, 6]]}
        )
    )
    def test_v1_in_span_of_differences(self, C):
        # rank A = rank B: inserting v_1 must not enlarge the echelon
        rank_B = oracle_rank_fraction(difference_rows(C))
        assert incidence_rank(C) == oracle_rank_fraction(C.vectors) == rank_B
        assert difference_factors(C) == tuple(oracle_snf_pivot_rule(difference_rows(C)))

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        st.one_of(
            clutters_over_fields(max_torus=4096),
            uniform_clutters_over_fields(max_torus=4096),
        )
    )
    def test_random_clutters_match_oracle(self, case):
        _check_lattice_facts(*case)

