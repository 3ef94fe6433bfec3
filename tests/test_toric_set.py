"""Point set enumeration: canonical form, sizes, torus comparison."""

import itertools
import time
from collections import Counter
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (
    BATTERY,
    NON_BIPARTITE,
    _complete,
    clutters_over_fields,
    difference_matrix,
    oracle_enumerate_X,
    oracle_toric_points,
    torus_gens,
)
from toriccode import (
    BudgetExceededError,
    enumerate_X,
    equals_torus,
    field_from_q,
    make_field,
    parse_clutter,
    profile,
    projective_torus,
    size_of_X,
    smith_normal_form,
)
from toriccode.limits import is_power, power_value
from toriccode.toric_set import ToricSet, points_csv


def _as_enc_set(X):
    """Canonical coordinate tuples of X, via the log -> unit map."""
    M = X.field.exp[X.logs]
    return frozenset(tuple(int(v) for v in row) for row in M)


class TestEnumerate:
    @pytest.mark.parametrize(
        "name,q", [("C3", 3), ("C3", 4), ("C4", 3), ("P3", 3), ("P3", 4), ("U4", 3)]
    )
    def test_matches_bruteforce_oracle(self, name, q):
        C = BATTERY[name]
        F = field_from_q(q)
        X = enumerate_X(C, F.q)
        assert _as_enc_set(X) == oracle_toric_points(C, F)

    @pytest.mark.parametrize("q", [3, 4])
    def test_gens_parameterize_points(self, q):
        # row i of the generator matrix is the character of t_i: the points
        # are gens @ a
        m = q - 1
        for X, gens in ((enumerate_X(BATTERY["U4"], q), difference_matrix(BATTERY["U4"])),
                        (projective_torus(3, q), torus_gens(3))):
            A = np.array(list(itertools.product(range(m), repeat=gens.shape[1])))
            assert {tuple(r) for r in (A @ gens.T) % m} == {tuple(r) for r in X.logs}

    def test_triangle_gf9_size(self, triangle):
        X = enumerate_X(triangle, 9)
        assert len(X) == 64

    def test_k4_sizes(self, k4):
        assert len(enumerate_X(k4, 3)) == 8
        assert len(enumerate_X(k4, 4)) == 27

    @pytest.mark.parametrize("name", sorted(BATTERY))
    @pytest.mark.parametrize("q", [3, 4])
    def test_size_divides_torus_order(self, name, q):
        # X is a subgroup of the projective torus
        F = field_from_q(q)
        X = enumerate_X(BATTERY[name], F.q)
        assert (F.q - 1) ** (X.s - 1) % len(X) == 0

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_non_bipartite_size_formula(self, q):
        F = field_from_q(q)
        for name in NON_BIPARTITE:
            C = BATTERY[name]
            assert len(enumerate_X(C, F.q)) == (F.q - 1) ** (C.n - 1)

    def test_group_closure(self, triangle):
        # coordinatewise product of two points of X lies in X
        F = make_field(3, 2)
        X = enumerate_X(triangle, F.q)
        logs = X.logs
        pts = {tuple(r) for r in logs}
        m = F.q - 1
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j = rng.integers(0, len(logs), size=2)
            prod = tuple((logs[i] + logs[j]) % m)
            assert prod in pts

    def test_first_log_coordinate_zero(self, k4):
        X = enumerate_X(k4, 4)
        assert np.all(X.logs[:, 0] == 0)

    def test_rows_strictly_sorted_unique(self, k4):
        X = enumerate_X(k4, 3)
        logs = [tuple(r) for r in X.logs]
        assert logs == sorted(set(logs))

    def test_budget(self, triangle):
        with pytest.raises(BudgetExceededError):
            enumerate_X(triangle, 9, budget=7)

    def test_torus_budget_before_build(self):
        # nothing of size s is built, and |T| = 2^(10^8 - 1) is never formed
        start = time.monotonic()
        with pytest.raises(BudgetExceededError, match=r"^\|X\| = 2\^99999999 points > budget 100"):
            projective_torus(10 ** 8, 3, budget=100)
        assert time.monotonic() - start < 0.5

    def test_logs_read_only(self, triangle):
        X = enumerate_X(triangle, 3)
        with pytest.raises(ValueError):
            X.logs[0, 0] = 1

    def test_field_and_points_built_on_first_use(self, k4):
        X = enumerate_X(k4, 4)
        assert (len(X), X.s, X.q) == (27, 6, 4)
        assert repr(X).startswith("ToricSet(27 points in P^5 over GF(4), X(Clutter(n=4")
        assert "field" not in vars(X) and "logs" not in vars(X)
        logs = X.logs
        assert logs is X.logs and X.field is field_from_q(4)
        assert logs.shape == (27, 6)

    @pytest.mark.parametrize("q", [1, 2, 6, 2 ** 17])
    def test_bad_field_size(self, k4, q):
        with pytest.raises(ValueError):
            enumerate_X(k4, q)
        with pytest.raises(ValueError):
            projective_torus(3, q)

    def test_presentation_checked(self):
        gens = np.eye(3, 2, k=-1, dtype=np.int64)
        for orders, chars in [((4, 4, 4), gens), ((4, 3), gens), ((4, 0), gens),
                              ((4, 4), gens * 4), ((4, 4), -gens), ((4, 4), gens[1])]:
            with pytest.raises(ValueError):
                ToricSet(5, orders, chars, "T")


def _check_against_tuple_walk(C, q):
    # the subgroup closure, and the closed form prod m/gcd(m, d_i) over the
    # Smith invariant factors d_i of the difference matrix, against the
    # walk over all (q-1)^n tuples
    X = enumerate_X(C, q)
    walked = oracle_enumerate_X(C, X.field)
    assert np.array_equal(X.logs, walked)
    assert size_of_X(C, q) == len(walked)


@pytest.mark.parametrize("name", sorted(BATTERY))
@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_battery_matches_tuple_walk(name, q):
    _check_against_tuple_walk(BATTERY[name], q)


# B has Smith invariant factors (1, 1, 2), and no clutter of the battery
# has a factor above 1: over GF(4), m = 3, the factor 2 still contributes
# m/gcd(m, 2) = 3, where m // 2 would give 1
TORSION = parse_clutter({"n": 5, "edges": [[1, 2, 3], [2, 4], [1, 5], [3, 4, 5]]})


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_torsion_matches_tuple_walk(q):
    assert smith_normal_form(difference_matrix(TORSION)).invariant_factors == [1, 1, 2]
    _check_against_tuple_walk(TORSION, q)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(clutters_over_fields(max_torus=10 ** 4))
def test_random_clutters_match_tuple_walk(case):
    _check_against_tuple_walk(*case)


class TestTorus:
    @pytest.mark.parametrize("s,q", [(2, 3), (3, 3), (3, 4), (4, 3), (2, 9)])
    def test_order(self, s, q):
        T = projective_torus(s, q)
        assert len(T) == (q - 1) ** (s - 1)
        assert equals_torus(T)

    def test_tree_parameterizes_torus(self):
        for q in (3, 4, 5):
            X = enumerate_X(BATTERY["P3"], q)
            assert equals_torus(X)

    def test_even_cycle_does_not(self):
        X = enumerate_X(BATTERY["C4"], 3)
        assert not equals_torus(X)

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 12, 48, 65535])
    def test_is_power_is_the_size_test(self, m):
        """is_power decides prod o^c = m^e exactly, on orders dividing m,
        also with more factors than e: 2 * 2 = 4 over m = 4."""
        divisors = [o for o in range(2, m + 1) if m % o == 0][:6]
        for k in range(5):
            for combo in itertools.combinations_with_replacement(divisors, k):
                for e in range(5):
                    assert is_power(Counter(combo), m, e) == (prod(combo) == m ** e), (combo, e)

    def test_long_powers_are_named(self):
        assert power_value({3: 5, 2: 1}) == 486 and power_value({}) == 1
        assert power_value({2: 7000}) == 2 ** 7000  # 14000 bits at most, printable
        assert power_value({2: 7001}) == "2^7001"
        assert power_value({65535: 899, 3: 1}) == "3^1*65535^899"
        # T in P^20000 over GF(3): 2^20000 points, no power of that length formed
        assert is_power({2: 20000}, 2, 20000) and not is_power({2: 19999}, 2, 20000)

    def test_torus_contains_every_X(self, battery):
        F = make_field(3, 1)
        for C in battery.values():
            X = enumerate_X(C, F.q)
            T = projective_torus(X.s, F.q)
            tset = {tuple(r) for r in T.logs}
            assert all(tuple(r) in tset for r in X.logs)


class TestProfileAndCsv:
    def test_profile_k4(self, k4):
        body = profile(k4, 4)
        assert body["points"] == 27
        assert body["rank_is_n"] is True
        assert body["uniform"] is True
        assert body["degree_matches_torus_bound"] is True
        assert body["equals_ambient_torus"] is False

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_profile_agrees_with_points(self, battery, q):
        for C in battery.values():
            X = enumerate_X(C, q)
            body = profile(C, q)
            assert body["points"] == len(X)
            assert body["equals_ambient_torus"] == equals_torus(X)
            assert body["degree_matches_torus_bound"] == (len(X) == (q - 1) ** (C.n - 1))

    def test_size_without_points(self):
        # K10 over GF(9): the difference lattice is primitive, so |X| is the
        # torus bound 8^9, read off the Smith form with no point built
        C = parse_clutter({"n": 10, "edges": _complete(10)})
        assert size_of_X(C, 9) == 8 ** 9
        body = profile(C, 9)
        assert body["points"] == 8 ** 9 and body["equals_ambient_torus"] is False

    def test_points_csv_round_trip(self, triangle):
        F = make_field(3, 1)
        X = enumerate_X(triangle, F.q)
        text = points_csv(X)
        lines = text.strip().splitlines()
        assert lines[0] == "t1,t2,t3"
        assert len(lines) == 1 + len(X)
        # indices decode back to the canonical coordinates
        M = F.exp[X.logs]
        for line, row in zip(lines[1:], M):
            decoded = [int(F.exp[int(tok) - 1]) if int(tok) else 0 for tok in line.split(",")]
            assert decoded == [int(v) for v in row]
