"""Minimum distance: exhaustive search, information-set search, closed form."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    BATTERY,
    clutters_over_fields,
    oracle_first_coefficient_one_weight,
    oracle_min_weight,
    oracle_one_form_isd,
    row_space_contains,
)
from toriccode import (
    BudgetExceededError,
    code,
    distance_report,
    enumerate_X,
    field_from_q,
    make_field,
    min_distance,
    min_distance_bruteforce,
    min_distance_isd,
    parse_clutter,
    projective_torus,
    regularity,
    torus_distance,
)
from toriccode import eval_code, mindist
from toriccode._linalg import rref
from toriccode.eval_code import LinearCode, walk_of


class TestTorusDistanceFormula:
    def test_triangle_gf9_column(self):
        expect = [56, 48, 40, 32, 24, 16, 8, 7, 6, 5, 4, 3, 2, 1]
        assert [torus_distance(9, 3, d) for d in range(1, 15)] == expect

    def test_k4_gf3_bound_column(self):
        assert [torus_distance(3, 4, d) for d in (1, 2, 3)] == [4, 2, 1]

    def test_k4_gf4_bound_column(self):
        assert [torus_distance(4, 4, d) for d in range(1, 7)] == [18, 9, 6, 3, 2, 1]

    def test_saturation(self):
        # one past the saturation degree still gives 1
        assert torus_distance(3, 3, 2) == 1
        assert torus_distance(3, 3, 5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_distance(2, 3, 1)
        with pytest.raises(ValueError):
            torus_distance(3, 1, 1)
        with pytest.raises(ValueError):
            torus_distance(3, 3, 0)


def _bruteforce_weight(p, G):
    """What brute force returns on G in RREF over GF(p) when no floor stops
    it: the lightest of the rows it starts from and of the messages with
    first coefficient 1.  On a code built by hand, which no group need map
    to itself, that may exceed the minimum distance."""
    rows = int(np.count_nonzero(G, axis=1).min())
    return min(rows, oracle_first_coefficient_one_weight(p, G))


class TestBruteforce:
    def test_matches_oracle_small_codes(self):
        rng = np.random.default_rng(9)
        for q, k, n in [(3, 3, 6), (3, 4, 7), (7, 3, 6), (5, 3, 5)]:
            F = field_from_q(q)
            for _ in range(3):
                G = rng.integers(0, q, size=(k, n))
                R, piv = rref(F, G)
                G = R[: len(piv)]
                if len(piv) == 0:
                    continue
                cd = LinearCode(
                    generator=G, length=n, dimension=len(piv), d=1, field=F, source="t"
                )
                got = min_distance_bruteforce(cd)
                assert got.value == _bruteforce_weight(q, G)
                assert got.exact and got.method == "bruteforce"
                assert int(np.count_nonzero(got.witness)) == got.value

    def test_triangle_gf3_d1(self, triangle):
        X = enumerate_X(triangle, make_field(3, 1))
        r = min_distance_bruteforce(code(X, 1))
        assert r.value == torus_distance(3, 3, 1) == 2

    def test_k4_gf3_column(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        got = [min_distance_bruteforce(code(X, d)).value for d in (1, 2, 3)]
        assert got == [2, 1, 1]

    def test_witness_is_a_codeword_of_reported_weight(self, k4):
        F = make_field(3, 1)
        X = enumerate_X(k4, F)
        cd = code(X, 1)
        r = min_distance_bruteforce(cd)
        w = np.asarray(r.witness)
        assert int(np.count_nonzero(w)) == r.value
        R, piv = rref(F, cd.generator)
        assert row_space_contains(F, R, piv, w)

    def test_floor_met_only_by_a_combination(self):
        """The rows of G weigh 3 and the message (1, 2) weighs 2 = delta:
        with delta as the floor, brute force must not stop on a row.  ISD
        returns what its one form and Chen's bound give on this code, which
        no group maps to itself."""
        F = field_from_q(3)
        G = np.array([[1, 0, 1, 1], [0, 1, 1, 1]], dtype=F.dtype)
        cd = LinearCode(
            generator=G, length=4, dimension=2, d=1, field=F, source="t", floor=2
        )
        r = min_distance_bruteforce(cd)
        assert r.exact and r.value == _bruteforce_weight(3, G) == 2
        r = min_distance_isd(cd)
        assert r.exact and r.value == oracle_one_form_isd(3, G)

    def test_budget_raises(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        with pytest.raises(BudgetExceededError):
            min_distance_bruteforce(code(X, 2), class_budget=10)


class TestIsd:
    def test_k4_gf4_d1_matches_brute(self, k4):
        X = enumerate_X(k4, make_field(2, 2))
        cd = code(X, 1)
        brute = min_distance_bruteforce(cd)
        isd = min_distance_isd(cd)
        assert isd.exact
        assert isd.value == brute.value == 12

    def test_k4_gf4_d2(self, k4):
        X = enumerate_X(k4, make_field(2, 2))
        r = min_distance_isd(code(X, 2))
        assert r.exact and r.value == 3

    def test_matches_brute_on_random_codes(self):
        rng = np.random.default_rng(31)
        for q in (3, 5):
            F = field_from_q(q)
            for _ in range(6):
                k, n = int(rng.integers(2, 5)), int(rng.integers(6, 10))
                G = rng.integers(0, q, size=(k, n))
                R, piv = rref(F, G)
                if not piv:
                    continue
                G = R[: len(piv)]
                cd = LinearCode(
                    generator=G,
                    length=n,
                    dimension=len(piv),
                    d=1,
                    field=F,
                    source="t",
                )
                assert min_distance_isd(cd).value == oracle_one_form_isd(q, G)
                assert min_distance_bruteforce(cd).value == _bruteforce_weight(q, G)

    def test_witness_validity(self, k4):
        F = make_field(2, 2)
        X = enumerate_X(k4, F)
        cd = code(X, 2)
        r = min_distance_isd(cd)
        w = np.asarray(r.witness)
        assert int(np.count_nonzero(w)) == r.value
        R, piv = rref(F, cd.generator)
        assert row_space_contains(F, R, piv, w)

    def test_time_budget_inexact(self, triangle, k4):
        # K4/GF(5) d=3 has floor 1: a zero budget stops the search before
        # weight 1
        cd = code(enumerate_X(k4, make_field(5, 1)), 3)
        r = min_distance_isd(cd, time_budget=0.0)
        assert cd.floor == 1 and not r.exact
        assert r.value >= 4  # an upper bound on the true delta
        # on the triangle over GF(9), d=3, the lightest systematic row meets
        # the floor, so even a zero budget gives the exact distance
        cd = code(enumerate_X(triangle, make_field(3, 2)), 3)
        r = min_distance_isd(cd, time_budget=0.0)
        assert r.exact and r.value == cd.floor == torus_distance(9, 3, 3)


class TestDistanceReport:
    def test_torus_uses_formula(self, triangle):
        F = make_field(3, 2)
        X = enumerate_X(triangle, F)
        rep = distance_report(triangle, X, 5, method="auto")
        assert rep["delta"] == 24
        assert rep["delta_method"] == "formula" and rep["delta_exact"]
        assert rep["equals_torus"] is True
        assert rep["delta_prime"] == 24

    def test_non_torus_auto_small_uses_bruteforce(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        rep = distance_report(k4, X, 1, method="auto")
        assert rep["delta"] == 2
        assert rep["delta_method"] == "bruteforce"
        assert rep["delta_prime"] == 4
        assert rep["singleton"] == 3

    def test_forced_formula_on_non_torus_is_bound_only(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        rep = distance_report(k4, X, 1, method="formula")
        assert rep["delta"] == 4 and rep["delta_exact"] is False
        assert rep["delta_method"] == "bound-only"

    def test_formula_rejected_without_rank_condition(self):
        # P3 is a tree: rank(A) = n - 1, X = torus though, so formula applies
        C = parse_clutter({"n": 3, "edges": [[1, 2], [2, 3]]})
        F = make_field(3, 1)
        rep = distance_report(C, enumerate_X(C, F), 1, method="formula")
        assert rep["delta_exact"] is True  # torus route
        # non-uniform, non-torus: no formula route at all
        C2 = parse_clutter(
            {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [1, 4], [5]]}
        )
        from toriccode import equals_torus

        X2 = enumerate_X(C2, F)
        assert not equals_torus(X2)
        with pytest.raises(ValueError):
            distance_report(C2, X2, 1, method="formula")

    def test_bad_method(self, k4):
        with pytest.raises(ValueError):
            distance_report(k4, enumerate_X(k4, make_field(3, 1)), 1, method="magic")


def _translate(X, G, i):
    """G with column p moved to the position of x*p, x the i-th point of X."""
    index = {row: j for j, row in enumerate(map(tuple, X.logs.tolist()))}
    moved = (X.logs + X.logs[i]) % (X.field.q - 1)
    perm = np.array([index[row] for row in map(tuple, moved.tolist())])
    out = np.empty_like(G)
    out[:, perm] = G
    return out


_TRANSITIVE_CASES = [
    *[(name, q) for name in ("C4", "C5", "C6", "K4", "K5", "T7", "U6") for q in (3, 4)],
    *[(name, 5) for name in ("C4", "C6", "K4")],
    *[(f"torus{s}", q) for s, q in ((2, 7), (3, 4), (3, 5), (4, 3))],
]


@pytest.mark.parametrize("name,q", _TRANSITIVE_CASES)
def test_points_of_X_permute_the_code(name, q):
    """The fact the one-form ISD bound rests on: p -> x*p maps C_X(d) to itself."""
    F = field_from_q(q)
    if name.startswith("torus"):
        X = projective_torus(int(name[5:]), F)
    else:
        X = enumerate_X(BATTERY[name], F)
    rng = np.random.default_rng(len(X) * q)
    reg = regularity(X)
    for d in sorted({1, reg // 2, reg - 1} - {0}):
        cd = code(X, d)
        R, pivots = rref(F, cd.generator)
        for i in rng.choice(len(X), size=min(2, len(X)), replace=False):
            moved = _translate(X, cd.generator, int(i))
            assert all(row_space_contains(F, R, pivots, row) for row in moved)


_MAX_MESSAGES = 729


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(clutters_over_fields(max_torus=64))
def test_isd_on_random_codes_matches_exhaustive_weight(case):
    """Every C_X(d) with at most _MAX_MESSAGES messages: the search and a
    search stopped at once both hold the exhaustive minimum weight in
    [lower, value]."""
    C, q = case
    F = field_from_q(q)
    X = enumerate_X(C, F)
    counts = walk_of(X).hilbert_counts
    for d in range(1, len(counts)):
        if q ** counts[d] > _MAX_MESSAGES:
            break
        cd = code(X, d)
        delta = oracle_min_weight(F, cd.generator)
        one_form = min_distance_isd(cd)
        assert one_form.exact and one_form.value == one_form.lower == delta
        assert int(np.count_nonzero(one_form.witness)) == delta
        stopped = min_distance_isd(cd, time_budget=0.0)
        assert stopped.lower <= delta <= stopped.value


def _small_codes(case):
    """Every C_X(d) of a drawn clutter with at most _MAX_MESSAGES messages."""
    C, q = case
    X = enumerate_X(C, field_from_q(q))
    counts = walk_of(X).hilbert_counts
    for d in range(1, len(counts)):
        if q ** counts[d] > _MAX_MESSAGES:
            break
        yield code(X, d)


def _small_blocks(q, n):
    """A cell cap of 2qn: brute force keeps one tail row and weighs two head
    words per block over k-1 pivots; ISD takes two middle coefficient
    patterns per block."""
    return 2 * q * n


def _check_searches(cd, cell_cap=None):
    """Brute force, and ISD too when cell_cap(q, n) replaces
    mindist._CELL_CAP, against the exhaustive weight, under the footprint
    floor of cd, which must not exceed it, and under floor 1, where no
    search stops before its end unless delta is 1; each witness must be a
    codeword of the reported weight."""
    F = cd.field
    delta = oracle_min_weight(F, cd.generator)
    assert 1 <= cd.floor <= delta
    R, pivots = rref(F, cd.generator)
    cap = mindist._CELL_CAP if cell_cap is None else cell_cap(F.q, cd.length)
    results = []
    with mock.patch.object(mindist, "_CELL_CAP", cap):
        for floor in (cd.floor, 1):
            searched = dataclasses.replace(cd, floor=floor)
            results.append(min_distance_bruteforce(searched))
            if cell_cap is not None:
                results.append(min_distance_isd(searched))
    for r in results:
        assert r.exact and r.value == delta
        assert int(np.count_nonzero(r.witness)) == delta
        assert row_space_contains(F, R, pivots, r.witness)


_RANDOM_CODES = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@_RANDOM_CODES
@given(clutters_over_fields(max_torus=64))
def test_bruteforce_on_random_codes_matches_exhaustive_weight(case):
    for cd in _small_codes(case):
        _check_searches(cd)


@_RANDOM_CODES
@given(clutters_over_fields(max_torus=64))
def test_searches_in_small_blocks_match_exhaustive_weight(case):
    for cd in _small_codes(case):
        _check_searches(cd, _small_blocks)


@pytest.mark.parametrize("q", [9, 25, 27])
def test_searches_over_odd_extension_fields(q):
    """Packed words of two or three base-p digits: codes of the tori in P^1
    and P^2, each search under the normal cell cap and a small one, with
    the footprint floor and with floor 1, against the torus formula, with a
    codeword of that weight as witness."""
    F = field_from_q(q)
    # at k = 3 brute force adds the head words to words in the span of the
    # tail rows
    for s, d in [(2, 1), (2, 2), (3, 1)]:
        cd = code(projective_torus(s, F), d)
        delta = torus_distance(q, s, d)
        R, pivots = rref(F, cd.generator)
        for cap, floor in itertools.product(
            (mindist._CELL_CAP, _small_blocks(q, cd.length)), (cd.floor, 1)
        ):
            searched = dataclasses.replace(cd, floor=floor)
            with mock.patch.object(mindist, "_CELL_CAP", cap):
                results = [min_distance_bruteforce(searched), min_distance_isd(searched)]
            for r in results:
                assert r.exact and r.value == delta
                assert r.witness.dtype == F.dtype
                assert int(np.count_nonzero(r.witness)) == delta
                assert row_space_contains(F, R, pivots, r.witness)


@pytest.mark.parametrize("q,k", [(3, 3), (3, 4), (4, 3), (9, 3)])
def test_every_class_can_be_the_unique_lightest(q, k):
    """For each projective message m with first coefficient 1, a code
    whose lightest class is m's alone, so that a search skipping any block
    of messages misses it.  Its columns are every projective point v of
    GF(q)^k, plus once more those with m.v = 0.  m.G has weight q^(k-1), as
    in the simplex code; every other class has q^(k-2) more, its nonzeros
    among the repeated points.  The searches run on R, the RREF of G, in
    which m.G is the message m' = (m.G)[pivots]; its first coefficient is
    nonzero for the m kept, so brute force weighs a multiple of it.  ISD
    weighs it from weight nnz(m') on, if Chen's bound has not stopped the
    search before; no group maps these codes to themselves."""
    F = field_from_q(q)
    points = np.array(
        [v for v in itertools.product(range(q), repeat=k)
         if any(v) and next(c for c in v if c) == 1],
        dtype=F.dtype,
    ).T
    light, heavy = q ** (k - 1), q ** (k - 1) + q ** (k - 2)
    for m in points.T:
        on_hyperplane = F.sum_axis(F.mul(m[:, None], points), axis=0) == 0
        G = np.concatenate([points, points[:, on_hyperplane]], axis=1)
        R, pivots = rref(F, G)
        message = F.sum_axis(F.mul(m[:, None], G), axis=0)[pivots]
        if not message[0]:
            continue
        n = G.shape[1]
        for w in range(1, k + 1):
            isd = light if w >= np.count_nonzero(message) else heavy
            if -(-n * (w + 1) // k) >= isd:
                break
        cd = LinearCode(generator=R, length=n, dimension=k, d=1, field=F, source="m")
        for cap in (mindist._CELL_CAP, _small_blocks(q, n)):
            with mock.patch.object(mindist, "_CELL_CAP", cap):
                assert min_distance_bruteforce(cd).value == light
                assert min_distance_isd(cd).value == isd


def _weighed_words(cd):
    """(result, words weighed) of brute force on cd, the k generator rows
    included."""
    weighed = []
    original = mindist._weights

    def counted(a, b, axis):
        w = original(a, b, axis)
        weighed.append(w.size)
        return w

    with mock.patch.object(mindist, "_weights", counted):
        result = min_distance_bruteforce(cd)
    return result, sum(weighed)


_C9 = parse_clutter({"n": 9, "edges": [[i, i % 9 + 1] for i in range(1, 10)]})


@pytest.mark.parametrize("C,q,d", [
    (BATTERY["U6"], 4, 1), (BATTERY["C6"], 5, 1), (BATTERY["C3"], 9, 2),
    (BATTERY["C4"], 9, 1), (_C9, 3, 1),
], ids=["U6-4-1", "C6-5-1", "C3-9-2", "C4-9-1", "C9-3-1"])
def test_transitive_bruteforce_weighs_first_coefficient_one(C, q, d):
    """On C_X(d) brute force weighs the k generator rows and the q^(k-1)
    messages with first coefficient 1, for the delta that ISD finds.  The
    floor is dropped, as it would end three of the searches at the
    generator rows."""
    cd = dataclasses.replace(code(enumerate_X(C, field_from_q(q)), d), floor=1)
    k = cd.dimension
    result, words = _weighed_words(cd)
    assert words == k + q ** (k - 1)
    assert result.exact and result.value == min_distance_isd(cd).value
    assert int(np.count_nonzero(result.witness)) == result.value


@st.composite
def systematic_codes(draw):
    """[I_k | A] over GF(3) or GF(5), whose encodings are the residues mod
    p, with a random k x r matrix A, r from k to 100k.  A long A keeps the
    light messages heavy against the bound, so the search often goes on to
    weight 3 or 4, where middle coefficients and pattern blocks come in;
    with n <= 2k nearly every search stops after weight 1."""
    q = draw(st.sampled_from([3, 5]))
    k = draw(st.integers(4, {3: 8, 5: 6}[q]))
    r = draw(st.integers(k, 100 * k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F = field_from_q(q)
    A = rng.integers(0, q, size=(k, r))
    G = np.concatenate([np.eye(k, dtype=np.int64), A], axis=1).astype(F.dtype)
    return LinearCode(generator=G, length=k + r, dimension=k, d=1, field=F, source="[I|A]")


@_RANDOM_CODES
@given(systematic_codes())
def test_one_form_isd_enumerates_every_message(cd):
    """[I_k | A] is searched on its one systematic form with the bound
    ceil(n(w+1)/k), whether or not a group maps the code to itself.
    The result is then fixed by the messages of each weight alone (see
    oracle_one_form_isd), so a message the enumeration skips shows up as a
    heavier result, under the normal cell cap and under a small one."""
    F = cd.field
    expected = oracle_one_form_isd(F.q, cd.generator)
    R, pivots = rref(F, cd.generator)
    # with the result itself as the floor, the search must still stop on
    # no heavier codeword
    for cap, floor in itertools.product(
        (mindist._CELL_CAP, _small_blocks(F.q, cd.length)), (1, expected)
    ):
        with mock.patch.object(mindist, "_CELL_CAP", cap):
            r = min_distance_isd(dataclasses.replace(cd, floor=floor))
        assert r.exact and r.value == expected
        assert int(np.count_nonzero(r.witness)) == expected
        assert row_space_contains(F, R, pivots, r.witness)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(BATTERY))
def test_isd_matches_bruteforce_on_battery(name, q):
    """Every C_X(d) below the regularity with at most 10^4 codeword classes."""
    X = enumerate_X(BATTERY[name], field_from_q(q))
    counts = walk_of(X).hilbert_counts
    for d in range(1, len(counts) - 1):
        if (q ** counts[d] - 1) // (q - 1) > 10 ** 4:
            break
        cd = code(X, d)
        r = min_distance_isd(cd)
        assert r.exact and r.value == min_distance_bruteforce(cd).value


def test_k5_gf5_d1_isd_exact():
    # n = 256, k = 10: the search stops after weight 5, where
    # ceil(256 * 6 / 10) = 154 >= 144
    X = enumerate_X(BATTERY["K5"], field_from_q(5))
    r = min_distance_isd(code(X, 1))
    assert r.exact and r.value == r.lower == 144


class TestIntervals:
    def test_isd_stopped_reports_interval(self, k4):
        cd = code(enumerate_X(k4, field_from_q(5)), 3)
        r = min_distance_isd(cd, time_budget=0.0)
        # nothing enumerated yet: only ceil(n/k) = ceil(64/44) is proven,
        # and the lightest systematic row is the witness
        assert not r.exact and (r.lower, r.value) == (2, 4)
        assert repr(r) == "DistanceResult([2, 4], isd)"
        assert int(np.count_nonzero(r.witness)) == 4

    def test_exact_lower_equals_value(self, k4):
        r = min_distance_isd(code(enumerate_X(k4, field_from_q(5)), 3))
        assert r.exact and r.lower == r.value == 4
        assert repr(r) == "DistanceResult(4, isd, exact)"

    def test_bruteforce_time_budget(self, k4):
        F = field_from_q(4)
        cd = code(enumerate_X(k4, F), 1)  # [27, 6]: six message blocks
        r = min_distance_bruteforce(cd, time_budget=0.0)
        assert not r.exact and r.method == "bruteforce"
        # the floor is the lower end: delta = 12, its footprint bound 7
        assert r.lower == cd.floor == 7 and r.value >= 12
        assert int(np.count_nonzero(r.witness)) == r.value


class TestMinDistance:
    def test_torus_formula_first(self, triangle):
        X = enumerate_X(triangle, make_field(3, 2))
        r = min_distance(X, 20)
        assert (r.value, r.method, r.exact) == (1, "formula", True)

    def test_regularity_shortcut(self, k4):
        rep = distance_report(k4, enumerate_X(k4, make_field(3, 1)), 2)
        assert rep["delta"] == 1 and rep["delta_method"] == "regularity"
        assert rep["delta_exact"] and rep["delta_one_shortcut"]

    def test_forced_methods_skip_shortcut(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        for method in ("bruteforce", "isd"):
            r = min_distance(X, 2, method)
            assert (r.value, r.method, r.exact) == (1, method, True)

    def test_class_budget_picks_isd(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        r = min_distance(X, 1, class_budget=10)
        assert (r.value, r.method, r.exact) == (2, "isd", True)

    def test_rejects_degree_zero(self, k4):
        X = enumerate_X(k4, make_field(3, 1))
        with pytest.raises(ValueError):
            min_distance(X, 0)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_floor_is_the_torus_distance(s, q):
    """On the torus in P^(s-1) the footprint bound is exact: it equals the
    closed formula below the regularity (q-2)(s-1), counted one monomial
    per block too, and is 1 from there on."""
    walk = walk_of(projective_torus(s, field_from_q(q)))
    assert walk.regularity == (q - 2) * (s - 1)
    degrees = range(1, walk.regularity + 2)
    expected = [torus_distance(q, s, d) for d in degrees]
    assert [walk.footprint(d) for d in degrees] == expected
    with mock.patch.object(eval_code, "_CELL_CAP", 1):
        assert [walk.footprint(d) for d in degrees] == expected


@pytest.mark.parametrize("C,q,d", [
    (BATTERY["U6"], 4, 1), (BATTERY["C3"], 9, 2), (_C9, 3, 1),
], ids=["U6-4-1", "C3-9-2", "C9-3-1"])
def test_searches_stop_at_the_floor(C, q, d):
    """Each graph is connected with one cycle, an odd one, so X is the
    torus in P^(s-1); there the floor is delta, and the lightest row of
    the RREF meets it: both searches return delta exactly without building
    the table S."""
    X = enumerate_X(C, field_from_q(q))
    cd = code(X, d)
    delta = torus_distance(q, X.s, d)
    R, pivots = rref(cd.field, cd.generator)
    with mock.patch.object(mindist, "_scaled_rows", side_effect=AssertionError("built S")):
        results = [min_distance_bruteforce(cd), min_distance_isd(cd)]
    for r in results:
        assert r.exact and r.value == r.lower == cd.floor == delta
        assert int(np.count_nonzero(r.witness)) == delta
        assert row_space_contains(cd.field, R, pivots, r.witness)
