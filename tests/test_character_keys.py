"""Character-key invariants against the GF(q) elimination oracles.

H_X, the regularity, the generator matrix of C_X(d) and the reduced revlex
basis come from one standard-monomial walk over integer character keys,
which visits only the monomials prime to ts; conftest recomputes each by
rank and reduced row echelon form over GF(q), lists the standard monomials
from all monomials of a degree, and walks all standard monomials with a
sort in each degree, on random small clutters and tori.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    FIELD_SIZES,
    clutters_over_fields,
    difference_matrix,
    exponent_matrix,
    outside_leads,
    oracle_code_generator,
    oracle_hilbert_rank,
    oracle_interpolate_gb,
    oracle_regularity,
    oracle_standard_walk,
    term_string,
    torus_gens,
)
from toriccode import (
    code,
    enumerate_X,
    field_from_q,
    hilbert_function,
    interpolate_gb,
    projective_torus,
    regularity,
)
from toriccode.eval_code import StandardWalk, shift_table, standard_walk


_CLUTTERS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@_CLUTTERS
@given(clutters_over_fields(max_torus=256))
def test_invariants_match_gf_elimination(case):
    C, q = case
    X = enumerate_X(C, q)
    reg = regularity(X)
    assert reg == oracle_regularity(X)
    for d in range(reg + 2):
        assert hilbert_function(X, d) == oracle_hilbert_rank(X, d), d
    for d in range(1, min(2, reg) + 1):
        assert np.array_equal(code(X, d).generator, oracle_code_generator(X, d)), d
    G = interpolate_gb(X)
    elements, counts = oracle_interpolate_gb(X)
    assert [g.terms for g in G.elements] == elements
    assert G.leading_terms == [terms[0][0] for terms in elements]
    assert {d: hilbert_function(X, d) for d in counts} == counts


@_CLUTTERS
@given(clutters_over_fields(max_torus=256))
def test_walk_lists_the_standard_monomials(case):
    """Through degree reg+1, Delta_d is the set of degree-d monomials that
    no leading term of the GF(q) basis divides, in ascending revlex; it is
    closed under division, and its size is the GF(q) rank of degree d."""
    C, q = case
    X = enumerate_X(C, q)
    elements, counts = oracle_interpolate_gb(X)  # counts run through reg+1
    leads = [terms[0][0] for terms in elements]
    below = set()
    walk = StandardWalk(X)
    for d in sorted(counts):
        std = walk.standard(d)
        expected = outside_leads(exponent_matrix(X.s, d)[::-1], leads)
        assert np.array_equal(std, expected), d
        for e in std:
            for i in np.flatnonzero(e):
                e_i = e.copy()
                e_i[i] -= 1
                assert tuple(e_i) in below, (d, e, i)
        assert len(std) == oracle_hilbert_rank(X, d), d
        below = {tuple(e) for e in std}


def _labels_of(X, E):
    """The label sum_j c_j prod_(i<j) o_i of the character of each monomial
    in E: c = e @ chars - deg(e) chars[ts] mod o."""
    o = np.array(X.orders)
    weight = np.cumprod([1, *X.orders])[:-1]
    c = (E @ X.chars - E.sum(axis=1, keepdims=True) * X.chars[-1]) % o
    return c @ weight


def _check_walk_against_oracle(X, gens):
    """Through degree r+1 the Artinian walk gives, by way of StandardWalk,
    the Delta_d of the sorting walk over all standard monomials on the
    generator matrix gens of X, and the one-pass basis the same leading
    terms and tails, degree by degree in descending revlex; the walk stops
    at r, with sum |N_d| = |X|, each N_d labelled by its characters, with
    the last variable below ts of each monomial, and N_(r+1) empty."""
    steps = list(standard_walk(shift_table(X.chars, X.orders)))
    r = len(steps) - 1
    rows, labels, last = steps[-1]
    assert len(rows) == len(X)
    for step in steps:  # each yield is a prefix of the last
        assert all(np.array_equal(a, b[: len(a)]) for a, b in zip(step, steps[-1]))
    assert np.array_equal(labels, _labels_of(X, rows))
    below_ts = rows[:, :-1] > 0
    assert last.tolist() == [int(np.flatnonzero(e).max(initial=0)) for e in below_ts]
    ends = [0] + [len(step[0]) for step in steps]
    oracle = list(oracle_standard_walk(gens, X.q - 1, r + 1))
    walk = StandardWalk(X)
    for d, (delta, _, _) in enumerate(oracle):
        assert np.array_equal(walk.standard(d), delta), d
        N = rows[ends[d] : ends[d + 1]] if d <= r else delta[:0]
        assert np.array_equal(N, delta[delta[:, -1] == 0]), d
    leads, tails = walk.reduced_basis()
    assert np.array_equal(leads, np.concatenate([lt[::-1] for _, lt, _ in oracle]))
    assert np.array_equal(tails, np.concatenate([tl[::-1] for _, _, tl in oracle]))
    assert not leads[:, -1].any()
    assert walk.regularity == r and len(walk.standard(r)) == len(X)
    assert r == 0 or len(walk.standard(r - 1)) < len(X)


@_CLUTTERS
@given(clutters_over_fields(max_torus=4096))
def test_walk_matches_sorting_walk(case):
    C, q = case
    _check_walk_against_oracle(enumerate_X(C, q), difference_matrix(C))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FIELD_SIZES), st.integers(2, 6))
def test_walk_matches_sorting_walk_on_tori(q, s):
    assume((q - 1) ** (s - 1) <= 4096)
    _check_walk_against_oracle(projective_torus(s, q), torus_gens(s))


def _labels(X, gens):
    """The label sum_j c_j prod_(i<j) o_i of every distinct key
    k = e @ gens mod m, gens the generator matrix of X, e over all exponent
    vectors mod m, with c = e @ chars mod o; monomials of one key get one
    label."""
    m = X.q - 1
    E = np.array(list(itertools.product(range(m), repeat=X.s)), dtype=np.int64)
    weight = np.cumprod([1, *X.orders])[:-1]
    labels = {}
    for key, label in zip(map(tuple, (E @ gens % m).tolist()),
                          ((E @ X.chars % np.array(X.orders)) @ weight).tolist()):
        assert labels.setdefault(key, label) == label, key
    return list(labels.values())


@_CLUTTERS
@given(clutters_over_fields(max_torus=256))
def test_labels_are_a_permutation(case):
    """X has |X| characters, and their labels are 0, ..., |X| - 1."""
    C, q = case
    X = enumerate_X(C, q)
    assert sorted(_labels(X, difference_matrix(C))) == list(range(len(X)))


@pytest.mark.parametrize("s,q", [(2, 7), (3, 5), (4, 4), (3, 9)])
def test_torus_labels_are_a_permutation(s, q):
    T = projective_torus(s, q)
    assert sorted(_labels(T, torus_gens(s))) == list(range(len(T)))


def test_exponents_past_one_byte():
    # on the torus in P^1 over GF(263) every monomial of degree <= 261 is
    # standard, exponents past 255 among them
    T = projective_torus(2, 263)
    std = StandardWalk(T).standard(257)
    assert std.tolist() == [[a, 257 - a] for a in range(258)]
    # over GF(257): regularity 255, and one basis element, of degree 256
    F = field_from_q(257)
    T = projective_torus(2, F.q)
    assert regularity(T) == 255
    assert [term_string(g, F) for g in interpolate_gb(T).elements] == ["t1^256 - t2^256"]
