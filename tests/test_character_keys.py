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
    exponent_matrix,
    outside_leads,
    oracle_code_generator,
    oracle_hilbert_rank,
    oracle_interpolate_gb,
    oracle_regularity,
    oracle_standard_walk,
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
from toriccode.eval_code import StandardWalk, standard_walk


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
    X = enumerate_X(C, field_from_q(q))
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
    assert G.standard_counts == counts


@_CLUTTERS
@given(clutters_over_fields(max_torus=256))
def test_walk_lists_the_standard_monomials(case):
    """Through degree reg+1, Delta_d is the set of degree-d monomials that
    no leading term of the GF(q) basis divides, in ascending revlex; it is
    closed under division, and its size is the GF(q) rank of degree d."""
    C, q = case
    X = enumerate_X(C, field_from_q(q))
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


def _check_walk_against_oracle(X):
    """Through degree r+1 the Artinian walk gives, by way of StandardWalk,
    the Delta_d of the sorting walk over all standard monomials, and the
    same leading terms and tails; it stops there, with every N_d past r
    empty and sum |N_d| = |X|."""
    steps = [(N, *leading()) for N, leading in standard_walk(X.gens, X.field.q - 1, X.radices)]
    r = len(steps) - 2
    assert len(steps[-1][0]) == 0 and sum(len(N) for N, _, _ in steps) == len(X)
    oracle = oracle_standard_walk(X.gens, X.field.q - 1, r + 1)
    walk = StandardWalk(X)
    for d, ((delta, leads, tails), (N, got_leads, got_tails)) in enumerate(zip(oracle, steps)):
        assert np.array_equal(walk.standard(d), delta), d
        assert np.array_equal(N, delta[delta[:, -1] == 0]), d
        assert np.array_equal(got_leads, leads), d
        assert np.array_equal(got_tails, tails), d
        assert all(map(np.array_equal, walk.leading(d), (leads, tails))), d
        assert not got_leads[:, -1].any(), d
    assert walk.regularity == r and len(walk.standard(r)) == len(X)
    assert r == 0 or len(walk.standard(r - 1)) < len(X)


@_CLUTTERS
@given(clutters_over_fields(max_torus=4096))
def test_walk_matches_sorting_walk(case):
    C, q = case
    _check_walk_against_oracle(enumerate_X(C, field_from_q(q)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FIELD_SIZES), st.integers(2, 6))
def test_walk_matches_sorting_walk_on_tori(q, s):
    assume((q - 1) ** (s - 1) <= 4096)
    _check_walk_against_oracle(projective_torus(s, field_from_q(q)))


def _labels(X):
    """The label sum_j floor(k_j / (m/r_j)) prod_(i<j) r_i of every distinct
    key k = e @ gens mod m, e over all exponent vectors mod m."""
    m = X.field.q - 1
    keys = {
        tuple(int(x) for x in np.array(e) @ X.gens % m)
        for e in itertools.product(range(m), repeat=X.s)
    }
    labels = []
    for k in keys:
        label, place = 0, 1
        for kj, r in zip(k, X.radices):
            label += kj // (m // r) * place
            place *= r
        labels.append(label)
    return labels


@_CLUTTERS
@given(clutters_over_fields(max_torus=256))
def test_labels_are_a_permutation(case):
    """X has |X| characters, and their labels are 0, ..., |X| - 1."""
    C, q = case
    X = enumerate_X(C, field_from_q(q))
    assert sorted(_labels(X)) == list(range(len(X)))


@pytest.mark.parametrize("s,q", [(2, 7), (3, 5), (4, 4), (3, 9)])
def test_torus_labels_are_a_permutation(s, q):
    T = projective_torus(s, field_from_q(q))
    assert sorted(_labels(T)) == list(range(len(T)))


def test_exponents_past_one_byte():
    # on the torus in P^1 over GF(263) every monomial of degree <= 261 is
    # standard, exponents past 255 among them
    T = projective_torus(2, field_from_q(263))
    std = StandardWalk(T).standard(257)
    assert std.tolist() == [[a, 257 - a] for a in range(258)]
    # over GF(257): regularity 255, and one basis element, of degree 256
    F = field_from_q(257)
    T = projective_torus(2, F)
    assert regularity(T) == 255
    assert [g.term_string(F) for g in interpolate_gb(T).elements] == ["t1^256 - t2^256"]
