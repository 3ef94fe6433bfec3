"""Character-key invariants against the GF(q) elimination oracles.

H_X, the regularity, the generator matrix of C_X(d) and the reduced revlex
basis come from one standard-monomial walk over integer character keys;
conftest recomputes each by rank and reduced row echelon form over GF(q),
and lists the standard monomials from all monomials of a degree, on random
small clutters.
"""

from itertools import islice

import numpy as np
from hypothesis import HealthCheck, given, settings

from conftest import (
    clutters_over_fields,
    exponent_matrix,
    outside_leads,
    oracle_code_generator,
    oracle_hilbert_rank,
    oracle_interpolate_gb,
    oracle_regularity,
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
from toriccode.eval_code import _walk


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
    for d, (std, _, _) in zip(sorted(counts), _walk(X)):
        expected = outside_leads(exponent_matrix(X.s, d)[::-1], leads)
        assert np.array_equal(std, expected), d
        for e in std:
            for i in np.flatnonzero(e):
                e_i = e.copy()
                e_i[i] -= 1
                assert tuple(e_i) in below, (d, e, i)
        assert len(std) == oracle_hilbert_rank(X, d), d
        below = {tuple(e) for e in std}


def test_exponents_past_one_byte():
    # on the torus in P^1 over GF(263) every monomial of degree <= 261 is
    # standard; degree 257 is sorted in two-byte words
    T = projective_torus(2, field_from_q(263))
    std, _, _ = next(islice(_walk(T), 257, None))
    assert std.tolist() == [[a, 257 - a] for a in range(258)]
    # over GF(257): regularity 255, and one basis element, of degree 256
    F = field_from_q(257)
    T = projective_torus(2, F)
    assert regularity(T) == 255
    assert [g.term_string(F) for g in interpolate_gb(T).elements] == ["t1^256 - t2^256"]
