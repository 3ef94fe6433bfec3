"""Character-key invariants against the GF(q) elimination oracles.

H_X, the regularity, the generator matrix of C_X(d) and the reduced revlex
basis come from integer character keys; conftest recomputes each by rank
and reduced row echelon form over GF(q) on random small clutters.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings

from conftest import (
    clutters_over_fields,
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
    regularity,
)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
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
