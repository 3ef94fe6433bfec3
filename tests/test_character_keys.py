"""Character-key invariants against the GF(q) elimination oracles.

H_X, the regularity, the generator matrix of C_X(d) and the reduced revlex
basis come from integer character keys; conftest recomputes each by rank
and reduced row echelon form over GF(q) on random small clutters.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
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
    parse_clutter,
    regularity,
)

_QS = [3, 4, 5, 7, 8, 9]


def _largest(base: int, limit: int) -> int:
    """Largest k with base^k <= limit."""
    k = 0
    while base ** (k + 1) <= limit:
        k += 1
    return k


@st.composite
def clutters_over_fields(draw):
    """(clutter, q) with (q-1)^n <= 10^5 tuples to walk and at most 256
    torus points in P^(s-1), which keeps the GF(q) oracles fast."""
    q = draw(st.sampled_from(_QS))
    m = q - 1
    n_max = min(_largest(m, 10 ** 5), 8)
    s_max = _largest(m, 256) + 1
    n = draw(st.integers(3, n_max))
    s = draw(st.integers(2, s_max))
    edges = draw(
        st.lists(
            st.frozensets(st.integers(1, n), min_size=2, max_size=3),
            min_size=s,
            max_size=s,
            unique=True,
        )
    )
    # keep the inclusion-minimal edges, so that the family is a clutter
    edges = [e for e in edges if not any(f < e for f in edges)]
    assume(len(edges) >= 2)
    used = sorted(set().union(*edges))
    label = {v: i + 1 for i, v in enumerate(used)}
    doc = {"n": len(used), "edges": [sorted(label[v] for v in e) for e in edges]}
    return parse_clutter(doc), q


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(clutters_over_fields())
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
