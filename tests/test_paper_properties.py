"""The paper's statements on X as properties over random clutters and
fields, with the slow routes of conftest as oracles.

* for a uniform clutter, I(X) is a complete intersection exactly when X
  is the projective torus, |X| = (q-1)^(s-1) (acceptance criterion 5);
* H_X(d) = H_(S/I_A)(d) for d <= q-2 (criterion 7);
* reg S/I(X) <= (q-2)(s-1) (criterion 8, its regularity bound);
* no binomial t_i^b - t^c with b < q-1 lies in I(X) (criterion 9).

The acceptance battery checks them on fixed clutters; here hypothesis
draws them from `clutters_over_fields` and `uniform_clutters_over_fields`.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    clutters_over_fields,
    oracle_binomial_in_IX,
    oracle_hilbert_IA,
    oracle_toric_points,
    same_character,
    uniform_clutters_over_fields,
)
from toriccode import ci_classify, enumerate_X, field_from_q, hilbert_function, regularity

_CLUTTERS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@_CLUTTERS
@given(uniform_clutters_over_fields(max_torus=4096).filter(
    lambda case: (case[1] - 1) ** case[0].n <= 10 ** 4
))
def test_ci_verdict_is_the_geometric_test(case):
    """The verdict of the lattice test equals the comparison of |X|, from
    the points that a walk over the (q-1)^n unit tuples reaches, with the
    size of the torus."""
    C, q = case
    size = len(oracle_toric_points(C, field_from_q(q)))
    assert ci_classify(C, q).is_ci == (size == (q - 1) ** (C.s - 1)), (C, q, size)


@_CLUTTERS
@given(st.one_of(clutters_over_fields(max_torus=4096),
                 uniform_clutters_over_fields(max_torus=4096)))
def test_regularity_is_at_most_that_of_the_torus(case):
    C, q = case
    assert regularity(enumerate_X(C, q)) <= (q - 2) * (C.s - 1), (C, q)


@_CLUTTERS
@given(clutters_over_fields(max_torus=4096))
def test_hilbert_function_equals_that_of_the_toric_ideal(case):
    C, q = case
    X = enumerate_X(C, q)
    for d in range(1, q - 1):
        assert hilbert_function(X, d) == oracle_hilbert_IA(C, d), (C, q, d)


@_CLUTTERS
@given(clutters_over_fields(max_torus=256))
def test_no_low_degree_binomial_of_a_pure_power_vanishes(case):
    """For every i, every 1 <= b < q-1 and every t^c of degree b prime to
    t_i, t_i^b - t^c is not in I(X): by the character test on the Smith
    presentation and by evaluation on X."""
    C, q = case
    X = enumerate_X(C, q)
    for i in range(C.s):
        others = [j for j in range(C.s) if j != i]
        for b in range(1, q - 1):
            for combo in itertools.combinations_with_replacement(others, b):
                a_plus = [b if j == i else 0 for j in range(C.s)]
                a_minus = [combo.count(j) for j in range(C.s)]
                assert not same_character(a_plus, a_minus, X), (C, q, i, a_minus)
                assert not oracle_binomial_in_IX(a_plus, a_minus, X), (C, q, i, a_minus)
