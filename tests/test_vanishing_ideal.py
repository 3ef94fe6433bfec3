"""Groebner interpolation of I(X), and the paper's statements on binomial
membership and on H_(S/I_A) against the oracles."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    BATTERY,
    _complete,
    clutters_over_fields,
    degree,
    oracle_binomial_in_IX,
    oracle_hilbert_IA,
    oracle_standard_count,
    oracle_vanishing_defect,
    oracle_verify_gb_structure,
    same_character,
    term_string,
)
from toriccode import (
    degree_complexity,
    enumerate_X,
    field_from_q,
    hilbert_function,
    interpolate_gb,
    make_field,
    parse_clutter,
    projective_torus,
    regularity,
    verify_gb_structure,
)
from toriccode.eval_code import evaluate_rows, walk_of
from toriccode.limits import prime_power
from toriccode.vanishing_ideal import ReducedGB, minus_one_index


def _element_strings(G, F):
    return [term_string(g, F) for g in G.elements]


class TestTorusBases:
    @pytest.mark.parametrize("s,q", [(2, 3), (2, 4), (3, 3), (3, 5), (4, 3)])
    def test_pure_power_differences(self, s, q):
        F = field_from_q(q)
        T = projective_torus(s, F.q)
        G = interpolate_gb(T)
        assert len(G.elements) == s - 1
        neg_one = int(F.neg(np.array(1)))
        for i, g in enumerate(G.elements):
            lead, tail = g.terms
            e_lead = [0] * s
            e_lead[i] = q - 1
            e_tail = [0] * s
            e_tail[s - 1] = q - 1
            assert lead == (tuple(e_lead), 1)
            assert tail == (tuple(e_tail), neg_one)

    def test_degree_complexity_equals_q_minus_1(self):
        F = make_field(2, 2)
        G = interpolate_gb(projective_torus(3, F.q))
        assert degree_complexity(G) == 3


class TestC4Basis:
    def test_six_elements_gf3(self, battery):
        F = make_field(3, 1)
        X = enumerate_X(battery["C4"], F.q)
        G = interpolate_gb(X)
        got = _element_strings(G, F)
        assert got == [
            "t1^2 - t4^2",
            "t1*t2 - t3*t4",
            "t2^2 - t4^2",
            "t1*t3 - t2*t4",
            "t2*t3 - t1*t4",
            "t3^2 - t4^2",
        ]
        assert degree_complexity(G) == 2

    def test_leading_terms_avoid_last_variable(self, battery):
        F = make_field(3, 1)
        G = interpolate_gb(enumerate_X(battery["C4"], F.q))
        for lt in G.leading_terms:
            assert lt[-1] == 0


class TestInterpolationContracts:
    @pytest.mark.parametrize("name,q", [("C4", 3), ("K4", 3), ("K4", 4), ("U4", 3), ("P4", 4)])
    def test_defect_zero_and_structure(self, name, q, battery):
        F = field_from_q(q)
        X = enumerate_X(battery[name], F.q)
        G = interpolate_gb(X)
        assert oracle_vanishing_defect(G, X) == 0
        checks = verify_gb_structure(G)
        assert checks["pure_powers_present"]
        assert checks["per_variable_degree_le_q_minus_1"]
        assert checks["homogeneous_binomials_disjoint_support"]

    @pytest.mark.parametrize("name,q", [("C4", 3), ("K4", 4), ("star4", 3)])
    def test_standard_monomials_count_hilbert(self, name, q, battery):
        F = field_from_q(q)
        X = enumerate_X(battery[name], F.q)
        G = interpolate_gb(X)
        for d in range(degree_complexity(G) + 2):
            assert oracle_standard_count(G, d) == hilbert_function(X, d)

    def test_standard_counts_recorded_during_walk(self, k4):
        F = make_field(3, 1)
        X = enumerate_X(k4, F.q)
        G = interpolate_gb(X)
        for d in range(regularity(X) + 2):
            assert oracle_standard_count(G, d) == hilbert_function(X, d)

    def test_elements_sorted_by_degree_then_order(self, k4):
        F = make_field(2, 2)
        G = interpolate_gb(enumerate_X(k4, F.q))
        degs = [degree(g) for g in G.elements]
        assert degs == sorted(degs)

    def test_gb_reduced(self, battery):
        # no leading term divides any monomial occurring in another element
        F = make_field(3, 1)
        G = interpolate_gb(enumerate_X(battery["U4"], F.q))
        lts = G.leading_terms
        for g in G.elements:
            for expo, _ in g.terms:
                divisors = [
                    lt
                    for lt in lts
                    if all(l <= e for l, e in zip(lt, expo)) and lt != expo
                ]
                assert not divisors
            # the leading term itself is divisible only by itself
            assert sum(lt == g.terms[0][0] for lt in lts) == 1


def _mutated(G, leads, tails):
    leads, tails = (np.array(a, dtype=np.int64).reshape(-1, G.s) for a in (leads, tails))
    return ReducedGB(q=G.q, s=G.s, leads=leads, tails=tails)


class TestStructureArrays:
    """verify_gb_structure reads the two exponent arrays; the element loop
    it replaced (conftest.oracle_verify_gb_structure) gives the same
    report, on bases that pass and on bases broken so that each check
    fails."""

    @given(clutters_over_fields(max_torus=4096))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_the_element_loop(self, case):
        C, q = case
        G = interpolate_gb(enumerate_X(C, q))
        got = verify_gb_structure(G)
        assert got == oracle_verify_gb_structure(G)
        assert got["pure_powers_present"] and not got["missing_pure_powers"]
        assert got["per_variable_degree_le_q_minus_1"]
        assert got["homogeneous_binomials_disjoint_support"]

    @pytest.mark.parametrize("name,q", [("C4", 3), ("K4", 4), ("U6", 5), ("C3", 9), ("P3", 7)])
    def test_mutated_bases(self, name, q):
        G = interpolate_gb(enumerate_X(BATTERY[name], q))
        leads, tails = G.leads.tolist(), G.tails.tolist()
        s = G.s
        pure = [j for j, (a, b) in enumerate(zip(leads, tails))
                if b == [0] * (s - 1) + [q - 1] and sorted(a) == [0] * (s - 1) + [q - 1]]
        assert len(pure) == s - 1
        # (i) one pure power dropped, then all of them
        for dropped in ([pure[0]], pure):
            keep = [j for j in range(len(leads)) if j not in dropped]
            M = _mutated(G, [leads[j] for j in keep], [tails[j] for j in keep])
            got = verify_gb_structure(M)
            assert got == oracle_verify_gb_structure(M)
            assert not got["pure_powers_present"]
            assert len(got["missing_pure_powers"]) == len(dropped)
        # (ii) an exponent q, in a lead and in a tail
        for where in (0, 1):
            pair = [list(leads[-1]), list(tails[-1])]
            row = pair[where]
            row[int(np.argmax(np.array(row) > 0))] = q
            M = _mutated(G, leads[:-1] + [pair[0]], tails[:-1] + [pair[1]])
            got = verify_gb_structure(M)
            assert got == oracle_verify_gb_structure(M)
            assert not got["per_variable_degree_le_q_minus_1"]
        # (iii) a variable shared by the lead and the tail, degrees kept equal
        a, b = list(leads[0]), list(tails[0])
        i = next(i for i in range(s) if a[i])
        a[i] += 1
        b[i] += 1
        M = _mutated(G, [a] + leads[1:], [b] + tails[1:])
        got = verify_gb_structure(M)
        assert got == oracle_verify_gb_structure(M)
        assert not got["homogeneous_binomials_disjoint_support"]
        # an inhomogeneous element fails the same flag
        M = _mutated(G, leads, [tails[0][:-1] + [tails[0][-1] + 1]] + tails[1:])
        got = verify_gb_structure(M)
        assert got == oracle_verify_gb_structure(M)
        assert not got["homogeneous_binomials_disjoint_support"]


def test_minus_one_index_closed_form():
    """The index of -1 written for every tail equals the field's, for every
    prime power 3 <= q <= 256."""
    qs = []
    for q in range(3, 257):
        try:
            prime_power(q)
        except ValueError:
            continue
        qs.append(q)
        F = field_from_q(q)
        assert minus_one_index(q) == int(F.log[int(F.neg(1))]) + 1, q
    assert len(qs) == 69


@pytest.mark.parametrize("name,q", [("C4", 3), ("K4", 4), ("U6", 5), ("C3", 9), ("P4", 8)])
def test_term_strings_and_elements(name, q):
    """The written basis equals conftest.term_string of the elements over
    the field, and the elements carry the field's encodings of 1 and -1."""
    F = field_from_q(q)
    G = interpolate_gb(enumerate_X(BATTERY[name], q))
    assert G.term_strings() == [term_string(g, F) for g in G.elements]
    for g, lead, tail in zip(G.elements, G.leads.tolist(), G.tails.tolist()):
        assert g.terms == ((tuple(lead), 1), (tuple(tail), int(F.neg(1))))
    assert not G.leads.flags.writeable and not G.tails.flags.writeable


@pytest.mark.parametrize("name,q", [("C4", 3), ("K4", 4), ("U4", 5)])
def test_vanishing_defect_counts_each_broken_element(name, q):
    """oracle_vanishing_defect, by exponents, agrees with evaluation
    (conftest.oracle_binomial_in_IX) element by element on a basis whose
    tails are moved by one degree between variables."""
    X = enumerate_X(BATTERY[name], q)
    G = interpolate_gb(X)
    tails = G.tails.copy()
    moved = 0
    for row in tails[::2]:
        i = int(np.argmax(row > 0))
        row[i] -= 1
        row[(i + 1) % G.s] += 1
        moved += 1
    M = ReducedGB(q=q, s=G.s, leads=G.leads, tails=tails)
    broken = sum(
        not oracle_binomial_in_IX(a, b, X) for a, b in zip(G.leads.tolist(), tails.tolist())
    )
    assert 0 < broken <= moved
    assert oracle_vanishing_defect(M, X) == broken
    assert oracle_vanishing_defect(G, X) == 0


class TestCompleteGraphs:
    @pytest.mark.parametrize("n,q,size", [(6, 5, 365), (7, 4, 430)])
    def test_basis_of_complete_graph(self, n, q, size):
        # |X| = 1024 and 729, s = 15 and 21: listing every monomial of each
        # degree against every leading term would take gigabytes
        F = field_from_q(q)
        X = enumerate_X(parse_clutter({"n": n, "edges": _complete(n)}), F.q)
        G = interpolate_gb(X)
        assert len(G) == size
        assert oracle_vanishing_defect(G, X) == 0
        checks = verify_gb_structure(G)
        assert checks["pure_powers_present"]
        assert checks["per_variable_degree_le_q_minus_1"]
        assert checks["homogeneous_binomials_disjoint_support"]


class TestBinomialMembership:
    """The character test on the Smith presentation of X
    (conftest.same_character) decides membership as evaluation on X does
    (conftest.oracle_binomial_in_IX)."""

    @staticmethod
    def _member(a, b, X):
        member = same_character(a, b, X)
        assert member == oracle_binomial_in_IX(a, b, X), (a, b)
        return member

    def test_k4_examples(self, k4):
        X = enumerate_X(k4, 3)
        # t1*t6 - t3*t4: A(a+ - a-) = 0 and degrees match: in I(X)
        assert self._member([1, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0], X)
        # t1 - t2: different edge monomials, not in the ideal
        assert not self._member([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], X)

    def test_inhomogeneous_rejected_as_member(self, k4):
        X = enumerate_X(k4, 3)
        assert not self._member([2, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], X)

    def test_pure_power_difference_members(self, triangle):
        X = enumerate_X(triangle, 4)
        # t_i^(q-1) - t_j^(q-1) always vanishes
        assert self._member([3, 0, 0], [0, 0, 3], X)
        assert self._member([0, 3, 0], [0, 0, 3], X)

    def test_agrees_with_evaluation_on_random_binomials(self, battery):
        rng = np.random.default_rng(4)
        C = battery["U4"]
        for q in (3, 4):
            X = enumerate_X(C, q)
            for _ in range(40):
                a = rng.integers(0, q, size=4)
                b = rng.integers(0, q, size=4)
                both = (a > 0) & (b > 0)
                a[both] = 0
                if not a.any() and not b.any():
                    continue
                self._member([int(x) for x in a], [int(x) for x in b], X)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(clutters_over_fields(max_torus=256), st.data())
    def test_lattice_criterion_matches_evaluation(self, case, data):
        """The character test answers as evaluation on X does: on a random
        binomial, on t^a minus a standard monomial of its degree, and on
        t^a minus the one that agrees with t^a on X, each divided by the
        gcd of its two terms."""
        C, q = case
        X = enumerate_X(C, q)
        exponents = st.lists(st.integers(0, q), min_size=C.s, max_size=C.s)
        a, b = data.draw(exponents), data.draw(exponents)
        kind = data.draw(st.sampled_from(["any", "same degree", "same values"]))
        if kind != "any":
            std = walk_of(X).standard(sum(a))
            values = evaluate_rows(X, np.vstack([a, std]))
            same = (values[1:] == values[0]).all(axis=1)
            pick = same if kind == "same values" else np.ones(len(std), dtype=bool)
            b = data.draw(st.sampled_from(std[pick].tolist()))
        common = [min(x, y) for x, y in zip(a, b)]
        a = [x - c for x, c in zip(a, common)]
        b = [y - c for y, c in zip(b, common)]
        member = self._member(a, b, X)
        assert member or kind != "same values"


class TestHilbertIA:
    """H_X(d) = H_(S/I_A)(d) for d <= q-2, against conftest.oracle_hilbert_IA."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_oracle_k4(self, k4, d):
        assert hilbert_function(enumerate_X(k4, 5), d) == oracle_hilbert_IA(k4, d)

    def test_matches_oracle_battery(self, battery):
        for name in ("C4", "P3", "star4", "U4"):
            X = enumerate_X(battery[name], 5)
            for d in (1, 2, 3):
                assert hilbert_function(X, d) == oracle_hilbert_IA(battery[name], d), (name, d)

    def test_equals_hilbert_function_in_low_degrees(self, k4):
        # I_A lies in I(X), and t1^(q-1) - t2^(q-1) lies in I(X) but not in
        # I_A (v1 != v2): the equality holds up to d = q-2 and no further
        for q in (3, 4, 5):
            X = enumerate_X(k4, q)
            for d in range(1, q - 1):
                assert hilbert_function(X, d) == oracle_hilbert_IA(k4, d), (q, d)
            assert hilbert_function(X, q - 1) < oracle_hilbert_IA(k4, q - 1), q
