"""Acceptance gate: nine end-to-end checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines.  Every expected integer here is frozen; nothing is computed from
the code under test except the values being compared.
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    BATTERY,
    CI_EXPECTED,
    NON_BIPARTITE,
    exponent_matrix,
    oracle_binomial_in_IX,
    oracle_hilbert_IA,
    oracle_standard_count,
    oracle_torus_h_vector,
    oracle_vanishing_defect,
    row_space_contains,
    same_character,
)
from toriccode import (
    ci_classify,
    code,
    degree_complexity,
    enumerate_X,
    equals_torus,
    field_from_q,
    h_vector,
    hilbert_function,
    interpolate_gb,
    min_distance_bruteforce,
    min_distance_isd,
    projective_torus,
    regularity,
    torus_distance,
    verify_gb_structure,
)
from toriccode._linalg import rref


@contextmanager
def reporting(num: int, label: str):
    t0 = time.time()
    try:
        yield
    except BaseException as exc:
        print(f"[criterion {num}] FAIL {label}: {exc}")
        raise
    print(f"[criterion {num}] PASS {label} ({time.time() - t0:.1f}s)")


def _delta_one_certified(X, d):
    """d >= reg makes C_X(d) the full space; certify via dimension and an
    explicit weight-1 codeword in the row space."""
    cd = code(X, d)
    if cd.dimension != cd.length:
        return False
    e0 = np.zeros(cd.length, dtype=np.int64)
    e0[0] = 1
    R, piv = rref(X.field, cd.generator)
    return row_space_contains(X.field, R, piv, e0)


def test_criterion_1_triangle_gf9():
    with reporting(1, "triangle over GF(9): full parameter table"):
        X = enumerate_X(BATTERY["C3"], 9)
        assert len(X) == 64
        assert equals_torus(X)
        dims = [hilbert_function(X, d) for d in range(1, 15)]
        assert dims == [3, 6, 10, 15, 21, 28, 36, 43, 49, 54, 58, 61, 63, 64]
        deltas = [torus_distance(9, 3, d) for d in range(1, 15)]
        assert deltas == [56, 48, 40, 32, 24, 16, 8, 7, 6, 5, 4, 3, 2, 1]
        assert regularity(X) == 14
        # exact searches agree with the closed form in low degrees
        assert min_distance_bruteforce(code(X, 1)).value == 56
        assert min_distance_bruteforce(code(X, 2)).value == 48


def test_criterion_2_k4_gf3():
    with reporting(2, "K4 over GF(3): Singleton, closed-form bound, brute force"):
        C = BATTERY["K4"]
        X = enumerate_X(C, 3)
        assert len(X) == 8
        assert [len(X) - hilbert_function(X, d) + 1 for d in (1, 2, 3)] == [3, 1, 1]
        assert [torus_distance(3, C.n, d) for d in (1, 2, 3)] == [4, 2, 1]
        got = [min_distance_bruteforce(code(X, d)).value for d in (1, 2, 3)]
        assert got == [2, 1, 1]


def test_criterion_3_k4_gf4():
    with reporting(3, "K4 over GF(4): brute force d=1, information-set d=2..6"):
        C = BATTERY["K4"]
        X = enumerate_X(C, 4)
        assert len(X) == 27
        bounds = [len(X) - hilbert_function(X, d) + 1 for d in range(1, 7)]
        assert bounds == [22, 9, 1, 1, 1, 1]
        primes = [torus_distance(4, C.n, d) for d in range(1, 7)]
        assert primes == [18, 9, 6, 3, 2, 1]
        assert min_distance_bruteforce(code(X, 1)).value == 12
        isd = []
        for d in range(2, 7):
            r = min_distance_isd(code(X, d))
            assert r.exact
            isd.append(r.value)
        assert isd == [3, 1, 1, 1, 1]


def test_criterion_4_torus_suite():
    with reporting(4, "projective torus: size, regularity, h-vector, basis"):
        for s in (2, 3, 4):
            for q in (3, 4, 5, 9):
                if (q - 1) ** (s - 1) > 10**4:
                    continue
                F = field_from_q(q)
                T = projective_torus(s, F.q)
                assert len(T) == (q - 1) ** (s - 1)
                assert regularity(T) == (s - 1) * (q - 2)
                assert h_vector(T) == oracle_torus_h_vector(s, q)
                G = interpolate_gb(T)
                assert len(G.elements) == s - 1
                neg_one = int(F.neg(np.array(1)))
                seen = set()
                for g in G.elements:
                    (a, ca), (b, cb) = g.terms
                    assert ca == 1 and cb == neg_one
                    i = next(j for j, e in enumerate(a) if e)
                    assert a == tuple(
                        (q - 1) if j == i else 0 for j in range(s)
                    )
                    assert b == tuple(
                        (q - 1) if j == s - 1 else 0 for j in range(s)
                    )
                    seen.add(i)
                assert seen == set(range(s - 1))


def test_criterion_5_ci_battery():
    with reporting(5, "complete-intersection classifier vs geometry"):
        for q in (3, 4, 5):
            F = field_from_q(q)
            for name, C in BATTERY.items():
                rep = ci_classify(C, q)
                assert rep.applicable, name
                assert rep.is_ci == CI_EXPECTED[name], (name, q)
                X = enumerate_X(C, F.q)
                geometric = len(X) == (F.q - 1) ** (X.s - 1)
                assert rep.is_ci == geometric, (name, q)
                assert equals_torus(X) == geometric, (name, q)


def test_criterion_6_groebner_structure():
    with reporting(6, "reduced basis structure across the battery, q in {3,4}"):
        for q in (3, 4):
            F = field_from_q(q)
            for name, C in BATTERY.items():
                X = enumerate_X(C, F.q)
                G = interpolate_gb(X)
                checks = verify_gb_structure(G)
                assert checks["pure_powers_present"], (name, q, checks)
                assert checks["per_variable_degree_le_q_minus_1"], (name, q)
                assert checks["homogeneous_binomials_disjoint_support"], (name, q)
                assert oracle_vanishing_defect(G, X) == 0, (name, q)
                for d in range(degree_complexity(G) + 1):
                    assert oracle_standard_count(G, d) == hilbert_function(X, d)


def test_criterion_7_hilbert_equality():
    with reporting(7, "H_X(d) equals the monomial count of I(A) for d <= q-2"):
        for q in (4, 5):
            F = field_from_q(q)
            for name, C in BATTERY.items():
                X = enumerate_X(C, F.q)
                for d in range(1, q - 1):
                    assert hilbert_function(X, d) == oracle_hilbert_IA(C, d), (name, q, d)
        X9 = enumerate_X(BATTERY["C3"], 9)
        for d in range(1, 8):
            assert hilbert_function(X9, d) == oracle_hilbert_IA(BATTERY["C3"], d), d


_REG_BATTERY = {q: sorted(BATTERY) for q in (3, 4, 5)}


def test_criterion_8_bound_suite():
    with reporting(8, "distance-1 past regularity, regularity and distance bounds"):
        for q, names in _REG_BATTERY.items():
            F = field_from_q(q)
            for name in names:
                C = BATTERY[name]
                X = enumerate_X(C, F.q)
                reg = regularity(X)
                assert reg <= (q - 2) * (X.s - 1), (name, q)
                assert _delta_one_certified(X, reg), (name, q)
                assert _delta_one_certified(X, reg + 1), (name, q)
                if name in NON_BIPARTITE:
                    assert len(X) == (q - 1) ** (C.n - 1), (name, q)
                    assert reg <= (q - 2) * (C.n - 1), (name, q)
        # exact distances stay below the closed-form bound where search is cheap
        for q, name, ds in [
            (3, "C3", (1, 2)),
            (3, "C5", (1, 2)),
            (3, "K4", (1, 2)),
            (3, "K5", (1,)),
            (3, "U4", (1, 2)),
            (4, "K4", (1, 2)),
            (4, "K5", (1,)),
            (4, "U4", (1,)),
        ]:
            F = field_from_q(q)
            C = BATTERY[name]
            X = enumerate_X(C, F.q)
            for d in ds:
                cd = code(X, d)
                classes = (F.q**cd.dimension - 1) // (F.q - 1)
                r = (
                    min_distance_bruteforce(cd)
                    if classes <= 10**6
                    else min_distance_isd(cd)
                )
                assert r.exact
                assert r.value <= torus_distance(q, C.n, d), (name, q, d)


def test_criterion_9_low_degree_binomials():
    with reporting(9, "no low-degree pure-vs-monomial binomials vanish"):
        for q in (3, 4):
            for name, C in BATTERY.items():
                s = C.s
                if s > 4:
                    continue
                X = enumerate_X(C, q)
                for b in range(1, q):
                    tails = exponent_matrix(s, b)
                    for i in range(s):
                        for c in tails:
                            if c[i] != 0:
                                continue
                            a_plus = [b if j == i else 0 for j in range(s)]
                            a_minus = [int(x) for x in c]
                            member = same_character(a_plus, a_minus, X)
                            evaluated = oracle_binomial_in_IX(a_plus, a_minus, X)
                            assert member == evaluated, (name, q, i, a_minus)
                            if b < q - 1:
                                assert not member, (name, q, i, a_minus)
                            else:
                                pure = sum(1 for x in c if x) == 1 and max(c) == q - 1
                                assert member == pure, (name, q, i, a_minus)
