"""Output checks computed apart from the program.

Nothing here imports toriccode.  The facts each check relies on:

* X is the image of (Z/m)^n, m = q-1, under x -> B x, where B has the
  rows v_i - v_1 of the clutter's characteristic vectors; so
  |X| = prod m / gcd(m, d_i) over the Smith invariant factors d_i of B
  (computed with sympy).
* A degree-d monomial t^e evaluates on X as the character x^(A e), so
  H_X(d) is the number of distinct A e mod m over degree-d exponents e.
  These sets grow by one column of A per degree and are built that way.
  The regularity is the least d with H_X(d) = |X|.
* A basis element t^a - t^b vanishes on X exactly when A(a-b) = 0 mod m,
  and the leads of a Groebner basis leave H_X(d) standard monomials in
  every degree.
* On the full torus in P^(s-1) the h-vector is the coefficient list of
  (1 + t + ... + t^(q-2))^(s-1), the regularity is (q-2)(s-1), and the
  minimum distance has a closed formula.

Each check returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, prod

import numpy as np


# -- independent facts about one clutter over one field ---------------------

class Facts:
    """|X|, H_X, rank and lattice data of one edge-ordered clutter over GF(q)."""

    def __init__(self, doc: dict, q: int):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        self.n = int(doc["n"])
        edges = [set(int(v) for v in e) for e in doc["edges"]]
        self.s = len(edges)
        self.q = q
        self.m = q - 1
        vecs = [[1 if v + 1 in e else 0 for v in range(self.n)] for e in edges]
        self.A = np.array(vecs, dtype=np.int64).T  # n x s, column j is edge j
        diffs = [[a - b for a, b in zip(v, vecs[0])] for v in vecs[1:]]
        self.diff_factors = [int(d) for d in invariant_factors(Matrix(diffs), domain=ZZ)]
        self.size_X = prod(self.m // gcd(self.m, d) for d in self.diff_factors)
        self.rank = int(Matrix(vecs).rank())
        self.uniform = len({len(e) for e in edges}) == 1
        self.torus_size = self.m ** (self.s - 1)
        self.is_torus = self.size_X == self.torus_size
        self._H = None

    @property
    def hilbert(self) -> list[int]:
        """[H_X(0), ..., H_X(reg + 1)]."""
        if self._H is None:
            cols = [tuple(int(x) for x in self.A[:, j]) for j in range(self.s)]
            layer = {(0,) * self.n}
            H = [1]
            while len(H) < 2 or H[-2] != self.size_X:
                layer = {
                    tuple((x + a) % self.m for x, a in zip(chi, col))
                    for chi in layer
                    for col in cols
                }
                H.append(len(layer))
                if len(H) > (self.q - 2) * (self.s - 1) + 3:
                    raise AssertionError("H_X did not reach |X| by (q-2)(s-1)")
            self._H = H
        return self._H

    @property
    def regularity(self) -> int:
        return self.hilbert.index(self.size_X)

    @property
    def phi_injective(self) -> bool:
        return all(gcd(self.m, d) == 1 for d in self.diff_factors if d)


def torus_distance(q: int, s: int, d: int) -> int:
    """Minimum distance of the degree-d code on the torus in P^(s-1):
    with d = k(q-2) + l, 1 <= l <= q-2, it is (q-1)^(s-k-2) (q-1-l),
    and 1 from the regularity (q-2)(s-1) on."""
    if d >= (q - 2) * (s - 1):
        return 1
    k, r = divmod(d - 1, q - 2)  # l = r + 1
    return (q - 1) ** (s - k - 2) * (q - 2 - r)


def torus_h_vector(q: int, s: int) -> list[int]:
    h = [1]
    for _ in range(s - 1):
        nxt = [0] * (len(h) + q - 2)
        for i, c in enumerate(h):
            for j in range(q - 1):
                nxt[i + j] += c
        h = nxt
    return h


def _h_vector(H: list[int], reg: int) -> list[int]:
    return [H[0]] + [H[d] - H[d - 1] for d in range(1, reg + 1)]


def _torus_errors(f: Facts, H: list[int]) -> list[str]:
    errs = []
    reg = (f.q - 2) * (f.s - 1)
    if f.regularity != reg:
        errs.append(f"torus regularity {f.regularity} != (q-2)(s-1) = {reg}")
    if _h_vector(H, reg) != torus_h_vector(f.q, f.s):
        errs.append("torus h-vector differs from (1 + ... + t^(q-2))^(s-1)")
    return errs


def _expect(errs: list, label: str, got, want):
    if got != want:
        errs.append(f"{label}: got {got!r}, expected {want!r}")


# -- groebner ---------------------------------------------------------------

@lru_cache(maxsize=None)
def degree_monomials(s: int, d: int) -> np.ndarray:
    """All exponent vectors of degree d in s variables, one per row."""
    rows = []
    for pick in combinations_with_replacement(range(s), d):
        e = [0] * s
        for i in pick:
            e[i] += 1
        rows.append(e)
    return np.array(rows, dtype=np.int64).reshape(-1, s)


def _minus_one_index(q: int) -> int:
    """Serialized -1: g^((q-1)/2) for odd q, and 1 = -1 in characteristic 2."""
    return 1 if q % 2 == 0 else (q - 1) // 2 + 1


def check_groebner(f: Facts, out: dict) -> list[str]:
    errs: list[str] = []
    _expect(errs, "q", out.get("q"), f.q)
    _expect(errs, "s", out.get("s"), f.s)
    elements = out.get("elements") or []
    if not elements:
        return errs + ["empty basis"]
    minus_one = _minus_one_index(f.q)
    leads, tails = [], []
    for i, g in enumerate(elements):
        terms = g.get("terms", [])
        if len(terms) != 2:
            errs.append(f"element {i} has {len(terms)} terms, not a binomial")
            continue
        a = np.array(terms[0]["exponents"], dtype=np.int64)
        b = np.array(terms[1]["exponents"], dtype=np.int64)
        if a.shape != (f.s,) or b.shape != (f.s,) or (a < 0).any() or (b < 0).any():
            errs.append(f"element {i} has malformed exponents")
            continue
        if terms[0]["coeff_index"] != 1 or terms[1]["coeff_index"] != minus_one:
            errs.append(f"element {i} is not t^a - t^b")
        if not (a.sum() == b.sum() == g.get("degree")):
            errs.append(f"element {i} is not homogeneous of its degree")
        diff = a - b
        nz = np.nonzero(diff)[0]
        if nz.size == 0 or diff[nz[-1]] >= 0:
            errs.append(f"element {i}: lead is not the revlex-larger term")
        if ((f.A @ diff) % f.m).any():
            errs.append(f"element {i} does not vanish on X: A(a-b) != 0 mod q-1")
        leads.append(a)
        tails.append(b)
    if errs:
        return errs
    L = np.array(leads)
    terms = np.concatenate([L, np.array(tails)])
    owner = np.concatenate([np.arange(len(L)), np.arange(len(L))])
    divides = (terms[:, None, :] >= L[None, :, :]).all(axis=2)
    divides[np.arange(len(L)), np.arange(len(L))] = False  # a lead divides itself
    if divides.any():
        t, j = map(int, np.argwhere(divides)[0])
        errs.append(f"a term of element {int(owner[t])} is divisible by the lead of element {j}")
    _expect(errs, "degree_complexity", out.get("degree_complexity"), int(L.sum(axis=1).max()))
    H = f.hilbert
    counts = []
    for d in range(len(H)):
        E = degree_monomials(f.s, d)
        standard = ~(E[:, None, :] >= L[None, :, :]).all(axis=2).any(axis=1)
        counts.append(int(standard.sum()))
    if counts != H:
        errs.append(f"standard monomial counts {counts} != H_X {H}")
    if f.is_torus:
        errs += _torus_errors(f, counts)
    return errs


# -- params (formula method) and mindist ------------------------------------

def _delta_prime(f: Facts, d: int):
    if f.uniform and f.rank == f.n:
        return torus_distance(f.q, f.n, d)
    return None


def check_params_formula(f: Facts, out: dict) -> list[str]:
    errs: list[str] = []
    H, reg = f.hilbert, f.regularity
    _expect(errs, "length", out.get("length"), f.size_X)
    _expect(errs, "regularity", out.get("regularity"), reg)
    _expect(errs, "q", out.get("q"), f.q)
    _expect(errs, "s", out.get("s"), f.s)
    rows = out.get("rows") or []
    _expect(errs, "degrees", [r.get("d") for r in rows], list(range(1, reg + 1)))
    for r in rows:
        d = r.get("d")
        if not isinstance(d, int) or not 1 <= d <= reg:
            continue
        _expect(errs, f"d={d} length", r.get("length"), f.size_X)
        _expect(errs, f"d={d} dim", r.get("dim"), H[d])
        _expect(errs, f"d={d} singleton", r.get("singleton"), f.size_X - H[d] + 1)
        dp = _delta_prime(f, d)
        _expect(errs, f"d={d} delta_prime", r.get("delta_prime"), dp)
        if f.is_torus:
            want = (torus_distance(f.q, f.s, d), "formula", True)
        elif dp is not None:
            want = (dp, "bound-only", False)
        else:
            want = None
        got = (r.get("delta"), r.get("delta_method"), r.get("delta_exact"))
        _expect(errs, f"d={d} (delta, method, exact)", got, want)
    if f.is_torus:
        errs += _torus_errors(f, H)
    return errs


def check_mindist(f: Facts, out: dict, d: int, method: str, reference) -> list[str]:
    """`reference` is the exhaustive-search distance of this code, or None."""
    errs: list[str] = []
    H, reg = f.hilbert, f.regularity
    k = H[d] if d < len(H) else f.size_X
    _expect(errs, "d", out.get("d"), d)
    _expect(errs, "length", out.get("length"), f.size_X)
    _expect(errs, "dimension", out.get("dimension"), k)
    _expect(errs, "singleton", out.get("singleton"), f.size_X - k + 1)
    _expect(errs, "regularity", out.get("regularity"), reg)
    _expect(errs, "delta_one_shortcut", out.get("delta_one_shortcut"), d >= reg)
    _expect(errs, "equals_torus", out.get("equals_torus"), f.is_torus)
    dp = _delta_prime(f, d)
    _expect(errs, "delta_prime", out.get("delta_prime"), dp)
    _expect(errs, "delta_method", out.get("delta_method"), method)
    _expect(errs, "delta_exact", out.get("delta_exact"), True)
    delta = out.get("delta")
    if not isinstance(delta, int) or delta < 1:
        return errs + [f"delta {delta!r} is not a positive integer"]
    if delta > f.size_X - k + 1:
        errs.append(f"delta {delta} is above the Singleton bound {f.size_X - k + 1}")
    if dp is not None and delta > dp:
        errs.append(f"delta {delta} is above delta' = {dp}")
    if f.is_torus:
        _expect(errs, "delta (torus formula)", delta, torus_distance(f.q, f.s, d))
    if reference is None and not f.is_torus:
        errs.append("no reference distance for this code; run perfbench/refdist.py")
    elif reference is not None:
        _expect(errs, "delta (exhaustive reference)", delta, reference)
    return errs


# -- sets -------------------------------------------------------------------

def check_profile(f: Facts, out: dict) -> list[str]:
    errs: list[str] = []
    want = {
        "n": f.n,
        "s": f.s,
        "q": f.q,
        "points": f.size_X,
        "rank": f.rank,
        "rank_is_n": f.rank == f.n,
        "uniform": f.uniform,
        "torus_bound_degree": f.m ** (f.n - 1),
        "degree_matches_torus_bound": f.size_X == f.m ** (f.n - 1),
        "equals_ambient_torus": f.is_torus,
    }
    for key, value in want.items():
        _expect(errs, key, out.get(key), value)
    return errs


def check_ci(f: Facts, out: dict) -> list[str]:
    errs: list[str] = []
    independent = f.rank == f.s
    if not f.uniform:
        verdict = (False, None, None, None)
    elif not independent:
        verdict = (True, False, False, None)
    else:
        phi = f.phi_injective
        verdict = (True, phi, True, phi)
    keys = ("applicable", "is_ci", "vectors_independent", "phi_injective")
    _expect(errs, "/".join(keys), tuple(out.get(k) for k in keys), verdict)
    _expect(errs, "advisory_equals_torus", out.get("advisory_equals_torus"), f.is_torus)
    _expect(errs, "advisory_size_X", out.get("advisory_size_X"), f.size_X)
    _expect(errs, "advisory_torus_size", out.get("advisory_torus_size"), f.torus_size)
    return errs


def disagreements(deltas) -> list[str]:
    """`deltas` holds (code, delta) for every exact distance of a pass; each
    code must get one delta whatever method produced it."""
    seen: dict = {}
    for code, delta in deltas:
        seen.setdefault(code, set()).add(delta)
    return [f"{code}: methods give {sorted(v)}" for code, v in seen.items() if len(v) > 1]


def check_job(job, facts: Facts, out: dict, references: dict) -> list[str]:
    if job.command == "groebner":
        return check_groebner(facts, out)
    if job.command == "params":
        return check_params_formula(facts, out)
    if job.command == "mindist":
        ref = references.get(f"{job.clutter}/q{job.q}/d{job.d}", {}).get("delta")
        return check_mindist(facts, out, job.d, job.method, ref)
    if job.command == "profile":
        return check_profile(facts, out)
    if job.command == "ci":
        return check_ci(facts, out)
    raise ValueError(f"no check for {job.command}")
