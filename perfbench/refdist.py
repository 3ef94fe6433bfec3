"""Remake the reference minimum distances of the `distance` workload.

    python3 perfbench/refdist.py [--out perfbench/reference_distances.json]

Everything is rebuilt here without toriccode: the field GF(q) (q prime, 4
or 9) from its own modulus, the points of X by walking (F*)^n, the generator matrix of
C_X(d) by evaluating every degree-d monomial, and the distance by an
exhaustive search, one of two:

* messages: every codeword up to scalars, when (q^k - 1)/(q - 1) is small;
* syndromes: every vector of weight w = 1, 2, ... with first nonzero
  entry 1 against a parity-check matrix, stopping at the first w that
  gives a codeword; used when k is large and the distance small.

The result is written as JSON keyed by "<clutter>/q<q>/d<d>".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import combinations, islice, product

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import CLUTTERS, WORKLOADS  # noqa: E402

# monic irreducible moduli, constant coefficient first
_MODULI = {4: (2, (1, 1, 1)), 9: (3, (1, 0, 1))}
_MESSAGE_LIMIT = 2 * 10 ** 7
_CHUNK = 1 << 22  # table lookups per numpy step


class Field:
    """GF(q) on the integers 0..q-1 (base-p digits = power-basis coefficients)."""

    def __init__(self, q: int):
        if q in _MODULI:
            p, modulus = _MODULI[q]
        elif q > 2 and all(q % f for f in range(2, q)):
            p, modulus = q, (0, 1)
        else:
            raise ValueError(f"no modulus for q = {q}")
        k = len(modulus) - 1
        self.q, self.p = q, p
        digits = [[(e // p ** i) % p for i in range(k)] for e in range(q)]

        def encode(coeffs):
            return sum(c * p ** i for i, c in enumerate(coeffs))

        def times(a, b):
            prod_ = [0] * (2 * k - 1)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    prod_[i + j] = (prod_[i + j] + x * y) % p
            for top in range(2 * k - 2, k - 1, -1):
                c = prod_[top]
                if c:
                    for i in range(k + 1):
                        prod_[top - k + i] = (prod_[top - k + i] - c * modulus[i]) % p
            return encode(prod_[:k])

        self.add = np.array(
            [[encode([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
             for a in range(q)], dtype=np.uint8)
        self.mul = np.array([[times(a, b) for b in range(q)] for a in range(q)], dtype=np.uint8)
        self.neg = np.array([encode([(-x) % p for x in digits[a]]) for a in range(q)],
                            dtype=np.uint8)
        units = self.mul[1:, 1:]
        if (units == 0).any():
            raise AssertionError(f"modulus for GF({q}) is reducible")
        self.inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            self.inv[a] = int(np.nonzero(self.mul[a] == 1)[0][0])
        for g in range(2, q):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = int(self.mul[x, g])
            if len(powers) == q - 1:
                break
        else:
            raise AssertionError(f"no primitive element in GF({q})")
        self.exp = np.array(powers, dtype=np.uint8)  # exp[i] = g^i

    def axpy(self, y, a, x):
        """y + a*x elementwise (a broadcasts)."""
        return self.add[y, self.mul[a, x]]


def toric_points(n: int, edges, m: int) -> np.ndarray:
    """Canonical log-coordinates of X: rows (y_j - y_1) mod m, sorted, unique."""
    walk = np.array(list(product(range(m), repeat=n)), dtype=np.int64)  # (m^n, n)
    A = np.zeros((n, len(edges)), dtype=np.int64)
    for j, e in enumerate(edges):
        for v in e:
            A[v - 1, j] = 1
    y = (walk @ A) % m
    return np.unique((y - y[:, :1]) % m, axis=0)


def evaluation_matrix(F: Field, logs: np.ndarray, d: int) -> np.ndarray:
    s = logs.shape[1]
    monos = []
    for pick in combinations(range(d + s - 1), s - 1):  # stars and bars
        bounds = (-1,) + pick + (d + s - 1,)
        monos.append([bounds[i + 1] - bounds[i] - 1 for i in range(s)])
    E = np.array(monos, dtype=np.int64)
    return F.exp[(E @ logs.T) % (F.q - 1)]


def row_reduce(F: Field, M: np.ndarray):
    """(rows of the reduced echelon form, pivot columns)."""
    R = M.copy()
    pivots = []
    r = 0
    for c in range(R.shape[1]):
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        R[[r, i]] = R[[i, r]]
        R[r] = F.mul[F.inv[R[r, c]], R[r]]
        for i in np.nonzero(R[:, c])[0]:
            if i != r:
                R[i] = F.axpy(R[i], F.neg[R[i, c]], R[r])
        pivots.append(c)
        r += 1
        if r == R.shape[0]:
            break
    return R[:r], pivots


def min_weight_messages(F: Field, G: np.ndarray) -> int:
    """Least weight over one codeword per scalar class (first entry 1)."""
    k, n = G.shape
    q = F.q
    best = n
    for lead in range(k):
        free = k - lead - 1
        rows_per_chunk = max(1, _CHUNK // (n * max(1, free)))
        total = q ** free
        for start in range(0, total, rows_per_chunk):
            ids = np.arange(start, min(start + rows_per_chunk, total), dtype=np.int64)
            words = np.broadcast_to(G[lead], (ids.size, n)).copy()
            for j in range(free):
                coef = ((ids // q ** j) % q).astype(np.uint8)
                words = F.axpy(words, coef[:, None], G[lead + 1 + j][None, :])
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def parity_check(F: Field, R: np.ndarray, pivots) -> np.ndarray:
    """H with G H^T = 0 from a reduced echelon G = [I | P] (up to columns)."""
    k, n = R.shape
    free = [c for c in range(n) if c not in set(pivots)]
    H = np.zeros((len(free), n), dtype=np.uint8)
    for i, c in enumerate(free):
        H[i, c] = 1
        for r, p in enumerate(pivots):
            H[i, p] = F.neg[R[r, c]]
    return H


def min_weight_syndromes(F: Field, H: np.ndarray, max_cost: float = 5e10) -> int:
    """Least w such that some w columns of H combine to zero with nonzero
    coefficients (the first one 1): the least weight of a codeword."""
    r, n = H.shape
    units = F.exp
    for w in range(1, n + 1):
        cost = float(np.prod([n - i for i in range(w)])) / np.prod(range(1, w + 1))
        cost *= (F.q - 1) ** (w - 1) * r
        if cost > max_cost:
            raise RuntimeError(f"syndrome search at weight {w} is too large ({cost:.1e})")
        pats = list(product(range(F.q - 1), repeat=w - 1))
        coeffs = units[np.array(pats, dtype=np.int64).reshape(len(pats), w - 1)]
        per_chunk = max(1, _CHUNK // (coeffs.shape[0] * r))
        subsets = combinations(range(n), w)
        while True:
            batch = np.array(list(islice(subsets, per_chunk)), dtype=np.int64)
            if batch.size == 0:
                break
            cols = H[:, batch].transpose(1, 2, 0)  # (b, w, r)
            syn = np.broadcast_to(cols[:, None, 0, :], (len(batch), len(coeffs), r)).copy()
            for t in range(1, w):
                syn = F.axpy(syn, coeffs[None, :, t - 1, None], cols[:, None, t, :])
            if (~syn.any(axis=2)).any():
                return w
    raise AssertionError("no codeword found")  # unreachable for k >= 1


def reference(name: str, q: int, d: int) -> dict:
    n, edges = CLUTTERS[name]
    F = Field(q)
    logs = toric_points(n, edges, q - 1)
    R, pivots = row_reduce(F, evaluation_matrix(F, logs, d))
    k, length = R.shape
    if (q ** k - 1) // (q - 1) <= _MESSAGE_LIMIT:
        search, delta = "messages", min_weight_messages(F, R)
    else:
        H = parity_check(F, R, pivots)
        if _syndrome_of(F, H, R).any():
            raise AssertionError("parity-check matrix does not annihilate G")
        search, delta = "syndromes", min_weight_syndromes(F, H)
    return {"length": int(length), "dimension": int(k), "delta": int(delta), "search": search}


def _syndrome_of(F: Field, H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """G H^T over the field."""
    out = np.zeros((G.shape[0], H.shape[0]), dtype=np.uint8)
    for c in range(G.shape[1]):
        out = F.axpy(out, G[:, c, None], H[None, :, c])
    return out


def distance_codes():
    return sorted({(j.clutter, j.q, j.d) for j in WORKLOADS["distance"]})


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(here, "reference_distances.json"))
    args = ap.parse_args(argv)
    codes = {}
    for name, q, d in distance_codes():
        t0 = time.perf_counter()
        codes[f"{name}/q{q}/d{d}"] = ref = reference(name, q, d)
        print(f"{name}/q{q}/d{d}: {ref} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"command": "python3 perfbench/refdist.py", "codes": codes}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
