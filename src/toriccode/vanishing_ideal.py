"""Reduced revlex Groebner basis of the vanishing ideal I(X).

On X the monomial t^e is the character with key e @ X.gens mod q-1, and
distinct characters are linearly independent (Artin).  So I(X) is spanned
by the binomials t^e - t^e' of equal degree and key: it is a lattice ideal,
and its reduced revlex basis consists of such binomials.  Every point of X
has unit coordinates, so ts is a nonzerodivisor mod I(X) and mod its
revlex initial ideal: no leading term is divisible by ts.  The basis
comes from the walk of X over the Artinian reduction (`eval_code.walk_of`),
with no field elimination.  The walk lists N_0, ..., N_r, the standard
monomials prime to ts, r the regularity (the least degree with |X|
standard monomials).  One pass over them
(`eval_code.StandardWalk.reduced_basis`) finds the leading terms t^e, the
products of a monomial of some N_d and a variable whose divisors are all
standard, each with the standard monomial of its key as the tail of its
basis element t^e - tail.  They have degree at most r+1, since N_(r+1) is
empty.  `binomial_in_IX` needs no points: two monomials of one degree agree
on X exactly when A maps their exponents to the same class mod q-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .clutter import Clutter, incidence
from .errors import BudgetExceededError
from .eval_code import evaluate_rows, walk_of
from .finite_field import FiniteField
from .toric_set import ToricSet


@dataclass(frozen=True)
class HomogPoly:
    """A homogeneous polynomial as {exponent tuple: nonzero encoding},
    carrying its revlex leading exponent."""

    terms: tuple[tuple[tuple[int, ...], int], ...]  # sorted descending revlex
    lead: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.lead)

    def is_binomial(self) -> bool:
        return len(self.terms) == 2

    def support_disjoint(self) -> bool:
        if len(self.terms) != 2:
            return False
        (a, _), (b, _) = self.terms
        return all(x == 0 or y == 0 for x, y in zip(a, b))

    def term_string(self, F: FiniteField) -> str:
        parts = []
        for expo, enc in self.terms:
            mono = _mono_str(expo)
            if enc == 1:
                coeff = ""
            elif enc == int(F.neg(1)):
                coeff = "-"
            else:
                coeff = f"g^{int(F.log[enc])}*"
            if not parts:
                parts.append(f"{coeff}{mono}" if coeff != "-" else f"-{mono}")
            elif coeff == "-":
                parts.append(f"- {mono}")
            elif coeff == "":
                parts.append(f"+ {mono}")
            else:
                parts.append(f"+ {coeff}{mono}")
        return " ".join(parts)


def _mono_str(expo) -> str:
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(f"t{i + 1}")
        elif e > 1:
            parts.append(f"t{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass
class ReducedGB:
    field: FiniteField
    s: int
    elements: list[HomogPoly]
    standard_counts: dict[int, int] = dc_field(default_factory=dict)

    @property
    def leading_terms(self) -> list[tuple[int, ...]]:
        return [g.lead for g in self.elements]

    def __len__(self):
        return len(self.elements)


def interpolate_gb(X: ToricSet) -> ReducedGB:
    """The reduced revlex Groebner basis of I(X), from one pass over the
    standard-monomial walk, elements sorted by degree and then descending
    revlex leading term."""
    F = X.field
    minus_one = int(F.neg(1))
    walk = walk_of(X)
    leads, tails = walk.reduced_basis()
    elements = [
        HomogPoly(terms=((lead, 1), (tail, minus_one)), lead=lead)
        for lead, tail in zip(map(tuple, leads.tolist()), map(tuple, tails.tolist()))
    ]
    counts = {d: walk.hilbert(d) for d in range(walk.regularity + 2)}
    return ReducedGB(field=F, s=X.s, elements=elements, standard_counts=counts)


def degree_complexity(G: ReducedGB) -> int:
    """Largest degree of a reduced-basis element."""
    if not G.elements:
        raise ValueError("empty basis")
    return max(g.degree for g in G.elements)


def evaluate_poly(g: HomogPoly, X: ToricSet) -> np.ndarray:
    """Vector of values of g at the canonical representatives of X."""
    F = X.field
    E = np.array([expo for expo, _ in g.terms], dtype=np.int64)
    rows = evaluate_rows(X, E)
    coeffs = np.array([enc for _, enc in g.terms], dtype=F.dtype)
    return F.sum_axis(F.mul(coeffs[:, None], rows), axis=0)


def vanishing_defect(G: ReducedGB, X: ToricSet) -> int:
    """How many basis elements fail to vanish identically on X (0 = all vanish)."""
    return sum(1 for g in G.elements if np.any(evaluate_poly(g, X)))


def verify_gb_structure(G: ReducedGB, q: int) -> dict:
    """Structure checks on a reduced basis:

    (i) the pure binomials ti^(q-1) - ts^(q-1), i < s, are all present,
    (ii) every element has per-variable degree <= q-1,
    (iii) every element is a homogeneous binomial with disjoint supports.
    """
    s = G.s
    minus_one = int(G.field.neg(1))
    pure_needed = set()
    for i in range(s - 1):
        lead = tuple((q - 1) if j == i else 0 for j in range(s))
        tail = tuple((q - 1) if j == s - 1 else 0 for j in range(s))
        pure_needed.add((lead, tail))
    pure_found = set()
    per_var_ok = True
    binomial_ok = True
    for g in G.elements:
        for expo, _ in g.terms:
            if any(e > q - 1 for e in expo):
                per_var_ok = False
        if not (g.is_binomial() and g.support_disjoint()):
            binomial_ok = False
            continue
        (a, ca), (b, cb) = g.terms
        if sum(a) != sum(b):
            binomial_ok = False
        if ca == 1 and cb == minus_one and (a, b) in pure_needed:
            pure_found.add((a, b))
    return {
        "pure_powers_present": pure_found == pure_needed,
        "per_variable_degree_le_q_minus_1": per_var_ok,
        "homogeneous_binomials_disjoint_support": binomial_ok,
        "missing_pure_powers": sorted(pure_needed - pure_found),
    }


def binomial_in_IX(a_plus, a_minus, C: Clutter, q: int, X: ToricSet | None = None) -> bool:
    """Membership of t^(a+) - t^(a-) in I(X) by the lattice criterion alone:
    homogeneity and A a+ = A a- (mod q-1).  Both monomials are then the
    same character of X.  A given X must match the clutter and the field;
    no point of it is read."""
    a_plus = [int(x) for x in a_plus]
    a_minus = [int(x) for x in a_minus]
    s = C.s
    if len(a_plus) != s or len(a_minus) != s:
        raise ValueError(f"exponent vectors must have length s = {s}")
    if any(x < 0 for x in a_plus + a_minus):
        raise ValueError("exponents must be non-negative")
    if any(p and m for p, m in zip(a_plus, a_minus)):
        raise ValueError("a+ and a- must have disjoint supports")
    if q < 3:
        raise ValueError("need q >= 3")
    if X is not None and (X.s != s or X.field.q != q):
        raise ValueError("provided X does not match the clutter/field")
    if sum(a_plus) != sum(a_minus):
        return False
    A = incidence(C).A
    diff = A @ (np.array(a_plus, dtype=np.int64) - np.array(a_minus, dtype=np.int64))
    return bool(np.all(diff % (q - 1) == 0))


def hilbert_IA(C: Clutter, d: int, budget: int = 5 * 10 ** 6) -> int:
    """Hilbert function of the toric quotient S/I_A in degree d: the number
    of distinct sums of d characteristic vectors (with repetition).

    The sums of degree j are those of degree j-1 plus each edge vector.
    The budget bounds that work, the |A_(j-1)| * s candidate sums of each
    degree j summed over j <= d: BudgetExceededError is raised before a
    degree would pass it."""
    if d < 0:
        raise ValueError("need d >= 0")
    V = np.array(C.vectors, dtype=np.int64)
    sums = np.zeros((1, V.shape[1]), dtype=np.int64)
    work = 0
    for j in range(1, d + 1):
        work += len(sums) * C.s
        if work > budget:
            raise BudgetExceededError(
                f"degree {j} of the sums to degree {d} brings their candidates "
                f"to {work} > budget {budget}"
            )
        sums = (sums[:, None, :] + V[None, :, :]).reshape(-1, V.shape[1])
        sums = sums[np.lexsort(sums.T)]
        sums = sums[np.concatenate(([True], (sums[1:] != sums[:-1]).any(axis=1)))]
    return len(sums)
