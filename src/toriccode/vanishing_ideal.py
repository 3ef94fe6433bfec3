"""Reduced revlex Groebner basis of the vanishing ideal I(X).

On X the monomial t^e is a character, with Smith coordinates
e @ X.chars mod X.orders (see `toric_set`), and distinct characters are
linearly independent (Artin).  So I(X) is spanned by the binomials
t^e - t^e' of equal degree and equal character: it is a lattice ideal,
and its reduced revlex basis consists of such binomials.  Every point of X
has unit coordinates, so ts is a nonzerodivisor mod I(X) and mod its
revlex initial ideal: no leading term is divisible by ts.  The basis
comes from the walk of X over the Artinian reduction (`eval_code.walk_of`),
with no field elimination.  The walk lists N_0, ..., N_r, the standard
monomials prime to ts, r the regularity (the least degree with |X|
standard monomials).  One pass over them
(`eval_code.StandardWalk.reduced_basis`) finds the leading terms t^e, the
products of a monomial of some N_d and a variable whose divisors are all
standard, each with the standard monomial of its character as the tail of
its basis element t^e - tail.  They have degree at most r+1, since N_(r+1) is
empty.  The basis stays in two integer arrays, the exponents of the leading
terms and of the tails (`ReducedGB.leads`, `ReducedGB.tails`); every
element is t^lead - t^tail, so its coefficients are 1 and -1 in any field,
and the structure checks, the degree complexity and the written basis
read those arrays: none builds GF(q) or a point of X.
`ReducedGB.elements` gives the basis as `HomogPoly` objects on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eval_code import walk_of
from .limits import prime_power
from .toric_set import ToricSet


@dataclass(frozen=True)
class HomogPoly:
    """A homogeneous polynomial as {exponent tuple: nonzero encoding},
    carrying its revlex leading exponent."""

    terms: tuple[tuple[tuple[int, ...], int], ...]  # sorted descending revlex
    lead: tuple[int, ...]


def _mono_str(expo) -> str:
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(f"t{i + 1}")
        elif e > 1:
            parts.append(f"t{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def minus_one_index(q: int) -> int:
    """The serialization index (log + 1, as `toric_set.points_csv` writes
    points) of -1 in GF(q), in closed form: -1 = g^((q-1)/2) for odd q, and
    -1 = 1 = g^0 for even q."""
    return (q - 1) // 2 + 1 if q % 2 else 1


@dataclass
class ReducedGB:
    """The reduced revlex basis of I(X) as binomials t^lead - t^tail: row j
    of ``leads`` and of ``tails`` (read-only integer arrays, s columns) are
    the two exponent vectors of element j.  ``elements`` builds the same
    basis as `HomogPoly` objects, on request."""

    q: int
    s: int
    leads: np.ndarray
    tails: np.ndarray

    @cached_property
    def elements(self) -> list[HomogPoly]:
        # the encoding of -1 is its one base-p digit, p - 1
        minus_one = prime_power(self.q)[0] - 1
        return [
            HomogPoly(terms=((lead, 1), (tail, minus_one)), lead=lead)
            for lead, tail in zip(self.leading_terms, map(tuple, self.tails.tolist()))
        ]

    @property
    def leading_terms(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.leads.tolist()))

    def term_strings(self) -> list[str]:
        """Each element as text: "lead - tail", and "lead + tail" in
        characteristic 2, where -1 = 1."""
        sign = "-" if self.q % 2 else "+"
        return [
            f"{_mono_str(lead)} {sign} {_mono_str(tail)}"
            for lead, tail in zip(self.leads.tolist(), self.tails.tolist())
        ]

    def __len__(self):
        return len(self.leads)


def interpolate_gb(X: ToricSet) -> ReducedGB:
    """The reduced revlex Groebner basis of I(X), from one pass over the
    standard-monomial walk, elements sorted by degree and then descending
    revlex leading term.  No field and no point is built."""
    leads, tails = walk_of(X).reduced_basis()
    return ReducedGB(q=X.q, s=X.s, leads=leads, tails=tails)


def degree_complexity(G: ReducedGB) -> int:
    """Largest degree of a reduced-basis element."""
    if not len(G):
        raise ValueError("empty basis")
    return int(G.leads.sum(axis=1).max())


def verify_gb_structure(G: ReducedGB) -> dict:
    """Structure checks on a reduced basis over GF(G.q):

    (i) the pure binomials ti^(q-1) - ts^(q-1), i < s, are all present,
    (ii) every element has per-variable degree <= q-1,
    (iii) every element is a homogeneous binomial with disjoint supports.
    """
    q, s, leads, tails = G.q, G.s, G.leads, G.tails
    powers = (q - 1) * np.eye(s, dtype=np.int64)  # row i is (q-1) e_i
    pure_tail = (tails == powers[-1]).all(axis=1)
    # (lead, tail) pairs sort as the leads do, which fall as i grows
    missing = [
        (tuple(lead.tolist()), tuple(powers[-1].tolist()))
        for lead in powers[-2::-1]
        if not ((leads == lead).all(axis=1) & pure_tail).any()
    ]
    return {
        "pure_powers_present": not missing,
        "per_variable_degree_le_q_minus_1": bool((leads <= q - 1).all() and (tails <= q - 1).all()),
        "homogeneous_binomials_disjoint_support": bool(
            ((leads == 0) | (tails == 0)).all() and (leads.sum(axis=1) == tails.sum(axis=1)).all()
        ),
        "missing_pure_powers": missing,
    }
