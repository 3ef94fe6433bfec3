"""Algebraic toric sets: X parameterized by a clutter, and the projective torus.

Points live in P^(s-1) over GF(q) and always have all coordinates nonzero,
so each is stored canonically (first coordinate scaled to 1) as the vector
of primitive-power exponents of its coordinates.  Point order is the
lexicographic order of those exponent vectors, which makes every downstream
computation deterministic.

In exponent space the projective torus is (Z/m)^(s-1), m = q-1, and both X
and the torus are the image of (Z/m)^n under a -> B a mod m, for a
generator matrix B: the difference matrix of the clutter, or [0; I].  One
Smith presentation describes that group.  Let Q be the unimodular column
transform that brings B to its Smith form diag(d_1, ..., d_r)
(`intlattice.lattice_facts`), and o_j = m/gcd(m, d_j), with o_j = 1 past
the rank (d_j = 0).  Column j of B Q is d_j times a column of a unimodular
matrix, so b -> (B Q) b mod m is a bijection from the box prod [0, o_j)
onto X: the points come from that box with one sort and no membership
test, and |X| = prod o_j (`intlattice.size_of_X`) needs no point at all.
For the torus Q = I and every o_j = m, with no Smith form.

The same coordinates label the characters of X.  Row i of B Q is divisible
by gcd(m, d_j) in column j, and c_j(t_i) = (B Q)_ij / gcd(m, d_j) mod o_j
are the character coordinates of t_i (`ToricSet.chars`): t^e takes the
value g^(sum_j (m/o_j) c_j b_j) at the point of b, with c = e @ chars mod
o.  The mixed-radix value of c is a bijection from the characters of X onto
[0, |X|), the labels of the walk in `eval_code`.

The factors d_i are `intlattice.difference_factors(C)`, the ones the
complete-intersection verdict reads.  They, Q and the rank of the incidence
matrix (`intlattice.incidence_rank`) come from one integer echelon of the
difference rows per clutter.  `intlattice.profile` reads |X| and the
comparison with the torus from that closed form, and the rank from that
echelon.

A `ToricSet` is that presentation and q, and nothing more until asked:
the Hilbert function, the regularity and the reduced basis of I(X) read
only `orders` and `chars` (`eval_code.walk_of`).  GF(q) and the points
(`ToricSet.field`, `ToricSet.logs`) are built on first use and kept, and
only the evaluation of the code C_X(d) and `points_csv` use them.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, prod

import numpy as np

from .clutter import Clutter
from .finite_field import FiniteField, field_from_q
from .intlattice import lattice_facts, orders_of_X
from .limits import DEFAULT_ENUM_BUDGET, field_order, is_power, prime_power, size_within


class ToricSet:
    """A finite set of all-unit projective points over GF(q), given by its
    Smith presentation.

    ``orders`` (o_1, ..., o_n) and ``chars`` are the Smith presentation of
    X as prod Z/o_j (see the module docstring): |X| is the product of the
    orders, and row i of the s x n matrix ``chars`` holds the character
    coordinates of t_i, c_j in [0, o_j).  The character of t^e is e @ chars
    mod o: t^e takes the value g^(sum_j (m/o_j) c_j b_j), m = q-1, at the
    point of b in the box prod [0, o_j).  Its label sum_j c_j prod_(i<j) o_i
    is a bijection from the characters of X onto [0, |X|).

    The field and the points are derived on first use and kept: ``field``
    is GF(q) (`field_from_q`), and ``logs`` is the |X| x s integer matrix of
    primitive-power exponents of the canonical coordinates, rows sorted
    lexicographically.  Only code evaluation reads them.  Immutable after
    construction.
    """

    def __init__(self, q: int, orders: tuple[int, ...], chars: np.ndarray, source: str):
        field_order(*prime_power(q))
        chars = np.array(chars, dtype=np.int64)
        if chars.ndim != 2:
            raise ValueError("chars must be 2-d")
        if len(orders) != chars.shape[1] or any(o < 1 or (q - 1) % o for o in orders):
            raise ValueError("orders need one entry per column of chars, each dividing q-1")
        if chars.size and (chars.min() < 0 or (chars >= np.array(orders)).any()):
            raise ValueError("character coordinates out of range")
        self.q = q
        self.chars = chars
        chars.setflags(write=False)
        self.orders = tuple(int(o) for o in orders)
        self.source = source

    @property
    def s(self) -> int:
        return self.chars.shape[0]

    def __len__(self):
        return prod(self.orders)

    @cached_property
    def field(self) -> FiniteField:
        return field_from_q(self.q)

    @cached_property
    def logs(self) -> np.ndarray:
        """X as the image of the box prod [0, o_j) under b -> sum_j b_j
        (m/o_j) c_j mod m, c_j the column j of chars, rows sorted
        lexicographically."""
        m = self.q - 1
        S = np.zeros((1, self.s), dtype=np.int64)
        # the first column ends up most significant, so that the box of the
        # torus comes out sorted
        for c, o in zip(self.chars.T[::-1], self.orders[::-1]):
            if o > 1:
                steps = np.arange(o, dtype=np.int64)[:, None] * (c * (m // o)) % m  # o x s
                S = ((steps[:, None, :] + S[None, :, :]) % m).reshape(-1, self.s)
        S = S[_lex_order(S, m)]
        S.setflags(write=False)
        return S

    def __repr__(self):
        return f"ToricSet({len(self)} points in P^{self.s - 1} over GF({self.q}), {self.source})"


def _lex_order(S: np.ndarray, m: int) -> np.ndarray:
    """The row order that sorts S, entries in [0, m), lexicographically: one
    lexsort of the columns read as base-m digits, as many to an int64 key
    as it holds."""
    width = 1
    while m ** (width + 1) < 2 ** 63:
        width += 1
    keys = [
        S[:, j : j + width] @ m ** np.arange(min(width, S.shape[1] - j) - 1, -1, -1)
        for j in range(0, S.shape[1], width)
    ]
    return np.lexsort(keys[::-1])


def clutter_set(C: Clutter, q: int) -> ToricSet:
    """X over GF(q): all points [ (x^v1 : ... : x^vs) ] for x in the
    affine torus (K*)^n, as its Smith presentation.  No field and no point
    is built; `enumerate_X` is the same with a budget on |X|.

    X is a group: the image of (Z/(q-1))^n under the difference matrix
    B = V - V[0], whose columns are the images of the coordinate
    characters of (K*)^n.
    """
    field_order(*prime_power(q))
    V = np.array(C.vectors, dtype=np.int64)
    B = V - V[0]  # s x n; row 0 is zero, giving the canonical 0 column
    m = q - 1
    facts = lattice_facts(C)
    d = facts.difference_factors
    # gcd(m, 0) = m: the columns past the rank have order 1
    unit = np.array([gcd(m, dj) for dj in d] + [m] * (C.n - len(d)), dtype=np.int64)
    # B Q mod m is divisible by gcd(m, d_j) in column j, as B Q is by d_j
    Q = np.array([[x % m for x in row] for row in facts.transform], dtype=np.int64)
    chars = B @ Q % m // unit
    return ToricSet(q, tuple((m // unit).tolist()), chars, f"X({C})")


def enumerate_X(C: Clutter, q: int, budget: int = DEFAULT_ENUM_BUDGET) -> ToricSet:
    """X of the clutter C over GF(q) (`clutter_set`); raises
    BudgetExceededError, from the orders alone, when |X| passes the
    budget.  Its points are built from the box of the Smith presentation,
    with O(s |X|) work and never a walk over the (q-1)^n tuples, when
    first read."""
    size_within(orders_of_X(C, q), budget)
    return clutter_set(C, q)


def projective_torus(s: int, q: int, budget: int = DEFAULT_ENUM_BUDGET) -> ToricSet:
    """The torus T in P^(s-1) over GF(q): all points with every coordinate
    nonzero.

    Its presentation is that of enumerate_X for the generator matrix
    [0; I_(s-1)], which is already in Smith form: Q = I, every order is
    q-1, and the character coordinates are that matrix.  The budget bounds
    |T| = (q-1)^(s-1) in the same way, before anything of size s is built.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    size_within({field_order(*prime_power(q)) - 1: s - 1}, budget)
    chars = np.eye(s, s - 1, k=-1, dtype=np.int64)  # [0; I_(s-1)]
    return ToricSet(q, (q - 1,) * (s - 1), chars, f"T(s={s})")


def equals_torus(X: ToricSet) -> bool:
    """Whether X is all of the projective torus in its ambient space.

    Every X lies in T (its coordinates are units and its first log is 0),
    so equality is a size test, made on the orders of X (`is_power`).
    """
    return is_power(Counter(X.orders), X.q - 1, X.s - 1)


def points_csv(X: ToricSet) -> str:
    """CSV dump of canonical coordinates as primitive-power indices
    (0 is reserved for the zero element and never occurs for X), formatted
    in one pass over all entries."""
    header = ",".join(f"t{j + 1}" for j in range(X.s))
    line = ",".join(["%d"] * X.s) + "\n"
    return header + "\n" + line * len(X) % tuple((X.logs + 1).ravel().tolist())
