"""Exact arithmetic in GF(p^k), 3 <= p^k <= cap.

Fields are constructed deterministically:

* the modulus is the first monic irreducible polynomial of degree k over
  GF(p) in base-p encoding order (constant coefficient varies fastest),
* the primitive element is the first field element, in encoding order,
  of multiplicative order q-1.

Elements are encoded as integers in [0, q): the base-p digits of the
encoding are the coordinates in the power basis 1, x, ..., x^(k-1).  The
tables `exp` and `log` map i to the encoding of g^i, g the primitive
element (`exp[1]`), and back.  The field exposes vectorized kernels (add,
mul, inv, ...) that act on numpy arrays of encodings; the rest of the
package does its linear algebra through these.

Each multiplicative kernel is one expression for every q.  `_log0` is
`log` with log 0 set to the sentinel 2(q-1), and `_exp0` is `exp`
twice, then 2q-1 zeros.  A product of units has its log sum in [0, 2q-4],
where `_exp0` repeats `exp`, and a product with a zero factor has it in
[2q-2, 4q-4], where `_exp0` is 0; so a*b is `_exp0[_log0[a] + _log0[b]]`.
Negation multiplies by -1, the encoding p-1 (1 in characteristic 2), and
the inverse of a unit g^i is g^(-i mod q-1).  `_log0` has the smallest
unsigned dtype that holds 4(q-1), so a log sum is no wider than it must
be.  Addition is XOR in characteristic 2, arithmetic mod p in a prime
field, and the packed form below in an odd extension field; no q x q
table is built.

For many additions in a row there is a packed form (`pack`, `add_packed`,
`unpack`).  Each base-p digit sits in its own field of b+1 bits,
b = bit_length(2p-2), of one unsigned word; in characteristic 2 a digit
takes one bit and the word is the encoding.  A digit sum is at most
2p-2 < 2^b, so adding two words adds every digit without a carry into the
next field; adding 2^b - p to each field then sets its top bit exactly
where the digit sum reached p, and that bit, shifted down and times p, is
what to subtract.  Packing is one-to-one and maps 0 to 0, so two elements
are equal, or one is zero, exactly when their words are.

Every field size passes one check, `field_order(p, k)` (after
`prime_power(q)` for the shorthand q), whether or not a field is built.
`make_field` and `field_from_q` build GF(p^k) once per process and hand
out that one instance, so its tables are read-only; `FiniteField(p, k)`
itself always builds afresh.
"""

from __future__ import annotations

import functools
import math

import numpy as np

DEFAULT_MAX_Q = 2 ** 16
_DECIMAL_BITS = 14_000  # longest p^k formed, within the 4300 digits Python prints


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo monic b, coefficients mod p, constant first."""
    a = [c % p for c in a]
    db = len(b) - 1
    while len(a) > db:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a.pop()
    return a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    k = len(poly) - 1
    if k == 1:
        return True
    # a reducible monic polynomial has a monic factor of degree <= k // 2
    for deg in range(1, k // 2 + 1):
        for enc in range(p ** deg):
            div = _digits_of(enc, p, deg) + [1]
            rem = _poly_mod(list(poly), div, p)
            if not any(rem):
                return False
    return True


def _digits_of(enc: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(enc % p)
        enc //= p
    return out


def _first_irreducible(p: int, k: int) -> tuple[int, ...]:
    for enc in range(p ** k):
        cand = tuple(_digits_of(enc, p, k)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """GF(p^k) with deterministic modulus and primitive element, its exp
    and log tables and their zero-sentinel forms."""

    def __init__(self, p: int, k: int):
        q = field_order(p, k)
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _first_irreducible(p, k)
        self.dtype = np.uint8 if q <= 256 else np.uint16

        self._pows = p ** np.arange(k, dtype=np.int64)
        self._digits = np.arange(q, dtype=np.int64)[:, None] // self._pows % p

        prim = self._find_primitive()
        self.exp = self._powers(prim).astype(self.dtype)
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(q - 1)
        if (self.log[1:] < 0).any():
            raise AssertionError("primitive element order mismatch")

        # log 0 = 2(q-1) lands every sum with a zero term in the zeros of _exp0
        self._log0 = self.log.astype(np.min_scalar_type(4 * (q - 1)))
        self._log0[0] = 2 * (q - 1)
        self._exp0 = np.concatenate([self.exp, self.exp, np.zeros(2 * q - 1, dtype=self.dtype)])

        self._build_packing()
        # make_field shares one instance per (p, k): no caller may write to it
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False

    # -- construction-time scalar arithmetic (slow, exact) --

    def _mul_enc(self, a: int, b: int) -> int:
        da = _digits_of(a, self.p, self.k)
        db = _digits_of(b, self.p, self.k)
        prod = [0] * (2 * self.k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % self.p
        rem = _poly_mod(prod, list(self.modulus), self.p)
        enc = 0
        for i, c in enumerate(rem):
            enc += c * self.p ** i
        return enc

    def _powers(self, g: int) -> np.ndarray:
        """g^0, ..., g^(q-2).  Multiplication by g is GF(p)-linear on digit
        vectors, with the matrix whose row j holds the digits of g x^j: one
        product gives g*e for every encoding e, and the powers follow that
        map from 1."""
        p = self.p
        M = self._digits[[self._mul_enc(g, p ** j) for j in range(self.k)]]
        times = (self._digits @ M % p @ self._pows).tolist()
        powers = [1]
        for _ in range(self.q - 2):
            powers.append(times[powers[-1]])
        return np.array(powers)

    def _pow_enc(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_enc(r, a)
            a = self._mul_enc(a, a)
            e >>= 1
        return r

    def _find_primitive(self) -> int:
        n = self.q - 1
        primes = _prime_factors(n)
        for enc in range(1, self.q):
            if all(self._pow_enc(enc, n // ell) != 1 for ell in primes):
                return enc
        raise AssertionError("no primitive element found")  # unreachable

    def _build_packing(self):
        p, k = self.p, self.k
        width = 1 if p == 2 else (2 * p - 2).bit_length() + 1
        self.packed_dtype = next(
            np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
            if np.dtype(t).itemsize * 8 >= k * width
        )
        shifts = width * np.arange(k, dtype=np.uint64)
        self._shifts = shifts.astype(self.packed_dtype)
        self._pack_table = (
            (self._digits.astype(np.uint64) << shifts).sum(axis=1).astype(self.packed_dtype)
        )
        if p == 2:
            return
        word = self.packed_dtype.type
        ones = sum(1 << int(t) for t in shifts)
        self._top = word(width - 1)  # b, the top bit of a field
        self._ones = word(ones)  # bit 0 of every field
        self._guard = word((2 ** (width - 1) - p) * ones)  # 2^b - p in every field
        self._digit_mask = word(2 ** width - 1)
        self._p_word = word(p)

    # -- public vectorized kernels; inputs are encodings (ints or arrays) --

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b).astype(self.dtype, copy=False)
        if self.k == 1:
            a = np.asarray(a, dtype=self.dtype)
            b = np.asarray(b, dtype=self.dtype)
            # with t = p - b in [1, p], a + b mod p is a - t, which wraps
            # around the dtype when a < t and is brought back by adding p;
            # a ufunc writing into an array wraps without the RuntimeWarning
            # numpy gives on scalars
            t = self.p - b
            wraps = a < t
            d = np.subtract(a, t, out=np.empty(wraps.shape, dtype=self.dtype))
            d += wraps * self.dtype(self.p)
            return d
        return self.unpack(self.add_packed(self.pack(a), self.pack(b)))

    def neg(self, a):
        return self.mul(a, self.p - 1)  # -1 is the encoding p - 1

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._exp0[self._log0[a] + self._log0[b]]

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        return self.exp[-self.log[a] % (self.q - 1)]

    def sum_axis(self, a, axis=0):
        """Field sum along an axis of an encoding array: the digit sums mod
        p, for every p and k."""
        a = np.asarray(a)
        d = self._digits[a].sum(axis=axis % a.ndim) % self.p
        return (d @ self._pows).astype(self.dtype)

    # -- packed form (see the module docstring) --

    def pack(self, a):
        """The packed words, of dtype packed_dtype, of encodings a."""
        return self._pack_table[a]

    def add_packed(self, x, y):
        """Field sum of packed words, packed."""
        if self.p == 2:
            return np.bitwise_xor(x, y)
        s = np.add(x, y)
        fix = np.add(s, self._guard)
        fix >>= self._top
        fix &= self._ones
        fix *= self._p_word
        s -= fix
        return s

    def unpack(self, x):
        """The encodings of packed words x."""
        x = np.asarray(x, dtype=self.packed_dtype)
        if self.p == 2:
            return x.astype(self.dtype)
        # digit * p^i < q, so every term and the sum fit the encoding dtype
        enc = np.zeros(x.shape, dtype=self.dtype)
        for shift, weight in zip(self._shifts, self._pows):
            enc += ((x >> shift) & self._digit_mask).astype(self.dtype) * self.dtype(weight)
        return enc

    def __repr__(self):
        return f"GF({self.q})"


def field_order(p: int, k: int) -> int:
    """q = p^k, once p and k pass the checks every field passes: integers,
    p prime, k >= 1, 3 <= q <= DEFAULT_MAX_Q.  Raises ValueError otherwise.

    The work is bounded for any p and k: primality is tested only on
    p <= DEFAULT_MAX_Q, by trial division up to 256 (a larger p fails the
    cap, prime or not), and p^k is formed only up to _DECIMAL_BITS bits (a
    longer one is far past the cap and is named "p^k")."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise ValueError("p and k must be integers")
    if p < 2 or (p <= DEFAULT_MAX_Q and not _is_prime(p)):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError(f"k = {k} must be >= 1")
    if k * p.bit_length() > _DECIMAL_BITS:
        raise ValueError(f"q = {p}^{k} exceeds the cardinality cap {DEFAULT_MAX_Q}")
    q = p ** k
    if q < 3:
        raise ValueError("GF(2) is not supported; need q >= 3")
    if q > DEFAULT_MAX_Q:
        raise ValueError(f"q = {q} exceeds the cardinality cap {DEFAULT_MAX_Q}")
    return q


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; ValueError when q is not a prime power.  The
    field checks are field_order's.

    Trial division stops at 256 = sqrt(DEFAULT_MAX_Q), which finds the
    prime of every q within the cap; a larger q with no factor up to 256 is
    rejected for the cap, whether or not it is a prime power."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q = {q} is not a prime power >= 3")
    p = next((f for f in range(2, min(math.isqrt(q), 256) + 1) if q % f == 0), q)
    if p == q > DEFAULT_MAX_Q:
        raise ValueError(f"q = {q} exceeds the cardinality cap {DEFAULT_MAX_Q}")
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, k


@functools.lru_cache(maxsize=16, typed=True)
def make_field(p: int, k: int) -> FiniteField:
    """GF(p^k), built once per (p, k) and shared: its tables are read-only.
    Raises ValueError as field_order does."""
    return FiniteField(p, k)


def field_from_q(q: int) -> FiniteField:
    """make_field for the shorthand q = p^k; q must be a prime power."""
    return make_field(*prime_power(q))
