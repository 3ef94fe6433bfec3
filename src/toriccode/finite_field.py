"""Exact arithmetic in GF(p^k), 3 <= p^k <= cap.

Fields are constructed deterministically:

* the modulus is the first monic irreducible polynomial of degree k over
  GF(p) in base-p encoding order (constant coefficient varies fastest),
* the primitive element is the first field element, in encoding order,
  of multiplicative order q-1.

Elements are encoded as integers in [0, q): the base-p digits of the
encoding are the coordinates in the power basis 1, x, ..., x^(k-1).
Besides scalar elements the field exposes vectorized kernels (add, mul,
inv, ...) that act on numpy arrays of encodings; the rest of the package
does its linear algebra through these.

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
_TABLE_LIMIT = 256  # build full q x q op tables up to this cardinality
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
    """GF(p^k) with deterministic modulus, primitive element and tables."""

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
        self._primitive_enc = prim

        self._add_table = self._mul_table = None
        if q <= _TABLE_LIMIT:
            self._build_tables()
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

    def _build_tables(self):
        q = self.q
        a = np.arange(q, dtype=np.int64)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        if self.p != 2 and self.k > 1:  # add is arithmetic on the other encodings
            self._add_table = self._add_formula(aa, bb).astype(self.dtype)
        self._mul_table = self._mul_formula(aa, bb).astype(self.dtype)
        self._neg_table = self._neg_formula(a).astype(self.dtype)
        inv = np.zeros(q, dtype=self.dtype)
        nz = np.arange(1, q, dtype=np.int64)
        inv[1:] = self.exp[(self.q - 1 - self.log[nz]) % (self.q - 1)]
        self._inv_table = inv

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

    # -- formula kernels (any q) --

    def _add_formula(self, a, b):
        # odd extension fields only: add handles p == 2 and k == 1 itself
        d = (self._digits[a] + self._digits[b]) % self.p
        return d @ self._pows

    def _neg_formula(self, a):
        if self.p == 2:
            return np.asarray(a)
        if self.k == 1:
            return (self.p - np.asarray(a, dtype=np.int64)) % self.p
        d = (self.p - self._digits[a]) % self.p
        return d @ self._pows

    def _mul_formula(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a * b) % self.p
        zero = (a == 0) | (b == 0)
        la = self.log[np.where(a == 0, 1, a)]
        lb = self.log[np.where(b == 0, 1, b)]
        r = self.exp[(la + lb) % (self.q - 1)]
        return np.where(zero, 0, r)

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
        if self._add_table is not None:
            return self._add_table[a, b]
        return self._add_formula(a, b).astype(self.dtype)

    def neg(self, a):
        if self._mul_table is not None:
            return self._neg_table[a]
        return self._neg_formula(a).astype(self.dtype)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a, b]
        return self._mul_formula(a, b).astype(self.dtype)

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        if self._mul_table is not None:
            return self._inv_table[a]
        r = self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]
        return r.astype(self.dtype)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_int(self, a, e: int):
        """Elementwise a**e for a python integer exponent of any sign."""
        a = np.asarray(a, dtype=np.int64)
        zero = a == 0
        if e == 0:
            return np.ones_like(a).astype(self.dtype)  # 0**0 == 1 convention
        if e < 0 and np.any(zero):
            raise ZeroDivisionError("negative power of zero")
        la = self.log[np.where(zero, 1, a)]
        r = self.exp[(la * (e % (self.q - 1))) % (self.q - 1)]
        return np.where(zero, 0, r).astype(self.dtype)

    def sum_axis(self, a, axis=0):
        """Field sum along an axis of an encoding array."""
        a = np.asarray(a)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        if self.k == 1:
            return (a.astype(np.int64).sum(axis=axis) % self.p).astype(self.dtype)
        d = self._digits[a].sum(axis=axis) % self.p
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
        enc = np.zeros(x.shape, dtype=np.int64)
        for shift, weight in zip(self._shifts, self._pows):
            enc += ((x >> shift) & self._digit_mask).astype(np.int64) * weight
        return enc.astype(self.dtype)

    # -- elements and serialization --

    def element(self, value) -> "FieldElement":
        """Element from an encoding int or a coefficient tuple.

        A bare int is always the encoding sum(c_i p^i), identical to how
        the vectorized kernels and the tables index elements.
        """
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, (tuple, list)):
            if len(value) != self.k:
                raise ValueError(f"need {self.k} coefficients")
            enc = sum((int(c) % self.p) * self.p ** i for i, c in enumerate(value))
            return FieldElement(self, enc)
        return FieldElement(self, int(value))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def primitive(self) -> "FieldElement":
        return FieldElement(self, self._primitive_enc)

    def units(self) -> list["FieldElement"]:
        """All nonzero elements, ordered as successive powers of the primitive."""
        return [FieldElement(self, int(e)) for e in self.exp]

    def to_index(self, enc: int) -> int:
        """Serialize: 0 for zero, i+1 for primitive**i."""
        if enc == 0:
            return 0
        return int(self.log[enc]) + 1

    def from_index(self, idx: int) -> int:
        if idx == 0:
            return 0
        if not 1 <= idx <= self.q - 1:
            raise ValueError(f"index {idx} out of range for GF({self.q})")
        return int(self.exp[idx - 1])

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


class FieldElement:
    """Immutable element of a FiniteField, with operator arithmetic."""

    __slots__ = ("field", "enc")

    def __init__(self, field: FiniteField, enc: int):
        if not 0 <= enc < field.q:
            raise ValueError(f"encoding {enc} out of range for {field!r}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "enc", int(enc))

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_digits_of(self.enc, self.field.p, self.field.k))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("operands from different fields")
            return other
        if isinstance(other, (int, np.integer)):
            return self.field.element(int(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, int(self.field.add(self.enc, o.enc)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, int(self.field.neg(self.enc)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, int(self.field.sub(self.enc, o.enc)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, int(self.field.sub(o.enc, self.enc)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, int(self.field.mul(self.enc, o.enc)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, int(self.field.div(self.enc, o.enc)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, int(self.field.div(o.enc, self.enc)))

    def __pow__(self, e):
        if not isinstance(e, (int, np.integer)):
            return NotImplemented
        return FieldElement(self.field, int(self.field.pow_int(self.enc, int(e))))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.enc == other.enc
        if isinstance(other, (int, np.integer)):
            return self == self.field.element(int(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.enc))

    def __bool__(self):
        return self.enc != 0

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.enc}#GF({self.field.q})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                v = "x" if i == 1 else f"x^{i}"
                terms.append(v if c == 1 else f"{c}*{v}")
        body = "+".join(terms) if terms else "0"
        return f"{body}#GF({self.field.q})"


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
