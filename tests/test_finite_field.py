"""Field construction and arithmetic kernels."""

import numpy as np
import pytest

from conftest import (
    BATTERY,
    oracle_field_ops,
    oracle_field_tables,
    oracle_min_weight,
    oracle_toric_points,
)
from toriccode import (
    FiniteField,
    binomial_in_IX,
    ci_classify,
    code,
    enumerate_X,
    field_from_q,
    make_field,
    phi_injective,
    profile,
    size_of_X,
    torus_distance,
)
from toriccode.finite_field import _is_irreducible, _poly_mod
from toriccode.limits import field_order, prime_power


def _oracle_first_irreducible(p, k):
    """Independent scan in base-p encoding order, trial root/factor check."""
    def irreducible(coeffs):
        # no roots in GF(p) rules out degree 2 and 3 factors' complements;
        # for k <= 4 also reject products of two irreducible quadratics
        deg = len(coeffs) - 1
        for r in range(p):
            if sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p == 0:
                return False
        if deg == 4:
            quads = [q2 for q2 in _all_monic(2) if irreducible(q2)]
            for i, a in enumerate(quads):
                for b in quads[i:]:
                    if _mul_mod_p(a, b) == list(coeffs):
                        return False
        return True

    def _all_monic(d):
        out = []
        for enc in range(p ** d):
            c = [(enc // p ** i) % p for i in range(d)] + [1]
            out.append(c)
        return out

    def _mul_mod_p(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    for enc in range(p ** k):
        coeffs = [(enc // p ** i) % p for i in range(k)] + [1]
        if irreducible(coeffs):
            return tuple(coeffs)  # constant-first, matching the encoding
    raise AssertionError("no irreducible found")


class TestConstruction:
    def test_prime_field(self):
        F = make_field(5, 1)
        assert F.q == 5 and F.p == 5 and F.k == 1

    def test_gf9_modulus_is_first_in_encoding_order(self):
        # oracle scans x^2 + c1 x + c0 in encoding order; x^2 + 1 comes first
        assert _oracle_first_irreducible(3, 2) == (1, 0, 1)
        assert make_field(3, 2).modulus == (1, 0, 1)

    def test_gf4_modulus(self):
        assert _oracle_first_irreducible(2, 2) == (1, 1, 1)
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_gf8_modulus(self):
        assert _oracle_first_irreducible(2, 3) == make_field(2, 3).modulus

    def test_gf81_modulus(self):
        assert _oracle_first_irreducible(3, 4) == make_field(3, 4).modulus

    def test_modulus_is_irreducible(self):
        for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (3, 4)]:
            F = make_field(p, k)
            assert _is_irreducible(list(reversed(F.modulus)), p)

    def test_q2_rejected(self):
        with pytest.raises(ValueError):
            make_field(2, 1)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_field(9, 1)

    def test_cap_rejected(self):
        with pytest.raises(ValueError):
            make_field(2, 17)
        make_field(2, 16)  # exactly at the cap

    def test_field_from_q(self):
        assert field_from_q(9).modulus == make_field(3, 2).modulus
        assert field_from_q(7).p == 7
        with pytest.raises(ValueError):
            field_from_q(12)
        with pytest.raises(ValueError):
            field_from_q(1)

    def test_equality_and_hash(self):
        assert make_field(3, 2) == make_field(3, 2)
        assert make_field(3, 1) != make_field(5, 1)
        assert len({make_field(3, 2), make_field(3, 2)}) == 1


class TestSharedFields:
    """make_field and field_from_q hand out one read-only field per (p, k)."""

    def test_one_instance_per_field(self):
        F = make_field(3, 2)
        assert field_from_q(9) is F and make_field(3, 2) is F
        assert make_field(3, 1) is not F
        fresh = FiniteField(3, 2)
        assert fresh is not F and fresh.modulus == F.modulus
        assert np.array_equal(fresh.exp, F.exp) and np.array_equal(fresh.log, F.log)

    @pytest.mark.parametrize("p,k", [(3, 2), (2, 3), (7, 1), (3, 6), (2, 9)])
    def test_tables_are_read_only(self, p, k):
        # odd extension, prime and characteristic-2 fields, with q on both
        # sides of 256
        F = make_field(p, k)
        tables = {name: t for name, t in vars(F).items() if isinstance(t, np.ndarray)}
        assert {"exp", "log", "_log0", "_exp0", "_digits", "_pows", "_pack_table"} <= set(tables)
        assert not [name for name, t in tables.items() if t.shape == (F.q, F.q)]
        assert 2 * int(F._log0.max()) <= np.iinfo(F._log0.dtype).max  # log sums do not wrap
        for table in tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = table.flat[0]
        assert F.add(F.exp, F.exp).flags.writeable  # results stay writable

    @pytest.mark.parametrize("args", [(4, 1), (3, 0), (2, 1), (2, 17), (3.0, 2), (3, 2.0)])
    def test_field_order_raises_as_the_constructor(self, args):
        with pytest.raises(ValueError) as checked:
            field_order(*args)
        with pytest.raises(ValueError) as built:
            make_field(*args)
        assert str(checked.value) == str(built.value)

    @pytest.mark.parametrize("q,pk", [(3, (3, 1)), (4, (2, 2)), (9, (3, 2)), (65536, (2, 16)),
                                      (131072, (2, 17)), (65521, (65521, 1))])
    def test_prime_power(self, q, pk):
        assert prime_power(q) == pk

    @pytest.mark.parametrize("q", [65537, 257 * 263, 2 ** 61 - 1, (2 ** 61 - 1) ** 3])
    def test_past_the_cap_without_small_factor(self, q):
        # trial division stops at 256: such a q fails the cap, prime or not
        with pytest.raises(ValueError, match=f"^q = {q} exceeds the cardinality cap 65536$"):
            prime_power(q)

    def test_long_power_named_not_formed(self):
        with pytest.raises(ValueError, match=r"^q = 3\^1000000000 exceeds the cardinality cap"):
            field_order(3, 10 ** 9)

    @pytest.mark.parametrize("q", [1, 6, 12, 0, -9, 9.0])
    def test_not_a_prime_power(self, q):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)


class TestPrimitiveAndTables:
    """The primitive element is exp[1], and 1 is the encoding 1."""

    def test_gf3_primitive(self):
        assert make_field(3, 1).exp[1] == 2

    def test_gf4_primitive_is_x(self):
        assert make_field(2, 2).exp[1] == 2

    def test_gf9_primitive_is_x_plus_1(self):
        # mod x^2+1: x has order 4, x+1 has order 8
        assert make_field(3, 2).exp[1] == 4

    def test_primitive_order(self):
        for p, k in [(2, 2), (3, 2), (5, 1), (7, 1), (2, 4)]:
            F = make_field(p, k)
            g = int(F.exp[1])
            seen = set()
            acc = 1
            for _ in range(F.q - 1):
                acc = int(F.mul(acc, g))
                seen.add(acc)
            assert len(seen) == F.q - 1
            assert acc == 1

    def test_units_enumeration(self):
        F = make_field(3, 2)
        u = F.exp.tolist()
        assert len(u) == 8
        assert sorted(u) == list(range(1, 9))
        # ordered as successive powers of the primitive
        assert u[0] == 1
        assert all(F.mul(u[i], u[1]) == u[(i + 1) % 8] for i in range(8))


def _axiom_check(F):
    q = F.q
    elems = list(range(q))
    add = {(a, b): int(F.add(np.array(a), np.array(b))) for a in elems for b in elems}
    mul = {(a, b): int(F.mul(np.array(a), np.array(b))) for a in elems for b in elems}
    zero, one = 0, 1
    for a in elems:
        assert add[(a, zero)] == a
        assert mul[(a, one)] == a
        assert mul[(a, zero)] == zero
        assert add[(a, int(F.neg(np.array(a))))] == zero
        if a != zero:
            assert mul[(a, int(F.inv(np.array(a))))] == one
        for b in elems:
            assert add[(a, b)] == add[(b, a)]
            assert mul[(a, b)] == mul[(b, a)]
            for c in elems:
                assert add[(add[(a, b)], c)] == add[(a, add[(b, c)])]
                assert mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])]
                assert mul[(a, add[(b, c)])] == add[(mul[(a, b)], mul[(a, c)])]


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    _axiom_check(make_field(p, k))


class TestKernels:
    @pytest.mark.parametrize(
        "p,k", [(3, 1), (2, 2), (3, 2), (2, 4), (7, 1), (257, 1), (7, 3), (2, 9)]
    )
    def test_kernels_match_scalar_elements(self, p, k):
        """add, sub, mul, neg and inv against the scalar integer arithmetic
        of conftest.oracle_field_ops, with zero operands on either side and
        on both, in fields below and past 256."""
        F = make_field(p, k)
        add, mul, _, _ = oracle_field_ops(F)
        rng = np.random.default_rng(17)
        a = rng.integers(0, F.q, size=200)
        b = rng.integers(0, F.q, size=200)
        a[:10] = 0
        b[5:15] = 0
        units = a[a != 0]
        total, difference, product = F.add(a, b), F.sub(a, b), F.mul(a, b)
        negated, inverse = F.neg(a), F.inv(units)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert total.tolist() == [add(x, y) for x, y in pairs]
        assert F.add(difference, b).tolist() == a.tolist()
        assert product.tolist() == [mul(x, y) for x, y in pairs]
        assert [add(x, y) for x, y in zip(a.tolist(), negated.tolist())] == [0] * len(a)
        assert [mul(x, y) for x, y in zip(units.tolist(), inverse.tolist())] == [1] * len(units)
        for result in (total, difference, product, negated, inverse):
            assert result.dtype == F.dtype

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 27, 251])
    def test_additive_kernels_are_digitwise_mod_p(self, q):
        """add, sub and neg on every pair against base-p digit arithmetic;
        GF(251) has sums up to 500 in a uint8 encoding."""
        F = field_from_q(q)
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q)))
        a, b = a.astype(F.dtype), b.astype(F.dtype)
        digits = (np.arange(q)[:, None] // F.p ** np.arange(F.k)) % F.p
        weights = F.p ** np.arange(F.k)
        assert np.array_equal(F.add(a, b), ((digits[a] + digits[b]) % F.p) @ weights)
        assert np.array_equal(F.sub(a, b), ((digits[a] - digits[b]) % F.p) @ weights)
        assert np.array_equal(F.neg(a), ((-digits[a]) % F.p) @ weights)
        assert F.add(a, b).dtype == F.sub(a, b).dtype == F.dtype

    def test_large_field_formula_paths(self):
        # past q = 256 the encodings are uint16: GF(257) adds mod p and
        # GF(343) adds packed words
        for q in (257, 343):
            F = field_from_q(q)
            rng = np.random.default_rng(3)
            a = rng.integers(1, F.q, size=64)
            b = rng.integers(1, F.q, size=64)
            ab = F.mul(a, b)
            assert np.all(F.mul(ab, F.inv(b)) == a)
            assert np.all(F.add(a, F.neg(a)) == 0)
            assert np.all(F.mul(a, F.inv(a)) == 1)
            s = F.sub(a, b)
            assert np.all(F.add(s, b) == a)

    def test_inv_of_zero_raises(self):
        F = make_field(3, 1)
        with pytest.raises(ZeroDivisionError):
            F.inv(np.array([0]))

    def test_sum_axis(self):
        F = make_field(2, 2)
        M = np.array([[1, 2, 3], [3, 3, 0]])
        expect = [
            int(F.add(F.add(np.array(r[0]), np.array(r[1])), np.array(r[2])))
            for r in M
        ]
        assert list(F.sum_axis(M, axis=1)) == expect

    @pytest.mark.parametrize("q", [3, 8, 9, 25])
    def test_sum_axis_by_repeated_add(self, q):
        """One digit-sum path for prime fields and for extensions of odd
        and even characteristic, along every axis, negative ones too."""
        F = field_from_q(q)
        a = np.random.default_rng(q).integers(0, q, size=(4, 3, 5)).astype(F.dtype)
        for axis in (0, 1, 2, -1):
            expect = np.take(a, 0, axis=axis)
            for i in range(1, a.shape[axis]):
                expect = F.add(expect, np.take(a, i, axis=axis))
            got = F.sum_axis(a, axis=axis)
            assert got.dtype == F.dtype and np.array_equal(got, expect), axis


def _is_prime_power(q):
    p = next(f for f in range(2, q + 1) if q % f == 0)
    while q % p == 0:
        q //= p
    return q == 1


@pytest.mark.parametrize(
    "q", [q for q in range(3, 257) if _is_prime_power(q)] + [3 ** 10, 5 ** 6, 65521, 2 ** 16]
)
def test_tables_match_scalar_oracle(q):
    """The digit, exp and log tables equal those of scalar loops, and the
    primitive element is the first encoding of order q-1."""
    F = field_from_q(q)
    digits, exp, log = oracle_field_tables(F.p, F.k, F.modulus, int(F.exp[1]))
    assert F._digits.tolist() == digits
    assert F.exp.tolist() == exp
    assert F.log.tolist() == log
    orders = (q - 1) // np.gcd(F.log[1:], q - 1)
    assert F.exp[1] == 1 + int(np.argmax(orders == q - 1))


class TestPackedForm:
    """pack / add_packed / unpack: digits in fields of b+1 bits,
    b = bit_length(2p-2), or the encoding itself in characteristic 2."""

    @staticmethod
    def _check_packing(F, a):
        packed = F.pack(a)
        assert packed.dtype == F.packed_dtype
        assert np.array_equal(F.unpack(packed), a)
        assert F.unpack(packed).dtype == F.dtype

    @pytest.mark.parametrize("q", [q for q in range(3, 257) if _is_prime_power(q)])
    def test_every_small_field_exhaustive(self, q):
        """Every element and every pair; p = 131..251 has digit sums past
        255, so its words are uint16."""
        F = field_from_q(q)
        elems = np.arange(q)
        self._check_packing(F, elems)
        packed = F.pack(elems)
        assert packed[0] == 0 and len(np.unique(packed)) == q
        a, b = (x.ravel() for x in np.meshgrid(elems, elems))
        assert np.array_equal(F.add_packed(F.pack(a), F.pack(b)), F.pack(F.add(a, b)))
        width = 1 if F.p == 2 else (2 * F.p - 2).bit_length() + 1
        assert F.packed_dtype.itemsize * 8 >= F.k * width
        assert F.packed_dtype.itemsize == 1 or F.packed_dtype.itemsize * 4 < F.k * width

    @pytest.mark.parametrize("q", [3 ** 10, 5 ** 6, 65521, 2 ** 16])
    def test_large_fields_sampled(self, q):
        F = field_from_q(q)
        elems = np.arange(q)
        self._check_packing(F, elems)
        packed = F.pack(elems)
        assert packed[0] == 0 and len(np.unique(packed)) == q
        rng = np.random.default_rng(q)
        a = rng.integers(0, q, size=50_000)
        b = rng.integers(0, q, size=50_000)
        b[:1000] = (q - 1) - a[:1000]  # the digitwise complement: every digit sum p - 1
        b[1000:2000] = a[1000:2000]
        assert np.array_equal(F.add_packed(F.pack(a), F.pack(b)), F.pack(F.add(a, b)))

    def test_scalars_and_broadcasting(self):
        F = field_from_q(9)
        x = F.pack(np.array(8))
        assert F.unpack(F.add_packed(x, x)) == F.add(8, 8)
        rows = F.pack(np.arange(9)[:, None])
        cols = F.pack(np.arange(9)[None, :])
        table = F.unpack(F.add_packed(rows, cols))
        assert np.array_equal(table, F.add(np.arange(9)[:, None], np.arange(9)[None, :]))


class TestElements:
    def test_poly_mod_helper(self):
        # (x^2) mod (x^2 + 1) = -1 = 2 over GF(3); coefficients constant-first,
        # remainder padded to deg(b) entries
        assert _poly_mod([0, 0, 1], [1, 0, 1], 3) == [2, 0]


_KERNELS = [
    name for name, f in vars(FiniteField).items() if callable(f) and not name.startswith("__")
]


@pytest.mark.parametrize("q", [5, 9])
def test_oracles_call_no_field_kernel(q, monkeypatch):
    """oracle_toric_points and oracle_min_weight give the same values with
    every method of FiniteField raising: their arithmetic is their own."""
    F = field_from_q(q)
    C = BATTERY["C3"] if q == 9 else BATTERY["U4"]
    G = code(enumerate_X(C, q), 1).generator
    points, weight = oracle_toric_points(C, F), oracle_min_weight(F, G)
    assert points == {tuple(row) for row in F.exp[enumerate_X(C, q).logs].tolist()}

    def raising(*args, **kwargs):
        raise AssertionError("a FiniteField kernel was called")

    assert {"add", "mul", "inv", "sum_axis", "_mul_enc", "_powers"} <= set(_KERNELS)
    for name in _KERNELS:
        monkeypatch.setattr(FiniteField, name, raising)
    with pytest.raises(AssertionError, match="kernel was called"):
        F.mul(1, 1)
    assert oracle_toric_points(C, F) == points
    assert oracle_min_weight(F, G) == weight


_NOT_FIELDS = [1, 2, 6, 2 ** 17]
_TAKES_Q = {
    "size_of_X": lambda q: size_of_X(BATTERY["C3"], q),
    "profile": lambda q: profile(BATTERY["C3"], q),
    "phi_injective": lambda q: phi_injective(BATTERY["C3"], q),
    "ci_classify": lambda q: ci_classify(BATTERY["C3"], q),
    "binomial_in_IX": lambda q: binomial_in_IX([1, 0, 0], [0, 0, 1], BATTERY["C3"], q),
    "torus_distance": lambda q: torus_distance(q, 3, 1),
}


@pytest.mark.parametrize("q", _NOT_FIELDS)
@pytest.mark.parametrize("entry", sorted(_TAKES_Q))
def test_every_entry_checks_q_as_a_field_size(entry, q):
    """A q that names no field is refused with the error of field_order,
    by every public function that takes q."""
    with pytest.raises(ValueError) as expected:
        field_order(*prime_power(q))
    with pytest.raises(ValueError) as got:
        _TAKES_Q[entry](q)
    assert str(got.value) == str(expected.value)
