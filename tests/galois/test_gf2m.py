"""Unit and property tests for GF(2^m) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.galois import GF256, GF2m, PRIMITIVE_POLYNOMIALS, get_field


class TestConstruction:
    def test_all_default_fields_construct(self):
        for m in PRIMITIVE_POLYNOMIALS:
            field = GF2m(m)
            assert field.order == 1 << m

    def test_rejects_wrong_degree_polynomial(self):
        with pytest.raises(ValueError):
            GF2m(8, primitive_poly=0b1011)  # degree 3 polynomial for m=8

    def test_rejects_non_primitive_polynomial(self):
        # x^8 + 1 is not even irreducible
        with pytest.raises(ValueError):
            GF2m(8, primitive_poly=0x101)

    def test_rejects_out_of_range_m(self):
        with pytest.raises(ValueError):
            GF2m(1)
        with pytest.raises(ValueError):
            GF2m(17)

    def test_get_field_caches(self):
        assert get_field(8) is get_field(8)

    def test_equality_and_hash(self):
        assert GF2m(4) == get_field(4)
        assert hash(GF2m(4)) == hash(get_field(4))
        assert GF2m(4) != GF2m(5)


class TestScalarArithmetic:
    def test_add_is_xor(self):
        assert GF256.add(0x53, 0xCA) == 0x53 ^ 0xCA

    def test_known_product_gf256(self):
        # standard AES-field style check for poly 0x11D
        assert GF256.mul(2, 128) == 0x11D ^ 0x100

    def test_mul_identity_and_zero(self):
        for a in range(256):
            assert GF256.mul(a, 1) == a
            assert GF256.mul(a, 0) == 0

    def test_inverse_all_elements(self):
        for a in range(1, 256):
            assert GF256.mul(a, GF256.inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_division(self):
        for a in (1, 7, 200, 255):
            for b in (1, 3, 99):
                assert GF256.mul(GF256.div(a, b), b) == a

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_pow_matches_repeated_mul(self):
        a = 37
        acc = 1
        for e in range(10):
            assert GF256.pow(a, e) == acc
            acc = GF256.mul(acc, a)

    def test_pow_negative_exponent(self):
        a = 123
        assert GF256.mul(GF256.pow(a, -1), a) == 1

    def test_pow_zero_base(self):
        assert GF256.pow(0, 0) == 1
        assert GF256.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            GF256.pow(0, -1)

    def test_alpha_pow_wraps(self):
        assert GF256.alpha_pow(0) == 1
        assert GF256.alpha_pow(255) == 1  # alpha^(q-1) = 1
        assert GF256.alpha_pow(-1) == GF256.alpha_pow(254)

    def test_log_inverse_of_alpha_pow(self):
        for e in (0, 1, 17, 254):
            assert GF256.log(GF256.alpha_pow(e)) == e

    def test_log_of_zero_raises(self):
        with pytest.raises(ValueError):
            GF256.log(0)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_zero_tables_multiply_every_pair(self, m):
        field = get_field(m)
        exp_z, log_z = field.zero_tables()
        assert field.zero_tables()[0] is exp_z  # built once
        a, b = np.meshgrid(np.arange(field.order), np.arange(field.order))
        assert np.array_equal(exp_z[log_z[a] + log_z[b]], field.mul(a, b))

    def test_multiplicative_order_of_alpha(self):
        """alpha must generate the whole multiplicative group."""
        field = get_field(6)
        seen = set()
        for e in range(field.order - 1):
            seen.add(field.alpha_pow(e))
        assert len(seen) == field.order - 1


elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestFieldAxioms:
    @given(elements, elements, elements)
    @settings(max_examples=200)
    def test_mul_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(elements, elements)
    @settings(max_examples=200)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elements, elements, elements)
    @settings(max_examples=200)
    def test_distributive(self, a, b, c):
        assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)

    @given(nonzero, nonzero)
    @settings(max_examples=100)
    def test_no_zero_divisors(self, a, b):
        assert GF256.mul(a, b) != 0


class TestVectorised:
    def test_mul_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, 300)
        b = rng.integers(0, 256, 300)
        out = GF256.mul(a, b)
        for i in range(300):
            assert out[i] == GF256.mul(int(a[i]), int(b[i]))

    def test_div_matches_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, 200)
        b = rng.integers(1, 256, 200)
        out = GF256.div(a, b)
        for i in range(200):
            assert out[i] == GF256.div(int(a[i]), int(b[i]))

    def test_div_by_zero_array_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(np.array([1, 2]), np.array([1, 0]))

    def test_inv_array(self):
        a = np.arange(1, 256)
        assert np.all(GF256.mul(GF256.inv(a), a) == 1)

    def test_pow_array(self):
        a = np.arange(256)
        out = GF256.pow(a, 3)
        for i in range(256):
            assert out[i] == GF256.pow(int(i), 3)

    def test_bits_roundtrip(self):
        rng = np.random.default_rng(2)
        syms = rng.integers(0, 256, 64)
        bits = GF256.to_bits(syms)
        assert bits.shape == (64, 8)
        assert np.array_equal(GF256.from_bits(bits), syms)
