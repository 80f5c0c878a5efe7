"""Unit and property tests for RNS bases and base conversion."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fhe.modmath import crt_reconstruct
from repro.fhe.primes import generate_prime_chain
from repro.fhe.rns import (BaseConverter, RnsBasis, get_base_converter)


@pytest.fixture(scope="module")
def chain():
    return generate_prime_chain(16, 28, 64)


@pytest.fixture(scope="module")
def bases():
    n = 64
    primes = generate_prime_chain(8, 25, n, first_bits=28)
    return RnsBasis(primes[:4]), RnsBasis(primes[4:])


class TestRnsBasis:
    def test_modulus_product(self):
        b = RnsBasis([5, 7, 11])
        assert b.modulus == 385

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            RnsBasis([5, 5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RnsBasis([])

    def test_subbasis(self):
        b = RnsBasis([5, 7, 11])
        assert b.subbasis(2).primes == (5, 7)
        with pytest.raises(ValueError):
            b.subbasis(4)

    def test_q_tables(self):
        b = RnsBasis([5, 7])
        # Q = 35; Q*_0 = 7, Q~_0 = 7^{-1} mod 5 = 3.
        assert list(b.q_star_mod(11)) == [7 % 11, 5 % 11]
        assert list(b.q_tilde()) == [3, 3]  # 5^{-1} mod 7 = 3 too

    def test_hash_and_eq(self):
        assert RnsBasis([5, 7]) == RnsBasis([5, 7])
        assert RnsBasis([5, 7]) != RnsBasis([7, 5])
        assert hash(RnsBasis([5, 7])) == hash(RnsBasis([5, 7]))


class TestFastConversion:
    def test_congruent_up_to_overflow(self, bases, rng):
        source, target = bases
        n = 16
        limbs = np.stack([rng.integers(0, q, n) for q in source.primes])
        conv = BaseConverter(source, target)
        out = conv.convert(limbs)
        q_mod = source.modulus
        for col in range(n):
            x = crt_reconstruct([int(limbs[i, col]) for i in range(4)],
                                list(source.primes))
            for j, p in enumerate(target.primes):
                # Output = x + u*Q mod p for some 0 <= u < len(source).
                diff = (int(out[j, col]) - x) % p
                multiples = {(u * q_mod) % p for u in range(len(source))}
                assert diff in multiples

    def test_shape_validation(self, bases):
        source, target = bases
        conv = BaseConverter(source, target)
        with pytest.raises(ValueError):
            conv.convert(np.zeros((3, 8), dtype=np.int64))

    def test_zero_converts_to_zero(self, bases):
        source, target = bases
        conv = BaseConverter(source, target)
        out = conv.convert(np.zeros((len(source), 8), dtype=np.int64))
        assert np.all(out == 0)


class TestExactConversion:
    def test_floor_lift_exact(self, bases, rng):
        source, target = bases
        conv = BaseConverter(source, target)
        n = 32
        limbs = np.stack([rng.integers(0, q, n) for q in source.primes])
        out = conv.convert_exact_floor(limbs)
        for col in range(0, n, 5):
            x = crt_reconstruct([int(limbs[i, col]) for i in range(4)],
                                list(source.primes))
            for j, p in enumerate(target.primes):
                assert int(out[j, col]) == x % p

    def test_centered_lift_exact(self, bases):
        source, target = bases
        conv = BaseConverter(source, target)
        q_mod = source.modulus
        # Encode the centered value -3 (i.e. Q - 3).
        x = q_mod - 3
        limbs = np.array([[x % q] for q in source.primes], dtype=np.int64)
        out = conv.convert_exact_centered(limbs)
        for j, p in enumerate(target.primes):
            assert int(out[j, 0]) == (-3) % p

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**60))
    def test_floor_property(self, bases, value):
        source, target = bases
        conv = get_base_converter(source, target)
        value %= source.modulus
        limbs = np.array([[value % q] for q in source.primes],
                         dtype=np.int64)
        out = conv.convert_exact_floor(limbs)
        for j, p in enumerate(target.primes):
            assert int(out[j, 0]) == value % p


class TestLimbParallelConversion:
    """The single-loop conversions against the big-int CRT reference."""

    @staticmethod
    def _setup(chain, case):
        num_source, num_target, seed = case
        source = RnsBasis(chain[:num_source])
        target = RnsBasis(chain[num_source:num_source + num_target])
        q_mod = source.modulus
        draw = random.Random(seed)
        values = [draw.randrange(q_mod) for _ in range(24)]
        limbs = np.array([[v % q for v in values] for q in source.primes],
                         dtype=np.int64)
        conv = get_base_converter(source, target)
        # The reference lifts to (-Q/2, Q/2]; shift back to [0, Q).
        high = np.array([v >= q_mod // 2 for v in values])
        shift = np.array([[q_mod % p] for p in target.primes],
                         dtype=np.int64)
        exact = (conv.convert_exact_centered(limbs) + high * shift) \
            % target.prime_column
        return source, target, conv, limbs, exact

    cases = st.tuples(st.integers(1, 8), st.integers(1, 8),
                      st.integers(0, 2**32 - 1))

    @settings(max_examples=30, deadline=None)
    @given(cases)
    def test_floor_matches_reference(self, chain, case):
        _, _, conv, limbs, exact = self._setup(chain, case)
        assert np.array_equal(conv.convert_exact_floor(limbs), exact)

    @settings(max_examples=30, deadline=None)
    @given(cases)
    def test_fast_is_reference_plus_overflow(self, chain, case):
        source, target, conv, limbs, exact = self._setup(chain, case)
        out = conv.convert(limbs)
        q_mod = source.modulus
        for col in range(limbs.shape[1]):
            # One overflow multiple u*Q, 0 <= u < len(source), shared by
            # every target limb.
            assert any(
                all(int(out[j, col]) == (int(exact[j, col]) + u * q_mod) % p
                    for j, p in enumerate(target.primes))
                for u in range(len(source)))


class TestConverterCache:
    def test_cache_identity(self, bases):
        source, target = bases
        assert (get_base_converter(source, target)
                is get_base_converter(source, target))
