"""Unit and property tests for the negacyclic NTT."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fhe.ntt import NttContext, get_ntt_context
from repro.fhe.primes import find_ntt_prime, generate_prime_chain

#: Largest ring degree and limb count of the batched-transform properties.
MAX_DEGREE = 256
MAX_LIMBS = 27


@pytest.fixture(scope="module")
def ctx64():
    n = 64
    q = find_ntt_prime(28, n)
    return get_ntt_context(n, q)


@pytest.fixture(scope="module")
def chain():
    """Primes that are NTT-friendly for every degree up to MAX_DEGREE."""
    return tuple(generate_prime_chain(MAX_LIMBS, 28, MAX_DEGREE))


class TestRoundtrip:
    def test_forward_inverse_identity(self, ctx64, rng):
        a = rng.integers(0, ctx64.modulus, ctx64.ring_degree)
        assert np.array_equal(ctx64.inverse(ctx64.forward(a)), a)

    def test_inverse_forward_identity(self, ctx64, rng):
        a = rng.integers(0, ctx64.modulus, ctx64.ring_degree)
        assert np.array_equal(ctx64.forward(ctx64.inverse(a)), a)

    def test_zero_fixed_point(self, ctx64):
        z = np.zeros(ctx64.ring_degree, dtype=np.int64)
        assert np.array_equal(ctx64.forward(z), z)

    def test_constant_polynomial(self, ctx64):
        # NTT of a constant is the constant broadcast to all points.
        c = np.zeros(ctx64.ring_degree, dtype=np.int64)
        c[0] = 42
        out = ctx64.forward(c)
        assert np.all(out == 42)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**28))
    def test_roundtrip_property(self, ctx64, seed):
        local = np.random.default_rng(seed)
        a = local.integers(0, ctx64.modulus, ctx64.ring_degree)
        assert np.array_equal(ctx64.inverse(ctx64.forward(a)), a)


class TestConvolution:
    def test_matches_schoolbook(self, ctx64, rng):
        n = ctx64.ring_degree
        a = rng.integers(0, ctx64.modulus, n)
        b = rng.integers(0, ctx64.modulus, n)
        fast = ctx64.inverse(
            ctx64.pointwise_multiply(ctx64.forward(a), ctx64.forward(b))
        )
        assert np.array_equal(fast, ctx64.negacyclic_convolution(a, b))

    def test_multiply_by_x_wraps_negacyclically(self, ctx64):
        # x^(N-1) * x = x^N = -1.
        n = ctx64.ring_degree
        q = ctx64.modulus
        a = np.zeros(n, dtype=np.int64)
        a[n - 1] = 1
        x = np.zeros(n, dtype=np.int64)
        x[1] = 1
        prod = ctx64.inverse(
            ctx64.pointwise_multiply(ctx64.forward(a), ctx64.forward(x))
        )
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = q - 1
        assert np.array_equal(prod, expected)

    def test_linearity(self, ctx64, rng):
        n = ctx64.ring_degree
        q = ctx64.modulus
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        lhs = ctx64.forward((a + b) % q)
        rhs = (ctx64.forward(a) + ctx64.forward(b)) % q
        assert np.array_equal(lhs, rhs)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_convolution_commutative(self, ctx64, seed):
        local = np.random.default_rng(seed)
        n = ctx64.ring_degree
        a = local.integers(0, ctx64.modulus, n)
        b = local.integers(0, ctx64.modulus, n)
        fa, fb = ctx64.forward(a), ctx64.forward(b)
        ab = ctx64.inverse(ctx64.pointwise_multiply(fa, fb))
        ba = ctx64.inverse(ctx64.pointwise_multiply(fb, fa))
        assert np.array_equal(ab, ba)


class TestValidation:
    def test_rejects_large_modulus(self):
        with pytest.raises(ValueError):
            NttContext(64, (1 << 54) - 33)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ValueError):
            NttContext(64, 97)  # 97 - 1 not divisible by 128

    def test_rejects_unfriendly_prime_in_chain(self, chain):
        with pytest.raises(ValueError):
            NttContext(64, chain[:3] + (97,))

    def test_rejects_wrong_shape(self, ctx64):
        with pytest.raises(ValueError):
            ctx64.forward(np.zeros(32, dtype=np.int64))

    def test_context_cache_returns_same_object(self):
        n = 32
        q = find_ntt_prime(20, n)
        assert get_ntt_context(n, q) is get_ntt_context(n, q)
        assert get_ntt_context(n, [q]) is get_ntt_context(n, q)

    def test_multi_prime_context_has_no_single_modulus(self, chain):
        with pytest.raises(ValueError):
            get_ntt_context(16, chain[:2]).modulus


class TestMultipleDegrees:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 128, 256])
    def test_roundtrip_across_degrees(self, n, rng):
        q = find_ntt_prime(24, n)
        ctx = get_ntt_context(n, q)
        a = rng.integers(0, q, n)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    @pytest.mark.parametrize("n", [8, 64])
    def test_convolution_across_degrees(self, n, rng):
        q = find_ntt_prime(22, n)
        ctx = get_ntt_context(n, q)
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        fast = ctx.inverse(ctx.pointwise_multiply(ctx.forward(a), ctx.forward(b)))
        assert np.array_equal(fast, ctx.negacyclic_convolution(a, b))


limb_matrices = st.tuples(
    st.integers(min_value=2, max_value=MAX_DEGREE.bit_length() - 1),
    st.integers(min_value=1, max_value=MAX_LIMBS),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestLimbParallel:
    """A multi-prime context transforms an ``(L, N)`` limb matrix exactly
    as the single-prime contexts transform its rows one by one."""

    @staticmethod
    def _setup(chain, case):
        log_n, limbs, seed = case
        n = 1 << log_n
        primes = chain[:limbs]
        # Unreduced, signed input: both paths reduce it first.
        a = np.random.default_rng(seed).integers(-(2**40), 2**40, (limbs, n))
        return n, primes, a

    @settings(max_examples=40, deadline=None)
    @given(limb_matrices)
    def test_matches_row_by_row(self, chain, case):
        n, primes, a = self._setup(chain, case)
        ctx = get_ntt_context(n, primes)
        rows = [get_ntt_context(n, q) for q in primes]
        forward = np.stack([r.forward(x) for r, x in zip(rows, a)])
        inverse = np.stack([r.inverse(x) for r, x in zip(rows, a)])
        assert np.array_equal(ctx.forward(a), forward)
        assert np.array_equal(ctx.inverse(a), inverse)

    @settings(max_examples=40, deadline=None)
    @given(limb_matrices)
    def test_roundtrip(self, chain, case):
        n, primes, a = self._setup(chain, case)
        ctx = get_ntt_context(n, primes)
        reduced = a % np.array(primes, dtype=np.int64)[:, None]
        assert np.array_equal(ctx.inverse(ctx.forward(a)), reduced)
        assert np.array_equal(ctx.forward(ctx.inverse(a)), reduced)

    @settings(max_examples=20, deadline=None)
    @given(limb_matrices)
    def test_wrong_shape_rejected(self, chain, case):
        n, primes, a = self._setup(chain, case)
        ctx = get_ntt_context(n, primes)
        bad = [a[:, : n // 2], np.vstack([a, a[:1]]), a[..., None]]
        if len(primes) > 1:
            bad.append(a[0])
        for values in bad:
            with pytest.raises(ValueError):
                ctx.forward(values)
            with pytest.raises(ValueError):
                ctx.inverse(values)

    def test_single_prime_accepts_one_row_matrix(self, chain, rng):
        ctx = get_ntt_context(64, chain[0])
        a = rng.integers(0, chain[0], 64)
        assert np.array_equal(ctx.forward(a[None, :]), ctx.forward(a)[None, :])
