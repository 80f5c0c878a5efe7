"""Tests for the bootstrapping building blocks and the full pipeline."""

import hashlib

import numpy as np
import pytest

from repro.fhe import BootstrapConfig, Bootstrapper, CkksParams, CkksScheme
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.poly import RnsPolynomial
from repro.fhe.bootstrap import (LinearTransform, bsgs_split, chebyshev_divide,
                                 chebyshev_fit, chebyshev_reference_eval,
                                 matrix_diagonals)
from repro.fhe.bootstrap.polyeval import ChebyshevEvaluator


class TestDiagonals:
    def test_identity_matrix(self, rng):
        diags = matrix_diagonals(np.eye(8))
        assert set(diags) == {0}
        assert np.allclose(diags[0], 1.0)

    def test_shift_matrix(self):
        # Row j picks column j+1: exactly diagonal d=1.
        n = 8
        m = np.zeros((n, n))
        for j in range(n):
            m[j, (j + 1) % n] = 1.0
        diags = matrix_diagonals(m)
        assert set(diags) == {1}

    def test_dense_matrix_has_all_diagonals(self, rng):
        m = rng.normal(size=(8, 8))
        assert len(matrix_diagonals(m)) == 8

    def test_reconstruction(self, rng):
        n = 8
        m = rng.normal(size=(n, n))
        diags = matrix_diagonals(m)
        recon = np.zeros((n, n), dtype=np.complex128)
        rows = np.arange(n)
        for d, diag in diags.items():
            recon[rows, (rows + d) % n] = diag
        assert np.allclose(recon, m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((4, 8)))


class TestBsgsSplit:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_minimizes_rotations(self, n):
        n1 = bsgs_split(n, n)
        assert n1 & (n1 - 1) == 0
        cost = (n1 - 1) + (int(np.ceil(n / n1)) - 1)
        for cand in [1, 2, 4, 8, 16, 32, 64]:
            if cand > n:
                break
            alt = (cand - 1) + (int(np.ceil(n / cand)) - 1)
            assert cost <= alt


class TestLinearTransform:
    def test_random_matrix(self, deep_scheme, rng):
        n = deep_scheme.params.ring_degree // 2
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lt = LinearTransform(m, n, deep_scheme.encoder)
        deep_scheme.add_rotation_keys(sorted(lt.required_rotations()))
        z = rng.normal(size=n)
        out = deep_scheme.decrypt(
            lt.apply(deep_scheme.encrypt(z), deep_scheme.evaluator))
        assert np.max(np.abs(out - m @ z)) < 5e-3

    def test_diagonal_matrix_needs_no_rotations(self, deep_scheme, rng):
        n = deep_scheme.params.ring_degree // 2
        d = rng.normal(size=n)
        lt = LinearTransform(np.diag(d), n, deep_scheme.encoder)
        assert lt.required_rotations() == set()
        z = rng.normal(size=n)
        out = deep_scheme.decrypt(
            lt.apply(deep_scheme.encrypt(z), deep_scheme.evaluator))
        assert np.max(np.abs(out - d * z)) < 5e-3

    def test_consumes_plain_levels(self, deep_scheme, rng):
        n = deep_scheme.params.ring_degree // 2
        m = rng.normal(size=(n, n))
        lt = LinearTransform(m, n, deep_scheme.encoder, plain_levels=2)
        deep_scheme.add_rotation_keys(sorted(lt.required_rotations()))
        ct = deep_scheme.encrypt(rng.normal(size=n))
        out = lt.apply(ct, deep_scheme.evaluator)
        assert out.level_count == ct.level_count - 2
        assert np.isclose(out.scale, ct.scale, rtol=1e-9)

    def test_scale_preserved(self, deep_scheme, rng):
        n = deep_scheme.params.ring_degree // 2
        m = rng.normal(size=(n, n))
        lt = LinearTransform(m, n, deep_scheme.encoder)
        deep_scheme.add_rotation_keys(sorted(lt.required_rotations()))
        ct = deep_scheme.encrypt(rng.normal(size=n))
        out = lt.apply(ct, deep_scheme.evaluator)
        assert np.isclose(out.scale, ct.scale, rtol=1e-9)


class TestChebyshevMath:
    def test_fit_accuracy(self):
        coeffs = chebyshev_fit(np.cos, 20)
        x = np.linspace(-1, 1, 101)
        assert np.max(np.abs(chebyshev_reference_eval(coeffs, x)
                             - np.cos(x))) < 1e-12

    def test_divide_identity(self, rng):
        coeffs = rng.normal(size=48)
        q, r = chebyshev_divide(coeffs, 32)
        x = np.linspace(-1, 1, 65)
        t32 = np.cos(32 * np.arccos(x))
        recon = (chebyshev_reference_eval(q, x) * t32
                 + chebyshev_reference_eval(r, x))
        assert np.max(np.abs(
            recon - chebyshev_reference_eval(coeffs, x))) < 1e-10

    def test_divide_degree_bounds(self, rng):
        coeffs = rng.normal(size=48)
        q, r = chebyshev_divide(coeffs, 32)
        assert len(q) <= 32
        assert len(r) <= 32

    def test_divide_rejects_too_large(self, rng):
        with pytest.raises(ValueError):
            chebyshev_divide(rng.normal(size=70), 32)

    def test_divide_low_degree_passthrough(self, rng):
        coeffs = rng.normal(size=4)
        q, r = chebyshev_divide(coeffs, 8)
        assert np.allclose(q, 0)
        assert np.allclose(r, coeffs)


class TestHomomorphicChebyshev:
    @pytest.mark.parametrize("degree", [3, 7, 15])
    def test_sin_eval(self, deep_scheme, rng, degree):
        cheb = ChebyshevEvaluator(deep_scheme.evaluator, deep_scheme.encoder)
        coeffs = chebyshev_fit(lambda t: np.sin(2 * t), degree)
        n = deep_scheme.params.ring_degree // 2
        x = rng.uniform(-1, 1, n)
        out = deep_scheme.decrypt(
            cheb.evaluate(deep_scheme.encrypt(x), coeffs))
        ref = chebyshev_reference_eval(coeffs, x)
        assert np.max(np.abs(out - ref)) < 5e-3

    def test_constant_polynomial(self, deep_scheme, rng):
        cheb = ChebyshevEvaluator(deep_scheme.evaluator, deep_scheme.encoder)
        n = deep_scheme.params.ring_degree // 2
        x = rng.uniform(-1, 1, n)
        out = deep_scheme.decrypt(
            cheb.evaluate(deep_scheme.encrypt(x), np.array([0.75])))
        assert np.max(np.abs(out - 0.75)) < 1e-3

    def test_linear_polynomial(self, deep_scheme, rng):
        cheb = ChebyshevEvaluator(deep_scheme.evaluator, deep_scheme.encoder)
        n = deep_scheme.params.ring_degree // 2
        x = rng.uniform(-1, 1, n)
        # T_0 = 1, T_1 = x: p(x) = 2 + 3x.
        out = deep_scheme.decrypt(
            cheb.evaluate(deep_scheme.encrypt(x), np.array([2.0, 3.0])))
        assert np.max(np.abs(out - (2 + 3 * x))) < 2e-3


@pytest.fixture(scope="module")
def boot_scheme():
    params = CkksParams(ring_degree=64, num_limbs=19, scale_bits=25, dnum=4,
                        hamming_weight=8, first_prime_bits=30, seed=7,
                        num_extension_limbs=8)
    return CkksScheme(params)


@pytest.fixture(scope="module")
def bootstrapper(boot_scheme):
    return Bootstrapper(boot_scheme,
                        BootstrapConfig(eval_mod_degree=63, modulus_range=8))


class TestBootstrapStages:
    def test_mod_raise_structure(self, boot_scheme, bootstrapper, rng):
        n = boot_scheme.params.ring_degree // 2
        z = rng.uniform(-0.5, 0.5, n)
        ct = boot_scheme.evaluator.mod_down_to(boot_scheme.encrypt(z), 1)
        m_coeffs = np.array(
            boot_scheme.decryptor.decrypt(ct).poly.integer_coefficients())
        raised = bootstrapper.mod_raise(ct)
        assert raised.level_count == boot_scheme.params.num_limbs
        t_coeffs = np.array(boot_scheme.decryptor.decrypt(
            raised).poly.integer_coefficients())
        overflow = (t_coeffs - m_coeffs) / bootstrapper.q0
        assert np.max(np.abs(overflow - np.round(overflow))) < 1e-9
        assert np.max(np.abs(overflow)) <= bootstrapper.config.modulus_range

    def test_mod_raise_rejects_multi_limb(self, boot_scheme, bootstrapper):
        ct = boot_scheme.encrypt([0.0])
        with pytest.raises(ValueError):
            bootstrapper.mod_raise(ct)

    def test_coeff_to_slot(self, boot_scheme, bootstrapper, rng):
        n = boot_scheme.params.ring_degree // 2
        z = rng.uniform(-0.5, 0.5, n)
        ct = boot_scheme.evaluator.mod_down_to(boot_scheme.encrypt(z), 1)
        raised = bootstrapper.mod_raise(ct)
        t_coeffs = np.array(boot_scheme.decryptor.decrypt(
            raised).poly.integer_coefficients(), dtype=np.float64)
        real_part, imag_part = bootstrapper.coeff_to_slot(raised)
        denom = bootstrapper.q0 * bootstrapper.config.modulus_range
        got_real = boot_scheme.decrypt(real_part)
        got_imag = boot_scheme.decrypt(imag_part)
        assert np.max(np.abs(got_real - t_coeffs[:n] / denom)) < 1e-3
        assert np.max(np.abs(got_imag - t_coeffs[n:] / denom)) < 1e-3


class TestFullBootstrap:
    def test_refreshes_levels_and_preserves_message(self, boot_scheme,
                                                    bootstrapper, rng):
        n = boot_scheme.params.ring_degree // 2
        z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.5
        ct = boot_scheme.evaluator.mod_down_to(boot_scheme.encrypt(z), 1)
        refreshed = bootstrapper.bootstrap(ct)
        assert refreshed.level_count > 3
        out = boot_scheme.decrypt(refreshed)
        assert np.max(np.abs(out - z)) < 0.05

    def test_can_compute_after_bootstrap(self, boot_scheme, bootstrapper,
                                         rng):
        n = boot_scheme.params.ring_degree // 2
        z = rng.uniform(0.2, 0.7, n)
        ct = boot_scheme.evaluator.mod_down_to(boot_scheme.encrypt(z), 1)
        refreshed = bootstrapper.bootstrap(ct)
        ev = boot_scheme.evaluator
        squared = ev.rescale(ev.square(refreshed))
        out = boot_scheme.decrypt(squared)
        assert np.max(np.abs(out - z * z)) < 0.1

    def test_rejects_mismatched_slot_count(self, boot_scheme,
                                           bootstrapper):
        ct = boot_scheme.encrypt([1.0], num_slots=8)
        ct = boot_scheme.evaluator.mod_down_to(ct, 1)
        with pytest.raises(ValueError):
            bootstrapper.bootstrap(ct)

    def test_wrong_scale_rejected(self, boot_scheme, bootstrapper):
        n = boot_scheme.params.ring_degree // 2
        ct = boot_scheme.encrypt(np.zeros(n), scale=2.0**20)
        ct = boot_scheme.evaluator.mod_down_to(ct, 1)
        with pytest.raises(ValueError):
            bootstrapper.bootstrap(ct)


@pytest.mark.slow
class TestSparseBootstrap:
    """Sparse (replicated) packing: the paper's LR workload shape."""

    @pytest.fixture(scope="class")
    def sparse_setup(self):
        params = CkksParams(ring_degree=128, num_limbs=21, scale_bits=23,
                            dnum=4, hamming_weight=4, first_prime_bits=30,
                            seed=7, num_extension_limbs=8)
        scheme = CkksScheme(params)
        # SubSum multiplies the overflow by the replication factor R, so
        # the sine range K must grow to ~R * h / 2.
        bootstrapper = Bootstrapper(
            scheme, BootstrapConfig(eval_mod_degree=127, modulus_range=16),
            num_slots=8)
        return scheme, bootstrapper

    def test_subsum_projects_into_subring(self, sparse_setup, rng):
        scheme, bootstrapper = sparse_setup
        z = rng.uniform(-0.5, 0.5, 8)
        ct = scheme.evaluator.mod_down_to(
            scheme.encrypt(z, num_slots=8), 1)
        raised = bootstrapper.sub_sum(bootstrapper.mod_raise(ct))
        import numpy as np
        t = np.array(scheme.decryptor.decrypt(
            raised).poly.integer_coefficients(), dtype=np.float64)
        stride = 128 // 16
        off = np.abs(t[np.arange(128) % stride != 0]).max()
        # Off-stride coefficients reduce to key-switch noise only.
        assert off < 2**12

    def test_sparse_roundtrip(self, sparse_setup, rng):
        scheme, bootstrapper = sparse_setup
        z = (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)) * 0.5
        ct = scheme.evaluator.mod_down_to(
            scheme.encrypt(z, num_slots=8), 1)
        refreshed = bootstrapper.bootstrap(ct)
        assert refreshed.level_count > 3
        out = scheme.decrypt(refreshed)
        import numpy as np
        assert np.max(np.abs(out - z)) < 0.02

    def test_fully_packed_replication_is_one(self, bootstrapper):
        assert bootstrapper.replication == 1


#: SHA-256 of the limbs of the refreshed ciphertext of the N=16 bootstrap
#: in ``TestBitIdentityGoldens`` (the benchmark's ``bootstrap_n16``
#: parameters at seed 0), from the per-limb, per-block NTT kernels.
BOOTSTRAP_N16_SHA256 = (
    "e7e7cf33db38b04959ab6732185525b971a88e48b2c8366dd9e025e9585e97c8")

#: SHA-256 of the limbs after multiply -> rescale -> rotate -> conjugate
#: on ``small_scheme`` (same provenance).
EVALUATOR_CHAIN_SHA256 = (
    "db0bd8fbd53c3f92ce5054af50cc0edb4df3ff892fe8ce3d235624aa1b80e473")


def limbs_sha256(ct) -> str:
    h = hashlib.sha256()
    for poly in (ct.c0, ct.c1):
        h.update(np.ascontiguousarray(poly.limbs).tobytes())
    return h.hexdigest()


def symmetric_encrypt(scheme, values, seed) -> Ciphertext:
    """Noise-free secret-key encryption with its own RNG, so the result
    does not depend on what else drew from the scheme's RNG."""
    pt = scheme.encoder.encode(values)
    basis, n = pt.poly.basis, pt.poly.ring_degree
    draw = np.random.default_rng(seed)
    a = RnsPolynomial(n, basis, np.stack(
        [draw.integers(0, q, n, dtype=np.int64) for q in basis.primes]),
        is_ntt=True)
    s = scheme.secret_key.restricted(basis)
    return Ciphertext(pt.poly - a * s, a, pt.scale, pt.num_slots)


class TestBitIdentityGoldens:
    """Modular arithmetic is exact, so a faster kernel (NTT, base
    conversion, key switching, rescaling) must reproduce these digests
    bit for bit."""

    def test_bootstrap_n16(self):
        params = CkksParams(ring_degree=16, num_limbs=19, scale_bits=25,
                            dnum=4, hamming_weight=8, first_prime_bits=30,
                            num_extension_limbs=8, seed=0)
        scheme = CkksScheme(params)
        bootstrapper = Bootstrapper(
            scheme, BootstrapConfig(eval_mod_degree=63, modulus_range=8))
        draw = np.random.default_rng(0)
        z = (draw.uniform(-1, 1, 8) + 1j * draw.uniform(-1, 1, 8)) * 0.5
        refreshed = bootstrapper.bootstrap(
            scheme.evaluator.mod_down_to(scheme.encrypt(z), 1))
        assert refreshed.level_count == 8
        assert np.max(np.abs(scheme.decrypt(refreshed) - z)) < 0.05
        assert limbs_sha256(refreshed) == BOOTSTRAP_N16_SHA256

    def test_evaluator_chain(self, small_scheme):
        ev = small_scheme.evaluator
        x = np.linspace(-1, 1, 32) * 0.5
        y = np.cos(np.arange(32)) * 0.5
        product = ev.rescale(ev.multiply(symmetric_encrypt(small_scheme, x, 1),
                                         symmetric_encrypt(small_scheme, y, 2)))
        out = ev.conjugate(ev.rotate(product, 1))
        expected = np.roll(x * y, -1)
        assert np.max(np.abs(small_scheme.decrypt(out) - expected)) < 1e-3
        assert limbs_sha256(out) == EVALUATOR_CHAIN_SHA256
