"""Limb-parallel negacyclic NTT over Z_q[x]/(x^N + 1).

This is the software analog of FAB's unified Cooley–Tukey NTT datapath
(paper §4.5).  A single iterative butterfly network serves both the
forward and inverse transforms, differing only in the twiddle tables and
the final scaling by N^{-1}.

FAB keeps every butterfly unit busy across all limbs of a polynomial;
here one context likewise transforms a whole ``(L, N)`` limb matrix at
once.  Each of the log N stages is one vectorized butterfly over every
block of every limb: the matrix is viewed as ``(L, m, 2, t)`` (``m``
blocks of two ``t``-long halves), the per-prime twiddle tables are
stacked into ``(L, N)`` tables sliced as ``tw[:, m:2m, None]``, and
every product is reduced against an ``(L, 1)`` modulus column.  A
single prime is the ``L = 1`` case of the same network and also accepts
a bare ``(N,)`` vector.  Every element sees the same modular operations
in the same order as in a per-limb, per-block loop, so the results are
bit-identical to it.

Primes are restricted to < 2**31 so that a product of two residues fits
exactly in int64; the paper's 54-bit limbs are handled bit-exactly by
:mod:`repro.core.arith` (scalar) and by the analytic performance model.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .modmath import bit_reverse, ilog2, modinv
from .primes import MAX_FUNCTIONAL_PRIME_BITS, primitive_root_of_unity

#: One prime, or one prime per limb.
Moduli = Union[int, Sequence[int]]


def _as_primes(modulus: Moduli) -> Tuple[int, ...]:
    if isinstance(modulus, (int, np.integer)):
        return (int(modulus),)
    return tuple(int(q) for q in modulus)


def _twiddle_table(ring_degree: int, modulus: int, root: int) -> np.ndarray:
    """Powers of ``root`` in bit-reversed order, as used stage-by-stage
    by the iterative Cooley–Tukey network (Longa–Naehrig layout)."""
    powers = [1] * ring_degree
    for i in range(1, ring_degree):
        powers[i] = powers[i - 1] * root % modulus
    bits = ilog2(ring_degree)
    order = [bit_reverse(i, bits) for i in range(ring_degree)]
    return np.array([powers[i] for i in order], dtype=np.int64)


@lru_cache(maxsize=None)
def _prime_tables(
    ring_degree: int, modulus: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Forward and inverse twiddle tables and ``N^{-1}`` for one prime."""
    if modulus.bit_length() > MAX_FUNCTIONAL_PRIME_BITS:
        raise ValueError(
            f"functional NTT supports primes < 2^{MAX_FUNCTIONAL_PRIME_BITS}; "
            f"got {modulus.bit_length()}-bit modulus"
        )
    if (modulus - 1) % (2 * ring_degree) != 0:
        raise ValueError("modulus is not NTT-friendly for this degree")
    psi = primitive_root_of_unity(2 * ring_degree, modulus)
    return (
        _twiddle_table(ring_degree, modulus, psi),
        _twiddle_table(ring_degree, modulus, modinv(psi, modulus)),
        modinv(ring_degree, modulus),
    )


class NttContext:
    """Precomputed tables for the negacyclic NTT modulo one or more primes.

    The forward transform maps coefficient representation to evaluation
    representation (values of the polynomial at the odd powers of each
    prime's primitive 2N-th root ``psi``); the inverse transform maps
    back.  Row ``i`` of an ``(L, N)`` input is taken modulo ``primes[i]``.

    Attributes:
        ring_degree: the polynomial degree N (power of two).
        primes: the limb moduli, each q ≡ 1 (mod 2N).
    """

    def __init__(self, ring_degree: int, modulus: Moduli):
        primes = _as_primes(modulus)
        if not primes:
            raise ValueError("an NTT context needs at least one prime")
        self.ring_degree = ring_degree
        self.primes = primes
        tables = [_prime_tables(ring_degree, q) for q in primes]
        self._forward_table = np.stack([t[0] for t in tables])
        self._inverse_table = np.stack([t[1] for t in tables])
        self._degree_inv = np.array([[t[2]] for t in tables], dtype=np.int64)
        self._moduli = np.array(primes, dtype=np.int64)[:, None]
        # The first prime's table, as read by the hardware datapath model.
        self._forward_twiddles = self._forward_table[0]

    @property
    def modulus(self) -> int:
        """The prime q of a single-prime context."""
        if len(self.primes) != 1:
            raise ValueError("a multi-prime context has no single modulus")
        return self.primes[0]

    def _load(self, values: np.ndarray) -> Tuple[np.ndarray, bool]:
        """A reduced ``(L, N)`` working copy of ``values``, and whether
        they came as the ``(N,)`` vector of a single-prime context."""
        a = np.asarray(values, dtype=np.int64)
        rows, n = len(self.primes), self.ring_degree
        vector = rows == 1 and a.shape == (n,)
        if not vector and a.shape != (rows, n):
            raise ValueError(f"expected shape ({rows}, {n}), got {a.shape}")
        return a.reshape(rows, n) % self._moduli, vector

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT (coefficient → evaluation order).

        Takes ``(L, N)`` residues (or ``(N,)`` for one prime) and returns
        the same shape.  The output ordering is the standard bit-reversed
        CT ordering; it is consistent between :meth:`forward` and
        :meth:`inverse`, which is all the scheme requires (pointwise
        products are order-agnostic).
        """
        a, vector = self._load(coeffs)
        rows, n = a.shape
        q = self._moduli[:, :, None]
        tw = self._forward_table
        t = n
        m = 1
        while m < n:
            t //= 2
            # Block j of every limb: butterfly with twiddle tw[:, m + j].
            blocks = a.reshape(rows, m, 2, t)
            lo = blocks[:, :, 0]
            prod = blocks[:, :, 1] * tw[:, m : 2 * m, None] % q
            hi_new = (lo - prod) % q
            blocks[:, :, 0] = (lo + prod) % q
            blocks[:, :, 1] = hi_new
            m *= 2
        return a[0] if vector else a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT (evaluation → coefficient order)."""
        a, vector = self._load(values)
        rows, n = a.shape
        q = self._moduli[:, :, None]
        tw = self._inverse_table
        t = 1
        m = n
        while m > 1:
            h = m // 2
            # Block j of every limb: butterfly with twiddle tw[:, h + j].
            blocks = a.reshape(rows, h, 2, t)
            lo = blocks[:, :, 0]
            hi = blocks[:, :, 1]
            lo_new = (lo + hi) % q
            blocks[:, :, 1] = (lo - hi) % q * tw[:, h:m, None] % q
            blocks[:, :, 0] = lo_new
            t *= 2
            m = h
        a = a * self._degree_inv % self._moduli
        return a[0] if vector else a

    # ------------------------------------------------------------------
    # Reference helpers (used by tests)
    # ------------------------------------------------------------------

    def negacyclic_convolution(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Schoolbook negacyclic product ``a*b mod (x^N + 1, q)``.

        O(N^2); reference implementation for testing the NTT pointwise
        multiplication path of a single-prime context.
        """
        q = self.modulus
        n = self.ring_degree
        result = np.zeros(n, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64) % q
        b = np.asarray(b, dtype=np.int64) % q
        for i in range(n):
            if a[i] == 0:
                continue
            ai = int(a[i])
            for j in range(n):
                k = i + j
                term = ai * int(b[j]) % q
                if k >= n:
                    result[k - n] = (result[k - n] - term) % q
                else:
                    result[k] = (result[k] + term) % q
        return result % q

    def pointwise_multiply(self, a_eval: np.ndarray, b_eval: np.ndarray) -> np.ndarray:
        """Pointwise product of two single-prime evaluation vectors."""
        a = np.asarray(a_eval, dtype=np.int64)
        return a * np.asarray(b_eval, dtype=np.int64) % self.modulus


_CONTEXT_CACHE: Dict[Tuple[int, Tuple[int, ...]], NttContext] = {}


def get_ntt_context(ring_degree: int, modulus: Moduli) -> NttContext:
    """Return a cached :class:`NttContext` for ``(ring_degree, primes)``.

    ``modulus`` is one prime, or a sequence of primes (one per limb)
    whose context transforms ``(L, N)`` limb matrices.
    """
    # A tuple (an RnsBasis's primes) is used as the key as it is.
    key = (ring_degree, modulus if isinstance(modulus, tuple) else _as_primes(modulus))
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = NttContext(ring_degree, key[1])
        _CONTEXT_CACHE[key] = ctx
    return ctx
