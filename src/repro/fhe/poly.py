"""RNS polynomials in Z_Q[x]/(x^N + 1).

A ciphertext ring element is stored as an ``(l, N)`` int64 matrix — one
row per RNS limb, matching the paper's limb-wise memory view (§2.1.1).
Polynomials track whether they are in coefficient or evaluation (NTT)
representation; pointwise products require evaluation form.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .modmath import ilog2
from .ntt import get_ntt_context
from .rns import RnsBasis


class RnsPolynomial:
    """A polynomial in RNS representation.

    Attributes:
        ring_degree: ring dimension N.
        basis: the :class:`RnsBasis` of limb moduli.
        limbs: int64 matrix of shape ``(len(basis), ring_degree)``.
        is_ntt: ``True`` if limbs hold evaluation (NTT) representation.
    """

    __slots__ = ("ring_degree", "basis", "limbs", "is_ntt")

    def __init__(self, ring_degree: int, basis: RnsBasis, limbs: np.ndarray,
                 is_ntt: bool):
        ilog2(ring_degree)  # validates power of two
        limbs = np.asarray(limbs, dtype=np.int64)
        if limbs.shape != (len(basis), ring_degree):
            raise ValueError(
                f"limb matrix shape {limbs.shape} does not match "
                f"({len(basis)}, {ring_degree})")
        self.ring_degree = ring_degree
        self.basis = basis
        self.limbs = limbs
        self.is_ntt = is_ntt

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, ring_degree: int, basis: RnsBasis,
              is_ntt: bool = True) -> "RnsPolynomial":
        """The zero polynomial."""
        return cls(ring_degree, basis,
                   np.zeros((len(basis), ring_degree), dtype=np.int64), is_ntt)

    @classmethod
    def from_int_coeffs(cls, coeffs: Sequence[int], ring_degree: int,
                        basis: RnsBasis) -> "RnsPolynomial":
        """Build from (possibly signed, possibly big) integer coefficients.

        Every limb receives the same integer reduced modulo its prime, so
        the rows are consistent residues of one integer polynomial.
        """
        coeffs = list(coeffs)
        if len(coeffs) != ring_degree:
            raise ValueError("coefficient count must equal ring degree")
        if any(abs(int(c)) >= (1 << 62) for c in coeffs):
            limbs = np.array([[int(c) % q for c in coeffs]
                              for q in basis.primes], dtype=np.int64)
        else:
            arr = np.array([int(c) for c in coeffs], dtype=np.int64)
            limbs = arr % basis.prime_column
        return cls(ring_degree, basis, limbs, is_ntt=False)

    def copy(self) -> "RnsPolynomial":
        """Deep copy."""
        return RnsPolynomial(self.ring_degree, self.basis, self.limbs.copy(),
                             self.is_ntt)

    # ------------------------------------------------------------------
    # Representation changes
    # ------------------------------------------------------------------

    def to_ntt(self) -> "RnsPolynomial":
        """Return the evaluation-representation version of this polynomial."""
        if self.is_ntt:
            return self
        ctx = get_ntt_context(self.ring_degree, self.basis.primes)
        return RnsPolynomial(self.ring_degree, self.basis,
                             ctx.forward(self.limbs), is_ntt=True)

    def to_coeff(self) -> "RnsPolynomial":
        """Return the coefficient-representation version of this polynomial."""
        if not self.is_ntt:
            return self
        ctx = get_ntt_context(self.ring_degree, self.basis.primes)
        return RnsPolynomial(self.ring_degree, self.basis,
                             ctx.inverse(self.limbs), is_ntt=False)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ValueError("RNS bases differ")
        if self.ring_degree != other.ring_degree:
            raise ValueError("ring degrees differ")
        if self.is_ntt != other.is_ntt:
            raise ValueError("representations differ (NTT vs coefficient)")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        primes = self.basis.prime_column
        return RnsPolynomial(self.ring_degree, self.basis,
                             (self.limbs + other.limbs) % primes, self.is_ntt)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        primes = self.basis.prime_column
        return RnsPolynomial(self.ring_degree, self.basis,
                             (self.limbs - other.limbs) % primes, self.is_ntt)

    def __neg__(self) -> "RnsPolynomial":
        primes = self.basis.prime_column
        return RnsPolynomial(self.ring_degree, self.basis,
                             (-self.limbs) % primes, self.is_ntt)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Ring product; both operands must be in NTT representation."""
        self._check_compatible(other)
        if not self.is_ntt:
            raise ValueError("ring products require NTT representation")
        primes = self.basis.prime_column
        return RnsPolynomial(self.ring_degree, self.basis,
                             self.limbs * other.limbs % primes, True)

    def scalar_multiply(self, scalars) -> "RnsPolynomial":
        """Multiply by per-limb scalars (int or length-l sequence)."""
        if isinstance(scalars, (int, np.integer)):
            scalars = [int(scalars) % q for q in self.basis.primes]
        scalars = np.array([int(s) for s in scalars], dtype=np.int64)
        if scalars.shape != (len(self.basis),):
            raise ValueError("need one scalar per limb")
        primes = self.basis.prime_column
        return RnsPolynomial(self.ring_degree, self.basis,
                             self.limbs * scalars[:, None] % primes,
                             self.is_ntt)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def drop_last_limbs(self, count: int = 1) -> "RnsPolynomial":
        """Drop the last ``count`` limbs (used after rescaling)."""
        if count <= 0 or count >= len(self.basis):
            raise ValueError("invalid limb drop count")
        new_basis = RnsBasis(self.basis.primes[:-count])
        return RnsPolynomial(self.ring_degree, new_basis,
                             self.limbs[:-count].copy(), self.is_ntt)

    def keep_limbs(self, indices: Iterable[int]) -> "RnsPolynomial":
        """Project onto the limbs at ``indices`` (ordered)."""
        indices = list(indices)
        new_basis = RnsBasis([self.basis.primes[i] for i in indices])
        return RnsPolynomial(self.ring_degree, new_basis,
                             self.limbs[indices].copy(), self.is_ntt)

    def automorphism(self, galois_element: int) -> "RnsPolynomial":
        """Apply the Galois automorphism ``x -> x^g`` (g odd).

        Performed in coefficient representation: coefficient ``c_i``
        lands at index ``i*g mod 2N`` with a sign flip when it wraps past
        ``x^N = -1``.  This is the algebraic ground truth against which
        the hardware automorph unit (eq. 4 of the paper) is validated.
        """
        g = galois_element % (2 * self.ring_degree)
        if g % 2 == 0:
            raise ValueError("Galois element must be odd")
        was_ntt = self.is_ntt
        poly = self.to_coeff()
        n = self.ring_degree
        out = np.zeros_like(poly.limbs)
        idx = (np.arange(n, dtype=np.int64) * g) % (2 * n)
        wrap = idx >= n
        dest = np.where(wrap, idx - n, idx)
        primes = self.basis.prime_column
        signed = np.where(wrap[None, :], -poly.limbs, poly.limbs)
        out[:, dest] = signed
        out %= primes
        result = RnsPolynomial(self.ring_degree, self.basis, out, is_ntt=False)
        return result.to_ntt() if was_ntt else result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def integer_coefficients(self) -> List[int]:
        """Exact centered integer coefficients via CRT (for tests/decode)."""
        from .modmath import crt_reconstruct_centered
        poly = self.to_coeff()
        coeffs = []
        primes = list(self.basis.primes)
        for col in range(self.ring_degree):
            residues = [int(poly.limbs[i, col]) for i in range(len(primes))]
            coeffs.append(crt_reconstruct_centered(residues, primes))
        return coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, RnsPolynomial)
                and self.basis == other.basis
                and self.is_ntt == other.is_ntt
                and np.array_equal(self.limbs, other.limbs))

    def __repr__(self) -> str:
        rep = "ntt" if self.is_ntt else "coeff"
        return (f"RnsPolynomial(N={self.ring_degree}, limbs={len(self.basis)}, "
                f"rep={rep})")
