#!/usr/bin/env python
"""Fully-packed CKKS bootstrapping, end to end (§2.1.3 of the paper).

Drains a ciphertext to its last limb, runs the full pipeline
(ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff) and shows that the
refreshed ciphertext carries the same message with levels restored —
then keeps computing on it.

Run:  python examples/bootstrap_demo.py       (~1 s)
"""

import time

import numpy as np

from repro.fhe import BootstrapConfig, Bootstrapper, CkksParams, CkksScheme


def main() -> None:
    params = CkksParams(ring_degree=128, num_limbs=19, scale_bits=25,
                        dnum=4, hamming_weight=8, first_prime_bits=30,
                        num_extension_limbs=8, seed=7)
    scheme = CkksScheme(params)
    print(f"context: {scheme.context}")

    t0 = time.time()
    bootstrapper = Bootstrapper(
        scheme, BootstrapConfig(eval_mod_degree=63, modulus_range=8))
    print(f"bootstrapper precompute: {time.time() - t0:.1f}s "
          f"(CtS/StC diagonals + {len(scheme.galois_keys.keys)} Galois keys)")

    n = params.ring_degree // 2
    rng = np.random.default_rng(1)
    z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.5
    ct = scheme.encrypt(z)
    print(f"fresh:      {ct}")

    # Burn the ciphertext down to one limb — no multiplications left.
    ct_low = scheme.evaluator.mod_down_to(ct, 1)
    print(f"exhausted:  {ct_low}")

    t0 = time.time()
    refreshed = bootstrapper.bootstrap(ct_low)
    elapsed = time.time() - t0
    print(f"refreshed:  {refreshed}   ({elapsed:.1f}s)")

    out = scheme.decrypt(refreshed)
    err = np.max(np.abs(out - z))
    print(f"message error after bootstrap: {err:.4f} "
          f"(message magnitude ~0.5)")
    assert err < 0.05

    # The refreshed ciphertext supports multiplication again.
    ev = scheme.evaluator
    squared = ev.rescale(ev.square(refreshed))
    sq_err = np.max(np.abs(scheme.decrypt(squared) - z * z))
    print(f"computed z^2 on the refreshed ciphertext; error {sq_err:.4f}")
    assert sq_err < 0.1
    print("OK: bootstrapping preserves the message and restores levels.")


if __name__ == "__main__":
    main()
