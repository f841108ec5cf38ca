"""Seeded randomness and the finite-difference gradient oracle.

Everything works on float64 numpy arrays. Randomness only flows through an
explicitly passed generator (no global RNG anywhere in the package).
"""

import numpy as np


class DimensionMismatch(ValueError):
    """Operands do not conform; message names both shapes."""


def derive_rng(seed, *keys):
    """Independent deterministic stream for (seed, keys).

    Used to give each consumer of randomness (init, dropout, shuffle,
    embedding) its own stream so adding one consumer never perturbs the
    others.
    """
    return np.random.default_rng([int(seed)] + [int(k) for k in keys])


FD_BLOCK = 64  # elements perturbed per evaluation of f
FD_EPSILON = 1e-5  # the central difference's step


def finite_diff_grad(f, params):
    """Central-difference gradient over one C-contiguous float64 array,
    returned in its shape. The elements are probed FD_BLOCK at a time: for k
    of them, f gets a (2k, n) block whose rows are copies of the flattened
    array, row j with element j of the group raised by FD_EPSILON and row k + j
    with it lowered, and returns the 2k values of the function at those rows
    (sentence_loss of a row tagger built on the block, say). The block is
    filled once per call, and after each group only the 2k entries it
    perturbed are put back; `params` itself is never written."""
    if not params.flags.c_contiguous:  # f's rows would not match its layout
        raise ValueError("finite_diff_grad needs a C-contiguous array")
    flat = params.reshape(-1)
    n = flat.size
    grad = np.empty(n)
    block = np.tile(flat, (2 * min(FD_BLOCK, n), 1))
    for start in range(0, n, FD_BLOCK):
        k = min(FD_BLOCK, n - start)
        rows = block[:2 * k]
        j = np.arange(k)
        probed = flat[start:start + k]
        rows[j, start + j] = probed + FD_EPSILON
        rows[k + j, start + j] = probed - FD_EPSILON
        values = np.asarray(f(rows), dtype=np.float64)
        grad[start:start + k] = (values[:k] - values[k:]) / (2.0 * FD_EPSILON)
        rows[j, start + j] = rows[k + j, start + j] = probed
    return grad.reshape(params.shape)


def gradient_relative_error(analytic, numeric):
    """Worst element-wise relative discrepancy between two gradient arrays
    (0 for empty ones).

    The denominator is floored at 1e-6 so that entries where both gradients
    are essentially zero do not turn finite-difference noise into a spurious
    mismatch.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise DimensionMismatch(f"gradients disagree: {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom, initial=0.0))
