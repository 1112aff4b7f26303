"""Numeric helpers shared by the gradient tests."""

import numpy as np


def finite_diff(f, arrays, step=1e-4):
    """Central finite differences of a scalar function of float64 arrays."""
    grads = []
    for i, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = g.reshape(-1)
        for j in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[i].reshape(-1)[j] += step
            hi = f(bumped)
            bumped[i].reshape(-1)[j] -= 2 * step
            lo = f(bumped)
            flat[j] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return np.max(np.abs(a - b) / denom)
