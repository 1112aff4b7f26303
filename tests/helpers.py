"""Helpers shared by the tests: finite differences for the gradient
tests and a recorder of what the container hashes."""

import hashlib

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


class Hashers:
    """`hashlib.sha256` and `hashlib.blake2b` wrapped through
    `monkeypatch`: every byte each hasher is fed, by hash name."""

    def __init__(self, monkeypatch):
        self.fed: list[tuple[str, list[bytes]]] = []
        for name in ("sha256", "blake2b"):
            monkeypatch.setattr(hashlib, name, self._recording(name, getattr(hashlib, name)))

    def _recording(self, name, real):
        recording = self

        class Hasher:
            def __init__(self, data=b"", **kwargs):
                self._hasher = real(**kwargs)
                self.fed = []
                recording.fed.append((name, self.fed))
                self.update(data)

            def update(self, data):
                self.fed.append(bytes(memoryview(data).cast("B")))
                self._hasher.update(data)

            def digest(self):
                return self._hasher.digest()

        return Hasher

    def passes_over(self, payload: bytes) -> list[str]:
        """The hash of each hasher that was fed `payload` whole, in order."""
        return [name for name, fed in self.fed for _ in range(b"".join(fed).count(payload))]
