"""Independent decode oracle: a plain-numpy forward of the modulated sine stack.

For pixel (i, j) of frame t the network computes, layer by layer,
    h <- sin(omega0 * (h W_k + b_k + v P_k + phi_t Q_k))
starting from the normalized coordinate h = (x, y), then the linear output
h W_out + b_out, clamped to [0, 1]. The oracle evaluates this in float64
from the model's public parameter arrays, reads decoded videos with its own
`.rawvid` parser, and shares no code with the program's tensor engine.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# float32 decode against a float64 oracle: sin(30 * a) amplifies rounding
# of the pre-activation through ten layers to ~1e-5 at most
TOLERANCE = 1e-4


def read_rawvid(path) -> np.ndarray:
    """(T, h, w) float32 values of a `.rawvid` file."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"VRAW" or len(blob) < 16:
        raise ValueError(f"{path}: not a .rawvid file")
    t, h, w = struct.unpack("<III", blob[4:16])
    if len(blob) != 16 + 4 * t * h * w:
        raise ValueError(f"{path}: {len(blob)} bytes for extents {(t, h, w)}")
    return np.frombuffer(blob, dtype="<f4", offset=16).reshape(t, h, w)


def _axis(extent: int) -> np.ndarray:
    if extent == 1:
        return np.zeros(1)
    return 2.0 * np.arange(extent) / (extent - 1) - 1.0


def predict(model, v, phis, frame_idx, rows, cols, height, width) -> np.ndarray:
    """Oracle values at pixels (frame_idx[n], rows[n], cols[n]) in [0, 1]."""
    h = np.stack([_axis(width)[cols], _axis(height)[rows]], axis=1)
    v = np.asarray(v, dtype=np.float64)
    phis = np.asarray(phis, dtype=np.float64)
    for k in range(model.layers):
        w = model.layer_weights[k].data.astype(np.float64)
        b = model.layer_biases[k].data.astype(np.float64)
        p = model.video_projs[k].data.astype(np.float64)
        q = model.frame_projs[k].data.astype(np.float64)
        frame_shift = (phis @ q)[frame_idx]
        h = np.sin(model.omega0 * (h @ w + b + v @ p + frame_shift))
    out = h @ model.out_weight.data.astype(np.float64) + model.out_bias.data.astype(np.float64)
    return np.clip(out[:, 0], 0.0, 1.0)


def sample_pixels(shape, count: int, seed: int):
    """Seeded (frame, row, col) indices of `count` pixels of a (T, h, w) video."""
    t, h, w = shape
    flat = np.random.default_rng([seed, 29]).choice(t * h * w, size=count, replace=False)
    return np.unravel_index(flat, (t, h, w))


def check_decoded(model, v, phis, decoded: np.ndarray, count: int, seed: int) -> float:
    """Mean squared difference to the oracle over the sampled pixels the
    clamp leaves alone (clamped pixels match exactly and say nothing about
    the arithmetic).

    Raises ValueError when any sampled pixel differs by more than TOLERANCE
    or is not finite.
    """
    t, h, w = decoded.shape
    fi, ri, ci = sample_pixels(decoded.shape, min(count, decoded.size), seed)
    want = predict(model, v, phis, fi, ri, ci, h, w)
    diff = decoded[fi, ri, ci].astype(np.float64) - want
    err = float(np.max(np.abs(diff))) if np.isfinite(diff).all() else float("inf")
    if not err <= TOLERANCE:
        raise ValueError(f"decoded pixels differ from the oracle by {err:.3g} "
                         f"(tolerance {TOLERANCE:g})")
    inside = (want > 0.0) & (want < 1.0)
    return float(np.mean(diff[inside] ** 2)) if inside.any() else 0.0
