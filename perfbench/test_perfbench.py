"""Checks of the benchmark's own parts.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import report  # noqa: E402


def _decoded_case():
    from vfuncta.codec import VideoEncoding, decode_video, model_fingerprint
    from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation

    model = MetaModel.initialize(layers=3, hidden=16, video_dim=8, frame_dim=4,
                                 rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8).astype(np.float32)
    phis = rng.standard_normal((3, 4)).astype(np.float32)
    enc = VideoEncoding(VideoModulation(v), FrameModulationSeq(phis), frames=3,
                        height=5, width=7, fingerprint=model_fingerprint(model),
                        inner_steps=1, inner_lr=0.1)
    return model, v, phis, decode_video(model, enc)


def test_oracle_agrees_with_decode_on_every_pixel():
    model, v, phis, video = _decoded_case()
    mse = oracle.check_decoded(model, v, phis, video.values, video.values.size, seed=0)
    assert mse < oracle.TOLERANCE**2


def test_corrupted_decoded_pixel_is_caught(tmp_path):
    from vfuncta.data import save_video

    model, v, phis, video = _decoded_case()
    path = tmp_path / "clip.rawvid"
    save_video(path, video)
    fi, ri, ci = oracle.sample_pixels(video.dims, 16, seed=5)
    _, h, w = video.dims
    offset = 16 + 4 * int((fi[0] * h + ri[0]) * w + ci[0])
    blob = bytearray(path.read_bytes())
    pixel = np.frombuffer(bytes(blob[offset:offset + 4]), dtype="<f4")[0]
    blob[offset:offset + 4] = np.float32(pixel + 1e-3).astype("<f4").tobytes()
    path.write_bytes(bytes(blob))

    with pytest.raises(ValueError, match="differ from the oracle"):
        oracle.check_decoded(model, v, phis, oracle.read_rawvid(path), 16, seed=5)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
