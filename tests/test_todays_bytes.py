"""Today's bytes: a toy train, encode and decode write the same files as
the commit that recorded them.

The decode fixtures pin the forward pass only; this pins the backward
too, through every inner step and outer update of a short training run
and through an encode of two windows, the first adapting the video
vector and the second keeping it. Each frame holds 576 pixels, so at the
default `TILE_ROWS` every gradient tile is one of two pixel runs of 288,
and the frame sums and weight products carry from one run into the next.

The constants were recorded at commit 060176a, from a `git archive`
copy of it. Like the fixture decodes, they hold under the numpy and
BLAS that CI pins (`.github/workflows/tests.yml`), and under one BLAS
thread or two. A change that moves these bytes on purpose re-records
them and says why.

`ENCODING_SHA256` and `DECODED_SHA256` were re-recorded when encoding
took two-point inner steps: each window's second and third steps move
the latents at a rate taken from the last two evaluations, not at
`inner_lr`. Training still takes plain steps, so `MODEL_SHA256` is
060176a's.
"""

import hashlib

import numpy as np

from vfuncta.codec import EncodeSettings, decode_video, encode_video, save_encoding
from vfuncta.container import save_model
from vfuncta.data import SynthSpec, gen_synthetic, save_video
from vfuncta.training import TrainConfig, train

MODEL_SHA256 = "ae4545ed33a537f0"
ENCODING_SHA256 = "4c4bc6ff28798fca"
DECODED_SHA256 = "0996d6a78e450a8f"


def sha256_prefix(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_train_encode_and_decode_write_todays_bytes(tmp_path):
    videos = [gen_synthetic(SynthSpec(frames=5, height=24, width=24, background_seed=i),
                            np.random.default_rng(i))[0] for i in range(2)]
    cfg = TrainConfig(batch_frames=4, coords_per_frame=576, layers=2, hidden=16, video_dim=8,
                      frame_dim=4, inner_steps=2, inner_lr=0.1, meta_lr=1e-3, iterations=3)
    model, _ = train(videos, cfg)
    save_model(tmp_path / "model.vfnc", model)
    enc = encode_video(model, videos[0], EncodeSettings(3, 3, 0.1))
    save_encoding(tmp_path / "clip.venc", enc)
    save_video(tmp_path / "clip.rawvid", decode_video(model, enc))
    assert [sha256_prefix(tmp_path / name) for name in ("model.vfnc", "clip.venc", "clip.rawvid")] \
        == [MODEL_SHA256, ENCODING_SHA256, DECODED_SHA256]
