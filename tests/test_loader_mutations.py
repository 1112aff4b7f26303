"""Loaders under corruption: every damaged container file is refused.

Each container kind, in version 3 as written today and in the version 1,
2 and 3 fixtures, is truncated at every offset, has each of its first 96 bytes
set to 0x00 and to 0xFF and its bit 0 and bit 7 flipped, and is extended
by 1, 8 and 4096 zero bytes. Every such file must end in a VfunctaError
from its loader: nothing loads, and nothing fails any other way.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from vfuncta.codec import (
    VideoEncoding,
    load_encoding,
    load_model,
    save_encoding,
)
from vfuncta.container import save_model
from vfuncta.errors import VfunctaError
from vfuncta.model import FrameModulationSeq, MetaModel, VideoModulation

FIXTURES = Path(__file__).parent / "fixtures"


def small_model(path):
    save_model(path, MetaModel.initialize(layers=2, hidden=8, video_dim=8, frame_dim=4,
                                          rng=np.random.default_rng(0)))


def small_encoding(path):
    rng = np.random.default_rng(1)
    save_encoding(path, VideoEncoding(
        VideoModulation(rng.standard_normal(8).astype(np.float32)),
        FrameModulationSeq(rng.standard_normal((3, 4)).astype(np.float32)),
        frames=3, height=4, width=5, fingerprint=0x0123456789ABCDEF, inner_steps=2,
        inner_lr=0.05))


def damage(path: Path, blob: bytes):
    """Yield a label for each damaged form of `blob`, which the file at
    `path` holds until the next label. The file is changed in place,
    because rewriting it costs more than ten loads."""
    with open(path, "r+b") as fh:
        fd = fh.fileno()
        for pos in range(min(96, len(blob))):
            old = blob[pos]
            for new in sorted({0x00, 0xFF, old ^ 0x01, old ^ 0x80} - {old}):
                os.pwrite(fd, bytes([new]), pos)
                yield f"byte {pos} {old:#04x} -> {new:#04x}"
            os.pwrite(fd, bytes([old]), pos)
        for extra in (1, 8, 4096):
            os.pwrite(fd, bytes(extra), len(blob))
            yield f"{extra} zero bytes appended"
            os.ftruncate(fd, len(blob))
        for end in reversed(range(len(blob))):
            os.ftruncate(fd, end)
            yield f"truncated at {end}"


@pytest.mark.parametrize("make, loader", [
    (small_model, load_model),
    (small_encoding, load_encoding),
    ("v3/model.vfnc", load_model),
    ("v3/clip.venc", load_encoding),
    ("v2/model.vfnc", load_model),
    ("v2/clip.venc", load_encoding),
    ("v1/model.vfnc", load_model),
    ("v1/clip.venc", load_encoding),
], ids=["v3-model", "v3-encoding", "v3-fixture-model", "v3-fixture-encoding", "v2-model",
        "v2-encoding", "v1-model", "v1-encoding"])
def test_every_damaged_file_is_refused(tmp_path, make, loader):
    path = tmp_path / "file"
    if isinstance(make, str):
        path.write_bytes((FIXTURES / make).read_bytes())
    else:
        make(path)
    loader(path)  # the undamaged file loads
    wrong = []
    for label in damage(path, path.read_bytes()):
        try:
            loader(path)
        except VfunctaError:
            continue
        except Exception as exc:
            wrong.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            wrong.append(f"{label}: loaded")
    assert wrong == []
