"""The benchmark's tracer and workloads still fit the program.

Traced benchmark runs wrap the public functions of `vfuncta.tensor`,
`vfuncta.model` and the other layer modules, patch
`MetaModel.replace_params`, and count the rows that reach
`model.forward_batch` through its `coords` argument. This runs a tiny
`vfuncta encode --report` and `vfuncta decode` under that tracer, and
every workload at toy scale, so a change that breaks either fails here
rather than in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from vfuncta.cli import main  # noqa: E402
from vfuncta.container import save_model  # noqa: E402
from vfuncta.data import VideoTensor, save_video  # noqa: E402
from vfuncta.model import MetaModel  # noqa: E402


def test_traced_encode_and_decode_count_forward_rows(tmp_path, capsys):
    model = MetaModel.initialize(layers=2, hidden=8, video_dim=8, frame_dim=4,
                                 rng=np.random.default_rng([1, 0]))
    save_model(tmp_path / "m.vfnc", model)
    frames = np.linspace(0.2, 0.8, 3 * 5 * 6, dtype=np.float32).reshape(3, 5, 6)
    save_video(tmp_path / "clip.rawvid", VideoTensor(frames))

    tracer = Tracer()
    tracer.install()
    try:
        encode_rc = main(["encode", "--model", str(tmp_path / "m.vfnc"),
                          "--out", str(tmp_path / "enc"), "--batch-frames", "2",
                          "--inner-steps", "2", "--report", str(tmp_path / "clip.rawvid")])
        decode_rc = main(["decode", "--model", str(tmp_path / "m.vfnc"),
                          "--out", str(tmp_path / "dec"), str(tmp_path / "enc" / "clip.venc")])
    finally:
        tracer.uninstall()

    assert (encode_rc, decode_rc) == (0, 0), capsys.readouterr().err
    rows = tracer.summary()["model.forward_batch"]
    # encode --report decodes the 3 frames in one pass, then the zero-latent
    # frame and the static summary in one each, and decode decodes the
    # frames again; a call counts its 30 pixels, which all its frames share
    assert rows["calls"] == 4 and rows["count"] == 4 * 30


# the benchmark's network shrunk to toy size; every other input stays as it is
TOY_DIMS = {"layers": 2, "hidden": 8, "video_dim": 8, "frame_dim": 4, "omega0": 30.0}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_at_toy_scale(tmp_path, monkeypatch, capsys, name):
    """Each workload's setups and measure, as a one-second benchmark run
    takes them, with no failed command or check: so every program name
    the benchmark uses (the `cli.train` and `codec.load_model` captures,
    `--jobs`, the encoding and modulation types, `Tensor.data` and the
    training-log columns) still fits it."""
    monkeypatch.setattr(workloads, "PAPER_DIMS", TOY_DIMS)
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    workload = workloads.WORKLOADS[name]
    setups = []
    for k in range(workload.setups):
        (tmp_path / f"setup{k}").mkdir()
        setups.append(workload.setup(tmp_path / f"setup{k}", 1, 1))
    (tmp_path / "out").mkdir()
    ledger = workloads.Ledger()
    result = workload.measure(setups, tmp_path / "out", ledger)
    assert ledger.attempted >= 1 and ledger.failed == 0, capsys.readouterr().err
    assert {"command_s", "frames_per_s", "quality_db"} <= set(result)
