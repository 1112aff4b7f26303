"""The README's references hold: the files it names exist and the
configuration it trains with loads."""

import re
from pathlib import Path

from vfuncta.config import load_train_config

ROOT = Path(__file__).resolve().parent.parent


def test_readme_names_files_that_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\b(?:tests|perfbench|docs)/[\w/]+\.(?:py|cfg|md)", readme))
    assert "docs/desk.cfg" in named
    missing = sorted(rel for rel in named if not (ROOT / rel).is_file())
    assert not missing


def test_desk_config_loads(monkeypatch):
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    cfg = load_train_config(ROOT / "docs" / "desk.cfg")
    assert (cfg.layers, cfg.hidden, cfg.video_dim, cfg.frame_dim) == (4, 64, 64, 16)
    assert (cfg.batch_frames, cfg.coords_per_frame, cfg.seed) == (4, 256, 0)
