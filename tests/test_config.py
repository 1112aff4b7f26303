"""Corpus and head configuration files resolve to one value per setting."""

import pytest

from vfuncta.config import load_config, load_corpus_options
from vfuncta.errors import ConfigError
from vfuncta.heads import HeadConfig


def test_corpus_defaults_are_the_generator_defaults():
    assert load_corpus_options(None) == {
        "family": "blob", "frames": 8, "height": 32, "width": 32, "amplitude": 0.35,
        "blob_sigma": 3.0, "speed_min": 0.5, "speed_max": 3.0,
        "trajectories": ("line", "circle")}


def test_corpus_trajectories_outside_the_generator_are_refused(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("trajectories = line,spiral\n")
    with pytest.raises(ConfigError, match="subset of line,circle, got 'line,spiral'"):
        load_corpus_options(spec)


def test_head_config_without_a_file_is_the_defaults(monkeypatch):
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    cfg = load_config(HeadConfig, None, task="binary")
    assert cfg == HeadConfig(task="binary")


def test_head_config_sets_the_seed(tmp_path, monkeypatch):
    path = tmp_path / "head.cfg"
    path.write_text("seed = 5\n")
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    assert load_config(HeadConfig, path, task="regression") == HeadConfig("regression", 5)


@pytest.mark.parametrize("key", ["task", "hidden"])
def test_head_config_refuses_the_settings_it_does_not_own(tmp_path, key):
    path = tmp_path / "head.cfg"
    path.write_text(f"seed = 2\n{key} = regression\n")
    with pytest.raises(ConfigError, match=f"head.cfg:2: unknown key '{key}'"):
        load_config(HeadConfig, path, task="regression")
