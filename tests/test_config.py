"""Corpus spec files resolve to one value per setting."""

import pytest

from vfuncta.config import load_corpus_options
from vfuncta.errors import ConfigError


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
