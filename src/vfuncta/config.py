"""Plain key=value configuration files.

One `key = value` pair per line; blank lines and `#` comments are
ignored. Unknown keys and unparsable values are reported with their line
number. The training schema requires `batch_frames` and
`coords_per_frame` explicitly since no sensible defaults exist for them;
everything else falls back to the reference defaults.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ConfigError
from .training import TrainConfig

SEED_ENV_VAR = "VFUNCTA_SEED"


def env_seed(default: int | None = None) -> int | None:
    """The seed set by the VFUNCTA_SEED environment variable, else `default`."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def parse_kv_file(path) -> dict[str, tuple[int, str]]:
    """Read key=value lines; returns {key: (line_number, raw_value)}."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {entries[key][0]})")
        entries[key] = (lineno, value)
    return entries


def _apply_schema(entries, schema, path) -> dict:
    out = {}
    for key, (lineno, value) in entries.items():
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        caster = schema[key]
        try:
            out[key] = caster(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


TRAIN_SCHEMA = {
    "batch_frames": int,
    "coords_per_frame": int,
    "layers": int,
    "hidden": int,
    "video_dim": int,
    "frame_dim": int,
    "inner_steps": int,
    "inner_lr": float,
    "meta_lr": float,
    "iterations": int,
    "omega0": float,
    "seed": int,
    "precision": str,
}

TRAIN_REQUIRED = ("batch_frames", "coords_per_frame")


def load_train_config(path, overrides: dict | None = None) -> TrainConfig:
    """Build a TrainConfig from a file plus optional programmatic overrides;
    the VFUNCTA_SEED environment variable wins over both."""
    entries = parse_kv_file(path)
    values = _apply_schema(entries, TRAIN_SCHEMA, path)
    if overrides:
        for key, value in overrides.items():
            if key not in TRAIN_SCHEMA:
                raise ConfigError(f"unknown override key {key!r}")
            values[key] = value
    for key in TRAIN_REQUIRED:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    seed = env_seed()
    if seed is not None:
        values["seed"] = seed
    try:
        return TrainConfig(**values)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


CORPUS_SCHEMA = {
    "family": str,
    "frames": int,
    "height": int,
    "width": int,
    "amplitude": float,
    "blob_sigma": float,
    "speed_min": float,
    "speed_max": float,
    "trajectories": str,  # comma-separated subset of line,circle
}

CORPUS_DEFAULTS = {
    "family": "blob",
    "frames": 8,
    "height": 32,
    "width": 32,
    "amplitude": 0.35,
    "blob_sigma": 3.0,
    "speed_min": 0.5,
    "speed_max": 3.0,
    "trajectories": "line,circle",
}


def load_corpus_options(path=None) -> dict:
    values = dict(CORPUS_DEFAULTS)
    if path is not None:
        entries = parse_kv_file(path)
        values.update(_apply_schema(entries, CORPUS_SCHEMA, path))
    trajectories = tuple(t.strip() for t in values["trajectories"].split(",") if t.strip())
    if not trajectories or any(t not in ("line", "circle") for t in trajectories):
        raise ConfigError(f"trajectories must be a subset of line,circle, got "
                          f"{values['trajectories']!r}")
    values["trajectories"] = trajectories
    if values["speed_min"] > values["speed_max"]:
        raise ConfigError("speed_min must not exceed speed_max")
    return values


HEAD_SCHEMA = {
    "mode": str,
    "task": str,
    "hidden1": int,
    "hidden2": int,
    "dropout": float,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "seed": int,
}


def load_head_options(path=None) -> dict:
    """Raw head options; mode/task/seed are typically set per run."""
    if path is None:
        return {}
    entries = parse_kv_file(path)
    return _apply_schema(entries, HEAD_SCHEMA, path)
