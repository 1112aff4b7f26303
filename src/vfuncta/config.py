"""Plain key=value configuration files.

One `key = value` pair per line; blank lines and `#` comments are
ignored. Unknown keys and unparsable values are reported with their line
number. The training schema is `TrainConfig`'s fields: `batch_frames`
and `coords_per_frame` have no default and must be set, everything else
falls back to the reference defaults. `--set KEY=VALUE` overrides take
the same path, numbered in command-line order.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from pathlib import Path

from .data import TRAJECTORIES, SynthSpec
from .errors import ConfigError, ContractError
from .heads import HeadConfig
from .training import TrainConfig

SEED_ENV_VAR = "VFUNCTA_SEED"


def env_seed(default: int | None = None) -> int | None:
    """The seed set by the VFUNCTA_SEED environment variable, else `default`.
    Seeds are non-negative, as numpy's generators take them."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise ConfigError(f"{SEED_ENV_VAR} must be >= 0, got {raw!r}")
    return seed


def parse_kv_file(path) -> dict[str, tuple[int, str]]:
    """Read key=value lines; returns {key: (line_number, raw_value)}."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _parse_kv_lines(text.splitlines(), path)


def _parse_kv_lines(lines, source) -> dict[str, tuple[int, str]]:
    """Parse key=value lines from `source`, a file or the command line;
    returns {key: (line_number, raw_value)}."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {entries[key][0]})")
        entries[key] = (lineno, value)
    return entries


def _apply_schema(entries, schema, source) -> dict:
    out = {}
    for key, (lineno, value) in entries.items():
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        caster = schema[key]
        try:
            out[key] = caster(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


# every TrainConfig field is a key, cast by its annotated type; the fields
# without a default are the required keys
_TRAIN_TYPES = typing.get_type_hints(TrainConfig)
TRAIN_SCHEMA = {f.name: _TRAIN_TYPES[f.name] for f in dataclasses.fields(TrainConfig)}
TRAIN_REQUIRED = tuple(f.name for f in dataclasses.fields(TrainConfig)
                       if f.default is dataclasses.MISSING)


def load_train_config(path, overrides=()) -> TrainConfig:
    """Build a TrainConfig from a file plus `KEY=VALUE` override strings,
    which win over the file; the VFUNCTA_SEED environment variable wins
    over both. A refused value names the place that set it: the file's
    line, the `--set` number, or VFUNCTA_SEED; a default, the file."""
    entries = parse_kv_file(path)
    values = _apply_schema(entries, TRAIN_SCHEMA, path)
    sets = _parse_kv_lines(overrides, "--set")
    values.update(_apply_schema(sets, TRAIN_SCHEMA, "--set"))
    places = {key: f"{path}:{lineno}" for key, (lineno, _) in entries.items()}
    places.update((key, f"--set:{n}") for key, (n, _) in sets.items())
    for key in TRAIN_REQUIRED:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    seed = env_seed()
    if seed is not None:
        values["seed"], places["seed"] = seed, SEED_ENV_VAR
    try:
        return TrainConfig(**values)
    except ContractError as exc:
        # each of TrainConfig's refusals begins with its key's name
        key = str(exc).partition(" ")[0]
        raise ConfigError(f"{places.get(key, path)}: {exc}") from exc


# the video keys default as `SynthSpec` does; `trajectories` is a
# comma-separated subset of the generator's trajectories
_VIDEO_KEYS = ("family", "frames", "height", "width", "amplitude", "blob_sigma")
CORPUS_DEFAULTS = {
    **{f.name: f.default for f in dataclasses.fields(SynthSpec) if f.name in _VIDEO_KEYS},
    "speed_min": 0.5,
    "speed_max": 3.0,
    "trajectories": ",".join(TRAJECTORIES),
}
# every corpus key is cast by the type of its default
CORPUS_SCHEMA = {key: type(value) for key, value in CORPUS_DEFAULTS.items()}


def load_corpus_options(path=None) -> dict:
    """The corpus options of a spec file, or the defaults when `path` is
    None, checked before anything is written. Every drawn speed lies in
    [speed_min, speed_max], so the generator's own checks of a video at
    each end of that range check every video. A refused value names the
    file."""
    values = dict(CORPUS_DEFAULTS)
    if path is not None:
        values.update(_apply_schema(parse_kv_file(path), CORPUS_SCHEMA, path))
    trajectories = tuple(t.strip() for t in values["trajectories"].split(",") if t.strip())
    if not trajectories or any(t not in TRAJECTORIES for t in trajectories):
        raise ConfigError(f"{path}: trajectories must be a subset of "
                          f"{CORPUS_DEFAULTS['trajectories']}, got {values['trajectories']!r}")
    if not values["speed_min"] <= values["speed_max"]:
        raise ConfigError(f"{path}: need speed_min <= speed_max, got "
                          f"{values['speed_min']} and {values['speed_max']}")
    for key in ("speed_min", "speed_max"):
        try:
            SynthSpec(**{k: values[k] for k in _VIDEO_KEYS}, speed=values[key],
                      trajectory=trajectories[0])
        except ContractError as exc:
            raise ConfigError(f"{path}: the video at {key} = {values[key]}: {exc}") from exc
    values["trajectories"] = trajectories
    return values


# `HeadConfig`'s fields but `task`, which comes from the command line, with
# `hidden` set as its two widths; each is cast by the type of its default
HEAD_SCHEMA = {"hidden1": int, "hidden2": int,
               **{f.name: type(f.default) for f in dataclasses.fields(HeadConfig)
                  if f.name not in ("task", "hidden")}}


def load_head_config(path, *, task: str) -> HeadConfig:
    """The HeadConfig of a head config file, or of the defaults when
    `path` is None, for `task`; the VFUNCTA_SEED environment variable
    wins over its `seed`. A refused value names the file."""
    values = {} if path is None else _apply_schema(parse_kv_file(path), HEAD_SCHEMA, path)
    hidden = HeadConfig.hidden
    values["hidden"] = (values.pop("hidden1", hidden[0]), values.pop("hidden2", hidden[1]))
    values["seed"] = env_seed(values.get("seed", HeadConfig.seed))
    try:
        return HeadConfig(task=task, **values)
    except ContractError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
