"""Plain key=value configuration files.

One `key = value` pair per line; blank lines and `#` comments are
ignored. Unknown keys and unparsable values are reported with their line
number. A training or head config's keys are its settings type's
fields: `TrainConfig`'s `batch_frames` and `coords_per_frame` have no
default and must be set, everything else falls back to the reference
defaults. `--set KEY=VALUE` overrides take the same path, numbered in
command-line order.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from pathlib import Path

from .data import TRAJECTORIES, SynthSpec
from .errors import ConfigError, ContractError

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


def _apply_schema(entries, schema, source, places) -> dict:
    """The entries cast by `schema`; each key's place, `source:line`, goes to `places`."""
    out = {}
    for key, (lineno, value) in entries.items():
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        places[key] = f"{source}:{lineno}"
        caster = schema[key]
        try:
            out[key] = caster(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def _schema(cls, given=()) -> dict:
    """Each field of `cls` but the `given` ones is a key, cast by its
    annotated type."""
    types = typing.get_type_hints(cls)
    return {f.name: types[f.name] for f in dataclasses.fields(cls) if f.name not in given}


def load_config(cls, path, overrides=(), **given):
    """Build the settings type `cls` from the key file at `path` (None:
    no file) plus `KEY=VALUE` override strings, which win over the file;
    the VFUNCTA_SEED environment variable wins over both. The `given`
    fields are not keys, and a field without a default is a required key.
    A refused value names the place that set it: the file's line, the
    `--set` number, or VFUNCTA_SEED; any other, the file."""
    schema = _schema(cls, given)
    values, places = dict(given), {}
    for source, entries in ((path, {} if path is None else parse_kv_file(path)),
                            ("--set", _parse_kv_lines(overrides, "--set"))):
        values.update(_apply_schema(entries, schema, source, places))
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.name not in values:
            raise ConfigError(f"{path}: missing required key {f.name!r}")
    seed = env_seed()
    if seed is not None:
        values["seed"], places["seed"] = seed, SEED_ENV_VAR
    return _build(cls, values, places, path)


def _build(cls, values: dict, places: dict, source, names=None):
    """`cls(**values)`, a refused value named by the place that `places`
    gives for its key, else by `source`. A field that `names` maps to
    the key that set it is placed by that key, and the refusal ends by
    naming it."""
    try:
        return cls(**values)
    except ContractError as exc:
        # each of the settings types' refusals begins with its key's name
        key = str(exc).partition(" ")[0]
        name = (names or {}).get(key)
        raise ConfigError(f"{places.get(name or key, source)}: {exc}"
                          + (f" ({name})" if name else "")) from exc


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
    file and its line; a refused speed, the key and line of the end of
    the range it was tried at."""
    values, places = dict(CORPUS_DEFAULTS), {}
    if path is not None:
        values.update(_apply_schema(parse_kv_file(path), CORPUS_SCHEMA, path, places))
    trajectories = tuple(t.strip() for t in values["trajectories"].split(",") if t.strip())
    if not trajectories or any(t not in TRAJECTORIES for t in trajectories):
        raise ConfigError(f"{places.get('trajectories', path)}: trajectories must be a subset "
                          f"of {CORPUS_DEFAULTS['trajectories']}, got {values['trajectories']!r}")
    if not values["speed_min"] <= values["speed_max"]:
        raise ConfigError(f"{path}: need speed_min <= speed_max, got "
                          f"{values['speed_min']} and {values['speed_max']}")
    video = {k: values[k] for k in _VIDEO_KEYS}
    for key in ("speed_min", "speed_max"):
        _build(SynthSpec, dict(video, speed=values[key], trajectory=trajectories[0]),
               places, path, names={"speed": key})
    values["trajectories"] = trajectories
    return values
