"""The README's references hold: the files it names exist, the
configuration it trains with loads, its configuration tables match
`TrainConfig` and the corpus defaults, its pipeline commands parse,
every flag it writes after a subcommand is one that subcommand takes,
every option of every subcommand is named in it, and the manifest hash,
container version, tile rows, block floor, penalty grid and fold count
it states are the ones the code uses."""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from vfuncta import container, heads, manifest, model, parallel
from vfuncta.cli import _build_parser
from vfuncta.config import CORPUS_DEFAULTS, load_config
from vfuncta.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def test_readme_names_files_that_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\b(?:tests|perfbench|docs)/[\w/]+\.(?:py|cfg|md)", readme))
    assert "docs/desk.cfg" in named
    missing = sorted(rel for rel in named if not (ROOT / rel).is_file())
    assert not missing


def test_readme_layout_has_one_row_per_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `vfuncta\.(\w+)` \|", table, flags=re.MULTILINE)
    modules = [path.stem for path in (ROOT / "src" / "vfuncta").glob("*.py")
               if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_desk_config_loads(monkeypatch):
    monkeypatch.delenv("VFUNCTA_SEED", raising=False)
    cfg = load_config(TrainConfig, ROOT / "docs" / "desk.cfg")
    assert (cfg.layers, cfg.hidden, cfg.video_dim, cfg.frame_dim) == (4, 64, 64, 16)
    assert (cfg.batch_frames, cfg.coords_per_frame, cfg.seed) == (4, 256, 0)


def config_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Configuration files", 1)[1].split("\n## ", 1)[0]


def table_rows(text: str) -> list[tuple[str, str]]:
    """(key, default) of each row of the first key table in `text`."""
    table = text.split("| key | meaning | default |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+?) \|$", table, flags=re.MULTILINE)


def test_readme_config_table_matches_train_config():
    rows = table_rows(config_section())
    fields = dataclasses.fields(TrainConfig)
    assert [key for key, _ in rows] == [f.name for f in fields]
    for (key, default), field in zip(rows, fields):
        if field.default is dataclasses.MISSING:
            assert default == "required", key
        else:
            assert type(field.default)(default) == field.default, key


def test_readme_corpus_table_matches_the_corpus_defaults():
    rows = table_rows(config_section().split("gen-corpus --spec", 1)[1])
    assert dict(rows) == {key: str(value) for key, value in CORPUS_DEFAULTS.items()}
    assert [key for key, _ in rows] == list(CORPUS_DEFAULTS)


def test_readme_pipeline_commands_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command-line pipeline", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("vfuncta ")]
    assert [argv[1] for argv in commands] == [
        "gen-corpus", "train", "encode", "decode", "summary", "eval", "gradcheck"]
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def stale_flags(text: str) -> list[str]:
    """Each `--flag` written inside an inline `<subcommand> ...` span of
    `text` (with or without a leading `vfuncta`) that the subcommand's
    parser does not take, as "<subcommand> --flag"."""
    [subparsers] = [a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    stale = []
    for span in re.findall(r"`([^`]+)`", text):
        words = span.split()
        if words[:1] == ["vfuncta"]:
            words = words[1:]
        if not words or words[0] not in subparsers.choices:
            continue
        options = {s for a in subparsers.choices[words[0]]._actions for s in a.option_strings}
        flags = [w.split("=", 1)[0] for w in words[1:] if w.startswith("--")]
        stale += [f"{words[0]} {flag}" for flag in flags if flag not in options]
    return stale


def test_readme_flags_are_their_subcommands_options():
    assert stale_flags("Run `decode --report` or `vfuncta train --epochs=3`, "
                       "not `encode --report`.") == ["decode --report", "train --epochs"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "`decode --originals DIR`" in readme
    assert stale_flags(readme) == []


def test_readme_names_every_option_of_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [subparsers] = [a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    options = [(command, option) for command, parser in subparsers.choices.items()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"]
    assert ("gen-corpus", "--split") in options
    missing = [f"{command} {option}" for command, option in options
               if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)]
    assert missing == []


def test_readme_states_the_written_hash_and_container_version():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    hashes = re.findall(r'"hash": "([^"]+)"', readme)
    assert hashes and set(hashes) == {manifest.HASH_NAME}
    framed = re.findall(r"`u32` version \((\d+)\)", readme)
    written = re.findall(r"written as version (\d+)", readme)
    assert framed and written
    assert {int(v) for v in framed + written} == {container.VERSION}


def test_readme_tile_rows_and_block_floor_are_the_codes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"at most (\d+) rows", readme) == [str(model.TILE_ROWS)]
    exponent = parallel.BLOCK_FLOOR.bit_length() - 1
    assert 2**exponent == parallel.BLOCK_FLOOR
    assert re.findall(r"2\^(\d+) activation elements", readme) == [str(exponent)]


def test_readme_penalty_grid_and_folds_are_the_heads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [(count, low, high)] = re.findall(r"grid\s+of (\d+) values from 10\^(-?\d+) to 10\^(-?\d+)",
                                      readme)
    finite = heads.PENALTIES[:-1]
    assert np.isfinite(finite).all() and int(count) == len(finite)
    assert finite[0] == pytest.approx(10.0 ** int(low), rel=1e-12)
    assert finite[-1] == pytest.approx(10.0 ** int(high), rel=1e-12)
    assert heads.PENALTIES[-1] == np.inf
    assert re.search(r"and ∞, the\s+intercept-only probe", readme)
    assert re.findall(r"(\d+)-fold cross-validation", readme) == [str(heads.FOLDS)]
