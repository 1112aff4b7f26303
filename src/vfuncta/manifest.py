"""Run manifests: enough recorded state to reproduce any command.

Every command writes one JSON manifest holding the resolved
configuration, seeds, input and output paths, and a content hash per
artifact: 64-bit BLAKE2b as 16 hex digits, named by the manifest's
`hash` key. Hashes of training logs are computed over their deterministic
columns only (timestamps and wall-clock timings are stripped), so two
runs with the same seed produce identical artifact hash maps.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field
from pathlib import Path

from .container import blake2b64

HASH_NAME = "blake2b-64"


def hash_file(path) -> str:
    """Content hash as 16 hex digits; log files are canonicalized first."""
    path = Path(path)
    if path.suffix == ".log":
        return f"{blake2b64(_canonical_log_bytes(path)):016x}"
    return f"{blake2b64(path.read_bytes()):016x}"


def _canonical_log_bytes(path: Path) -> bytes:
    kept = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        cols = line.split("\t")
        # columns: iteration, loss, timestamp, seconds, val_psnr
        deterministic = [cols[0], cols[1]] + cols[4:]
        kept.append("\t".join(deterministic))
    return "\n".join(kept).encode("utf-8")


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seed: int | None = None
    inputs: dict[str, str] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    started: str = field(default_factory=_now)
    finished: str = ""

    def add_input(self, path) -> None:
        path = Path(path)
        if path.is_file():
            self.inputs[str(path)] = hash_file(path)
        else:
            self.inputs[str(path)] = "-"

    def add_artifact(self, path, base: Path | None = None) -> None:
        path = Path(path)
        key = str(path.relative_to(base)) if base is not None else path.name
        self.artifacts[key] = hash_file(path)

    def write(self, path) -> None:
        self.finished = _now()
        payload = {
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "seed": self.seed,
            "inputs": self.inputs,
            "artifacts": dict(sorted(self.artifacts.items())),
            "started": self.started,
            "finished": self.finished,
            "hash": HASH_NAME,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
