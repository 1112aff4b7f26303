"""Run manifests: enough recorded state to reproduce any command.

Every command but `gradcheck` (and `eval` without `--out`) writes one
JSON manifest holding the resolved configuration, seeds, input and
output paths, and one content hash per input and artifact as 16 hex
digits: SHA-256 cut to 64 bits (`container.sha256_64`), which the
manifest's `hash` key names. One hash holds throughout. A version 3 container file the command read or
wrote is entered by its checksum, which covers everything in the file
but its magic, version and the checksum itself, and which the read
verified or the write computed (see `container`), so the file is not
read again. The training log `train` writes is entered by the hash its
write returns, over the log's deterministic columns only (iteration and
loss; timestamps and wall-clock timings are left out), so two runs with
the same seed produce identical artifact hash maps. Every other file is
hashed whole, as it is, whatever its name: version 1 and 2 containers
among them, since their checksums are another hash. A PGM-directory
video is entered by one hash over the frame files the loader reads
(`data.pgm_frames`), each as the u64 lengths of its name and its bytes,
then the name and the bytes, so renaming, adding or changing a frame
changes the entry.

A per-item command (encode, decode, summary) enters every input and the
output of each item that succeeded, never a file only because it
exists.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import struct
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .container import atomic_write_bytes, sha256_64
from .data import pgm_frames

HASH_NAME = "sha256-64"

# bytes per read when a file is hashed, so that no file is held whole
HASH_CHUNK = 1 << 18


def hash_file(path) -> str:
    """Content hash of a file's bytes as 16 hex digits."""
    with Path(path).open("rb") as fh:
        return f"{sha256_64(iter(partial(fh.read, HASH_CHUNK), b'')):016x}"


def hash_frames(path) -> str:
    """Content hash of a PGM directory's frame files, names and bytes."""
    def chunks():
        for frame in pgm_frames(path):
            name, body = os.fsencode(frame.name), frame.read_bytes()
            yield struct.pack("<QQ", len(name), len(body))
            yield name
            yield body
    return f"{sha256_64(chunks()):016x}"


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

    def add_input(self, path, digest: int | None = None) -> None:
        """Enter an input by its hash: `digest` when the caller holds the
        verified checksum of the container it read, else the file's or
        the PGM directory's, or "-" for a path that does not exist."""
        path = Path(path)
        if digest is not None:
            self.inputs[str(path)] = f"{digest:016x}"
        elif path.is_file():
            self.inputs[str(path)] = hash_file(path)
        elif path.is_dir():
            self.inputs[str(path)] = hash_frames(path)
        else:
            self.inputs[str(path)] = "-"

    def add_artifact(self, path, base: Path | None = None, digest: int | None = None) -> None:
        """Enter an artifact by its hash: `digest` when the caller holds
        the one its write returned, else the file's."""
        path = Path(path)
        key = str(path.relative_to(base)) if base is not None else path.name
        self.artifacts[key] = (f"{digest:016x}" if digest is not None
                               else hash_file(path))

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
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(path, text.encode("utf-8"))
