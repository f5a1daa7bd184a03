"""Run manifests: config digests, replication seeds, output inventories."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping

from .config import ScenarioConfig
from .errors import OutputError

ARTIFACT_VERSION = "0.1.0"


def config_digest(config: ScenarioConfig) -> str:
    """Digest of the canonical (key-sorted) JSON form of a configuration."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 16), b""):
                digest.update(block)
    except OSError as exc:
        raise OutputError(f"cannot read output file {path}: {exc}") from exc
    return digest.hexdigest()


def prepare_out_dir(out_dir: str | Path) -> Path:
    """Create ``out_dir`` if it is missing and check that it takes outputs.

    Every run calls this before it computes anything, so an unwritable
    path fails at once; the writers then only write.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if not os.access(out_dir, os.W_OK | os.X_OK):
            raise PermissionError("permission denied")
    except OSError as exc:
        raise OutputError(f"cannot write {out_dir}: {exc}") from exc
    return out_dir


def write_output(path: Path, data: bytes) -> str:
    """Write ``data`` over ``path`` in place; return its SHA-256.

    An existing file is overwritten from offset 0 and then cut to
    ``len(data)``, so it ends up holding exactly ``data``. Opening with
    ``O_TRUNC`` instead costs several times as much on filesystems that
    discard freed blocks, and every re-run into the same directory pays
    it once per file. The directory must exist (``prepare_out_dir``).
    The digest is taken from the bytes in hand, so a manifest never has
    to read back what a run has just written.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _render_json(value, pieces: list[str], newline: str) -> None:
    """Append the JSON text of ``value`` to ``pieces``, indented by two spaces.

    ``newline`` is a line break followed by the indent of the line that
    ``value`` starts on. Every scalar is spelled as ``json`` spells it:
    strings through its C escaper, floats and ints by their base type's
    ``repr``, NaN and the infinities as ``NaN``, ``Infinity`` and
    ``-Infinity``. Floats, the most common values, are tested first.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        pieces.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif value is None:
        pieces.append("null")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            pieces.append(separator)
            pieces.append(encode_basestring_ascii(key))
            pieces.append(": ")
            _render_json(item, pieces, inner)
            separator = "," + inner
        pieces.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            pieces.append(separator)
            _render_json(item, pieces, inner)
            separator = "," + inner
        pieces.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path: Path, payload) -> str:
    """Write ``payload`` as key-sorted JSON indented by two spaces, plus a newline;
    return its SHA-256.

    The bytes are those of ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``,
    which Python renders with its pure-Python encoder whenever it indents.
    This renderer appends every piece to one list and joins once. It takes
    str, int, float, bool, None, dict with str keys, list and tuple; any
    other type, or a key that is not a str, raises ``TypeError``.
    """
    pieces: list[str] = []
    _render_json(payload, pieces, "\n")
    pieces.append("\n")
    return write_output(path, "".join(pieces).encode())


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    master_seed: int
    artifact_version: str = ARTIFACT_VERSION
    seeds: Mapping[str, int] = field(default_factory=dict)
    outputs: Mapping[str, str] = field(default_factory=dict)  # filename -> sha256


def write_manifest(
    path: str | Path,
    config: ScenarioConfig,
    seeds: Mapping[str, int],
    outputs: Mapping[str, str],
) -> RunManifest:
    """Write the manifest JSON next to the outputs it inventories.

    ``outputs`` maps each output's file name to the SHA-256 its writer returned.
    """
    manifest = RunManifest(
        config_digest=config_digest(config),
        master_seed=config.master_seed,
        seeds=dict(seeds),
        outputs=dict(outputs),
    )
    write_json(Path(path), vars(manifest))  # the fields, whose values are all plain
    return manifest


def load_manifest(path: str | Path) -> RunManifest:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise OutputError(f"cannot read manifest {path}: {exc}") from exc
    return RunManifest(
        config_digest=raw["config_digest"],
        master_seed=raw["master_seed"],
        artifact_version=raw.get("artifact_version", "unknown"),
        seeds=raw.get("seeds", {}),
        outputs=raw.get("outputs", {}),
    )


def verify_manifest(
    manifest: RunManifest, config: ScenarioConfig, out_dir: str | Path
) -> list[str]:
    """Return every discrepancy between a manifest, a config, and a directory."""
    problems: list[str] = []
    actual_digest = config_digest(config)
    if actual_digest != manifest.config_digest:
        problems.append(
            f"config digest mismatch: manifest has {manifest.config_digest[:12]}..., "
            f"config hashes to {actual_digest[:12]}..."
        )
    if config.master_seed != manifest.master_seed:
        problems.append(
            f"master seed mismatch: manifest {manifest.master_seed}, config {config.master_seed}"
        )
    out_dir = Path(out_dir)
    for name, digest in manifest.outputs.items():
        target = out_dir / name
        if not target.exists():
            problems.append(f"missing output file {name}")
        elif file_digest(target) != digest:
            problems.append(f"output file {name} does not match its recorded digest")
    return problems
