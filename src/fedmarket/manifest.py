"""Run manifests: config digests, replication seeds, output inventories."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
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


def write_output(path: Path, data: bytes) -> str:
    """Write ``data`` to ``path`` in one truncating write; return its SHA-256.

    The digest is taken from the bytes in hand, so a manifest never has to
    read back what a run has just written.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def write_json(path: Path, payload) -> str:
    """Write ``payload`` as key-sorted, indented JSON plus a newline; return its SHA-256."""
    return write_output(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


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
