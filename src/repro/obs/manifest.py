"""Run-provenance manifest: which run produced this artifact?

Every telemetry artifact — a JSONL event stream, an obs snapshot, a
report, a dashboard — outlives the process that made it. A
:class:`RunManifest` stamps each artifact with enough identity to
trace it back: the config fingerprint
(same digest the parallel grid keys cells by), the engine(s) involved,
the workload seed, the git commit of the checkout, the package version,
and both clocks (wall-clock creation time, simulated seconds covered).

Two serializations, one rule:

* :meth:`RunManifest.as_dict` — the full record, **including** the
  wall-clock timestamp. For artifacts where "when was this measured"
  is the point (trace snapshots, JSONL event streams).
* :meth:`RunManifest.deterministic_dict` — everything except wall-clock
  fields. For artifacts under the byte-identity contract (reports,
  ``repro all`` comparisons): two runs of the same checkout and config
  must produce the same bytes, so wall time may never leak into them.
"""

from __future__ import annotations

import hashlib
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional

__all__ = ["RunManifest", "build_manifest", "fingerprint_of", "MANIFEST_EVENT"]

#: event ``type`` under which a manifest rides first-class in a JSONL
#: event stream (emitted before any telemetry event)
MANIFEST_EVENT = "run_manifest"

_REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class RunManifest:
    """Immutable provenance stamp for one run's artifacts."""

    #: short sha256 digest of the full experiment config repr (matches
    #: :func:`repro.experiments.common.config_fingerprint`), or None
    #: when the artifact is not tied to one config
    config_fingerprint: Optional[str] = None
    #: engine name(s) involved, comma-joined ("DeFrag" / "CBR,CAP,DeFrag")
    engine: Optional[str] = None
    #: workload RNG seed
    seed: Optional[int] = None
    #: short git commit hash of the producing checkout, or None outside git
    commit: Optional[str] = None
    #: repro package version
    version: Optional[str] = None
    #: wall-clock creation time, UTC ISO-8601 (excluded from
    #: :meth:`deterministic_dict`)
    created_utc: Optional[str] = None
    #: simulated seconds covered by the run, when known
    sim_seconds: Optional[float] = None
    #: free-form extra identity (scale, argv, ...); values must be
    #: JSON-serializable
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Full JSON-serializable record, wall clock included."""
        out: Dict[str, object] = dict(self.deterministic_dict())
        if self.created_utc is not None:
            out["created_utc"] = self.created_utc
        return out

    def deterministic_dict(self) -> Dict[str, object]:
        """The record minus wall-clock fields, safe for byte-identical
        artifacts (reports, golden tables). Key order is fixed."""
        out: Dict[str, object] = {}
        if self.config_fingerprint is not None:
            out["config_fingerprint"] = self.config_fingerprint
        if self.engine is not None:
            out["engine"] = self.engine
        if self.seed is not None:
            out["seed"] = self.seed
        if self.commit is not None:
            out["commit"] = self.commit
        if self.version is not None:
            out["version"] = self.version
        if self.sim_seconds is not None:
            out["sim_seconds"] = self.sim_seconds
        for key in sorted(self.extra):
            out[key] = self.extra[key]
        return out

    def event(self) -> Dict[str, object]:
        """The manifest as a ``run_manifest`` event payload (full record;
        an event stream is an append-only artifact, so wall time rides
        along)."""
        return {"type": MANIFEST_EVENT, **self.as_dict()}


def fingerprint_of(config) -> str:
    """Short stable digest of any config object's repr — the same
    derivation :func:`repro.experiments.common.config_fingerprint` uses,
    duplicated here so ``repro.obs`` stays import-independent of the
    experiments layer."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:12]


def git_commit(cwd: Optional[Path] = None) -> Optional[str]:
    """Short commit hash of the checkout at ``cwd`` (default: this
    package's repo root), or None when git/metadata is unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
            cwd=cwd or _REPO_ROOT,
            timeout=10,
        )
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _package_version() -> Optional[str]:
    # lazy: repro/__init__ transitively imports repro.obs, so importing
    # it at module load would be circular; by the time a manifest is
    # built the package is fully initialized
    try:
        from repro import __version__

        return __version__
    except ImportError:  # pragma: no cover - package always importable in repo
        return None


def build_manifest(
    config=None,
    engine: Optional[str] = None,
    sim_seconds: Optional[float] = None,
    wall_clock: bool = True,
    **extra,
) -> RunManifest:
    """Assemble a :class:`RunManifest` for the current checkout.

    Args:
        config: experiment config; supplies the fingerprint and (when it
            has one) the ``seed`` attribute.
        engine: engine name(s) the run exercised.
        sim_seconds: simulated clock reading at capture time.
        wall_clock: stamp ``created_utc``; pass False for manifests
            embedded in byte-identity artifacts.
        **extra: additional JSON-serializable identity (``scale=...``).
    """
    return RunManifest(
        config_fingerprint=fingerprint_of(config) if config is not None else None,
        engine=engine,
        seed=getattr(config, "seed", None),
        commit=git_commit(),
        version=_package_version(),
        created_utc=(
            datetime.now(timezone.utc).isoformat(timespec="seconds")
            if wall_clock
            else None
        ),
        sim_seconds=sim_seconds,
        extra=dict(sorted(extra.items())),
    )
