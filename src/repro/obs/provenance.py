"""Run provenance: the manifest stamped into every exported artifact.

A result file that cannot say which seed, CPU models, mitigation
configuration and package version produced it is a liability — the
paper's own methodology section exists because "what exactly was running"
is most of the reproduction problem.  :class:`RunManifest` captures that
context once, and every bench payload (``bench``, ``check``, ``export``)
carries it as its ``provenance`` block.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "RunManifest",
    "build_manifest",
    "code_fingerprint",
    "fingerprint_inputs",
    "config_to_dict",
    "settings_to_dict",
]

#: Version of the manifest schema itself, so downstream tooling can detect
#: layout changes without sniffing fields.
SCHEMA_VERSION = 1


def _package_version() -> str:
    # Imported lazily: this module is loaded while ``repro.__init__`` is
    # still executing (machine -> obs), so a top-level import would see a
    # partially initialised package.
    from .. import __version__
    return __version__


def fingerprint_inputs() -> List[str]:
    """The package-relative paths folded into :func:`code_fingerprint`.

    Every ``.py`` file under the installed ``repro`` package, in the
    hashing order.  Exposed so tests can assert that execution-affecting
    modules (e.g. ``cpu/engine.py``, whose block compiler now sits on the
    simulation hot path) participate in the persistent-cache key — a
    module missing from this list could change simulated results without
    invalidating cached cells.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths: List[str] = []
    for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                paths.append(os.path.relpath(path, package_root))
    return paths


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Content hash of the installed ``repro`` package source.

    The release version alone cannot key a persistent result cache: two
    development checkouts of the same version can simulate differently.
    Hashing every ``.py`` file of the package (path + bytes, in sorted
    order — see :func:`fingerprint_inputs`) gives a fingerprint that
    changes whenever the code that produced a cached result changes.
    Computed once per process.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for relpath in fingerprint_inputs():
        digest.update(relpath.encode())
        with open(os.path.join(package_root, relpath), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def config_to_dict(config: Any) -> Dict[str, Any]:
    """A :class:`MitigationConfig` as plain JSON types (enums -> values)."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        out[f.name] = value.value if hasattr(value, "value") else value
    return out


def settings_to_dict(settings: Any) -> Dict[str, Any]:
    """A :class:`~repro.core.study.Settings` as plain JSON types."""
    return dict(dataclasses.asdict(settings))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to re-run (or distrust) one exported artifact."""

    command: str                           # e.g. "export figure2 --fast"
    seed: Optional[int]
    cpus: List[str]
    config: Optional[Dict[str, Any]]       # per-cpu or single config dict
    settings: Optional[Dict[str, Any]]
    version: str
    schema_version: int = SCHEMA_VERSION
    created_at: str = ""
    python: str = ""
    platform: str = ""
    wall_time_s: Optional[float] = None
    sim_cycles: Optional[int] = None
    code_fingerprint: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        extra = out.pop("extra")
        out.update(extra)
        return out


def build_manifest(
    command: str,
    seed: Optional[int] = None,
    cpus: Optional[Sequence[str]] = None,
    config: Optional[Dict[str, Any]] = None,
    settings: Optional[Any] = None,
    wall_time_s: Optional[float] = None,
    sim_cycles: Optional[int] = None,
    **extra: Any,
) -> RunManifest:
    """Assemble a manifest, filling in environment fields automatically.

    ``settings`` may be a :class:`~repro.core.study.Settings` (converted,
    and its seed adopted when ``seed`` is not given) or a plain dict.
    """
    settings_dict: Optional[Dict[str, Any]]
    if settings is None:
        settings_dict = None
    elif isinstance(settings, dict):
        settings_dict = dict(settings)
    else:
        settings_dict = settings_to_dict(settings)
    if seed is None and settings_dict is not None:
        seed = settings_dict.get("seed")
    return RunManifest(
        command=command,
        seed=seed,
        cpus=list(cpus or []),
        config=config,
        settings=settings_dict,
        version=_package_version(),
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        python=platform.python_version(),
        platform=platform.platform(),
        wall_time_s=wall_time_s,
        sim_cycles=sim_cycles,
        code_fingerprint=code_fingerprint(),
        extra=dict(extra),
    )

