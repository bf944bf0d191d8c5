"""Run manifests: what every exported artifact must carry."""

import json

from repro import __version__
from repro.core.study import Settings
from repro.cpu import get_cpu
from repro.mitigations import linux_default
from repro.obs.provenance import (
    SCHEMA_VERSION,
    build_manifest,
    config_to_dict,
    settings_to_dict,
)


def test_build_manifest_fills_environment():
    manifest = build_manifest(command="export figure2", cpus=["zen3"])
    assert manifest.version == __version__
    assert manifest.schema_version == SCHEMA_VERSION
    assert manifest.created_at  # ISO timestamp
    assert manifest.python and manifest.platform
    assert manifest.cpus == ["zen3"]
    assert manifest.seed is None  # unknown context is explicit null


def test_seed_adopted_from_settings():
    manifest = build_manifest(command="c", settings=Settings(seed=99))
    assert manifest.seed == 99
    assert manifest.settings["iterations"] == Settings().iterations
    # An explicit seed wins over the settings seed.
    manifest = build_manifest(command="c", seed=5, settings=Settings(seed=99))
    assert manifest.seed == 5


def test_config_to_dict_serializes_enums():
    config = config_to_dict(linux_default(get_cpu("cascade_lake")))
    assert config["pti"] in (True, False)
    for value in config.values():  # everything must be JSON-ready
        json.dumps(value)


def test_settings_to_dict():
    d = settings_to_dict(Settings.fast())
    assert d["iterations"] == Settings.fast().iterations
    assert d["seed"] == Settings.fast().seed


def test_extra_fields_flatten_into_dict():
    manifest = build_manifest(command="c", note="hello", runs=3)
    data = manifest.to_dict()
    assert data["note"] == "hello"
    assert data["runs"] == 3
    assert "extra" not in data


def test_fingerprint_inputs_cover_history_and_report_modules():
    """The run-history store and dashboard renderer are fingerprinted:
    editing either invalidates cached cells and marks new recordings."""
    from repro.obs.provenance import fingerprint_inputs
    paths = fingerprint_inputs()
    assert "obs/history.py" in paths
    assert "obs/report.py" in paths
    assert "cpu/engine.py" in paths
    assert paths == fingerprint_inputs()  # stable hashing order


def test_manifest_carries_code_fingerprint():
    from repro.obs.provenance import code_fingerprint
    manifest = build_manifest(command="bench")
    assert manifest.code_fingerprint == code_fingerprint()
    assert len(manifest.code_fingerprint) == 16
    assert manifest.to_dict()["code_fingerprint"] == code_fingerprint()
