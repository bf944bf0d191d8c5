"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cpu import Machine, all_cpus, get_cpu
from repro.core.study import Settings
from repro.mitigations import MitigationConfig, linux_default


@pytest.fixture(autouse=True)
def _hermetic_cache_dir(tmp_path, monkeypatch):
    """Point the study executor's default persistent cache at a per-test
    directory so tests never read or write the user's real cache."""
    monkeypatch.setenv("SPECTRESIM_CACHE_DIR",
                       str(tmp_path / "spectresim-cache"))


@pytest.fixture(autouse=True)
def _hermetic_history_db(tmp_path, monkeypatch):
    """Point the default run-history database at a per-test path so
    bench/check/profile auto-recording never mutates the committed
    fixture db in the repository."""
    monkeypatch.setenv("SPECTRESIM_HISTORY_DB",
                       str(tmp_path / "history.db"))


@pytest.fixture(scope="session")
def fast_run(tmp_path_factory):
    """What ``spectresim all --fast`` computes, built once per session
    (:func:`tests.paper.fast_run.build`)."""
    from .paper.fast_run import build
    return build(tmp_path_factory.mktemp("all-fast"))


@pytest.fixture
def broadwell():
    return get_cpu("broadwell")


@pytest.fixture
def cascade_lake():
    return get_cpu("cascade_lake")


@pytest.fixture
def zen3():
    return get_cpu("zen3")


@pytest.fixture
def machine(broadwell):
    """A fresh Broadwell machine (the most-vulnerable part: every attack
    demo works there, so mitigations are what change outcomes)."""
    return Machine(broadwell, seed=0)


@pytest.fixture(params=[cpu.key for cpu in all_cpus()])
def every_cpu(request):
    """Parametrized over all eight catalog CPUs."""
    return get_cpu(request.param)


@pytest.fixture
def all_off():
    return MitigationConfig.all_off()


@pytest.fixture
def fast_settings():
    return Settings.fast()


def default_config(cpu):
    return linux_default(cpu)
