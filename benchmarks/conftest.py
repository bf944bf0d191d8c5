"""Shared helpers for the benchmark harness.

Every bench module times a representative slice of the simulation with
pytest-benchmark (its ``bench_*`` functions).  The paper's claims are not
asserted here: they are the rows of ``tests/paper/claims.py``, checked in
tier-1 against what ``spectresim all --fast`` computes, whose artifacts
are the committed ``results/``.  The ablation, extension and self-speed
benches also assert their own findings (``test_*``) and save what they
render under ``benchmarks/results/``.
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def save_artifact():
    """Write one rendered artifact to benchmarks/results/<name>."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _save(name: str, content: str) -> str:
        path = os.path.join(RESULTS_DIR, name)
        with open(path, "w") as f:
            f.write(content)
        print(f"\n{content}")
        return path

    return _save


@pytest.fixture(scope="session")
def fast_settings():
    from repro.core.study import Settings
    # The noise-averaging loop is cheap (the deterministic simulation runs
    # once per config), so drive the CI tight enough that small stacked
    # components (the ~4%/~6% JS knobs) resolve cleanly.
    return Settings(iterations=12, warmup=3, max_samples=40, rel_tol=0.005)
