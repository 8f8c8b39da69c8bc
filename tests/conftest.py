"""Shared fixtures."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(monkeypatch, name):
    """``perfbench/<name>.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``: workload configs,
    generated inputs and output checks."""
    return _perfbench_module(monkeypatch, "workloads")


@pytest.fixture
def perfbench_tracer(monkeypatch):
    """The benchmark's ``perfbench/tracer.py``: the per-layer tracer."""
    return _perfbench_module(monkeypatch, "tracer")


@pytest.fixture
def exact_coverage_kernel():
    """Writes ``tests/configs/exact_coverage.json``'s kernel file into a
    directory, as the CI bytes report writes it: f = e^{-t} / 2 sampled every
    0.01 from t = 0, 221 samples up to t = 2.2, the last time that config's
    solve reaches; ``samples=220`` ends one sample short of it."""

    def write(directory, samples=221):
        t = np.arange(samples) * 0.01
        f = np.exp(-t) / 2
        (directory / "exact_coverage_kernel.csv").write_text(
            "t,re\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, f))
        )

    return write
