"""Shared fixtures."""
import importlib.util
import sys
from pathlib import Path

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

