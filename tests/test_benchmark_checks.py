"""The benchmark's output checks pass on what the package writes.

Each workload of ``perfbench/workloads.py`` is run through its CLI
subcommand on its checked-in config and its own check is applied to the
CSV, so the calls those checks make into the package (the closed forms and
the channel-map oracle) keep working in the test suite as well.
"""
import math

import pytest

from cpfsim.cli import main

WORKLOAD_NAMES = ("sweep_grid", "noise_study", "tabulated_sweep")
SEED = 1


def test_every_workload_is_covered(perfbench_workloads):
    assert sorted(perfbench_workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_output_passes_its_check(name, tmp_path, monkeypatch, perfbench_workloads):
    w = perfbench_workloads.WORKLOADS[name]
    if w.make_inputs is not None:
        w.make_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)  # the tabulated kernel path is relative
    argv = [w.command, "--config", str(w.config_path), "--out", "out"]
    if w.passes_seed:
        argv += ["--seed", str(SEED)]
    assert main(argv) == 0
    rows = perfbench_workloads.read_rows(tmp_path / "out" / w.output)
    rel_err = w.check(w, rows, SEED)
    assert math.isfinite(rel_err)
