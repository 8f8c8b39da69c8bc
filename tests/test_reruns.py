"""Reruns write the same bytes, in process and as a separate process.

Each case writes one dataset twice: through ``cli.main`` in this process,
and through ``python -m cpfsim`` in a child under another hash seed, so
output that depends on the process (its id, its hash seed, a frozen
collector) shows as a byte difference. The configs are the benchmark's and
four of those in ``tests/configs``:

- ``preset_edge.json``: figure2 combos and appendix-d blocks run as
  tau_c = 1 Lorentzian sweeps on the shared grid. The benchmark configs
  use only gamma tau_c in {0.5, 1}, where a change in how the grid rounds
  its times does not show; this config covers preset ratios where it does.
- ``truncated_witness.json``: a bath whose G crosses zero inside the grid,
  so witness truncates the grid there and warns in its last row only.
- ``born_markov_witness.json``: gamma tau_c = 1e-6, deep in the paper's
  Born-Markov regime, on the Lorentzian closed forms.
- ``exact_coverage.json``: a kernel file whose last sample is the last time
  the solve reaches, which the solve's grid overshoots by one ulp.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpfsim
from cpfsim.cli import main
from kernels import exact_coverage_kernel

CONFIGS = Path(__file__).resolve().parent / "configs"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
SRC = Path(cpfsim.__file__).resolve().parents[1]


def launch(argv, cwd):
    """``python -m cpfsim *argv`` in cwd, under a hash seed other than this
    process's: a fixed one, so it differs from a random one all but surely.
    The child writes no bytecode into the tree under test."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    result = subprocess.run(
        [sys.executable, "-m", "cpfsim", *argv],
        cwd=cwd,
        env={
            "PYTHONPATH": str(SRC), "PATH": "", "PYTHONHASHSEED": seed,
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "command, config",
    [
        ("appendix-d", WORKLOADS / "noise_study.json"),
        ("sweep", WORKLOADS / "sweep_grid.json"),
        ("figure2", WORKLOADS / "sweep_grid.json"),
        ("witness", WORKLOADS / "sweep_grid.json"),
        ("figure2", CONFIGS / "preset_edge.json"),
        ("appendix-d", CONFIGS / "preset_edge.json"),
        ("witness", CONFIGS / "truncated_witness.json"),
        ("witness", CONFIGS / "born_markov_witness.json"),
        ("sweep", CONFIGS / "exact_coverage.json"),
        ("witness", CONFIGS / "exact_coverage.json"),
        ("sweep", WORKLOADS / "tabulated_sweep.json"),
        ("witness", WORKLOADS / "tabulated_sweep.json"),
    ],
    ids=lambda value: value.stem if isinstance(value, Path) else value,
)
def test_rerun_writes_the_same_bytes(tmp_path, monkeypatch, perfbench_workloads, command, config):
    perfbench_workloads.write_kernel_csv(tmp_path)
    exact_coverage_kernel(tmp_path)
    monkeypatch.chdir(tmp_path)  # the tabulated kernel paths are relative
    argv = [command, "--config", str(config), "--out"]
    assert main([*argv, "in_process"]) == 0
    launch([*argv, "launched"], tmp_path)
    output = {"appendix-d": "appendix_d.csv"}.get(command, f"{command}.csv")
    in_process = (tmp_path / "in_process" / output).read_bytes()
    assert (tmp_path / "launched" / output).read_bytes() == in_process
    if config.name == "truncated_witness.json":
        last = in_process.decode("utf-8").splitlines()[-1]
        assert ",truncated: G(t) crosses zero near gamma*t = " in last


def test_rerun_from_the_config_header_writes_the_same_bytes(tmp_path):
    # the header's config is the parsed config of the run, every default
    # filled in, so a run from it writes the same bytes
    config = WORKLOADS / "sweep_grid.json"
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "given")]) == 0
    first = (tmp_path / "given" / "sweep.csv").read_bytes()
    header = first.decode("utf-8").split("\n")[1]
    assert header.startswith("# config ")
    echo = tmp_path / "echo.json"
    echo.write_text(header[len("# config "):])
    assert json.loads(echo.read_text()) != json.loads(config.read_text())  # defaults filled in
    launch(["sweep", "--config", str(echo), "--out", str(tmp_path / "echo")], tmp_path)
    assert (tmp_path / "echo" / "sweep.csv").read_bytes() == first


def test_kernel_file_copies_write_one_dataset(tmp_path, monkeypatch, perfbench_workloads):
    # the benchmark's kernel samples in three files: as written, the same
    # rows after a blank line and a quoted header, and a CRLF copy
    plain = tmp_path / "plain"
    plain.mkdir()
    perfbench_workloads.write_kernel_csv(plain)
    text = (plain / perfbench_workloads.KERNEL_CSV).read_bytes().decode("utf-8")
    rows = text.split("\n", 1)[1]
    copies = {"quoted": '\n"t","re"\n' + rows, "crlf": text.replace("\n", "\r\n")}
    config = str(WORKLOADS / "tabulated_sweep.json")
    monkeypatch.chdir(plain)
    assert main(["sweep", "--config", config, "--out", "sweep"]) == 0
    expected = (plain / "sweep" / "sweep.csv").read_bytes()
    for name, copy in copies.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / perfbench_workloads.KERNEL_CSV).write_bytes(copy.encode("utf-8"))
        launch(["sweep", "--config", config, "--out", "sweep"], tmp_path / name)
        assert (tmp_path / name / "sweep" / "sweep.csv").read_bytes() == expected, name
