#!/usr/bin/env python3
"""Benchmark of the cpfsim CLI on three checked-in workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the ``cpfsim`` CLI as a child process, back to back, for
``--seconds`` and reports end-to-end metrics as medians over the children:
wall time, throughput, set-up time (a child that imports the CLI and loads
the config) and the child's own peak RSS. ``--trace 1`` calls
``cpfsim.cli.main`` in-process under the tracer of ``tracer.py`` and reports
per-layer metrics, plus untraced children to measure the tracing overhead.
Every output is checked outside the timed region. Everything runs single
process. The last stdout line is one JSON object: correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, read_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CLI_TIMEOUT_S = 120.0
SETUP_TIMEOUT_S = 60.0
MIN_CLI_RUNS = 3
MIN_SETUP_RUNS = 9
SETUP_PER_CLI_RUN = 2

# Imports the CLI and loads the workload's config, kernel included, then exits.
SETUP_SNIPPET = """\
import sys
import cpfsim.cli
from cpfsim.config import load_config
cfg = load_config(sys.argv[1])
make_kernel = getattr(cfg.bath, "make_kernel", None)
if make_kernel is not None:
    make_kernel()
"""


class Child:
    """One finished child process: wall time, exit code and its own rusage."""

    def __init__(self, argv, cwd, timeout, log):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killed = threading.Event()
            timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                # wait4 gives this child's own maximum RSS; RUSAGE_CHILDREN
                # would be a running maximum over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.timed_out = killed.is_set()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.ok = self.returncode == 0 and not self.timed_out
        if not self.ok:
            tail = Path(log).read_text(errors="replace")[-2000:]
            print(f"child failed (exit {self.returncode}): {' '.join(argv)}\n{tail}",
                  file=sys.stderr)


class Bench:
    def __init__(self, workload, seed):
        self.w = workload
        self.seed = seed
        self.dir = WORK / workload.name
        self.out = self.dir / "out"
        self.attempted = 0
        self.failed = 0
        self.hashes: set[str] = set()  # sha256 of every CSV produced
        self.verified: dict[str, float] = {}  # sha256 of a CSV that passed -> rel_err
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.setups: list[float] = []

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.w.make_inputs is not None:
            self.w.make_inputs(self.dir)

    def cli_argv(self) -> list[str]:
        argv = [self.w.command, "--config", str(self.w.config_path), "--out", str(self.out)]
        return argv + (["--seed", str(self.seed)] if self.w.passes_seed else [])

    def _record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def check_output(self) -> bool:
        """Check the CSV the last run wrote; a byte-identical CSV is checked once."""
        path = self.out / self.w.output
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self.hashes.add(digest)
            if digest not in self.verified:
                self.verified[digest] = self.w.check(self.w, read_rows(path), self.seed)
        except (OSError, CheckFailed) as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            return False
        return True

    def setup_child(self) -> None:
        child = Child([sys.executable, "-c", SETUP_SNIPPET, str(self.w.config_path)],
                      self.dir, SETUP_TIMEOUT_S, self.dir / "setup.err")
        if self._record(child.ok):
            self.setups.append(child.wall_s)

    def cli_child(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        child = Child([sys.executable, "-m", "cpfsim", *self.cli_argv()],
                      self.dir, CLI_TIMEOUT_S, self.dir / "cli.err")
        # a run that exited cleanly was timed whether or not its output is right
        if child.ok:
            self.walls.append(child.wall_s)
            self.rss.append(child.peak_rss_mb)
        self._record(child.ok and self.check_output())

    def untraced(self, seconds: float) -> None:
        """CLI children interleaved with set-up children, for ``seconds``."""
        start = last = time.perf_counter()
        step = 0.0
        # start another round only if it is expected to end within ``seconds``
        while len(self.walls) < MIN_CLI_RUNS or last + step - start <= seconds:
            self.cli_child()
            for _ in range(SETUP_PER_CLI_RUN):
                self.setup_child()
            if not self.walls:
                break
            now = time.perf_counter()
            step, last = now - last, now
        while len(self.setups) < MIN_SETUP_RUNS and self.setups:
            self.setup_child()

    def traced(self):
        """One in-process cli.main call under the tracer."""
        import cpfsim.cli

        shutil.rmtree(self.out, ignore_errors=True)
        tracer = Tracer()
        tracer.install()
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cpfsim.cli.main(self.cli_argv())
                main_s = time.perf_counter() - start
        finally:
            os.chdir(cwd)
            tracer.uninstall()
        ok = self._record(code == 0 and self.check_output())
        return tracer, main_s, ok

    def end_to_end(self) -> dict:
        wall = statistics.median(self.walls)
        return {
            "wall_s": (wall, "s"),
            "throughput": (self.w.units / wall, "1/s"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (statistics.median(self.rss), "MB"),
        }

    def per_layer(self, tracer, main_s: float) -> dict:
        m = {}
        for name, fields in (
            ("propagator.two_time_trapezoid", ("calls", "total_s")),
            ("propagator.compute_G_two_time", ("total_s",)),
            ("propagator.solve_volterra", ("total_s",)),
            ("propagator.volterra_trapezoid", ("total_s",)),
            ("propagator.lorentzian_G", ("calls", "total_s")),
            ("propagator.lorentzian_G_two_time", ("calls", "total_s")),
            ("cpf.build_table", ("calls", "self_s")),
            ("cpf.cpf_from_table", ("calls", "self_s")),
            ("cpf.cpf_closed_form", ("calls", "self_s")),
            ("experiment.rng_setup", ("calls", "total_s")),
            ("experiment.sample_counts", ("calls", "self_s")),
            ("experiment.estimate_cpf", ("calls", "self_s")),
            ("experiment.run_noise_study", ("calls", "total_s", "self_s")),
            ("io.write_dataset", ("total_s",)),
            ("bath.load_kernel_csv", ("total_s",)),
            ("bath.eval_kernel_grid", ("calls", "total_s")),
            ("config.load_config", ("total_s",)),
            ("runs.runner", ("total_s", "self_s")),
        ):
            calls, total, own = tracer.layer(name)
            values = {"calls": (calls, "count"), "total_s": (total, "s"), "self_s": (own, "s")}
            for field in fields:
                m[f"{name}.{field}"] = values[field]
        counts = tracer.counts
        rows = read_rows(self.out / self.w.output)
        n_rows = len(rows)
        computed = counts["propagator.g2_cells_computed"]
        used = n_rows if computed else 0
        attempted = counts["experiment.replicas_attempted"]
        write_s = m["io.write_dataset.total_s"][0]
        wall = statistics.median(self.walls)
        setup = statistics.median(self.setups)
        m.update({
            "propagator.g2_cells_computed": (computed, "count"),
            "propagator.g2_cells_used": (used, "count"),
            "propagator.g2_useful_ratio": (used / computed if computed else 1.0, "ratio"),
            "propagator.g2_bytes_computed": (counts["propagator.g2_bytes_computed"], "B"),
            "propagator.volterra_macs": (counts["propagator.volterra_macs"], "count"),
            "cpf.table_objects": (counts["cpf.table_objects"], "count"),
            "experiment.replicas_attempted": (attempted, "count"),
            "experiment.replica_yield": (
                counts["experiment.replicas_with_data"] / attempted if attempted else 1.0,
                "ratio",
            ),
            "experiment.flagged_points": (counts["experiment.flagged_points"], "count"),
            "io.format_value.calls": (counts["io.format_value"], "count"),
            "io.rows": (n_rows, "count"),
            "io.bytes_written": ((self.out / self.w.output).stat().st_size, "B"),
            "io.us_per_row": (1e6 * write_s / n_rows if n_rows else 0.0, "us"),
            "runs.nan_rows": (
                sum(any(v == "nan" for v in row.values()) for row in rows), "count",
            ),
            "runs.rel_err": (max(self.verified.values()), "ratio"),
            "trace.overhead_frac": (main_s / (wall - setup) - 1.0, "ratio"),
        })
        return m


def environment() -> dict:
    import numpy
    import cpfsim

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    backend = getattr(cpfsim, "backend_name", None)
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "backend": backend() if backend else "absent",
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def emit(metrics: dict, bench: Bench, extra: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:44} {value:16.6g} {unit}")
    facts = {"workload": bench.w.name, "seed": bench.seed, "environment": environment(),
             "csv_sha256": {bench.w.output: sorted(bench.hashes)}, **extra}
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpfsim" / "cli.py").is_file():
        print(f"error: no cpfsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed)
    bench.prepare()
    bench.setup_child()  # compiles bytecode once, as an installed package would have
    bench.attempted = bench.failed = 0
    bench.setups.clear()
    if args.trace:
        tracer, main_s, ok = bench.traced()
        bench.untraced(args.seconds)
        if not (ok and bench.walls and bench.setups):
            print("error: the traced run or every untraced run failed", file=sys.stderr)
            return 1
        print("\n".join(tracer.table()))
        metrics = bench.per_layer(tracer, main_s)
        extra = {"absent": tracer.absent, "traced_main_s": main_s}
    else:
        bench.untraced(args.seconds)
        if not (bench.walls and bench.setups):
            print("error: every run failed", file=sys.stderr)
            return 1
        metrics = bench.end_to_end()
        e2e = {
            "failed_frac": bench.failed / bench.attempted,
            "rel_err": max(bench.verified.values(), default=None),
            "wall_s_samples": [round(x, 4) for x in bench.walls],
            "setup_s_samples": [round(x, 4) for x in bench.setups],
            "units_per_run": f"{bench.w.units} {bench.w.unit_name}",
        }
        extra = {"end_to_end": e2e}
    emit(metrics, bench, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
