"""The benchmark's workloads: inputs, work units and output checks.

Each workload is one checked-in config under ``workloads/`` run through one
``cpfsim`` subcommand. The three load different layers of the package, so a
change to one layer shows on the workload that exercises it and leaves the
others unchanged. Checks read only the CSV a run wrote and call only the
package's public closed forms and channel-map oracle, so they keep working
while the internals are refactored.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent

# Tabulated Lorentzian kernel f(t) = (gamma / 2 tau_c) exp(-t / tau_c) at
# gamma tau_c = 1/2, sampled every 1/400 up to t = 30 (the quadrature needs
# f up to t_max + tau_max = 2 * 15 / gamma).
KERNEL_GAMMA = 1.0
KERNEL_TAU_C = 0.5
KERNEL_SAMPLES_PER_UNIT = 400
KERNEL_T_MAX = 30
KERNEL_CSV = "tabulated_kernel.csv"

# Largest accepted max|cpf_table - closed form| / max|closed form| of the
# tabulated pipeline; it reads 9.0e-5 at the internal step h = 0.01.
TABULATED_REL_ERR_CEILING = 2e-4
# Route agreement required of values printed with 12 significant digits.
ROUTE_TOL = 1e-9
VISIBILITY_TOL = 1e-12
# mc_mean must lie within this many standard errors of degraded_ideal. The
# standard error gets a floor of one count in N: where cells starve, every
# replica can return the same estimate and mc_std reads 0.
MC_SIGMAS = 5.0
ORACLE_SAMPLE = 48


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # cpfsim subcommand
    output: str  # CSV the subcommand writes into --out
    rows: int  # expected data rows
    units: int  # work units per run, for throughput
    unit_name: str
    passes_seed: bool  # the workload seed reaches the program as --seed
    check: Callable[["Workload", list, int], float]
    make_inputs: Optional[Callable[[Path], None]] = None  # writes generated inputs

    @property
    def config_path(self) -> Path:
        return HERE / "workloads" / f"{self.name}.json"

    def config(self) -> dict:
        return json.loads(self.config_path.read_text(encoding="utf-8"))


def write_kernel_csv(work_dir: Path) -> None:
    """Deterministic samples of the tabulated kernel, printed with %.17g."""
    n = KERNEL_T_MAX * KERNEL_SAMPLES_PER_UNIT
    t = np.arange(n + 1) / KERNEL_SAMPLES_PER_UNIT
    f = (KERNEL_GAMMA / (2.0 * KERNEL_TAU_C)) * np.exp(-t / KERNEL_TAU_C)
    with open(work_dir / KERNEL_CSV, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,re\n")
        fh.writelines(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, f))


def read_rows(path: Path) -> list[dict]:
    """Data rows of a cpfsim CSV, skipping the '#' comment header."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _num(row: dict, key: str) -> float:
    return float(row[key]) if row[key] != "" else math.nan


def _require_rows(w: Workload, rows: list) -> None:
    if len(rows) != w.rows:
        raise CheckFailed(f"{w.name}: {len(rows)} rows, expected {w.rows}")


def _route_error(rows: list) -> tuple[float, float]:
    """Largest |cpf_closed - cpf_table| over the rows where both are numbers,
    and the peak |cpf_closed|."""
    worst = peak = 0.0
    for row in rows:
        closed, table = _num(row, "cpf_closed"), _num(row, "cpf_table")
        if math.isnan(closed) != math.isnan(table):
            raise CheckFailed(f"one route is NaN and the other not: {row}")
        if not math.isnan(closed):
            worst = max(worst, abs(closed - table))
            peak = max(peak, abs(closed))
    if worst > ROUTE_TOL:
        raise CheckFailed(f"|cpf_closed - cpf_table| = {worst:.3e} > {ROUTE_TOL:g}")
    return worst, peak


def check_sweep_grid(w: Workload, rows: list, seed: int) -> float:
    """Closed form and table agree on every row; a seeded sample of rows is
    re-derived through the channel-map oracle."""
    import cpfsim

    _require_rows(w, rows)
    worst, peak = _route_error(rows)
    bath = w.config()["bath"]
    gamma, tau_c = bath["gamma"], bath["tau_c"]
    numeric = [row for row in rows if not math.isnan(_num(row, "cpf_table"))]
    rng = np.random.default_rng(seed)
    for k in rng.choice(len(numeric), size=min(ORACLE_SAMPLE, len(numeric)), replace=False):
        row = numeric[k]
        t, tau = float(row["t"]) / gamma, float(row["tau"]) / gamma
        scheme = cpfsim.MeasurementScheme(row["scheme"])
        state = cpfsim.InitialState.from_population(float(row["p"]))
        angles = cpfsim.angles_from_propagator(
            cpfsim.lorentzian_G(gamma, tau_c, t),
            cpfsim.lorentzian_G(gamma, tau_c, tau),
            cpfsim.lorentzian_G_two_time(gamma, tau_c, t, tau),
        )
        joint = cpfsim.simulate_sequence(state, scheme, angles)
        y = int(row["y"])
        oracle = cpfsim.cpf_from_table(cpfsim.conditional_table(joint, scheme, y)).value
        if abs(oracle - float(row["cpf_table"])) > ROUTE_TOL:
            raise CheckFailed(f"channel-map oracle {oracle!r} disagrees with {row}")
    return worst / peak


def check_noise_study(w: Workload, rows: list, seed: int) -> float:
    """Visibility scales the coherent scheme's ideal exactly, and the Monte
    Carlo mean lies within MC_SIGMAS standard errors of the degraded ideal.
    Statistical, not hash-based, so a new RNG stream passes too."""
    _require_rows(w, rows)
    worst = peak = 0.0
    for row in rows:
        if int(row["seed"]) != seed:
            raise CheckFailed(f"row carries seed {row['seed']}, expected {seed}")
        ideal, degraded = _num(row, "ideal"), _num(row, "degraded_ideal")
        if math.isnan(ideal):
            continue
        expected = ideal * float(row["V"]) if row["scheme"] != "zzz" else ideal
        worst = max(worst, abs(degraded - expected))
        peak = max(peak, abs(ideal))
        n = int(row["n_replicas"])
        mean, std = _num(row, "mc_mean"), _num(row, "mc_std")
        if n == 0:
            continue
        if abs(mean - degraded) > MC_SIGMAS * (std / math.sqrt(n) + 1.0 / float(row["N"])):
            raise CheckFailed(f"mc_mean more than {MC_SIGMAS:g} standard errors off: {row}")
    if worst > VISIBILITY_TOL:
        raise CheckFailed(f"degraded_ideal off V * ideal by {worst:.3e}")
    return worst / peak


def check_tabulated_sweep(w: Workload, rows: list, seed: int) -> float:
    """The numerical pipeline reproduces the Lorentzian closed form to
    TABULATED_REL_ERR_CEILING of the peak signal."""
    import cpfsim

    _require_rows(w, rows)
    _route_error(rows)
    worst = peak = 0.0
    for row in rows:
        t = float(row["t"]) / KERNEL_GAMMA
        g = cpfsim.lorentzian_G(KERNEL_GAMMA, KERNEL_TAU_C, t)
        g2 = cpfsim.lorentzian_G_two_time(KERNEL_GAMMA, KERNEL_TAU_C, t, t)
        state = cpfsim.InitialState.from_population(float(row["p"]))
        scheme = cpfsim.MeasurementScheme(row["scheme"])
        exact = cpfsim.cpf_closed_form(scheme, state, g, g2).value
        worst = max(worst, abs(float(row["cpf_table"]) - exact))
        peak = max(peak, abs(exact))
    rel_err = worst / peak
    if not rel_err <= TABULATED_REL_ERR_CEILING:
        raise CheckFailed(f"rel_err {rel_err:.3e} > {TABULATED_REL_ERR_CEILING:g}")
    return rel_err


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_grid",
            why=(
                "per-point path: 2D analytic sweep, 151^2 points x 3 schemes; time goes "
                "to cpf tables, scalar lorentzian_G_two_time calls, row dicts and "
                "format_value; no RNG, no quadrature"
            ),
            command="sweep",
            output="sweep.csv",
            rows=151 * 151 * 3,
            units=151 * 151 * 3,
            unit_name="rows",
            passes_seed=False,
            check=check_sweep_grid,
        ),
        Workload(
            name="noise_study",
            why=(
                "per-replica path: appendix-d, 6 blocks x 101 points x 200 replicas; "
                "time goes to RNG setup, counts/probability tables and estimate_cpf; "
                "little I/O, no quadrature"
            ),
            command="appendix-d",
            output="appendix_d.csv",
            rows=6 * 101,
            units=6 * 101 * 200,
            unit_name="replicas",
            passes_seed=True,
            check=check_noise_study,
        ),
        Workload(
            name="tabulated_sweep",
            why=(
                "numerical pipeline: tabulated kernel at gamma tau_c = 1/2, h = 0.01, "
                "a 1501^2 G2 surface; time goes to the two-time quadrature; the only "
                "workload with a discretisation error"
            ),
            command="sweep",
            output="sweep.csv",
            rows=151 * 2,
            units=151 * 2,
            unit_name="rows",
            passes_seed=False,
            check=check_tabulated_sweep,
            make_inputs=write_kernel_csv,
        ),
    )
}
