"""Every config the CLI is given, checked as a population: a seeded fuzzer.

Each seed draws configs from one ``np.random.default_rng`` and runs each
through ``cli.main`` in process, with warnings as errors. A draw has one
subcommand, a Lorentzian bath with gamma and tau_c log-uniform over 16
decades or a generated kernel file (an exponential, maybe detuned, sampled
over a random span that may end before the run does), a grid of 2 to 101
times to a gamma t_max log-uniform over 9 decades (a plane for up to 41
times), a random non-empty subset of the schemes in random order, both y,
p in {0, 1, uniform} or random complex amplitudes, figure2 combos, and
appendix-d budgets from 1 to 1e12 and replicas. One draw in three also sets
one field of ``BOUNDS`` to a value on one side of the bound that the CLI
refuses it by.

Per run: the exit code is 0 or 2, never an exception (exit 1); exit 2 writes
nothing and says ``config:`` first, or ``seed`` for the flag, and a value
beyond its bound is refused naming its field; on exit 0 no cell reads
``inf``, and in figure2 and sweep rows ``cpf_closed`` is NaN exactly where
``cpf_table`` is, which is where the conditioning outcome is impossible, and
the two agree within the bound that :mod:`cpfsim.runs` states for the row,
eps (3 / P(y) + 20), plus the rounding of each to 12 printed digits.

The accepted side of the 2**22 bounds on (t, tau) pairs and replicas is not
drawn, since a run there takes seconds and a GB; ``test_cli.py`` and
``test_experiment.py`` hold it.
"""
import json
import warnings

import numpy as np
import pytest

from cpfsim.cli import main
from cpfsim.config import load_config
from cpfsim.cpf import MeasurementScheme, conditioning_probability
from cpfsim.runs import _curves, _preset

SEEDS = range(12)
DRAWS = 20  # per seed
EPS = np.finfo(float).eps
TINY = np.nextafter(0.0, 1.0)  # the least float > 0
ABOVE_1 = np.nextafter(1.0, 2.0)
OUTPUTS = {"appendix-d": "appendix_d.csv"}

# Numeric bounds of the config: (field path, refused values, accepted values,
# the start of the message that refuses them). A path [k] is a list item.
BOUNDS = (
    (("bath", "gamma"), (0.0, -TINY), (1e-300,), "config: bath.gamma: must be > 0"),
    (("bath", "tau_c"), (0.0, -TINY), (TINY, 1e-300), "config: bath.tau_c: tau_c must be > 0"),
    (("bath", "tau_c"), (1e308,), (1e307,), "config: bath.tau_c: 2 gamma tau_c is beyond"),
    (("state", "p"), (-TINY, ABOVE_1), (0.0, 1.0), "config: state.p: p must lie in [0, 1]"),
    (("combos", 0, "p"), (-TINY, ABOVE_1), (0.0, 1.0), "config: combos[0].p: p must lie"),
    (("combos", 0, "gamma_tau_c"), (0.0, -TINY), (TINY,), "config: combos[0].gamma_tau_c: must"),
    (("combos", 0, "gamma_tau_c"), (1e308,), (1e307,), "config: combos[0].gamma_tau_c: 2 gamma"),
    (("visibilities", 0), (-TINY, ABOVE_1), (0.0, 1.0), "config: visibilities[0]: must lie"),
    (("noise", "visibility"), (-TINY, ABOVE_1), (0.0, 1.0), "config: noise.visibility: must lie"),
    (("grid", "points"), (1, 0), (2,), "config: grid.points: must be an integer >= 2"),
    (("grid", "points"), (2**22 + 1,), (), "config: grid.points: 4194305 points make more than"),
    (("grid", "t_max_gamma"), (0.0, -TINY), (TINY,), "config: grid.t_max_gamma: must be > 0"),
    (("grid", "t_max_gamma"), (1e308,), (1e300,), "config: grid.t_max_gamma: time step beyond"),
    (("noise", "total_counts"), (0.0, 1e18 * ABOVE_1), (1e18, TINY), "config: noise: total_counts"),
    (("noise", "replicas"), (0, 2**22 + 1), (1,), "config: noise: replicas must be"),
    (("noise", "seed"), (-1,), (0, 2**128), "config: noise: seed must be an integer >= 0"),
    (("y",), (0, 2, True), (1, -1), "config: y: must be +1 or -1"),
)


def log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def kernel_file(rng, directory, t_end):
    """A tabulated exponential kernel, maybe detuned, sampled every tau / 2 to
    tau / 20 up to about t_end: exactly, short of it or beyond it."""
    tau = t_end / rng.uniform(0.5, 40.0)
    gamma, detuning = log_uniform(rng, 1e-2, 10.0) / tau, rng.choice([0.0, rng.normal() / tau])
    span = t_end * rng.choice([1.0, rng.uniform(0.3, 1.0), rng.uniform(1.0, 2.0)])
    t = np.append(np.arange(0.0, span, tau / rng.uniform(2.0, 20.0)), span)
    f = gamma / (2 * tau) * np.exp(-t / tau - 1j * detuning * t)
    rows = "".join(f"{a:.17g},{b.real:.17g},{b.imag:.17g}\n" for a, b in zip(t, f))
    (directory / "kernel.csv").write_text("t,re,im\n" + rows)


def draw(rng, directory):
    """One (subcommand, config document, flags, refused field prefix or None)."""
    command = str(rng.choice(["sweep", "sweep", "figure2", "witness", "appendix-d"]))
    points = int(rng.integers(2, 102))
    plane = bool(rng.random() < 0.3) and points <= 41
    t_max_gamma = log_uniform(rng, 1e-6, 1e3)
    if rng.random() < 0.7:
        bath = {"gamma": log_uniform(rng, 1e-8, 1e8), "tau_c": log_uniform(rng, 1e-8, 1e8)}
    else:  # a solve of at most some 1e4 steps
        t_max_gamma = min(t_max_gamma, 50.0)
        bath = {"gamma": log_uniform(rng, 1e-3, 1e3), "kernel_csv": "kernel.csv"}
        kernel_file(rng, directory, 2.0 * t_max_gamma / bath["gamma"])
    if rng.random() < 0.2:
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        state = {"a": [a[0].real, a[0].imag], "b": [a[1].real, a[1].imag]}
    else:
        state = {"p": float(rng.choice([0.0, 1.0, rng.uniform()]))}
    schemes = [s.value for s in MeasurementScheme if rng.random() < 0.5] or ["zzz"]
    document = {
        "bath": bath,
        "state": state,
        "schemes": [str(s) for s in rng.permutation(schemes)],
        "y": int(rng.choice([1, -1])),
        "grid": {"t_max_gamma": t_max_gamma, "points": points, "equal_times": not plane},
        "combos": [
            {"scheme": str(rng.choice(["zzz", "xzx", "yzy"])),
             "gamma_tau_c": log_uniform(rng, 1e-4, 1e2), "p": float(rng.uniform())}
            for _ in range(int(rng.integers(1, 4)))
        ],
        "visibilities": [float(v) for v in rng.uniform(size=int(rng.integers(1, 4)))],
    }
    if command == "appendix-d" or rng.random() < 0.2:
        document["noise"] = {
            "total_counts": log_uniform(rng, 1.0, 1e12), "replicas": int(rng.integers(1, 50)),
            "seed": int(rng.integers(0, 2**32)), "visibility": float(rng.uniform()),
        }
    flags, refused = [], None
    if command == "appendix-d" and rng.random() < 0.2:
        flags = ["--seed", str(rng.choice([-1, 0, 7]))]
        refused = "seed must be an integer >= 0" if flags[1] == "-1" else None
    elif rng.random() < 1 / 3:
        path, below, above, message = BOUNDS[rng.integers(len(BOUNDS))]
        values = [(v, message) for v in below] + [(v, None) for v in above]
        value, refused = values[rng.integers(len(values))]
        if path[0] == "noise":
            document.setdefault("noise", {"total_counts": 100})
        if path == ("bath", "tau_c"):
            document["bath"] = {"gamma": 1.0, "tau_c": 1.0}
        if path == ("grid", "points") and value > 101:
            document["grid"]["equal_times"] = True
        *parents, key = path
        block = document
        for parent in parents:
            block = block[parent]
        block[key] = value.item() if isinstance(value, np.generic) else value
    return command, document, flags, refused


def p_y(command, cfg):
    """P(y) of each row of a sweep or figure2 dataset, from the G its run takes."""
    runs = [cfg] if command == "sweep" else [_preset(cfg, *combo, cfg.y) for combo in cfg.combos]
    rows = []
    for run in runs:
        _, _, _, (g_t, _, _) = _curves(run)
        rows += [conditioning_probability(s, run.state, run.y, g_t) for s in run.schemes]
    return np.concatenate(rows)


def check_dataset(command, directory, case):
    """The dataset of an accepted run in ``directory``: no inf cell and, for
    figure2 and sweep, the two CPF columns within the stated bound."""
    path = directory / "out" / OUTPUTS.get(command, f"{command}.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line.split(",") for line in lines if not line.startswith("#")]
    header, rows = body[0], body[1:]
    assert not {"inf", "-inf"} & {cell for row in rows for cell in row}, case
    if command not in ("sweep", "figure2"):
        return
    closed, table = (np.array([float(row[header.index(c)]) for row in rows])
                     for c in ("cpf_closed", "cpf_table"))
    probability = p_y(command, load_config(directory / "run.json"))
    assert np.array_equal(np.isnan(closed), np.isnan(table)), case
    assert np.array_equal(np.isnan(closed), np.isnan(probability)), case
    bound = EPS * (3.0 / probability + 20.0) + 5e-12 * (np.abs(closed) + np.abs(table))
    excess = np.nanmax(np.abs(closed - table) - bound, initial=-1.0)
    assert excess <= 0, f"{case}|cpf_closed - cpf_table| over its bound by {excess}"


@pytest.mark.parametrize("seed", SEEDS)
def test_drawn_configs_run_or_are_refused(tmp_path, monkeypatch, capsys, seed):
    rng = np.random.default_rng(seed)
    for k in range(DRAWS):
        directory = tmp_path / str(k)
        directory.mkdir()
        monkeypatch.chdir(directory)  # the kernel path is relative
        command, document, flags, refused = draw(rng, directory)
        (directory / "run.json").write_text(json.dumps(document))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", "run.json", "--out", "out", *flags])
        out, err = capsys.readouterr()
        case = f"draw {k} of seed {seed}: {command} {flags} {json.dumps(document)}\n{err}"
        assert rc in (0, 2), case
        if rc == 2:
            assert err.startswith(("error: config: ", "error: seed ")), case
            assert refused is None or err.startswith(f"error: {refused}"), case
            assert not (directory / "out").exists(), case
            continue
        assert refused is None, case
        assert out.startswith("wrote "), case
        check_dataset(command, directory, case)
