"""Config parsing, dataset runners, CLI subcommands, determinism."""
import gc
import importlib
import json
import math
import re
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Union

import numpy as np
import pytest

import cpfsim.cli
import cpfsim.propagator
import cpfsim.runs
from cpfsim import TabulatedKernel, lorentzian_G, lorentzian_G_two_time
from cpfsim.cli import main
from cpfsim.config import DEFAULT_VISIBILITIES, FIGURE2_COMBOS, load_config, parse_config
from cpfsim.cpf import (
    InitialState,
    MeasurementScheme,
    closed_values,
    conditioning_probability,
    table_probs,
)
from cpfsim.experiment import degrade_probs
from cpfsim.errors import ValidationError
from kernels import exact_coverage_kernel, markov_limit_kernel

BASE_CONFIG = {
    "bath": {"gamma": 1.0, "tau_c": 1.0},
    "state": {"p": 0.8},
    "schemes": ["zzz", "xzx"],
    "y": -1,
    "grid": {"t_max_gamma": 5.0, "points": 21, "equal_times": True},
    "units": "gamma_t",
}


def write_config(tmp_path, overrides=None, name="run.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def child_env(src):
    """The whole environment of a ``python`` child that imports the package
    from ``src``: it writes no bytecode into the tree under test."""
    return {"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}


def read_rows(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("# cpfsim ")
    assert lines[1].startswith("# config ")
    body = [line for line in lines[2:] if not line.startswith("# ")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:] if line]
    return header, rows


KERNEL = "t,re\n0,0.5\n1,0.25\n"  # a kernel file that parses
NAN, INF = float("nan"), float("inf")


@dataclass(frozen=True)
class Refusal:
    """A config that the CLI refuses. ``config``: its changes to BASE_CONFIG (a
    value None drops the key), or the config file's whole text; the subcommand
    and its ``flags``; ``stderr``: all of stderr after "error: ", a regex only
    where it holds a step value that depends on the platform; ``files``: the
    files beside the config, name to text, or a writer into their directory.
    ``parsed``: refused by ``load_config`` with the same text, else accepted by
    it and refused by the run. ``unsampled``: refused before a kernel sample is
    taken."""

    config: Union[dict, str]
    stderr: str
    command: str = "sweep"
    flags: tuple = ()
    files: Union[dict, Callable] = field(default_factory=dict)
    parsed: bool = True
    regex: bool = False
    unsampled: bool = False


def refusals(*cases, **common) -> dict:
    """Rows by id of ``(id, config, stderr[, command[, flags]])`` cases, each
    with the ``common`` fields."""
    return {name: Refusal(*fields, **common) for name, *fields in cases}


def refused(row, directory, monkeypatch, capsys):
    """Runs ``row`` through ``cli.main`` in ``directory``, warnings as errors:
    exit 2 with exactly its stderr, no output directory, and load_config's
    verdict."""
    monkeypatch.chdir(directory)  # every path in a row is relative
    if callable(row.files):
        row.files(directory)
    else:
        for name, text in row.files.items():
            (directory / name).write_text(text)
    if isinstance(row.config, str):
        config = directory / "run.json"
        config.write_text(row.config)
    else:
        config = write_config(directory, row.config)
    if row.unsampled:
        monkeypatch.setattr(cpfsim.propagator, "eval_kernel_grid", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([row.command, "--config", config.name, "--out", "out", *row.flags])
    err = capsys.readouterr().err
    assert rc == 2
    if row.regex:
        assert re.fullmatch(f"error: {row.stderr}\n", err), err
    else:
        assert err == f"error: {row.stderr}\n"
    assert not (directory / "out").exists()
    if row.parsed:
        with pytest.raises(ValidationError) as exc:
            load_config(config)
        assert str(exc.value) == row.stderr
    else:
        load_config(config)


def refusal_test(group):
    """The rows of ``REFUSALS[group]`` as one test: a case per row, or for a
    tuple, one case that runs each row in turn."""
    rows = REFUSALS[group]
    if isinstance(rows, tuple):
        def test(self, tmp_path, monkeypatch, capsys):
            for k, row in enumerate(rows):
                (tmp_path / str(k)).mkdir()
                refused(row, tmp_path / str(k), monkeypatch, capsys)

        return test

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(self, tmp_path, monkeypatch, capsys, row):
        refused(row, tmp_path, monkeypatch, capsys)

    return test


def combos(*items):
    return {"combos": [dict(zip(("scheme", "gamma_tau_c", "p"), item)) for item in items]}


def tabulated(path, **grid):
    return {"bath": {"gamma": 1.0, "kernel_csv": path}, **({"grid": grid} if grid else {})}


def noise(**values):
    grid = {"t_max_gamma": 5.0, "points": 9, "equal_times": True}
    return {"grid": grid, "noise": {"total_counts": 10000, "replicas": 40, "seed": 11, **values}}


ONE_FORM = "config: bath: exactly one bath form required: {gamma, tau_c} or {kernel_csv, ...}"
TIME_UNIT = "config: bath.time_unit: must be 'seconds', got 'inverse_gamma'"
INVERSE_GAMMA = {"time_unit": "inverse_gamma"}
OVERFLOW = "config: grid.t_max_gamma: time step beyond the float range at gamma = "
TWO_GAMMA_TAU_C = "2 gamma tau_c is beyond the float range at LorentzianKernel"
RANGE = "config: bath.kernel_csv: {}: t = {} beyond last sample t_max = {}; refusing to extrapolate"
STEP_COUNT = (
    r"config: bath\.kernel_csv: kernel\.csv: t_step = \S+ needs a solve of {} steps, "
    "more than 4194304"
)
UNSAMPLED = dict(parsed=False, regex=True, unsampled=True)  # the step-count refusals
# Every config refusal of the CLI, by group. Each group is the test of that
# name in the classes below, and its ids are those its cases have always had.
REFUSALS = {
    "combos and visibilities": refusals(
        (r"overrides0-combos\[0\]\.gamma_tau_c: missing",
         {"combos": [{"scheme": "zzz", "p": 0.8}]},
         "config: combos[0].gamma_tau_c: missing required field"),
        (r"overrides1-combos\[0\]\.scheme: unknown scheme", combos(("abc", 1.0, 0.8)),
         "config: combos[0].scheme: unknown scheme 'abc'; valid: zzz, xzx, yzy"),
        ("overrides2-combos: expected a list", {"combos": {"scheme": "zzz", "p": 0.8}},
         "config: combos: expected a list of {scheme, gamma_tau_c, p} objects"),
        (r"overrides3-visibilities\[0\]: expected a number", {"visibilities": ["x"]},
         "config: visibilities[0]: expected a number, got 'x'"),
        (r"overrides4-combos\[0\]\.gamma_tau_c: must be > 0", combos(("zzz", 0.0, 0.8)),
         "config: combos[0].gamma_tau_c: must be > 0"),
        (r"overrides5-combos\[1\]\.p: must lie in \[0, 1\]",
         combos(("zzz", 1.0, 0.8), ("zzz", 1.0, 1.5)),
         "config: combos[1].p: p must lie in [0, 1], got 1.5"),
        (r"overrides6-visibilities\[1\]: must lie in \[0, 1\]", {"visibilities": [0.9, 1.2]},
         "config: visibilities[1]: must lie in [0, 1]"),
        # an empty combos list wrote a header-only figure2 CSV, and an empty
        # visibilities list dropped appendix-d's visibility blocks
        *((f"overrides{k}-{key}: expected a non-empty list", {key: []},
           f"config: {key}: expected a non-empty list")
          for k, key in enumerate(("combos", "visibilities"), 7)),
    ),
    "field identified": (
        Refusal({"bath": {"gamma": -1.0, "tau_c": 0.5}}, "config: bath.gamma: must be > 0"),
        Refusal({"grid": {"points": 1}}, "config: grid.points: must be an integer >= 2, got 1"),
        Refusal({"schemes": ["abc"]},
                "config: schemes[0]: unknown scheme 'abc'; valid: zzz, xzx, yzy"),
        Refusal({"noise": {}}, "config: noise.total_counts: missing required field"),
    ),
    "one bath form": refusals(
        ("no-form", {"bath": {"gamma": 1.0}}, ONE_FORM),
        ("two-forms", {"bath": {"gamma": 1.0, "tau_c": 1.0, "kernel_csv": "kernel.csv"}},
         ONE_FORM),
    ),
    # one time unit: datasets write gamma t, and a kernel file holds t in
    # units of 1/gamma and f in their inverse square. A repeated scheme wrote
    # each of its blocks twice, and a non-string path was read as its str():
    # True as the file "True"
    "units and schemes": refusals(
        ("units", {"units": "absolute"}, "config: units: must be 'gamma_t', got 'absolute'"),
        ("time-unit", {"bath": {"gamma": 2.0, "kernel_csv": "kernel.csv", **INVERSE_GAMMA}},
         TIME_UNIT),
        ("time-unit-analytic", {"bath": {"gamma": 2.0, "tau_c": 1.0, **INVERSE_GAMMA}}, TIME_UNIT),
        ("schemes-string", {"schemes": "zzz"}, "config: schemes: expected a list of scheme names"),
        ("schemes-repeated", {"schemes": ["zzz", "zzz"]},
         "config: schemes[1]: duplicate scheme 'zzz'"),
        ("schemes-repeated-case", {"schemes": ["xzx", "zzz", "ZZZ"]},
         "config: schemes[2]: duplicate scheme 'zzz'"),
        *((f"kernel-csv-{kind}", tabulated(path),
           f"config: bath.kernel_csv: expected a file path, got {path}")
          for kind, path in (("bool", True), ("number", 5))),
        files={name: KERNEL for name in ("kernel.csv", "True", "5")},
    ),
    # a misspelt key ran the defaults z-z-z and x-z-x to gamma t = 5 while the
    # header echoed it; a state of both forms ran p and dropped a and b
    "unknown keys": refusals(
        ("top", {"scheme": ["yzy"]}, "config: scheme: unknown key; did you mean 'schemes'?"),
        ("bath", {"bath": {"gamma": 1, "tau": 1}},
         "config: bath.tau: unknown key; did you mean 'tau_c'?"),
        ("state", {"state": {"p": 0.8, "q": 0.2}}, "config: state.q: unknown key"),
        ("grid", {"grid": {"t_max": 9, "points": 3}},
         "config: grid.t_max: unknown key; did you mean 't_max_gamma'?"),
        ("noise", {"noise": {"total_counts": 100, "seeds": 3}},
         "config: noise.seeds: unknown key; did you mean 'seed'?"),
        ("combo", {"combos": [{**combos(("zzz", 1, 0.8))["combos"][0], "ratio": 1}]},
         "config: combos[0].ratio: unknown key"),
        ("state-both-forms", {"state": {"p": 0.8, "a": 1, "b": 0}},
         "config: state: expected either {'p': ...} or {'a': ..., 'b': ...}"),
        ("grid-not-object", {"grid": 3}, "config: grid: expected an object"),
        ("bath-not-object", {"bath": [1]}, "config: bath: expected an object"),
        ("state-a-text", {"state": {"a": "x", "b": 0}},
         "config: state.a: expected a number or [re, im] pair, got 'x'"),
        ("state-norm", {"state": {"a": 1, "b": 1}},
         "config: state: |a|^2 + |b|^2 = 2.0 must equal 1"),
        ("equal-times-int", {"grid": {"equal_times": 1}},
         "config: grid.equal_times: must be true or false"),
        command="figure2",
    ),
    # each of these values is refused by the type that owns it, in its words
    "owner refusals": refusals(
        *((f"tau_c-{name}", {"bath": {"gamma": 1, "tau_c": tau_c}},
           f"config: bath.tau_c: tau_c must be > 0, got {float(tau_c)}")
          for name, tau_c in (("zero", 0), ("negative", -1))),
        *((f"p-{name}", {"state": {"p": p}}, f"config: state.p: p must lie in [0, 1], got {p}")
          for name, p in (("above-1", 1.5), ("negative", -0.1))),
        ("combo-p", combos(("xzx", 1, -0.5)),
         "config: combos[0].p: p must lie in [0, 1], got -0.5"),
        ("schemes-object", {"schemes": {"zzz": 1}},
         "config: schemes: expected a list of scheme names"),
        ("schemes-empty", {"schemes": []}, "config: schemes: expected a non-empty list"),
    ),
    "top level": (Refusal("[1]", "config: top level must be a JSON object"),),
    # t_max_gamma / gamma beyond the float range ended in an OverflowError traceback
    "overflowing time step": refusals(
        ("t_max_gamma", {"grid": {"t_max_gamma": 1e307, "points": 3}}, OVERFLOW + "1"),
        ("gamma", {"bath": {"gamma": 1e-320, "tau_c": 1}}, OVERFLOW + "9.99989e-321"),
        ("combo", combos(("zzz", 1e-320, 0.8)), OVERFLOW + "9.99989e-321", "figure2"),
        parsed=False,
    ),
    # JSON admits NaN, Infinity and integers beyond the float range; each
    # would otherwise crash the run or write an all-NaN dataset
    "non-finite numbers": refusals(
        *((f"{command}-overrides{k}-{where}", config,
           f"config: {where}: must be a finite number, got {value!r}", command)
          for k, (command, where, config, value) in enumerate((
              ("sweep", "bath.gamma", {"bath": {"gamma": NAN, "kernel_csv": "kernel.csv"}}, NAN),
              ("sweep", "grid.t_max_gamma", {"grid": {"t_max_gamma": INF}}, INF),
              ("appendix-d", "noise.total_counts",
               {"noise": {"total_counts": INF, "replicas": 2}}, INF),
              ("sweep", "state.a", {"state": {"a": NAN, "b": 0}}, NAN),
              ("sweep", "grid.t_max_gamma", {"grid": {"t_max_gamma": 10**400}}, 10**400),
          ))),
        files={"kernel.csv": KERNEL},
    ),
    # chi^2 = 1 - 2 gamma tau_c = -inf made every value NaN, with exit 0
    "two gamma tau_c beyond the float range": refusals(
        *((f"{command}-overrides{k}-bath.tau_c",
           {"bath": {"gamma": 1e300, "tau_c": 1e300}, "grid": {"points": 3}},
           f"config: bath.tau_c: {TWO_GAMMA_TAU_C}(gamma=1e+300, tau_c=1e+300)", command)
          for k, command in enumerate(("sweep", "witness"))),
        ("figure2-overrides2-combos[0].gamma_tau_c", combos(("zzz", 1e308, 0.8)),
         f"config: combos[0].gamma_tau_c: {TWO_GAMMA_TAU_C}(gamma=1e+308, tau_c=1.0)", "figure2"),
    ),
    # True == 1, so a bare membership test let it through and the y column
    # read "true"
    "y an integer": refusals(
        *((f"{y}{suffix}", {"y": y}, f"config: y: must be +1 or -1, got {y}", command)
          for command, suffix in (("sweep", ""), ("figure2", "-figure2"))
          for y in (True, 1.0, -1.0)),
    ),
    "missing kernel file": (
        Refusal(tabulated("nope.csv"), "config: bath.kernel_csv: file not found: nope.csv"),
    ),
    # the kernel's range error named neither the file nor the config field
    "kernel shorter than the grid": refusals(
        *((command, tabulated("short.csv"), RANGE.format("short.csv", 10.0, 0.1), command)
          for command in ("sweep", "witness")),
        files={"short.csv": "t,re\n0,1\n0.1,0.9\n"}, parsed=False,
    ),
    # the solve's last time, 220 steps of 0.01, rounds to one ulp above 2.2
    "kernel one sample short": refusals(
        *((command, tabulated("exact_coverage_kernel.csv", t_max_gamma=1.1, points=11),
           RANGE.format("exact_coverage_kernel.csv", 2.2000000000000006, 2.19), command)
          for command in ("sweep", "witness")),
        files=lambda directory: exact_coverage_kernel(directory, samples=220), parsed=False,
    ),
    "malformed combo": (
        Refusal({"combos": [{"scheme": "zzz", "p": 0.8}]},
                "config: combos[0].gamma_tau_c: missing required field", "figure2"),
    ),
    # a negative seed and a budget beyond NumPy's largest Poisson mean used to
    # reach the sampler and die with NumPy's traceback
    "values numpy rejects": {
        "flag-seed": Refusal(noise(), "seed must be an integer >= 0, got -1", "appendix-d",
                             ("--seed", "-1"), parsed=False),
        **refusals(
            ("config-seed", noise(seed=-1), "config: noise: seed must be an integer >= 0, got -1"),
            ("config-seed-bool", noise(seed=True),
             "config: noise: seed must be an integer >= 0, got True"),
            ("config-replicas", noise(replicas=2.5),
             "config: noise: replicas must be an integer >= 1, got 2.5"),
            ("config-replicas-1e20", noise(replicas=10**20),
             f"config: noise: replicas must be <= 4194304, got {10**20}"),
            ("config-total_counts", noise(total_counts=1e19),
             "config: noise: total_counts must be a finite number in (0, 1e+18], got 1e+19"),
            command="appendix-d",
        ),
    },
    "noise block required": (
        Refusal({"noise": None}, "config: noise: block required for appendix-d runs",
                "appendix-d", parsed=False),
    ),
    # |f| falls by 1/e within the second sample time: the step rule asks for
    # ~4e11 steps at 1e-9, and at 5e-324 its refine overflows a float
    "kernel too short to resolve": {
        tiny: Refusal(tabulated("kernel.csv"), STEP_COUNT.format(r"\d+"),
                      files={"kernel.csv": f"t,re\n0,1\n{tiny},0\n1,0\n20,0\n"}, **UNSAMPLED)
        for tiny in ("1e-9", "5e-324")
    },
    # gamma t up to 1e300 in one step: refine capped at 2**22 whether or not
    # the kernel has a 1/e time (the first file has none), so the solve to
    # t + tau = 2e300 takes 2**23 steps
    "overlong grid": {
        name: Refusal(tabulated("kernel.csv", t_max_gamma=1e300, points=2),
                      STEP_COUNT.format(8388608), files={"kernel.csv": f"t,re\n{samples}"},
                      **UNSAMPLED)
        for name, samples in (("flat", "0,1\n1e301,1\n"), ("decaying", "0,1\n1,0\n1e301,0\n"))
    },
}


class TestConfig:
    test_combos_and_visibilities_validated = refusal_test("combos and visibilities")
    test_field_identified_errors = refusal_test("field identified")
    test_bath_needs_exactly_one_form = refusal_test("one bath form")
    test_refused_units_and_schemes_exit_2 = refusal_test("units and schemes")
    test_unknown_keys_exit_2 = refusal_test("unknown keys")
    test_owner_refusals_exit_2 = refusal_test("owner refusals")
    test_top_level_must_be_an_object_exits_2 = refusal_test("top level")
    test_overflowing_time_step_exits_2 = refusal_test("overflowing time step")
    test_non_finite_numbers_exit_2 = refusal_test("non-finite numbers")
    test_two_gamma_tau_c_beyond_the_float_range_exits_2 = refusal_test(
        "two gamma tau_c beyond the float range"
    )
    test_y_must_be_an_integer = refusal_test("y an integer")
    test_missing_kernel_file = refusal_test("missing kernel file")
    test_kernel_file_shorter_than_the_grid_exits_2 = refusal_test("kernel shorter than the grid")
    test_kernel_file_one_sample_short_exits_2 = refusal_test("kernel one sample short")

    def test_minimal_and_defaults(self):
        cfg = parse_config({"bath": {"gamma": 2.0, "tau_c": 0.5}})
        assert cfg.bath.gamma == 2.0
        assert cfg.points == 101
        assert cfg.y == -1
        assert cfg.noise is None
        assert cfg.combos == FIGURE2_COMBOS
        assert cfg.visibilities == DEFAULT_VISIBILITIES

    def test_combos_and_visibilities_parsed(self):
        cfg = parse_config(
            {
                "bath": {"gamma": 1.0, "tau_c": 1.0},
                "combos": [{"scheme": "XZX", "gamma_tau_c": 2, "p": 1}],
                "visibilities": [0.5, 1],
            }
        )
        assert cfg.combos == ((MeasurementScheme.XZX, 2.0, 1.0),)
        assert cfg.visibilities == (0.5, 1.0)

    @pytest.mark.parametrize(
        "grid",
        [{"points": 10**20}, {"points": 2049, "equal_times": False}],
        ids=["1e20-points", "2049-squared-plane"],
    )
    def test_too_many_pairs_exit_2_before_allocating(self, tmp_path, capsys, monkeypatch, grid):
        # 10**20 points died in np.arange with a traceback, and a plane of
        # some tens of thousands of points tried to allocate tens of GB
        def solve(*_):
            raise AssertionError("a run of too many pairs reached the solve")

        monkeypatch.setattr(cpfsim.runs, "solve", solve)
        cfg = write_config(tmp_path, {"grid": grid})
        tracemalloc.start()
        try:
            rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: config: grid.points: {grid['points']} points make more than 4194304 "
            "(t, tau) pairs\n"
        )
        assert peak < 2**20
        assert not (tmp_path / "out").exists()

    def test_largest_plane_is_accepted(self, monkeypatch):
        # a 2048^2 plane is 2**22 pairs, the most a run takes: it reaches the solve
        def solve(*_):
            raise AssertionError("solve reached")

        monkeypatch.setattr(cpfsim.runs, "solve", solve)
        cfg = parse_config({**BASE_CONFIG, "grid": {"points": 2048, "equal_times": False}})
        with pytest.raises(AssertionError, match="^solve reached$"):
            cpfsim.runs.run_sweep(cfg, Path("unwritten"))

    def test_json_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bath": \n !}')
        with pytest.raises(ValidationError, match="line 2"):
            load_config(path)

    def test_complex_state_form(self):
        cfg = parse_config(
            {"bath": {"gamma": 1.0, "tau_c": 1.0}, "state": {"a": [0.6, 0.0], "b": [0.0, 0.8]}}
        )
        assert cfg.state.b == 0.8j

    @pytest.mark.parametrize("command", ["sweep", "witness"])
    def test_kernel_file_that_exactly_covers_the_grid_runs(self, tmp_path, monkeypatch, command):
        # the solve's last time, 220 steps of 0.01, rounds to 2.2000000000000006,
        # one ulp beyond the last sample at 2.2, and was refused as extrapolation
        exact_coverage_kernel(tmp_path)
        monkeypatch.chdir(tmp_path)  # the kernel path is relative
        config = str(Path(__file__).resolve().parent / "configs" / "exact_coverage.json")
        assert main([command, "--config", config, "--out", "out"]) == 0
        _, rows = read_rows(tmp_path / "out" / f"{command}.csv")
        assert rows[-1]["t"] == "1.1"

    @pytest.mark.parametrize(
        "case",
        [
            "kernel-is-a-directory",
            "kernel-not-utf8",
            "kernel-inf-imaginary",
            "kernel-mixed-widths",
            "config-not-utf8",
            "out-below-a-file",
        ],
    )
    def test_unreadable_input_or_output_exits_2(self, tmp_path, case):
        # the first cases ended in an OSError or UnicodeDecodeError traceback;
        # an inf imaginary part printed a RuntimeWarning and an error naming
        # no file
        tabulated = {"bath": {"gamma": 1.0, "kernel_csv": str(tmp_path / "kernel.csv")}}
        cfg = write_config(tmp_path, tabulated if case.startswith("kernel") else None)
        out = tmp_path / "out"
        if case == "kernel-is-a-directory":
            (tmp_path / "kernel.csv").mkdir()
            named = tmp_path / "kernel.csv"
        elif case == "kernel-not-utf8":
            (tmp_path / "kernel.csv").write_bytes(b"t,re\n0,1\n1,\xff\n")
            named = tmp_path / "kernel.csv"
        elif case == "kernel-inf-imaginary":
            (tmp_path / "kernel.csv").write_text("t,re,im\n0,1,0\n1,0.5,inf")
            named = f"{tmp_path / 'kernel.csv'}:3: "
        elif case == "kernel-mixed-widths":
            (tmp_path / "kernel.csv").write_text("t,re,im\n0,1,0\n1,0.5\n")
            named = f"{tmp_path / 'kernel.csv'}:3: "
        elif case == "config-not-utf8":
            cfg.write_bytes(b'{"bath": {"gamma": 1.0, \xff"tau_c": 1.0}}')
            named = cfg
        else:
            (tmp_path / "file").write_text("not a directory\n")
            out = named = tmp_path / "file" / "out"
        src = Path(__import__("cpfsim").__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "cpfsim", "sweep", "--config", str(cfg), "--out", str(out)],
            env=child_env(src),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert str(named) in result.stderr
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr


class TestFigure2:
    test_malformed_combo_exits_2 = refusal_test("malformed combo")

    def test_four_reference_curves(self, tmp_path):
        rc = main(["figure2", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")])
        assert rc == 0
        header, rows = read_rows(tmp_path / "out" / "figure2.csv")
        assert header == ["scheme", "y", "p", "gamma_tau_c", "t", "tau", "cpf_closed", "cpf_table"]
        combos = {(r["scheme"], r["gamma_tau_c"], r["p"]) for r in rows}
        assert combos == {
            ("zzz", "1", "0.8"), ("zzz", "0.5", "0.8"),
            ("xzx", "0.5", "1"), ("xzx", "1", "1"),
        }
        for r in rows:
            closed = float(r["cpf_closed"])
            if r["scheme"] == "zzz":
                assert closed >= 0.0
            else:
                assert closed <= 0.0
            if float(r["t"]) == 0.0:
                assert abs(closed) <= 1e-12
            assert abs(closed - float(r["cpf_table"])) <= 1e-9

    def test_weak_coupling_extra_combo(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"combos": [{"scheme": "xzx", "gamma_tau_c": 0.01, "p": 1.0}]},
        )
        main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, rows = read_rows(tmp_path / "out" / "figure2.csv")
        assert max(abs(float(r["cpf_closed"])) for r in rows) <= 0.01

    def test_impossible_conditioning_gives_nan_row(self, tmp_path):
        # p = 1 under z-z-z: y = -1 has zero probability at t = 0, so that
        # row is NaN in both routes, exactly as sweep writes it
        cfg = write_config(
            tmp_path,
            {"combos": [{"scheme": "zzz", "gamma_tau_c": 1.0, "p": 1.0}]},
        )
        rc = main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        _, rows = read_rows(tmp_path / "out" / "figure2.csv")
        assert len(rows) == 21
        assert float(rows[0]["t"]) == 0.0
        assert (rows[0]["cpf_closed"], rows[0]["cpf_table"]) == ("nan", "nan")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "figure2.csv").read_bytes() == (
            tmp_path / "b" / "figure2.csv"
        ).read_bytes()


class TestAppendixD:
    test_values_numpy_rejects_exit_2 = refusal_test("values numpy rejects")
    test_noise_block_required = refusal_test("noise block required")

    def cfg_path(self, tmp_path, seed=11):
        return write_config(
            tmp_path,
            {
                "grid": {"t_max_gamma": 5.0, "points": 9, "equal_times": True},
                "noise": {"total_counts": 10000, "visibility": 1.0, "replicas": 40, "seed": seed},
            },
        )

    def test_blocks_and_columns(self, tmp_path):
        rc = main(["appendix-d", "--config", str(self.cfg_path(tmp_path)), "--out", str(tmp_path / "out")])
        assert rc == 0
        path = tmp_path / "out" / "appendix_d.csv"
        assert path.read_text(encoding="utf-8").split("\n")[2] == "# rng v2 per-point-block"
        header, rows = read_rows(path)
        assert header == [
            "scheme", "y", "p", "gamma_tau_c", "N", "V", "t", "ideal", "degraded_ideal",
            "mc_mean", "mc_std", "predicted_std", "n_replicas", "seed",
        ]
        blocks = {(r["scheme"], r["y"], r["V"], r["gamma_tau_c"]) for r in rows}
        assert ("xzx", "-1", "1", "1") in blocks
        assert ("xzx", "-1", "0.9", "1") in blocks
        assert ("xzx", "-1", "0.8", "1") in blocks
        assert ("zzz", "-1", "1", "0.1") in blocks
        assert ("xzx", "1", "1", "1") in blocks

    def test_visibility_biases_degraded_ideal(self, tmp_path):
        main(["appendix-d", "--config", str(self.cfg_path(tmp_path)), "--out", str(tmp_path / "out")])
        _, rows = read_rows(tmp_path / "out" / "appendix_d.csv")
        for r in rows:
            if r["scheme"] == "xzx" and r["V"] == "0.9" and r["ideal"] != "nan":
                assert float(r["degraded_ideal"]) == pytest.approx(
                    0.9 * float(r["ideal"]), abs=1e-9
                )

    def test_y_plus_block_mean_null_growing_std(self, tmp_path):
        # the standard error comes from the noise model's first-order stddev,
        # not from the scatter of the same 40 replicas whose mean is tested
        main(["appendix-d", "--config", str(self.cfg_path(tmp_path)), "--out", str(tmp_path / "out")])
        _, rows = read_rows(tmp_path / "out" / "appendix_d.csv")
        block = [r for r in rows if r["y"] == "1" and r["mc_std"] not in ("nan", "")]
        stds = [float(r["mc_std"]) for r in block if float(r["t"]) > 0]
        assert stds[-1] > stds[0]
        for r in block:
            if float(r["t"]) > 0:
                se = float(r["predicted_std"]) / np.sqrt(int(r["n_replicas"]))
                assert abs(float(r["mc_mean"])) < 4 * max(se, 1e-12)

    def test_replica_std_matches_predicted_std(self, tmp_path):
        """mc_std / predicted_std against the scatter of a sample stddev.

        For R near-Gaussian replicas (R - 1) s^2 / sigma^2 is chi-square with
        R - 1 degrees of freedom; the bounds are its two-sided quantiles
        (Wilson-Hilferty) at a family-wise false-alarm rate of 1e-3,
        Bonferroni over the rows tested. Rows are tested where the
        conditioned budget N P(y) is at least 1000 and every nonzero cell
        expects at least 10 counts: below that a cell that rarely fires
        dominates the scatter, the estimator is far from Gaussian (its
        excess kurtosis is up to 1 / min cell mean) and a first-order stddev
        does not describe it.
        """
        cfg = write_config(
            tmp_path,
            {
                "grid": {"t_max_gamma": 5.0, "points": 21, "equal_times": True},
                "noise": {"total_counts": 10000, "visibility": 1.0, "replicas": 400, "seed": 5},
            },
        )
        main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, rows = read_rows(tmp_path / "out" / "appendix_d.csv")
        tested = []
        for r in rows:
            gamma = float(r["gamma_tau_c"])  # tau_c = 1
            t = float(r["t"]) / gamma
            scheme = MeasurementScheme(r["scheme"])
            state = InitialState.from_population(float(r["p"]))
            g, g2 = lorentzian_G(gamma, 1.0, t), lorentzian_G_two_time(gamma, 1.0, t, t)
            budget = float(r["N"]) * float(conditioning_probability(scheme, state, int(r["y"]), g))
            means = budget * degrade_probs(
                table_probs(scheme, state, int(r["y"]), g, g, g2), float(r["V"]), scheme
            )
            if r["n_replicas"] == "0" or budget < 1000 or np.min(means[means > 0]) < 10:
                continue
            if float(r["predicted_std"]) == 0.0:  # e.g. t = 0: every replica estimates 0
                assert float(r["mc_std"]) <= 1e-12
                continue
            tested.append((float(r["mc_std"]) / float(r["predicted_std"]), int(r["n_replicas"])))
        assert len(tested) >= 50
        tail = 1e-3 / (2 * len(tested))
        for ratio, n in tested:
            k = n - 1
            lo, hi = (
                np.sqrt((1 - 2 / (9 * k) + z * np.sqrt(2 / (9 * k))) ** 3)
                for z in (NormalDist().inv_cdf(tail), NormalDist().inv_cdf(1 - tail))
            )
            assert lo <= ratio <= hi, f"mc_std / predicted_std = {ratio:.3f} outside [{lo:.3f}, {hi:.3f}]"

    @pytest.mark.filterwarnings("error")
    def test_one_replica_std_is_nan(self, tmp_path):
        # one replica of data has no sample stddev: NaN, not 0 next to a
        # nonzero predicted_std, and no ddof warning on the way
        cfg = tmp_path / "one_replica.json"
        cfg.write_text(json.dumps(
            {"bath": {"gamma": 1, "tau_c": 1}, "grid": {"points": 3}, "noise": {"total_counts": 100}}
        ))
        assert main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "appendix_d.csv")
        single = [r for r in rows if r["n_replicas"] == "1"]
        assert single and all(r["mc_std"] == "nan" for r in single)

    def test_seed_override_and_determinism(self, tmp_path):
        cfg = self.cfg_path(tmp_path)
        main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "99"])
        main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = (tmp_path / "a" / "appendix_d.csv").read_bytes()
        assert a == (tmp_path / "b" / "appendix_d.csv").read_bytes()
        main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "c"), "--seed", "100"])
        assert a != (tmp_path / "c" / "appendix_d.csv").read_bytes()
        # the header records the seed the run drew with
        assert '"seed":99' in a.decode().split("\n")[1]

    @pytest.mark.parametrize("command", ["figure2", "sweep", "witness"])
    def test_seed_flag_belongs_to_appendix_d(self, tmp_path, capsys, command):
        # these draw no noise, so a seed would only rewrite the config header
        cfg = self.cfg_path(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWitness:
    def test_monotone_regime_columns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "bath": {"gamma": 0.5, "tau_c": 1.0},
                "grid": {"t_max_gamma": 5.0, "points": 101, "equal_times": True},
            },
        )
        rc = main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        header, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert header == ["t", "rate_gamma", "g_abs2", "cpf_zzz", "cpf_xzx", "warning"]
        rates = [float(r["rate_gamma"]) for r in rows]
        surv = [float(r["g_abs2"]) for r in rows]
        assert all(g >= -1e-9 for g in rates)
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(surv, surv[1:]))
        # memory is visible to the CPF even though the rate never goes negative
        assert max(float(r["cpf_zzz"]) for r in rows) >= 0.05
        assert all(r["warning"] == "" for r in rows)

    def test_zero_crossing_truncates_with_warning(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"bath": {"gamma": 1.0, "tau_c": 1.0}, "grid": {"t_max_gamma": 6.0, "points": 61}},
        )
        main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert len(rows) < 61
        warning = rows[-1]["warning"]
        assert warning.startswith("truncated")
        assert all(r["warning"] == "" for r in rows[:-1])
        reported = float(warning.rsplit("=", 1)[1])
        assert reported == pytest.approx(3 * np.pi / 2, abs=0.15)

    def test_zero_crossing_detected_with_index(self, tmp_path):
        # gamma tau_c = 1: G crosses zero at t = 3 pi/2 tau_c; on an output
        # step of 0.01 the warning names the first time past it, and the
        # rows stop one step before
        grid = {"t_max_gamma": 6.0, "points": 601}
        cfg = write_config(tmp_path, {"bath": {"gamma": 1.0, "tau_c": 1.0}, "grid": grid})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        reported = float(rows[-1]["warning"].rsplit("=", 1)[1])
        assert reported == pytest.approx(3 * np.pi / 2, abs=0.01)
        assert len(rows) == round(reported / 0.01)
        assert all(np.isfinite(float(r["rate_gamma"])) for r in rows)

    def test_exact_zero_is_a_crossing(self, tmp_path, monkeypatch):
        # a G of exactly 0 stops the rows where it lies, with no sign change
        # around it: G = 1, 0.5, 0, -0.5 at gamma t = 0, 0.1, 0.2, 0.3
        curves = cpfsim.runs._curves

        def with_a_zero(cfg):
            times, solved, pairs, (_, g_tau, g2) = curves(cfg)
            return times, solved, pairs, (np.array([1.0, 0.5, 0.0, -0.5]), g_tau, g2)

        monkeypatch.setattr(cpfsim.runs, "_curves", with_a_zero)
        grid = {"t_max_gamma": 0.3, "points": 4}
        cfg = write_config(tmp_path, {"grid": grid})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert [r["t"] for r in rows] == ["0", "0.1"]
        assert rows[-1]["warning"] == "truncated: G(t) crosses zero near gamma*t = 0.2"

    def test_kernel_file_solved_once(self, tmp_path, monkeypatch):
        # the rate column comes from the solve that gives the CPF and |G|^2
        # columns: output step 1 and integration step 1/100 to 2 t_max = 8,
        # so one solve of 801 samples and none more to the last time and a step
        from cpfsim import propagator

        calls = []
        solve = propagator.volterra_trapezoid

        def spy(f, h):
            calls.append((len(f), h))
            return solve(f, h)

        monkeypatch.setattr(propagator, "volterra_trapezoid", spy)
        grid = {"t_max_gamma": 4.0, "points": 5}
        cfg = write_config(tmp_path, {"bath": TestSweep.lorentzian_kernel_csv(tmp_path), "grid": grid})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert len(rows) == 5
        assert calls == [(801, 0.01)]

    def test_zero_crossing_at_the_third_time_truncates_to_two_rows(self, tmp_path):
        # gamma tau_c = 5: G crosses zero near gamma t = 6.3, here at the
        # third output time; the rate needs no output times before it
        grid = {"t_max_gamma": 20.0, "points": 5}
        cfg = write_config(tmp_path, {"bath": {"gamma": 5.0, "tau_c": 1.0}, "grid": grid})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert [r["t"] for r in rows] == ["0", "5"]
        assert rows[-1]["warning"] == "truncated: G(t) crosses zero near gamma*t = 10"

    def test_two_output_times_give_exact_rates(self, tmp_path):
        # gamma tau_c = 1/2: gamma(t) = (1/2 tau_c) x/(1+x), x = t/2 tau_c
        cfg = write_config(tmp_path, {"bath": {"gamma": 1, "tau_c": 0.5}, "grid": {"points": 2}})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert [r["t"] for r in rows] == ["0", "5"]
        assert rows[0]["rate_gamma"] == "0"
        assert float(rows[1]["rate_gamma"]) == pytest.approx(5 / 6, rel=1e-11)
        assert all(r["warning"] == "" for r in rows)

    def test_rates_exact_near_the_markov_limit(self, tmp_path):
        # gamma tau_c = 0.01 on the default grid: the closed-form rate
        # gamma tanh(chi x)/(chi + tanh(chi x)) rises from 0 at t = 0 to
        # near its plateau (1 - chi)/(2 tau_c) within the first output step
        gamma, tau_c = 1.0, 0.01
        cfg = write_config(tmp_path, {"bath": {"gamma": gamma, "tau_c": tau_c}, "grid": None})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert len(rows) == 101
        chi = np.sqrt(1 - 2 * gamma * tau_c)
        for row in rows[:2]:
            th = np.tanh(chi * float(row["t"]) / gamma / (2 * tau_c))
            exact = gamma * th / (chi + th)
            assert abs(float(row["rate_gamma"]) - exact) <= 1e-6
        assert rows[0]["rate_gamma"] == "0"

    @pytest.mark.parametrize("tau_c", [0.01, 1e-3])
    def test_kernel_file_rate_near_the_markov_limit(self, tmp_path, monkeypatch, tau_c):
        # the Lorentzian sampled every tau_c / 10: linear interpolation
        # raises the rate's plateau ~1/2 by dt^2 / (12 tau_c^2) = 8e-4 of it,
        # and the difference at tau_c / 25 adds less
        monkeypatch.chdir(tmp_path)
        assert TestSweep.markov_limit_run(tmp_path, tau_c, "witness") == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        t = np.array([float(r["t"]) for r in rows])
        assert np.allclose(t, np.arange(101) * 0.05, rtol=1e-12, atol=0)
        chi = np.sqrt(1 - 2 * tau_c)
        th = np.tanh(chi * t / (2 * tau_c))
        exact = th / (chi + th)
        assert rows[0]["rate_gamma"] == "0"
        rate = np.array([float(r["rate_gamma"]) for r in rows])
        assert np.max(np.abs(rate - exact)) <= 1e-3

    def test_rate_next_to_a_zero_crossing(self, tmp_path):
        # tests/configs/truncated_witness.json, gamma tau_c = 5: one output
        # step before G's zero the rate is (gamma/w) tan(w x)/(1 + tan(w x)/w),
        # w = 3, x = t/2 tau_c
        config = Path(__file__).resolve().parent / "configs" / "truncated_witness.json"
        assert main(["witness", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        row = rows[-1]
        assert row["t"] == "6.3"
        assert row["warning"] == "truncated: G(t) crosses zero near gamma*t = 6.4"
        gamma, w = 5.0, 3.0
        tan = np.tan(w * 6.3 / gamma / 2)
        exact = (gamma / w) * tan / (1 + tan / w)
        assert exact == pytest.approx(589.454, rel=1e-6)
        assert float(row["rate_gamma"]) == pytest.approx(exact, rel=1e-6)

    def test_g_deep_in_the_born_markov_regime(self, tmp_path):
        # tests/configs/born_markov_witness.json, gamma tau_c = 1e-6: |G|^2 to
        # 50 digits is 0.904838277633001 at gamma t = 0.1 and
        # 2.0611350721214e-9 at gamma t = 20; a slow rate formed as 1 - chi
        # cancels and writes ...636 and 2.0611350737e-09
        config = Path(__file__).resolve().parent / "configs" / "born_markov_witness.json"
        assert main(["witness", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert (rows[1]["t"], rows[1]["g_abs2"]) == ("0.1", "0.904838277633")
        assert (rows[-1]["t"], rows[-1]["g_abs2"]) == ("20", "2.06113507212e-09")

    def test_zero_crossing_at_the_fourth_time_truncates_to_three_rows(self, tmp_path):
        grid = {"t_max_gamma": 20.0, "points": 9}
        cfg = write_config(tmp_path, {"bath": {"gamma": 5.0, "tau_c": 1.0}, "grid": grid})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert [r["t"] for r in rows] == ["0", "2.5", "5"]
        assert rows[-1]["warning"] == "truncated: G(t) crosses zero near gamma*t = 7.5"

    def test_impossible_conditioning_gives_nan(self, tmp_path):
        # p = 1: at t = 0 the z-z-z outcome y = -1 has zero probability, so
        # that value is NaN instead of aborting the run; x-z-x stays defined
        cfg = write_config(tmp_path, {"state": {"p": 1.0}})
        rc = main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert float(rows[0]["t"]) == 0.0
        assert rows[0]["cpf_zzz"] == "nan"
        assert np.isfinite(float(rows[0]["cpf_xzx"]))
        assert all(r["cpf_zzz"] != "nan" for r in rows[1:])

    def test_tabulated_bath_matches_analytic(self, tmp_path, monkeypatch, perfbench_workloads):
        # the benchmark's tabulated Lorentzian (gamma tau_c = 1/2, sampled to
        # t = 30) through the numerical pipeline, against the closed forms of
        # the same bath on the same 151-point grid
        perfbench_workloads.write_kernel_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        grid = {"t_max_gamma": 15.0, "points": 151, "equal_times": True}
        baths = {
            "tabulated": {"gamma": 1.0, "kernel_csv": perfbench_workloads.KERNEL_CSV},
            "analytic": {"gamma": 1.0, "tau_c": 0.5},
        }
        columns = {}
        for name, bath in baths.items():
            cfg = write_config(tmp_path, {"bath": bath, "grid": grid}, name=f"{name}.json")
            assert main(["witness", "--config", str(cfg), "--out", name]) == 0
            _, rows = read_rows(tmp_path / name / "witness.csv")
            assert len(rows) == 151
            assert all(r["warning"] == "" for r in rows)
            columns[name] = {
                key: np.array([float(r[key]) for r in rows])
                for key in ("t", "rate_gamma", "g_abs2", "cpf_zzz", "cpf_xzx")
            }
        tabulated, analytic = columns["tabulated"], columns["analytic"]
        assert tabulated["t"].tolist() == analytic["t"].tolist()
        for key, bound in (
            ("g_abs2", 1e-4), ("cpf_zzz", 1e-4), ("cpf_xzx", 1e-4), ("rate_gamma", 5e-4)
        ):
            err = np.max(np.abs(tabulated[key] - analytic[key]))
            assert err <= bound, f"{key}: max error {err:.2e} > {bound:g}"


class TestSweep:
    test_kernel_too_short_to_resolve_exits_2 = refusal_test("kernel too short to resolve")
    test_overlong_grid_refused_by_its_step_count = refusal_test("overlong grid")

    def test_equal_times_analytic(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 2 * 21
        for r in rows:
            if r["cpf_closed"] != "nan":
                assert abs(float(r["cpf_closed"]) - float(r["cpf_table"])) <= 1e-9

    def test_table_route_within_its_bound_where_p_y_is_small(self, tmp_path):
        # z-z-z at p = 1, y = -1: the CPF is exactly 0, and P(y) = 1 - |G(t)|^2
        # falls from 5e-7 at gamma t = 1e-3 to 5e-11 at 1e-5. cpf_table carries
        # the rounding of its cells, up to eps / P(y) each: 5e-9 at P(y) = 5e-9,
        # beyond the 1e-9 agreement once claimed for every row
        grid = {"t_max_gamma": 1e-3, "points": 101}
        cfg = write_config(tmp_path, {"state": {"p": 1.0}, "schemes": ["zzz"], "grid": grid})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert (rows[0]["cpf_closed"], rows[0]["cpf_table"]) == ("nan", "nan")  # P(y) = 0
        columns = ("t", "cpf_closed", "cpf_table")
        t, closed, table = (np.array([float(r[c]) for r in rows[1:]]) for c in columns)
        p_y = 1.0 - lorentzian_G(1.0, 1.0, t) ** 2
        assert p_y.min() < 1e-10 and p_y.max() > 4e-7
        assert np.all(closed == 0.0)
        # the stated bound, and the rounding to 12 significant digits of the print
        bound = np.finfo(float).eps * (3.0 / p_y + 20.0) + 5e-12 * np.abs(table)
        assert np.all(np.abs(table - closed) <= bound)
        assert np.max(np.abs(table - closed)) > 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        # reruns of one sweep are byte-identical
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    @staticmethod
    def lorentzian_kernel_csv(tmp_path):
        """The gamma = tau_c = 1 Lorentzian kernel tabulated at h = 0.05."""
        import cpfsim

        h = 0.05
        ts = np.arange(0, 10.0 + h / 2, h)
        vals = cpfsim.eval_kernel_grid(cpfsim.LorentzianKernel(1.0, 1.0), ts)
        kpath = tmp_path / "kernel.csv"
        kpath.write_text(
            "t,re\n" + "\n".join(f"{t:.10g},{v.real:.10g}" for t, v in zip(ts, vals)) + "\n"
        )
        return {"gamma": 1.0, "kernel_csv": str(kpath), "time_unit": "seconds"}

    def test_tabulated_kernel_pipeline(self, tmp_path):
        import cpfsim

        cfg = write_config(
            tmp_path,
            {
                "bath": self.lorentzian_kernel_csv(tmp_path),
                "schemes": ["zzz"],
                "grid": {"t_max_gamma": 5.0, "points": 101, "equal_times": True},
            },
        )
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        # numerical pipeline agrees with the analytic curve of the same bath
        for r in rows[1:]:
            t = float(r["t"])
            g_t = float(cpfsim.lorentzian_G(1.0, 1.0, t))
            g2 = float(cpfsim.lorentzian_G_two_time(1.0, 1.0, t, t))
            expect = cpfsim.cpf_closed_form(
                cpfsim.MeasurementScheme.ZZZ, cpfsim.InitialState.from_population(0.8), g_t, g2
            ).value
            assert float(r["cpf_closed"]) == pytest.approx(expect, abs=2e-3)

    def test_tabulated_kernel_full_grid(self, tmp_path):
        # the 2D numerical pipeline: G2 on the output rows of the refined
        # grid, subsampled to the output columns
        import cpfsim

        cfg = write_config(
            tmp_path,
            {
                "bath": self.lorentzian_kernel_csv(tmp_path),
                "grid": {"t_max_gamma": 4.0, "points": 5, "equal_times": False},
            },
        )
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 2 * 25
        state = cpfsim.InitialState.from_population(0.8)
        peak = 0.0
        for r in rows:
            t, tau = float(r["t"]), float(r["tau"])
            if t == 0.0:
                continue
            g_t = float(cpfsim.lorentzian_G(1.0, 1.0, t))
            g2 = float(cpfsim.lorentzian_G_two_time(1.0, 1.0, t, tau))
            scheme = cpfsim.MeasurementScheme(r["scheme"])
            expect = cpfsim.cpf_closed_form(scheme, state, g_t, g2).value
            peak = max(peak, abs(expect))
            assert float(r["cpf_closed"]) == pytest.approx(expect, abs=2e-3)
            assert float(r["cpf_table"]) == pytest.approx(expect, abs=2e-3)
        assert peak > 0.05

    def test_tabulated_full_grid_solves_distinct_rows(self, tmp_path, monkeypatch):
        # a 2D sweep of (n+1)^2 points takes G2 at its (t, tau) pairs from one
        # Volterra solve, on kernel samples up to the largest t + tau of the
        # refined grid: output step 1, integration step 1/100, so 801 samples
        from cpfsim import propagator

        calls = []
        solve = propagator.volterra_trapezoid

        def spy(f, h):
            calls.append((len(f), h))
            return solve(f, h)

        monkeypatch.setattr(propagator, "volterra_trapezoid", spy)
        cfg = write_config(
            tmp_path,
            {
                "bath": self.lorentzian_kernel_csv(tmp_path),
                "schemes": ["zzz"],
                "grid": {"t_max_gamma": 4.0, "points": 5, "equal_times": False},
            },
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 25
        assert calls == [(801, 0.01)]

    def test_y_plus_impossible_conditioning_gives_nan(self, tmp_path):
        # p = 0 under z-z-z: the system is never excited, so y = +1 has zero
        # probability at every t and both routes are NaN
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "bath": {"gamma": 1, "tau_c": 1},
                    "state": {"p": 0},
                    "schemes": ["zzz"],
                    "y": 1,
                    "grid": {"t_max_gamma": 1, "points": 3},
                }
            )
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert [(r["cpf_closed"], r["cpf_table"]) for r in rows] == [("nan", "nan")] * 3

    def test_full_grid_mode(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"grid": {"t_max_gamma": 2.0, "points": 5, "equal_times": False}, "schemes": ["xzx"]},
        )
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 25
        taus = {r["tau"] for r in rows}
        assert len(taus) == 5

    @staticmethod
    def markov_limit_run(tmp_path, tau_c, command="sweep"):
        """``command`` on tests/configs/tabulated_markov_limit.json: 101 equal
        times to gamma t = 5 at p = 0.8, with its kernel file at gamma tau_c =
        ``tau_c`` (the CI bytes report writes it at 0.01). Returns the exit
        code."""
        markov_limit_kernel(tmp_path, tau_c)
        config = Path(__file__).resolve().parent / "configs" / "tabulated_markov_limit.json"
        return main([command, "--config", str(config), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("tau_c", [0.1, 0.01, 1e-3])
    def test_tabulated_kernel_near_markov_limit(self, tmp_path, monkeypatch, capsys, tau_c):
        # The step resolves tau_c at every gamma tau_c, so the CPF matches the
        # closed forms. Error model, fixed before measuring: linear
        # interpolation between samples dt = tau_c / 10 apart raises the
        # kernel's first moment, which sets G2 near the Born-Markov limit, by
        # dt^2 / (12 tau_c^2) = 8e-4; x-z-x carries G2 once and z-z-z twice
        # (1.7e-3), and the quadrature at tau_c / 25 adds ~5e-4 of the peak.
        # At the old step 1/(100 gamma), gamma tau_c = 0.01 and 1e-3 were
        # 0.34 and 190 times the peak off.
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.markov_limit_run(tmp_path, tau_c) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        state = InitialState.from_population(0.8)
        for scheme in (MeasurementScheme.ZZZ, MeasurementScheme.XZX):
            block = [r for r in rows if r["scheme"] == scheme.value]
            t = np.arange(101) * 0.05
            assert np.allclose([float(r["t"]) for r in block], t, rtol=1e-12, atol=0)
            closed = closed_values(
                scheme, state, lorentzian_G(1.0, tau_c, t), lorentzian_G_two_time(1.0, tau_c, t, t)
            )
            peak = np.nanmax(np.abs(closed))
            for column in ("cpf_closed", "cpf_table"):
                values = np.array([float(r[column]) for r in block])
                assert np.array_equal(np.isnan(values), np.isnan(closed))
                assert np.nanmax(np.abs(values - closed)) <= 5e-3 * peak, (scheme, column)

    def test_benchmark_tabulated_config_takes_its_step(
        self, tmp_path, monkeypatch, perfbench_workloads
    ):
        # the perfbench tabulated_sweep workload: tau_c = 0.5 resolved at the
        # old step 0.01 (h = 0.1, refine 10), so its datasets keep their bytes
        perfbench_workloads.write_kernel_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        steps = []
        solve = cpfsim.runs.solve

        def spy(kernel, t_end, t_step=None):
            steps.append(t_step)
            return solve(kernel, t_end, t_step)

        monkeypatch.setattr(cpfsim.runs, "solve", spy)
        config = perfbench_workloads.WORKLOADS["tabulated_sweep"].config_path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(config), "--out", "out"]) == 0
        assert steps == [0.01]
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 2 * 151


class TestOneSweepPath:
    """figure2, sweep, witness and appendix-d take their times, G and G2
    from one builder, so one parameter set gives the same rows whichever
    runner writes it; each runner builds only the columns it writes."""

    @pytest.mark.parametrize(
        "command, workload, counts",
        [
            ("sweep", "sweep_grid", (3, 3, 3)),
            ("figure2", "sweep_grid", (4, 4, 4)),
            ("witness", "sweep_grid", (0, 2, 0)),
            ("appendix-d", "noise_study", (6, 0, 0)),
        ],
    )
    def test_each_runner_builds_what_it_writes(
        self, tmp_path, monkeypatch, perfbench_workloads, command, workload, counts
    ):
        # table_probs, closed_values and table_correlation calls of one run:
        # a table or column per scheme and preset that the dataset holds
        calls = dict.fromkeys(("table_probs", "closed_values", "table_correlation"), 0)
        for name in calls:
            def spy(*args, _name=name, _build=getattr(cpfsim.runs, name), **kwargs):
                calls[_name] += 1
                return _build(*args, **kwargs)

            monkeypatch.setattr(cpfsim.runs, name, spy)
        config = perfbench_workloads.WORKLOADS[workload].config_path
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert tuple(calls.values()) == counts

    @pytest.mark.parametrize(
        "scheme, ratio, p, points",
        [("zzz", 0.1, 0.8, 151), ("xzx", 0.2, 1.0, 101), ("zzz", 5.0, 0.5, 31)],
    )
    def test_figure2_combo_is_a_preset_sweep(self, tmp_path, scheme, ratio, p, points):
        # at gamma tau_c = 0.1 and 151 points the t = 1.9 row told the two
        # apart when figure2 made its own times
        grid = {"t_max_gamma": 5.0, "points": points, "equal_times": True}
        combo = {"scheme": scheme, "gamma_tau_c": ratio, "p": p}
        preset = {
            "bath": {"gamma": ratio, "tau_c": 1}, "state": {"p": p}, "schemes": [scheme],
            "grid": grid, "units": "gamma_t",
        }
        configs = {
            "figure2": write_config(tmp_path, {"grid": grid, "combos": [combo]}, "figure2.json"),
            "sweep": write_config(tmp_path, preset, "sweep.json"),
        }
        rows = {}
        for cmd, cfg in configs.items():
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == 0
            rows[cmd] = read_rows(tmp_path / cmd / f"{cmd}.csv")
        assert len(rows["sweep"][1]) == points
        assert rows["figure2"] == rows["sweep"]

    @pytest.mark.parametrize("tabulated", [False, True], ids=["lorentzian", "tabulated"])
    def test_witness_cpf_is_the_sweep_closed_column(self, tmp_path, tabulated):
        # gamma = tau_c = 1: G crosses zero near gamma t = 3 pi / 2, so the
        # witness rows stop there while the sweep runs on
        bath = TestSweep.lorentzian_kernel_csv(tmp_path) if tabulated else BASE_CONFIG["bath"]
        cfg = write_config(tmp_path, {"bath": bath, "schemes": ["zzz", "xzx"]})
        for cmd in ("witness", "sweep"):
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == 0
        _, witness = read_rows(tmp_path / "witness" / "witness.csv")
        _, sweep = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert witness[-1]["warning"].startswith("truncated")
        for scheme in ("zzz", "xzx"):
            closed = [(r["t"], r["cpf_closed"]) for r in sweep if r["scheme"] == scheme]
            assert len(closed) == 21
            assert [(r["t"], r[f"cpf_{scheme}"]) for r in witness] == closed[: len(witness)]

    def test_appendix_d_ideal_is_the_figure2_table_column(self, tmp_path):
        # appendix-d's y = -1 blocks read the tables that figure2 writes for
        # the same preset: one x-z-x block per visibility and two z-z-z ones
        presets = [("xzx", 1.0, 1.0), ("zzz", 1.0, 0.8), ("zzz", 0.1, 0.8)]
        combos = [{"scheme": s, "gamma_tau_c": r, "p": p} for s, r, p in presets]
        noise = {"total_counts": 1000, "replicas": 2}
        cfg = write_config(tmp_path, {"combos": combos, "noise": noise})
        for cmd in ("appendix-d", "figure2"):
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == 0
        _, studies = read_rows(tmp_path / "appendix-d" / "appendix_d.csv")
        _, curves = read_rows(tmp_path / "figure2" / "figure2.csv")
        tables, ideals = {}, {}
        for r in curves:
            tables.setdefault((r["scheme"], r["gamma_tau_c"], r["p"]), []).append(
                (r["t"], r["cpf_table"])
            )
        for r in studies:
            if r["y"] == "-1":
                ideals.setdefault((r["scheme"], r["gamma_tau_c"], r["p"], r["V"]), []).append(
                    (r["t"], r["ideal"])
                )
        assert len(tables) == 3 and len(ideals) == 5
        for (*preset, _), rows in ideals.items():
            assert len(rows) == 21
            assert rows == tables[tuple(preset)], preset


class TestTimeUnit:
    """Datasets write times as gamma t, and a kernel file holds t in units of
    1/gamma and f in their inverse square, whatever gamma is."""

    def test_t_column_is_gamma_t_at_gamma_2(self, tmp_path):
        gamma, tau_c = 2.0, 0.2
        grid = {"t_max_gamma": 3.0, "points": 31, "equal_times": True}
        # the kernel of the analytic bath, sampled to the largest t + tau
        ts = np.arange(601) * 0.005
        kpath = tmp_path / "kernel.csv"
        kpath.write_text(
            "t,re\n"
            + "".join(f"{t:.17g},{gamma / (2 * tau_c) * np.exp(-t / tau_c):.17g}\n" for t in ts)
        )
        runs = {
            "sweep": {"bath": {"gamma": gamma, "tau_c": tau_c}},
            "witness": {"bath": {"gamma": gamma, "tau_c": tau_c}},
            "witness-tabulated": {"bath": {"gamma": gamma, "kernel_csv": str(kpath)}},
            "figure2": {"combos": [{"scheme": "zzz", "gamma_tau_c": gamma, "p": 0.8}]},
        }
        expected = np.arange(31) * 3.0 / 30
        rows = {}
        for name, overrides in runs.items():
            cmd = name.split("-")[0]
            cfg = write_config(tmp_path, {**overrides, "grid": grid}, f"{name}.json")
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            rows[name] = read_rows(tmp_path / name / f"{cmd}.csv")[1]
            t = np.array([float(r["t"]) for r in rows[name]])
            blocks = t.size // expected.size  # sweep writes one block per scheme
            assert t.size == blocks * expected.size
            assert np.max(np.abs(t - np.tile(expected, blocks))) <= 1e-15
        # the tabulated kernel in units of 1/gamma is the analytic bath
        g_abs2 = {
            name: np.array([float(r["g_abs2"]) for r in rows[name]])
            for name in ("witness", "witness-tabulated")
        }
        assert np.max(np.abs(g_abs2["witness-tabulated"] - g_abs2["witness"])) <= 1e-4

    def test_truncation_warning_names_the_next_gamma_t(self, tmp_path):
        # gamma tau_c = 2: G crosses zero inside the grid, and the warning
        # names the gamma t one output step past the last row
        grid = {"t_max_gamma": 20.0, "points": 201}
        cfg = write_config(tmp_path, {"bath": {"gamma": 2.0, "tau_c": 1.0}, "grid": grid})
        assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "witness.csv")
        assert 3 < len(rows) < 201
        assert float(rows[-1]["t"]) == pytest.approx((len(rows) - 1) * 0.1, abs=1e-15)
        assert rows[-1]["warning"] == (
            f"truncated: G(t) crosses zero near gamma*t = {len(rows) * 0.1:.6g}"
        )


class TestConfigEcho:
    """The ``# config`` header line is the parsed config, every default
    filled in: parsing it gives the config of the run back."""

    @staticmethod
    def header_config(path):
        line = path.read_text(encoding="utf-8").split("\n")[1]
        assert line.startswith("# config ")
        return parse_config(json.loads(line[len("# config "):]))

    @pytest.mark.parametrize("name", ["sweep_grid", "noise_study", "tabulated_sweep"])
    def test_benchmark_headers_round_trip(self, tmp_path, monkeypatch, perfbench_workloads, name):
        # the benchmark configs set units, bath.time_unit and noise.visibility,
        # which no run reads: they load, and the header leaves them out
        perfbench_workloads.write_kernel_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        workload = perfbench_workloads.WORKLOADS[name]
        assert main([workload.command, "--config", str(workload.config_path), "--out", "out"]) == 0
        cfg = load_config(workload.config_path)
        assert self.header_config(tmp_path / "out" / workload.output) == cfg

    @pytest.mark.parametrize(
        "command, name",
        [
            ("figure2", "preset_edge"),
            ("appendix-d", "preset_edge"),
            ("witness", "truncated_witness"),
            ("witness", "born_markov_witness"),
        ],
        ids=[
            "preset-edge-figure2", "preset-edge-appendix-d", "truncated-witness",
            "born-markov-witness",
        ],
    )
    def test_ci_headers_round_trip(self, tmp_path, command, name):
        # the edge configs of tests/configs, which the CI bytes report runs
        path = Path(__file__).resolve().parent / "configs" / f"{name}.json"
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        output = {"appendix-d": "appendix_d.csv"}.get(command, f"{command}.csv")
        assert self.header_config(tmp_path / "out" / output) == load_config(path)

    @pytest.mark.parametrize("time_unit", [None, "seconds"], ids=["no-time-unit", "time-unit"])
    def test_tabulated_form_round_trips(self, tmp_path, time_unit):
        (tmp_path / "kernel.csv").write_text("t,re\n0,0.5\n1,0.25\n")
        bath = {"gamma": 2.0, "kernel_csv": str(tmp_path / "kernel.csv")}
        if time_unit is not None:
            bath["time_unit"] = time_unit
        cfg = parse_config({"bath": bath})
        assert cfg.echo()["bath"] == {"gamma": 2.0, "kernel_csv": str(tmp_path / "kernel.csv")}
        assert parse_config(cfg.echo()) == cfg

    def test_defaults_spelled_out_or_left_out_write_the_same_bytes(
        self, tmp_path, perfbench_workloads
    ):
        document = json.loads(perfbench_workloads.WORKLOADS["sweep_grid"].config_path.read_text())
        left_out = {k: v for k, v in document.items() if k not in ("units", "state", "y")}
        # p = 0.8 as the amplitudes sqrt(p), sqrt(1 - p) of InitialState.from_population
        spelled_out = {
            **document,
            "state": {"a": [math.sqrt(0.8), 0.0], "b": [math.sqrt(1.0 - 0.8), 0.0]},
            "combos": [
                {"scheme": s.value, "gamma_tau_c": r, "p": p} for s, r, p in FIGURE2_COMBOS
            ],
            "visibilities": list(DEFAULT_VISIBILITIES),
        }
        csvs = []
        for name, doc in (("given", document), ("left_out", left_out), ("spelled_out", spelled_out)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            csvs.append((tmp_path / name / "sweep.csv").read_bytes())
        assert csvs[1] == csvs[0]
        assert csvs[2] == csvs[0]


class TestValidate:
    def test_validate_passes(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_g2_check_is_the_identity(self, capsys):
        # G2 = G(t) G(tau) - G(t + tau) on one Volterra solve, against the
        # closed form on the 501 x 501 surface; the bound check reads it
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[1].startswith(
            "PASS  G2 identity on the Volterra solution vs closed form (max err "
        )
        assert lines[1].endswith(" <= 1e-5)")
        assert lines[4].startswith("PASS  probability bound |G2|^2 <= 1 - |G|^2 (excess ")

    def test_validate_can_fail(self, capsys, monkeypatch):
        # G of every tabulated solve scaled by 1 + 1e-3: the two checks that
        # read it fail, the three that do not pass, and the exit code is 1
        propagators = cpfsim.runs.propagators

        def scaled(kernel, *args):
            g_t, g_tau, g2 = propagators(kernel, *args)
            if isinstance(kernel, TabulatedKernel):
                g_t = g_t * (1 + 1e-3)
            return g_t, g_tau, g2

        monkeypatch.setattr(cpfsim.runs, "propagators", scaled)
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["FAIL", "PASS", "PASS", "PASS", "FAIL"]
        assert lines[0].startswith("FAIL  volterra vs closed form (max err ")
        assert lines[4].startswith("FAIL  probability bound |G2|^2 <= 1 - |G|^2 (excess ")


def test_package_exports_and_lazy_difflib():
    # the package exports every name of __all__ and refuses an unknown
    # one; the unknown-key hint imports difflib on the error path only, and
    # no dataset byte goes through the csv module
    src = Path(__import__("cpfsim").__file__).resolve().parents[1]
    code = """
import sys
import cpfsim.cli
assert "difflib" not in sys.modules, "difflib imported at start-up"
assert "csv" not in sys.modules, "csv imported at start-up"
import cpfsim
ns = {}
exec("from cpfsim import *", ns)
missing = [name for name in cpfsim.__all__ if name not in ns]
assert not missing, missing
try:
    cpfsim.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
"""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_in_process_main_leaves_the_collector_unfrozen(tmp_path):
    # only the process entry point freezes; cli.main is called in process by
    # the tests and the benchmark's trace mode
    before = gc.get_freeze_count()
    assert main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_python_m_writes_the_bytes_of_main(tmp_path, monkeypatch, perfbench_workloads):
    # the tabulated benchmark config through the process entry point, which
    # freezes the collector and reads the kernel with NumPy's reader
    perfbench_workloads.write_kernel_csv(tmp_path)
    monkeypatch.chdir(tmp_path)
    config = str(perfbench_workloads.WORKLOADS["tabulated_sweep"].config_path)
    assert main(["sweep", "--config", config, "--out", "in_process"]) == 0
    src = Path(__import__("cpfsim").__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "cpfsim", "sweep", "--config", config, "--out", "launched"],
        env=child_env(src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote {Path('launched', 'sweep.csv')}\n"
    expected = (tmp_path / "in_process" / "sweep.csv").read_bytes()
    assert (tmp_path / "launched" / "sweep.csv").read_bytes() == expected


def test_console_script_and_python_m_take_one_entry(monkeypatch):
    # Python 3.10 has no tomllib, so the script target is read as text
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = re.search(r'^cpfsim = "([\w.]+):(\w+)"$', pyproject.read_text(), re.MULTILINE)
    assert target, "no cpfsim console script in pyproject.toml"
    module, name = target.groups()
    assert (module, name) == ("cpfsim.__main__", "run")
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cpfsim.cli, "main", lambda: calls.append("main") or 0)
    # python -m cpfsim: run the package as __main__, as the interpreter does
    monkeypatch.delitem(sys.modules, "cpfsim.__main__", raising=False)
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("cpfsim", run_name="__main__")
    assert exited.value.code == 0
    assert calls == ["freeze", "main"]
    # the console script: import the target and call it
    assert getattr(importlib.import_module(module), name)() == 0
    assert calls == ["freeze", "main"] * 2
