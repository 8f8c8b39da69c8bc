"""Config parsing, dataset runners, CLI subcommands, determinism."""
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from cpfsim import lorentzian_G, lorentzian_G_two_time
from cpfsim.cli import main
from cpfsim.config import DEFAULT_VISIBILITIES, FIGURE2_COMBOS, load_config, parse_config
from cpfsim.cpf import InitialState, MeasurementScheme, conditioning_probability, table_probs
from cpfsim.experiment import degrade_probs
from cpfsim.errors import CoarseStepWarning, ValidationError

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


def read_rows(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("# cpfsim ")
    assert lines[1].startswith("# config ")
    body = [line for line in lines[2:] if not line.startswith("# ")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:] if line]
    return header, rows


class TestConfig:
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
        "overrides, message",
        [
            ({"combos": [{"scheme": "zzz", "p": 0.8}]}, r"combos\[0\]\.gamma_tau_c: missing"),
            (
                {"combos": [{"scheme": "abc", "gamma_tau_c": 1.0, "p": 0.8}]},
                r"combos\[0\]\.scheme: unknown scheme",
            ),
            (
                {"combos": {"scheme": "zzz", "gamma_tau_c": 1.0, "p": 0.8}},
                "combos: expected a list",
            ),
            ({"visibilities": ["x"]}, r"visibilities\[0\]: expected a number"),
            (
                {"combos": [{"scheme": "zzz", "gamma_tau_c": 0.0, "p": 0.8}]},
                r"combos\[0\]\.gamma_tau_c: must be > 0",
            ),
            (
                {
                    "combos": [
                        {"scheme": "zzz", "gamma_tau_c": 1.0, "p": 0.8},
                        {"scheme": "zzz", "gamma_tau_c": 1.0, "p": 1.5},
                    ]
                },
                r"combos\[1\]\.p: must lie in \[0, 1\]",
            ),
            ({"visibilities": [0.9, 1.2]}, r"visibilities\[1\]: must lie in \[0, 1\]"),
            # an empty combos list wrote a header-only figure2 CSV, and an
            # empty visibilities list dropped appendix-d's visibility blocks
            ({"combos": []}, "combos: expected a non-empty list"),
            ({"visibilities": []}, "visibilities: expected a non-empty list"),
        ],
    )
    def test_combos_and_visibilities_validated(self, overrides, message):
        with pytest.raises(ValidationError, match=r"^config: " + message):
            parse_config({"bath": {"gamma": 1.0, "tau_c": 1.0}, **overrides})

    def test_field_identified_errors(self):
        with pytest.raises(ValidationError, match="bath.gamma"):
            parse_config({"bath": {"gamma": -1.0, "tau_c": 0.5}})
        with pytest.raises(ValidationError, match="grid.points"):
            parse_config({"bath": {"gamma": 1.0, "tau_c": 1.0}, "grid": {"points": 1}})
        with pytest.raises(ValidationError, match="schemes"):
            parse_config({"bath": {"gamma": 1.0, "tau_c": 1.0}, "schemes": ["abc"]})
        with pytest.raises(ValidationError, match="bath"):
            parse_config({"bath": {"gamma": 1.0}})
        with pytest.raises(ValidationError, match="noise.total_counts"):
            parse_config({"bath": {"gamma": 1.0, "tau_c": 1.0}, "noise": {}})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # one time unit: datasets write gamma t, and a kernel file holds t
            # in units of 1/gamma and f in their inverse square
            ({"units": "absolute"}, "units: must be 'gamma_t', got 'absolute'"),
            (
                {"bath": {"gamma": 2.0, "kernel_csv": "kernel.csv", "time_unit": "inverse_gamma"}},
                "bath.time_unit: must be 'seconds', got 'inverse_gamma'",
            ),
            (
                {"bath": {"gamma": 2.0, "tau_c": 1.0, "time_unit": "inverse_gamma"}},
                "bath.time_unit: must be 'seconds', got 'inverse_gamma'",
            ),
            ({"schemes": "zzz"}, "schemes: expected a non-empty list of scheme names"),
            # a repeated scheme wrote each of its blocks twice
            ({"schemes": ["zzz", "zzz"]}, r"schemes\[1\]: duplicate scheme 'zzz'"),
            ({"schemes": ["xzx", "zzz", "ZZZ"]}, r"schemes\[2\]: duplicate scheme 'zzz'"),
        ],
        ids=[
            "units",
            "time-unit",
            "time-unit-analytic",
            "schemes-string",
            "schemes-repeated",
            "schemes-repeated-case",
        ],
    )
    def test_refused_units_and_schemes_exit_2(
        self, tmp_path, monkeypatch, capsys, overrides, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kernel.csv").write_text("t,re\n0,0.5\n1,0.25\n")
        cfg = write_config(tmp_path, overrides)
        with pytest.raises(ValidationError, match=r"^config: " + message):
            load_config(cfg)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the config of a misspelt key ran the defaults z-z-z and x-z-x to
            # gamma t = 5, while the header echoed the misspelt keys
            ({"scheme": ["yzy"]}, "scheme: unknown key; did you mean 'schemes'?"),
            ({"bath": {"gamma": 1, "tau": 1}}, "bath.tau: unknown key; did you mean 'tau_c'?"),
            ({"state": {"p": 0.8, "q": 0.2}}, "state.q: unknown key$"),
            ({"grid": {"t_max": 9, "points": 3}}, "grid.t_max: unknown key; did you mean 't_max_gamma'?"),
            (
                {"noise": {"total_counts": 100, "seeds": 3}},
                "noise.seeds: unknown key; did you mean 'seed'?",
            ),
            (
                {"combos": [{"scheme": "zzz", "gamma_tau_c": 1, "p": 0.8, "ratio": 1}]},
                r"combos\[0\]\.ratio: unknown key$",
            ),
            # a state of both forms ran p and dropped a and b
            (
                {"state": {"p": 0.8, "a": 1, "b": 0}},
                r"state: expected either \{'p': ...\} or \{'a': ..., 'b': ...\}",
            ),
        ],
        ids=["top", "bath", "state", "grid", "noise", "combo", "state-both-forms"],
    )
    def test_unknown_keys_exit_2(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, overrides)
        with pytest.raises(ValidationError, match=r"^config: " + message):
            load_config(cfg)
        assert main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("sweep", {"grid": {"t_max_gamma": 1e307, "points": 3}}),
            ("sweep", {"bath": {"gamma": 1e-320, "tau_c": 1}}),
            ("figure2", {"combos": [{"scheme": "zzz", "gamma_tau_c": 1e-320, "p": 0.8}]}),
        ],
        ids=["t_max_gamma", "gamma", "combo"],
    )
    def test_overflowing_time_step_exits_2(self, tmp_path, capsys, command, overrides):
        # t_max_gamma / gamma beyond the float range ended in an
        # OverflowError traceback
        cfg = write_config(tmp_path, overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config: grid.t_max_gamma: ")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("sweep", {"bath": {"gamma": float("nan"), "kernel_csv": "kernel.csv"}}, "bath.gamma"),
            ("sweep", {"grid": {"t_max_gamma": float("inf")}}, "grid.t_max_gamma"),
            (
                "appendix-d",
                {"noise": {"total_counts": float("inf"), "replicas": 2}},
                "noise.total_counts",
            ),
            ("sweep", {"state": {"a": float("nan"), "b": 0}}, "state.a"),
            ("sweep", {"grid": {"t_max_gamma": 10**400}}, "grid.t_max_gamma"),
        ],
    )
    def test_non_finite_numbers_exit_2(
        self, tmp_path, monkeypatch, capsys, command, overrides, field
    ):
        # JSON admits NaN, Infinity and integers beyond the float range; each
        # would otherwise crash the run or write an all-NaN dataset
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kernel.csv").write_text("t,re\n0,0.5\n1,0.25\n")
        cfg = write_config(tmp_path, overrides)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: config: {field}: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("y", [True, 1.0, -1.0])
    def test_y_must_be_an_integer(self, tmp_path, capsys, y):
        # True == 1, so a bare membership test let it through and the y
        # column read "true"
        cfg = write_config(tmp_path, {"y": y})
        for command in ("sweep", "figure2"):
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert rc == 2
            assert "error: config: y: must be +1 or -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_kernel_file(self, tmp_path):
        with pytest.raises(ValidationError, match="kernel_csv"):
            parse_config(
                {"bath": {"gamma": 1.0, "kernel_csv": str(tmp_path / "nope.csv")}}
            )

    @pytest.mark.parametrize(
        "case", ["kernel-is-a-directory", "kernel-not-utf8", "config-not-utf8", "out-below-a-file"]
    )
    def test_unreadable_input_or_output_exits_2(self, tmp_path, case):
        # each case ended in an OSError or UnicodeDecodeError traceback
        tabulated = {"bath": {"gamma": 1.0, "kernel_csv": str(tmp_path / "kernel.csv")}}
        cfg = write_config(tmp_path, tabulated if case.startswith("kernel") else None)
        out = tmp_path / "out"
        if case == "kernel-is-a-directory":
            (tmp_path / "kernel.csv").mkdir()
            named = tmp_path / "kernel.csv"
        elif case == "kernel-not-utf8":
            (tmp_path / "kernel.csv").write_bytes(b"t,re\n0,1\n1,\xff\n")
            named = tmp_path / "kernel.csv"
        elif case == "config-not-utf8":
            cfg.write_bytes(b'{"bath": {"gamma": 1.0, \xff"tau_c": 1.0}}')
            named = cfg
        else:
            (tmp_path / "file").write_text("not a directory\n")
            out = named = tmp_path / "file" / "out"
        src = Path(__import__("cpfsim").__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "cpfsim", "sweep", "--config", str(cfg), "--out", str(out)],
            env={"PYTHONPATH": str(src), "PATH": ""},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert str(named) in result.stderr
        assert "Traceback" not in result.stderr


class TestFigure2:
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

    def test_malformed_combo_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"combos": [{"scheme": "zzz", "p": 0.8}]})
        rc = main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error: config: combos[0].gamma_tau_c" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "figure2.csv").read_bytes() == (
            tmp_path / "b" / "figure2.csv"
        ).read_bytes()


class TestAppendixD:
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

    @pytest.mark.parametrize(
        "noise, flags, message",
        [
            ({}, ["--seed", "-1"], "error: seed must be an integer >= 0, got -1"),
            ({"seed": -1}, [], "error: config: noise: seed must be an integer >= 0"),
            ({"seed": True}, [], "error: config: noise: seed must be an integer >= 0"),
            ({"replicas": 2.5}, [], "error: config: noise: replicas must be an integer >= 1"),
            ({"total_counts": 1e19}, [], "error: config: noise: total_counts must be a finite"),
        ],
        ids=["flag-seed", "config-seed", "config-seed-bool", "config-replicas", "config-total_counts"],
    )
    def test_values_numpy_rejects_exit_2(self, tmp_path, capsys, noise, flags, message):
        # a negative seed and a budget beyond NumPy's largest Poisson mean
        # used to reach the sampler and die with NumPy's traceback
        cfg = write_config(
            tmp_path,
            {
                "grid": {"t_max_gamma": 5.0, "points": 9, "equal_times": True},
                "noise": {"total_counts": 10000, "replicas": 40, "seed": 11, **noise},
            },
        )
        rc = main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_noise_block_required(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": None})
        rc = main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2

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
    def test_equal_times_analytic(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 2 * 21
        for r in rows:
            if r["cpf_closed"] != "nan":
                assert abs(float(r["cpf_closed"]) - float(r["cpf_table"])) <= 1e-9

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

    def test_tabulated_kernel_near_markov_limit_warns(self, tmp_path):
        # gamma tau_c = 0.01: the default step 1/(100 gamma) is tau_c, four
        # times the quarter of the kernel's 1/e time that resolves it
        tau_c = 0.01
        ts = np.arange(2001) * 0.001
        kpath = tmp_path / "kernel.csv"
        kpath.write_text(
            "t,re\n"
            + "".join(f"{t:.17g},{0.5 / tau_c * np.exp(-t / tau_c):.17g}\n" for t in ts)
        )
        cfg = write_config(
            tmp_path,
            {
                "bath": {"gamma": 1.0, "kernel_csv": str(kpath)},
                "grid": {"t_max_gamma": 1.0, "points": 11, "equal_times": True},
            },
        )
        with pytest.warns(CoarseStepWarning, match="t_step = 0.01 > 0.0025"):
            rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_benchmark_tabulated_config_does_not_warn(
        self, tmp_path, monkeypatch, perfbench_workloads
    ):
        # the perfbench tabulated_sweep workload: tau_c = 0.5, step 0.01
        perfbench_workloads.write_kernel_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        config = perfbench_workloads.WORKLOADS["tabulated_sweep"].config_path
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoarseStepWarning)
            assert main(["sweep", "--config", str(config), "--out", "out"]) == 0
        _, rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 2 * 151


class TestOneSweepPath:
    """figure2, sweep and witness take their times from one grid and their
    correlation columns from one block builder, so one parameter set gives
    the same rows whichever runner writes it."""

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


# The preset-edge and truncated-witness configs of the CI workflow.
PRESET_EDGE = {
    "bath": {"gamma": 1.0, "tau_c": 1.0},
    "state": {"p": 0.8},
    "grid": {"t_max_gamma": 5.0, "points": 151, "equal_times": True},
    "combos": [
        {"scheme": "zzz", "gamma_tau_c": 0.01, "p": 0.8},
        {"scheme": "xzx", "gamma_tau_c": 0.1, "p": 1.0},
        {"scheme": "zzz", "gamma_tau_c": 0.1, "p": 0.8},
        {"scheme": "xzx", "gamma_tau_c": 0.2, "p": 1.0},
        {"scheme": "zzz", "gamma_tau_c": 5.0, "p": 0.8},
    ],
    "visibilities": [1.0, 0.9],
    "noise": {"total_counts": 10000, "replicas": 20, "seed": 3},
}
TRUNCATED_WITNESS = {"bath": {"gamma": 5.0, "tau_c": 1.0}, "grid": {"t_max_gamma": 20.0, "points": 201}}


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
        "command, document",
        [
            ("figure2", PRESET_EDGE),
            ("appendix-d", PRESET_EDGE),
            ("witness", TRUNCATED_WITNESS),
        ],
        ids=["preset-edge-figure2", "preset-edge-appendix-d", "truncated-witness"],
    )
    def test_ci_headers_round_trip(self, tmp_path, command, document):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(document))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        output = {"appendix-d": "appendix_d.csv"}.get(command, f"{command}.csv")
        assert self.header_config(tmp_path / "out" / output) == parse_config(document)

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


def test_channel_oracle_loads_on_first_use():
    # no subcommand but validate imports the channel-map oracle at start-up;
    # the package still exports its names
    src = Path(__import__("cpfsim").__file__).resolve().parents[1]
    code = """
import sys
import cpfsim.cli
assert "cpfsim.channel" not in sys.modules, "imported at start-up"
# the unknown-key hint imports difflib on the error path only
assert "difflib" not in sys.modules, "difflib imported at start-up"
import cpfsim
assert cpfsim.simulate_sequence.__module__ == "cpfsim.channel"
assert "cpfsim.channel" in sys.modules
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
        env={"PYTHONPATH": str(src), "PATH": ""},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
