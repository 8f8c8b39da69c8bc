"""Config parsing, dataset runners, CLI subcommands, determinism."""
import json
from statistics import NormalDist

import numpy as np
import pytest

from cpfsim import lorentzian_G, lorentzian_G_two_time
from cpfsim.cli import main
from cpfsim.config import DEFAULT_VISIBILITIES, FIGURE2_COMBOS, load_config, parse_config
from cpfsim.cpf import InitialState, MeasurementScheme, conditioning_probability, table_probs
from cpfsim.experiment import degrade_probs
from cpfsim.errors import ValidationError

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

    def test_missing_kernel_file(self, tmp_path):
        with pytest.raises(ValidationError, match="kernel_csv"):
            parse_config(
                {"bath": {"gamma": 1.0, "kernel_csv": str(tmp_path / "nope.csv")}}
            )


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

    def test_noise_block_required(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": None})
        rc = main(["appendix-d", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2


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
        # a 2D sweep of (n+1)^2 points integrates G2 on its n+1 distinct t
        # rows only: output step 1, integration step 1/100
        from cpfsim import propagator

        calls = []
        quadrature = propagator.two_time_trapezoid

        def spy(f, G_t, G_tau, h, rows=None):
            calls.append(np.asarray(rows).tolist())
            return quadrature(f, G_t, G_tau, h, rows=rows)

        monkeypatch.setattr(propagator, "two_time_trapezoid", spy)
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
        assert calls == [[0, 100, 200, 300, 400]]

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


class TestValidate:
    def test_validate_passes(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out
