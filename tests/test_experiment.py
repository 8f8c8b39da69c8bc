"""Noise model: visibility degradation, Poisson counts, estimator, studies."""
from statistics import NormalDist

import numpy as np
import pytest

from cpfsim import (
    ExperimentConfig,
    InitialState,
    LorentzianKernel,
    MeasurementScheme,
    ProbabilityTable,
    build_table,
    cpf_from_table,
    lorentzian_G,
    lorentzian_G_two_time,
    run_noise_study,
)
from cpfsim.cpf import _CELLS, conditioning_probability, table_probs
from cpfsim.errors import ValidationError
from cpfsim.experiment import degrade_probs, draw_counts, estimate_block, predicted_std

ZZZ, XZX = MeasurementScheme.ZZZ, MeasurementScheme.XZX


def xzx_table(p=1.0, g_t=0.5, g2=0.3, y=-1):
    return build_table(XZX, InitialState.from_population(p), g_t, g_t, g2, y)


def cells(tbl):
    """The four entries of a scalar table as an array in _CELLS order."""
    return np.array([tbl.entries[c] for c in _CELLS])


def as_table(probs, tbl):
    """An array of four cells back as a validated table of tbl's scheme and y."""
    return ProbabilityTable(scheme=tbl.scheme, y=tbl.y, entries=dict(zip(_CELLS, probs.tolist())))


class TestVisibility:
    def test_unit_visibility_is_identity(self):
        probs = cells(xzx_table())
        assert degrade_probs(probs, 1.0, XZX).tolist() == probs.tolist()

    def test_zzz_untouched_by_any_visibility(self):
        probs = cells(build_table(ZZZ, InitialState.from_population(0.8), 0.5, 0.5, 0.3, -1))
        assert degrade_probs(probs, 0.5, ZZZ).tolist() == probs.tolist()

    def test_xzx_cpf_scales_linearly(self):
        tbl = xzx_table(p=1.0)
        ideal = cpf_from_table(tbl).value
        for v in (0.9, 0.8, 0.5, 0.0):
            degraded = cpf_from_table(as_table(degrade_probs(cells(tbl), v, XZX), tbl)).value
            assert degraded == pytest.approx(v * ideal, abs=1e-14)

    def test_normalization_and_marginals_preserved(self):
        tbl = xzx_table(p=0.7, g_t=0.6, g2=-0.4)
        out = as_table(degrade_probs(cells(tbl), 0.8, XZX), tbl)
        total = sum(out.p(z, x) for z in (+1, -1) for x in (+1, -1))
        assert total == pytest.approx(1.0, abs=1e-15)
        for x in (+1, -1):
            assert out.p_x(x) == pytest.approx(tbl.p_x(x), abs=1e-15)
        assert all(0.0 <= out.p(z, x) <= 1.0 for z in (+1, -1) for x in (+1, -1))

    def test_y_plus_table_unchanged(self):
        tbl = xzx_table(p=0.8, y=+1)
        out = degrade_probs(cells(tbl), 0.7, XZX)
        for value, expected in zip(out, cells(tbl)):
            assert value == pytest.approx(expected, abs=1e-15)

    def test_visibility_validation(self):
        # the visibility enters the noise model through its config only
        for v in (1.2, -0.1):
            with pytest.raises(ValidationError, match="visibility"):
                ExperimentConfig(total_counts=100, visibility=v)


class TestCounts:
    def test_zero_probability_cell_never_fires(self):
        probs = cells(build_table(ZZZ, InitialState(1.0, 0.0), 0.5, 0.5, 0.3, -1))
        (block,) = draw_counts(probs[None, :], [10000.0], 50, 1)
        assert not block[:, _CELLS.index((+1, -1))].any()
        assert not block[:, _CELLS.index((-1, -1))].any()

    def test_empirical_rate_within_5_sigma(self):
        probs = cells(xzx_table())
        n = 1_000_000
        ((counts,),) = draw_counts(probs[None, :], [n], 1, 42)
        for count, p in zip(counts, probs):
            sigma = np.sqrt(n * p)
            assert abs(count - n * p) < 5 * sigma

    def test_seed_determinism(self):
        probs = np.stack([cells(xzx_table()), cells(xzx_table(p=0.8))])
        a = np.stack(list(draw_counts(probs, [500.0, 800.0], 3, 7)))
        b = np.stack(list(draw_counts(probs, [500.0, 800.0], 3, 7)))
        assert a.tolist() == b.tolist()

    def test_counts_validation(self):
        with pytest.raises(ValidationError):
            estimate_block([-1, 0, 0, 0])
        with pytest.raises(ValidationError):
            ExperimentConfig(total_counts=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(total_counts=100, visibility=1.5)
        with pytest.raises(ValidationError):
            ExperimentConfig(total_counts=100, replicas=0)


class TestEstimator:
    def test_exact_proportional_counts_reproduce_cpf(self):
        tbl = xzx_table(p=0.8, g_t=0.4, g2=0.25)
        scale = 400000
        counts = [round(scale * p) for p in cells(tbl)]
        assert float(estimate_block(counts)) == pytest.approx(cpf_from_table(tbl).value, abs=1e-5)

    def test_perfect_correlation_counts(self):
        counts = [50 if z == x else 0 for z, x in _CELLS]
        assert float(estimate_block(counts)) == pytest.approx(1.0)

    def test_no_data_gives_nan(self):
        assert np.isnan(estimate_block([0, 0, 0, 0]))
        estimates = estimate_block([[0, 0, 0, 0], [50, 0, 0, 50]])
        assert np.isnan(estimates[0]) and estimates[1] == pytest.approx(1.0)

    def test_monte_carlo_unbiasedness(self):
        # replica mean within 2 standard errors of the ideal value
        tbl = xzx_table(p=1.0, g_t=0.5, g2=0.25)
        ideal = cpf_from_table(tbl).value
        (block,) = draw_counts(cells(tbl)[None, :], [10000.0], 400, 123)
        estimates = estimate_block(block)
        mean = np.mean(estimates)
        stderr = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(mean - ideal) < 2 * stderr


class TestNoiseStudy:
    def kernel(self, ratio=1.0):
        return LorentzianKernel(ratio, 1.0)

    def test_replica_mean_tracks_ideal(self):
        # every replica mean within z_max standard errors of its ideal, at a
        # family-wise false-alarm rate of 1e-3 (Bonferroni over the 12 points)
        state = InitialState.from_population(1.0)
        times = np.linspace(0.25, 5.0, 12)
        cfg = ExperimentConfig(total_counts=10000, visibility=1.0, replicas=300, seed=2024)
        points = run_noise_study(state, MeasurementScheme.XZX, self.kernel(), times, cfg)
        z_max = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(points)))
        for pt in points:
            assert not pt.flagged
            stderr = pt.mc_std / np.sqrt(pt.n_replicas)
            assert abs(pt.mc_mean - pt.ideal) < z_max * stderr

    def test_visibility_bias_shows_at_infinite_counts(self):
        state = InitialState.from_population(1.0)
        times = np.array([np.pi])
        cfg = ExperimentConfig(total_counts=10000, visibility=0.9, replicas=2, seed=5)
        (pt,) = run_noise_study(state, MeasurementScheme.XZX, self.kernel(), times, cfg)
        assert pt.degraded_ideal == pytest.approx(0.9 * pt.ideal, abs=1e-12)

    def test_y_plus_mean_null_and_growing_std(self):
        state = InitialState.from_population(1.0)
        times = np.linspace(0.5, 4.0, 6)
        cfg = ExperimentConfig(total_counts=10000, replicas=200, seed=31)
        points = run_noise_study(
            state, MeasurementScheme.XZX, self.kernel(), times, cfg, y=+1
        )
        for pt in points:
            assert pt.ideal == 0.0
            stderr = pt.mc_std / np.sqrt(pt.n_replicas)
            assert abs(pt.mc_mean) < 3 * max(stderr, 1e-12)
        assert points[-1].mc_std > points[0].mc_std

    def test_y_plus_starves_after_zero_crossing(self):
        # G crosses zero at gamma t = 3 pi / 2: essentially no excited
        # population left, conditioned counts vanish
        state = InitialState.from_population(1.0)
        times = np.array([3 * np.pi / 2])
        cfg = ExperimentConfig(total_counts=1000, replicas=20, seed=8)
        (pt,) = run_noise_study(
            state, MeasurementScheme.XZX, self.kernel(), times, cfg, y=+1
        )
        assert pt.flagged
        assert np.isnan(pt.mc_mean)

    def test_stddev_scales_inverse_sqrt_N(self):
        state = InitialState.from_population(1.0)
        times = np.array([np.pi])
        stds = []
        for n in (1e3, 1e4, 1e5):
            cfg = ExperimentConfig(total_counts=n, replicas=400, seed=17)
            (pt,) = run_noise_study(state, MeasurementScheme.XZX, self.kernel(), times, cfg)
            stds.append(pt.mc_std)
        assert stds[0] / stds[1] == pytest.approx(np.sqrt(10), rel=0.2)
        assert stds[1] / stds[2] == pytest.approx(np.sqrt(10), rel=0.2)

    def test_weak_memory_noise_same_order_as_signal(self):
        # gamma tau_c = 0.1, zzz: the ideal peak and the replica scatter are
        # the same order (measured ideal/std ~ 3.3 at N=10^4), so a nonzero
        # correlation cannot be attributed to memory; contrast gamma tau_c=1
        # where the signal stands ~19 sigma above the scatter
        cfg = ExperimentConfig(total_counts=10000, replicas=400, seed=7)

        def peak_ratio(gamma):
            state = InitialState.from_population(0.8)
            times = np.linspace(0.25, 5.0, 20) / gamma
            points = run_noise_study(
                state, MeasurementScheme.ZZZ, LorentzianKernel(gamma, 1.0), times, cfg
            )
            peak = max(points, key=lambda pt: pt.ideal)
            return peak.ideal / peak.mc_std

        weak = peak_ratio(0.1)
        strong = peak_ratio(1.0)
        assert 1.0 <= weak <= 4.0
        assert strong > 3 * weak

    def test_determinism(self):
        state = InitialState.from_population(1.0)
        times = np.linspace(0.5, 3.0, 4)
        cfg = ExperimentConfig(total_counts=5000, replicas=50, seed=99)
        a = run_noise_study(state, MeasurementScheme.XZX, self.kernel(), times, cfg)
        b = run_noise_study(state, MeasurementScheme.XZX, self.kernel(), times, cfg)
        assert a.dtype == b.dtype
        for name in a.dtype.names:
            assert a[name].tolist() == b[name].tolist()

    def test_one_record_per_time(self):
        state = InitialState.from_population(1.0)
        times = np.array([0.0, 1.0, 3 * np.pi / 2])
        cfg = ExperimentConfig(total_counts=1000, replicas=20, seed=8)
        study = run_noise_study(state, MeasurementScheme.XZX, self.kernel(), times, cfg, y=+1)
        assert study.dtype.names == (
            "t", "ideal", "degraded_ideal", "mc_mean", "mc_std", "predicted_std",
            "n_replicas", "flagged",
        )
        assert study.shape == times.shape
        assert study.t.tolist() == times.tolist()
        assert study.flagged.tolist() == (study.n_replicas == 0).tolist() == [False, False, True]
        # G(3 pi / 2) = 0: y = +1 cannot occur, so nothing is estimated there
        assert np.isnan([study.ideal[2], study.mc_mean[2], study.predicted_std[2]]).all()

    def test_tabulated_kernel_path(self):
        from cpfsim import TabulatedKernel, eval_kernel_grid

        gamma = tau_c = 1.0
        h = 0.02
        ts = np.arange(0, 8.0 + h / 2, h)
        tab = TabulatedKernel(
            times=ts, values=eval_kernel_grid(LorentzianKernel(gamma, tau_c), ts)
        )
        state = InitialState.from_population(0.8)
        times = np.array([1.0, 2.0, 3.0])
        cfg = ExperimentConfig(total_counts=5000, replicas=10, seed=3)
        points = run_noise_study(
            state, MeasurementScheme.ZZZ, tab, times, cfg, t_step=h
        )
        analytic = run_noise_study(
            state, MeasurementScheme.ZZZ, self.kernel(), times, cfg
        )
        for pt_tab, pt_ana in zip(points, analytic):
            assert pt_tab.ideal == pytest.approx(pt_ana.ideal, abs=1e-4)
        for bad in ([-1.0, 2.0], [1.0, 2.01]):
            with pytest.raises(ValidationError, match="integration grid"):
                run_noise_study(
                    state, MeasurementScheme.ZZZ, tab, np.array(bad), cfg, t_step=h
                )


class TestBlockDraw:
    """The rng v2 per-point-block contract and the one sampling path."""

    def test_stream_is_pinned(self):
        # x-z-x, p = 1, gamma = tau_c = 1, gamma t = 1 and 2, N = 1000,
        # 3 replicas, seed 2024: a change of these counts is a change of the
        # RNG contract and must be versioned in the appendix-d header
        state = InitialState.from_population(1.0)
        times = np.array([1.0, 2.0])
        kernel = LorentzianKernel(1.0, 1.0)
        g = lorentzian_G(1.0, 1.0, times)
        probs = table_probs(XZX, state, -1, g, g, lorentzian_G_two_time(1.0, 1.0, times, times))
        budget = 1000 * conditioning_probability(XZX, state, -1, g)
        counts = np.stack(list(draw_counts(probs, budget, 3, 2024)))
        assert counts.tolist() == [
            [[128, 192, 198, 119], [116, 189, 212, 127], [140, 205, 222, 140]],
            [[152, 242, 267, 188], [192, 237, 259, 176], [166, 280, 265, 145]],
        ]
        cfg = ExperimentConfig(total_counts=1000, replicas=3, seed=2024)
        points = run_noise_study(state, XZX, kernel, times, cfg)
        for pt, est in zip(points, estimate_block(counts)):
            assert pt.mc_mean == pytest.approx(np.mean(est), rel=1e-14)
            assert pt.mc_std == pytest.approx(np.std(est, ddof=1), rel=1e-12)

    def test_starved_points_draw_nothing_and_are_dropped(self):
        counts = np.stack(list(draw_counts(np.full((3, 4), 0.25), [np.nan, 0.0, 1e-3], 5, 1)))
        assert not counts[:2].any()
        estimates = estimate_block(counts)
        assert np.isnan(estimates[:2]).all()
        assert np.isnan(estimates[2]).sum() == np.sum(counts[2].sum(axis=-1) == 0)
        with pytest.raises(ValidationError, match="non-negative"):
            estimate_block([1, -1, 0, 0])

    def test_predicted_std_is_first_order_variance(self):
        # Var_P[(z - <z>)(x - <x>)] / budget against an explicit sum over cells
        tbl = xzx_table(p=0.7, g_t=0.6, g2=-0.4)
        cells = list(tbl.entries)
        mean_z = sum(z * tbl.p(z, x) for z, x in cells)
        mean_x = sum(x * tbl.p(z, x) for z, x in cells)
        dev = {(z, x): (z - mean_z) * (x - mean_x) for z, x in cells}
        var = sum(tbl.p(*c) * dev[c] ** 2 for c in cells) - sum(tbl.p(*c) * dev[c] for c in cells) ** 2
        probs = np.array([tbl.entries[c] for c in cells])
        assert float(predicted_std(probs, 2500.0)) == pytest.approx(np.sqrt(var / 2500.0), rel=1e-12)
        assert np.isnan(predicted_std(np.stack([probs, probs]), np.array([0.0, np.nan]))).all()
