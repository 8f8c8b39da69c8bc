"""Noise model: visibility degradation, Poisson counts, estimator, studies."""
from statistics import NormalDist

import numpy as np
import pytest

from cpfsim import (
    CountsTable,
    ExperimentConfig,
    InitialState,
    LorentzianKernel,
    MeasurementScheme,
    apply_visibility,
    build_table,
    cpf_from_table,
    estimate_cpf,
    lorentzian_G,
    lorentzian_G_two_time,
    run_noise_study,
    sample_counts,
)
from cpfsim.cpf import conditioning_probability, table_probs
from cpfsim.errors import NoDataError, ValidationError
from cpfsim.experiment import draw_counts, estimate_block, predicted_std

ZZZ, XZX = MeasurementScheme.ZZZ, MeasurementScheme.XZX


def xzx_table(p=1.0, g_t=0.5, g2=0.3, y=-1):
    return build_table(XZX, InitialState.from_population(p), g_t, g_t, g2, y)


class TestVisibility:
    def test_unit_visibility_is_identity(self):
        tbl = xzx_table()
        out = apply_visibility(tbl, 1.0, MeasurementScheme.XZX)
        assert out.entries == tbl.entries

    def test_zzz_untouched_by_any_visibility(self):
        tbl = build_table(ZZZ, InitialState.from_population(0.8), 0.5, 0.5, 0.3, -1)
        out = apply_visibility(tbl, 0.5, MeasurementScheme.ZZZ)
        assert out.entries == tbl.entries

    def test_xzx_cpf_scales_linearly(self):
        tbl = xzx_table(p=1.0)
        ideal = cpf_from_table(tbl).value
        for v in (0.9, 0.8, 0.5, 0.0):
            degraded = cpf_from_table(apply_visibility(tbl, v, MeasurementScheme.XZX)).value
            assert degraded == pytest.approx(v * ideal, abs=1e-14)

    def test_normalization_and_marginals_preserved(self):
        tbl = xzx_table(p=0.7, g_t=0.6, g2=-0.4)
        out = apply_visibility(tbl, 0.8, MeasurementScheme.XZX)
        total = sum(out.p(z, x) for z in (+1, -1) for x in (+1, -1))
        assert total == pytest.approx(1.0, abs=1e-15)
        for x in (+1, -1):
            assert out.p_x(x) == pytest.approx(tbl.p_x(x), abs=1e-15)
        assert all(0.0 <= out.p(z, x) <= 1.0 for z in (+1, -1) for x in (+1, -1))

    def test_y_plus_table_unchanged(self):
        tbl = xzx_table(p=0.8, y=+1)
        out = apply_visibility(tbl, 0.7, MeasurementScheme.XZX)
        for cell, value in tbl.entries.items():
            assert out.entries[cell] == pytest.approx(value, abs=1e-15)

    def test_visibility_validation(self):
        tbl = xzx_table()
        with pytest.raises(ValidationError):
            apply_visibility(tbl, 1.2, MeasurementScheme.XZX)
        with pytest.raises(ValidationError):
            apply_visibility(tbl, 0.9, MeasurementScheme.ZZZ)  # scheme mismatch


class TestCounts:
    def test_zero_probability_cell_never_fires(self):
        tbl = build_table(ZZZ, InitialState(1.0, 0.0), 0.5, 0.5, 0.3, -1)
        cfg = ExperimentConfig(total_counts=10000, seed=1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = sample_counts(tbl, cfg, rng=rng)
            assert counts.counts[(+1, -1)] == 0
            assert counts.counts[(-1, -1)] == 0

    def test_empirical_rate_within_5_sigma(self):
        tbl = xzx_table()
        n = 1_000_000
        cfg = ExperimentConfig(total_counts=n, seed=42)
        counts = sample_counts(tbl, cfg)
        for cell, p in tbl.entries.items():
            sigma = np.sqrt(n * p)
            assert abs(counts.counts[cell] - n * p) < 5 * sigma

    def test_seed_determinism(self):
        tbl = xzx_table()
        cfg = ExperimentConfig(total_counts=500, seed=7)
        assert sample_counts(tbl, cfg).counts == sample_counts(tbl, cfg).counts

    def test_counts_validation(self):
        with pytest.raises(ValidationError):
            CountsTable(
                scheme=MeasurementScheme.XZX,
                y=-1,
                counts={(1, 1): -1, (1, -1): 0, (-1, 1): 0, (-1, -1): 0},
            )
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
        counts = CountsTable(
            scheme=tbl.scheme,
            y=tbl.y,
            counts={cell: round(scale * p) for cell, p in tbl.entries.items()},
        )
        assert estimate_cpf(counts).value == pytest.approx(
            cpf_from_table(tbl).value, abs=1e-5
        )

    def test_perfect_correlation_counts(self):
        counts = CountsTable(
            scheme=MeasurementScheme.ZZZ,
            y=-1,
            counts={(1, 1): 50, (1, -1): 0, (-1, 1): 0, (-1, -1): 50},
        )
        assert estimate_cpf(counts).value == pytest.approx(1.0)

    def test_no_data_error(self):
        counts = CountsTable(
            scheme=MeasurementScheme.XZX,
            y=+1,
            counts={(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0},
        )
        with pytest.raises(NoDataError):
            estimate_cpf(counts)

    def test_monte_carlo_unbiasedness(self):
        # replica mean within 2 standard errors of the ideal value
        tbl = xzx_table(p=1.0, g_t=0.5, g2=0.25)
        ideal = cpf_from_table(tbl).value
        cfg = ExperimentConfig(total_counts=10000, seed=123)
        rng = np.random.default_rng(cfg.seed)
        estimates = [
            estimate_cpf(sample_counts(tbl, cfg, rng=rng)).value for _ in range(400)
        ]
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
        assert a == b

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

    def test_one_point_wrappers_share_the_draw(self):
        tbl = xzx_table(p=0.8)
        probs = np.array([tbl.entries[cell] for cell in tbl.entries])
        (block,) = draw_counts(probs[None, :], [500.0], 4, 9)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        cfg = ExperimentConfig(total_counts=500)
        for row in block:
            counts = sample_counts(tbl, cfg, rng=rng)
            assert [counts.counts[cell] for cell in tbl.entries] == row.tolist()
            assert estimate_cpf(counts).value == float(estimate_block(row))

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
