"""Noise model: visibility degradation, Poisson counts, estimator, studies."""
import dataclasses
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from cpfsim import (
    ExperimentConfig,
    InitialState,
    LorentzianKernel,
    MeasurementScheme,
    cpf_from_table,
    lorentzian_G,
    lorentzian_G_two_time,
    run_noise_study,
)
from cpfsim import experiment
from cpfsim.config import load_config
from cpfsim.cpf import _CELLS, conditioning_probability, table_correlation, table_probs
from cpfsim.errors import ValidationError
from cpfsim.experiment import degrade_probs, draw_counts, estimate_block, predicted_std
from cpfsim.propagator import propagators
from cpfsim.runs import _appendix_d_blocks, _curves, _preset

ZZZ, XZX = MeasurementScheme.ZZZ, MeasurementScheme.XZX


def xzx_table(p=1.0, g_t=0.5, g2=0.3, y=-1):
    """One x-z-x table: four entries in _CELLS order."""
    return table_probs(XZX, InitialState.from_population(p), y, g_t, g_t, g2)


def study_args(state, scheme, kernel, times, cfg, y=-1, t_step=None):
    """The run_noise_study arguments of a study of the kernel along the
    equal-times diagonal: the exact tables and P(y) at ``times``."""
    times = np.asarray(times, dtype=float)
    g, _, g2 = propagators(kernel, times, times, t_step)
    probs = table_probs(scheme, state, y, g, g, g2)
    return scheme, probs, conditioning_probability(scheme, state, y, g), times, cfg, y


class TestVisibility:
    def test_unit_visibility_is_identity(self):
        probs = xzx_table()
        assert degrade_probs(probs, 1.0, XZX).tolist() == probs.tolist()

    def test_zzz_untouched_by_any_visibility(self):
        probs = table_probs(ZZZ, InitialState.from_population(0.8), -1, 0.5, 0.5, 0.3)
        assert degrade_probs(probs, 0.5, ZZZ).tolist() == probs.tolist()

    def test_xzx_cpf_scales_linearly(self):
        tbl = xzx_table(p=1.0)
        ideal = cpf_from_table(tbl).value
        for v in (0.9, 0.8, 0.5, 0.0):
            degraded = cpf_from_table(degrade_probs(tbl, v, XZX)).value
            assert degraded == pytest.approx(v * ideal, abs=1e-14)

    def test_normalization_and_marginals_preserved(self):
        probs = xzx_table(p=0.7, g_t=0.6, g2=-0.4)
        out = degrade_probs(probs, 0.8, XZX)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)
        for x in (+1, -1):
            column = [_CELLS.index((z, x)) for z in (+1, -1)]
            assert out[column].sum() == pytest.approx(probs[column].sum(), abs=1e-15)
        assert ((0.0 <= out) & (out <= 1.0)).all()

    def test_y_plus_table_unchanged(self):
        tbl = xzx_table(p=0.8, y=+1)
        out = degrade_probs(tbl, 0.7, XZX)
        for value, expected in zip(out, tbl):
            assert value == pytest.approx(expected, abs=1e-15)

    def test_visibility_validation(self):
        # the visibility enters the noise model through its config only
        for v in (1.2, -0.1):
            with pytest.raises(ValidationError, match="visibility"):
                ExperimentConfig(total_counts=100, visibility=v)


class TestCounts:
    def test_zero_probability_cell_never_fires(self):
        probs = table_probs(ZZZ, InitialState(1.0, 0.0), -1, 0.5, 0.5, 0.3)
        (block,) = draw_counts(probs[None, :], [10000.0], 50, 1)
        assert not block[:, _CELLS.index((+1, -1))].any()
        assert not block[:, _CELLS.index((-1, -1))].any()

    def test_empirical_rate_within_5_sigma(self):
        probs = xzx_table()
        n = 1_000_000
        ((counts,),) = draw_counts(probs[None, :], [n], 1, 42)
        for count, p in zip(counts, probs):
            sigma = np.sqrt(n * p)
            assert abs(count - n * p) < 5 * sigma

    def test_seed_determinism(self):
        probs = np.stack([xzx_table(), xzx_table(p=0.8)])
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
        # one point's (replicas, 4) int64 block is at most 128 MB
        assert ExperimentConfig(total_counts=100, replicas=2**22).replicas == 2**22
        with pytest.raises(ValidationError, match="^replicas must be <= 4194304, got 4194305$"):
            ExperimentConfig(total_counts=100, replicas=2**22 + 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("total_counts", float("inf")),
            ("total_counts", float("nan")),
            ("total_counts", 1e19),
            pytest.param("total_counts", 10**400, id="total_counts-10**400"),
            ("replicas", 2.5),
            ("replicas", True),
            ("replicas", 2.0),
            pytest.param("replicas", 10**20, id="replicas-10**20"),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_config_rejects_what_numpy_would(self, field, value):
        # each value used to pass the config and fail inside NumPy's sampler
        # (lam value too large, TypeError, expected non-negative integer,
        # maximum allowed dimension exceeded) or to draw with a bool as the
        # replica count or seed
        with pytest.raises(ValidationError, match=field):
            ExperimentConfig(**{"total_counts": 100, field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = ExperimentConfig(total_counts=1e18, replicas=np.int64(3), seed=np.uint32(5))
        assert (cfg.replicas, cfg.seed) == (3, 5)


class TestEstimator:
    def test_exact_proportional_counts_reproduce_cpf(self):
        tbl = xzx_table(p=0.8, g_t=0.4, g2=0.25)
        scale = 400000
        counts = [round(scale * p) for p in tbl]
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
        (block,) = draw_counts(tbl[None, :], [10000.0], 400, 123)
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
        points = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg))
        z_max = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(points)))
        for pt in points:
            assert not pt.flagged
            stderr = pt.mc_std / np.sqrt(pt.n_replicas)
            assert abs(pt.mc_mean - pt.ideal) < z_max * stderr

    def test_visibility_bias_shows_at_infinite_counts(self):
        state = InitialState.from_population(1.0)
        times = np.array([np.pi])
        cfg = ExperimentConfig(total_counts=10000, visibility=0.9, replicas=2, seed=5)
        (pt,) = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg))
        assert pt.degraded_ideal == pytest.approx(0.9 * pt.ideal, abs=1e-12)

    def test_y_plus_mean_null_and_growing_std(self):
        state = InitialState.from_population(1.0)
        times = np.linspace(0.5, 4.0, 6)
        cfg = ExperimentConfig(total_counts=10000, replicas=200, seed=31)
        points = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg, y=+1))
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
        (pt,) = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg, y=+1))
        assert pt.flagged
        assert np.isnan(pt.mc_mean)

    def test_stddev_scales_inverse_sqrt_N(self):
        state = InitialState.from_population(1.0)
        times = np.array([np.pi])
        stds = []
        for n in (1e3, 1e4, 1e5):
            cfg = ExperimentConfig(total_counts=n, replicas=400, seed=17)
            (pt,) = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg))
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
                *study_args(state, ZZZ, LorentzianKernel(gamma, 1.0), times, cfg)
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
        a = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg))
        b = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg))
        assert a.dtype == b.dtype
        for name in a.dtype.names:
            assert a[name].tolist() == b[name].tolist()

    def test_one_record_per_time(self):
        state = InitialState.from_population(1.0)
        times = np.array([0.0, 1.0, 3 * np.pi / 2])
        cfg = ExperimentConfig(total_counts=1000, replicas=20, seed=8)
        study = run_noise_study(*study_args(state, XZX, self.kernel(), times, cfg, y=+1))
        assert study.dtype.names == (
            "t", "ideal", "degraded_ideal", "mc_mean", "mc_std", "predicted_std",
            "n_replicas", "flagged",
        )
        assert study.shape == times.shape
        assert study.t.tolist() == times.tolist()
        assert study.flagged.tolist() == (study.n_replicas == 0).tolist() == [False, False, True]
        # G(3 pi / 2) = 0: y = +1 cannot occur, so nothing is estimated there
        assert np.isnan([study.ideal[2], study.mc_mean[2], study.predicted_std[2]]).all()

    @pytest.mark.parametrize(
        "times, probs, p_y, y, message",
        [
            (np.ones((2, 3)), np.ones((6, 4)), np.ones(6), -1, r"times must have shape \(6,\), got \(2, 3\)"),
            (np.ones(3), np.ones((3, 8)), np.ones(3), -1, r"probs must have shape \(3, 4\), got \(3, 8\)"),
            (np.ones(3), np.ones((3, 4)), np.ones((3, 1)), -1, r"p_y must have shape \(3,\), got \(3, 1\)"),
            (np.ones(3), np.ones((3, 4)), np.ones(3), 0, r"y must be \+1 or -1, got 0"),
            (np.ones(3), np.ones((3, 4)), np.ones(3), None, r"y must be \+1 or -1, got None"),
        ],
        ids=["times", "probs", "p_y", "y-zero", "y-none"],
    )
    def test_malformed_inputs_rejected(self, times, probs, p_y, y, message):
        # a 2-D times failed inside NumPy: "The truth value of an array with
        # more than one element is ambiguous"; y selects the y = +1 rule and,
        # as in the table builders, must be an outcome
        cfg = ExperimentConfig(total_counts=1000, replicas=2)
        with pytest.raises(ValidationError, match=message):
            run_noise_study(XZX, probs, p_y, times, cfg, y)

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
        points = run_noise_study(*study_args(state, ZZZ, tab, times, cfg, t_step=h))
        analytic = run_noise_study(*study_args(state, ZZZ, self.kernel(), times, cfg))
        for pt_tab, pt_ana in zip(points, analytic):
            assert pt_tab.ideal == pytest.approx(pt_ana.ideal, abs=1e-4)


class TestBlockDraw:
    """The rng v2 per-point-block contract and the one sampling path."""

    def test_stream_is_pinned(self):
        # x-z-x, p = 1, gamma = tau_c = 1, gamma t = 1 and 2, N = 1000,
        # 3 replicas, seed 2024: a change of these counts is a change of the
        # RNG contract and must be versioned in the appendix-d header
        state = InitialState.from_population(1.0)
        times = np.array([1.0, 2.0])
        g = lorentzian_G(1.0, 1.0, times)
        probs = table_probs(XZX, state, -1, g, g, lorentzian_G_two_time(1.0, 1.0, times, times))
        p_y = conditioning_probability(XZX, state, -1, g)
        counts = np.stack(list(draw_counts(probs, 1000 * p_y, 3, 2024)))
        assert counts.tolist() == [
            [[128, 192, 198, 119], [116, 189, 212, 127], [140, 205, 222, 140]],
            [[152, 242, 267, 188], [192, 237, 259, 176], [166, 280, 265, 145]],
        ]
        cfg = ExperimentConfig(total_counts=1000, replicas=3, seed=2024)
        points = run_noise_study(XZX, probs, p_y, times, cfg)
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
        probs = xzx_table(p=0.7, g_t=0.6, g2=-0.4)
        tbl = dict(zip(_CELLS, probs.tolist()))
        mean_z = sum(z * tbl[z, x] for z, x in _CELLS)
        mean_x = sum(x * tbl[z, x] for z, x in _CELLS)
        dev = {(z, x): (z - mean_z) * (x - mean_x) for z, x in _CELLS}
        var = sum(tbl[c] * dev[c] ** 2 for c in _CELLS) - sum(tbl[c] * dev[c] for c in _CELLS) ** 2
        assert float(predicted_std(probs, 2500.0)) == pytest.approx(np.sqrt(var / 2500.0), rel=1e-12)
        assert np.isnan(predicted_std(np.stack([probs, probs]), np.array([0.0, np.nan]))).all()


def _run_noise_study_reference(scheme, probs, p_y, times, cfg, y=-1):
    """run_noise_study with its statistics computed one point per Python
    iteration, as before they were computed per chunk of points: the
    reference the chunked statistics must match to the bit."""
    times = np.asarray(times, dtype=float)
    degraded = degrade_probs(probs, cfg.visibility, scheme)
    ideal, degraded_ideal = table_correlation(probs), table_correlation(degraded)
    if y == +1:  # the past decouples from the future exactly
        ideal = degraded_ideal = np.where(p_y > 0.0, 0.0, np.nan)
    budget = cfg.total_counts * p_y
    mc_mean, mc_std = np.full(times.size, np.nan), np.full(times.size, np.nan)
    n_replicas = np.zeros(times.size, dtype=int)
    for k, counts in enumerate(draw_counts(degraded, budget, cfg.replicas, cfg.seed)):
        estimates = estimate_block(counts)
        estimates = estimates[~np.isnan(estimates)]
        n_replicas[k] = estimates.size
        if estimates.size:
            mc_mean[k] = np.mean(estimates)
            mc_std[k] = np.std(estimates, ddof=1) if estimates.size > 1 else np.nan
    columns = (
        times, ideal, degraded_ideal, mc_mean, mc_std,
        predicted_std(degraded, budget), n_replicas, n_replicas == 0,
    )
    return np.rec.fromarrays(
        columns,
        names="t,ideal,degraded_ideal,mc_mean,mc_std,predicted_std,n_replicas,flagged",
    )


def _exact(column):
    """A column's values for a bit-for-bit comparison: floats as hex
    strings, so NaN equals NaN and -0.0 differs from 0.0."""
    return [float.hex(v) if isinstance(v, float) else v for v in column.tolist()]


def _appendix_d_studies(seed):
    """The run_noise_study arguments of the appendix-d blocks of the
    benchmark's noise_study config at ``seed``, as ``runs.run_appendix_d``
    builds them: each block's table and P(y) from its preset's curves."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench/workloads/noise_study.json")
    for scheme, ratio, p, y, visibility in _appendix_d_blocks(cfg):
        preset = _preset(cfg, scheme, ratio, p, y)
        times, _, _, (g_t, g_tau, g2) = _curves(preset)
        probs = table_probs(scheme, preset.state, y, g_t, g_tau, g2)
        noise = dataclasses.replace(cfg.noise, visibility=visibility, seed=seed)
        yield scheme, probs, conditioning_probability(scheme, preset.state, y, g_t), times, noise, y


class TestChunkedStatistics:
    """run_noise_study reduces the replicas of a chunk of points per NumPy
    call; the statistics equal the per-point loop's to the bit for every
    chunking, full and partial rows, and every replica count."""

    @staticmethod
    def set_chunk_points(monkeypatch, points, replicas):
        if points is not None:
            monkeypatch.setattr(experiment, "_CHUNK_COUNTS", 4 * replicas * points)

    @staticmethod
    def assert_same_statistics(study, reference):
        assert study.dtype == reference.dtype
        for name in ("mc_mean", "mc_std", "n_replicas", "flagged"):
            assert _exact(study[name]) == _exact(reference[name]), name

    @pytest.mark.parametrize("points", [None, 1, 3, 100], ids=lambda p: f"points{p}")
    @pytest.mark.parametrize("seed", [1, 7], ids=lambda s: f"seed{s}")
    def test_appendix_d_blocks_match_per_point_loop(self, monkeypatch, seed, points):
        # 101 points per block, so 100 is n - 1: one full chunk and one point
        partial = 0
        for args in _appendix_d_studies(seed):
            *_, times, cfg, _ = args
            assert times.size == 101 and cfg.replicas == 200
            self.set_chunk_points(monkeypatch, points, cfg.replicas)
            study = run_noise_study(*args)
            self.assert_same_statistics(study, _run_noise_study_reference(*args))
            partial += np.sum((0 < study.n_replicas) & (study.n_replicas < cfg.replicas))
        # the count-starved y = +1 block drops replicas at some points
        assert partial > 0

    @pytest.mark.parametrize("points", [None, 1, 3, 29], ids=lambda p: f"points{p}")
    @pytest.mark.parametrize("replicas", [1, 2], ids=lambda r: f"replicas{r}")
    def test_few_replicas_match_per_point_loop(self, monkeypatch, replicas, points):
        # a 30-count budget starves y = +1: rows with 0, 1 and 2 replicas
        state = InitialState.from_population(1.0)
        times = np.linspace(0.0, 5.0, 30)
        cfg = ExperimentConfig(total_counts=30, replicas=replicas, seed=4)
        self.set_chunk_points(monkeypatch, points, replicas)
        args = study_args(state, XZX, LorentzianKernel(1.0, 1.0), times, cfg, y=+1)
        study = run_noise_study(*args)
        self.assert_same_statistics(study, _run_noise_study_reference(*args))
        assert set(study.n_replicas.tolist()) == set(range(replicas + 1))

    def test_empty_times(self):
        args = study_args(InitialState.from_population(1.0), XZX, LorentzianKernel(1.0, 1.0),
                          np.array([]), ExperimentConfig(total_counts=100, replicas=3))
        study = run_noise_study(*args)
        assert study.shape == (0,)
        self.assert_same_statistics(study, _run_noise_study_reference(*args))

    def test_working_memory_is_one_chunk(self):
        # 101 points x 200 replicas: the chunked statistics hold ~0.6 MB at
        # their peak, stacking the whole study's counts at once ~2 MB
        args = study_args(InitialState.from_population(0.8), ZZZ, LorentzianKernel(1.0, 1.0),
                          np.linspace(0.0, 5.0, 101), ExperimentConfig(total_counts=1e4, replicas=200))
        run_noise_study(*args)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            run_noise_study(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
