"""Propagator layer: Volterra solver vs closed forms, two-time object,
rates, backflow."""
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from cpfsim import (
    InitialState,
    LorentzianKernel,
    MeasurementScheme,
    TabulatedKernel,
    backflow_probabilities,
    eval_kernel_grid,
    lorentzian_G,
    lorentzian_G_two_time,
    propagators,
    rates_from_G,
)
from cpfsim import propagator
from cpfsim.cpf import closed_values
from cpfsim.propagator import volterra_trapezoid
from cpfsim.errors import (
    ConditioningImpossibleError,
    CoarseStepWarning,
    KernelRangeError,
    PropagatorZeroCrossingError,
    ValidationError,
)
from quadrature import tabulated_lorentzian, tabulated_surface, two_time_trapezoid, volterra

# Frozen with mpmath (mp.dps=30):
EXP_MINUS_HALF_PI = 0.20787957635076193  # e^{-pi/2}
TWO_EXP_MINUS_PI = 0.08642783652754450   # 2 e^{-pi}
EXP_MINUS_PI = 0.04321391826377225       # e^{-pi}
EXP_MINUS_TWO = 0.1353352832366127       # e^{-2}
TWO_OVER_E = 0.7357588823428846          # 2 e^{-1}
# |G2|^2/(1-|G|^2) at gamma tau_c = 1, t = tau = pi tau_c:
P_REEXCITE = 0.007807148399647461


class TestLorentzianClosedForm:
    def test_initial_condition(self):
        for ratio in (0.1, 0.5, 1.0, 2.0):
            assert lorentzian_G(ratio, 1.0, 0.0) == 1.0

    def test_chi_zero_limit_formula(self):
        # gamma tau_c = 1/2, t = 2 tau_c: e^{-1} (1 + 1) = 2/e
        assert lorentzian_G(0.5, 1.0, 2.0) == pytest.approx(TWO_OVER_E, abs=1e-15)

    def test_oscillatory_value(self):
        # gamma tau_c = 1: G(pi tau_c) = e^{-pi/2}(cos(pi/2) + sin(pi/2))
        assert lorentzian_G(1.0, 1.0, np.pi) == pytest.approx(
            EXP_MINUS_HALF_PI, abs=1e-15
        )

    def test_continuity_across_chi_branches(self):
        t = np.linspace(0, 6, 50)
        below = lorentzian_G(0.5 - 1e-7, 1.0, t)
        at = lorentzian_G(0.5, 1.0, t)
        above = lorentzian_G(0.5 + 1e-7, 1.0, t)
        assert np.max(np.abs(below - at)) < 1e-6
        assert np.max(np.abs(above - at)) < 1e-6

    def test_weak_coupling_is_exponential(self):
        t = np.linspace(0, 20, 200)
        g = lorentzian_G(0.01, 1.0, t)
        assert np.max(np.abs(g - np.exp(-0.01 * t / 2))) < 2e-2

    def test_no_overflow_at_large_t(self):
        assert lorentzian_G(0.1, 1.0, 2000.0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            lorentzian_G(-1.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            lorentzian_G(1.0, 1.0, -0.5)


class TestVolterraSolver:
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0])
    def test_matches_closed_form(self, ratio):
        tau_c = 1.0
        gamma = ratio / tau_c
        ts, G = volterra(LorentzianKernel(gamma, tau_c), 5.0 / gamma, tau_c / 100)
        err = np.max(np.abs(G - lorentzian_G(gamma, tau_c, ts)))
        assert err <= 1e-5

    def test_second_order_convergence(self):
        gamma = tau_c = 1.0
        errs = []
        for h in (tau_c / 100, tau_c / 200):
            ts, G = volterra(LorentzianKernel(gamma, tau_c), 5.0, h)
            errs.append(np.max(np.abs(G - lorentzian_G(gamma, tau_c, ts))))
        assert errs[0] / errs[1] >= 3.5

    def test_chi_zero_boundary(self):
        tau_c = 1.0
        ts, G = volterra(LorentzianKernel(0.5, tau_c), 10.0, tau_c / 500)
        x = ts / (2 * tau_c)
        assert np.max(np.abs(G - np.exp(-x) * (1 + x))) < 1e-6

    def test_initial_value_exact(self):
        _, G = volterra(LorentzianKernel(1.0, 1.0), 1.0, 0.01)
        assert G[0] == 1.0

    def test_tabulated_kernel_agrees_with_analytic(self):
        gamma = tau_c = 1.0
        h = tau_c / 100
        ts = np.arange(0, 5.0 + h / 2, h)
        tab = TabulatedKernel(times=ts, values=eval_kernel_grid(LorentzianKernel(gamma, tau_c), ts))
        G, _, _ = propagators(tab, ts, 0.0, h)
        assert np.max(np.abs(G - lorentzian_G(gamma, tau_c, ts))) < 1e-5

    def test_coarse_step_warns_or_rejects(self):
        # the warning names the caller's line, so the default filter shows
        # it once per calling line, not once per process for all callers
        tab = tabulated_lorentzian(10.0)
        with pytest.warns(CoarseStepWarning) as record:
            propagators(tab, 5.0, 0.0, 0.5)
        assert [w.filename for w in record] == [__file__]
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoarseStepWarning)
            with pytest.raises(CoarseStepWarning):
                propagators(tab, 5.0, 0.0, 0.5)

    def test_coarse_step_warns_for_tabulated_kernel(self):
        # the Lorentzian tau_c/4 rule, read off the samples: |f| falls by 1/e
        # in tau_c = 1
        tab = tabulated_lorentzian(10.0)
        with pytest.warns(CoarseStepWarning, match="t_step = 0.5 > 0.25"):
            propagators(tab, 5.0, 0.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoarseStepWarning)
            propagators(tab, 5.0, 0.0, 0.2)
            propagators(tab, [0.2, 1.0], [1.0, 0.2], 0.2)
            with pytest.raises(CoarseStepWarning):
                propagators(tab, [0.5, 1.0], [1.0, 0.5], 0.5)

    def test_grid_validation(self):
        tab = tabulated_lorentzian(2.0)
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, 0.001, 0.0, 0.01)  # shorter than one step
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, 1.0005, 0.0, 0.01)  # not a whole number of steps

    def test_real_kernel_gives_real_G(self):
        _, G = volterra(LorentzianKernel(1.0, 1.0), 5.0, 0.01)
        assert np.max(np.abs(G.imag)) < 1e-12


class TestTwoTime:
    def test_closed_form_values(self):
        assert lorentzian_G_two_time(1.0, 1.0, 0.0, 2.0) == 0.0
        assert lorentzian_G_two_time(1.0, 1.0, 2.0, 0.0) == 0.0
        assert lorentzian_G_two_time(1.0, 1.0, np.pi, np.pi) == pytest.approx(
            TWO_EXP_MINUS_PI, abs=1e-15
        )
        # chi = 0 limit: (gamma / 2 tau_c) t tau e^{-(t+tau)/2 tau_c} = e^{-2}
        assert lorentzian_G_two_time(0.5, 1.0, 2.0, 2.0) == pytest.approx(
            EXP_MINUS_TWO, abs=1e-15
        )

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_quadrature_matches_closed_form(self, ratio):
        tau_c = 1.0
        gamma = ratio / tau_c
        ts, _, surface = tabulated_surface(gamma, tau_c, 5.0 * tau_c, tau_c / 100)
        ref = lorentzian_G_two_time(gamma, tau_c, ts[:, None], ts[None, :])
        assert np.max(np.abs(surface - ref)) <= 1e-5

    def test_edges_are_exactly_zero(self):
        _, _, surface = tabulated_surface(1.0, 1.0, 2.0, 0.02)
        assert np.all(surface[0, :] == 0)
        assert np.all(surface[:, 0] == 0)

    def test_rectangular_grids(self):
        # broadcast (t, tau) arrays of a non-Lorentzian kernel go through the
        # quadrature on the given step
        h = 0.01
        t = np.arange(301)[:, None] * h
        tau = np.arange(151)[None, :] * h
        g_t, g_tau, g2 = propagators(tabulated_lorentzian(6.0), t, tau, h)
        assert g_t.shape == g_tau.shape == g2.shape == (301, 151)
        assert np.max(np.abs(g_t - lorentzian_G(1.0, 1.0, t))) <= 1e-5
        assert np.max(np.abs(g_tau - lorentzian_G(1.0, 1.0, tau))) <= 1e-5
        assert np.max(np.abs(g2 - lorentzian_G_two_time(1.0, 1.0, t, tau))) <= 1e-5

    def test_kernel_needs_only_the_pairs_reach(self):
        # t <= 10 and tau <= 1 read f up to t + tau = 11, not to 2 max(t) = 20
        t = np.arange(11.0)[:, None]
        tau = np.array([0.0, 0.5, 1.0])
        g_t, _, g2 = propagators(tabulated_lorentzian(11.0), t, tau, 0.01)
        assert np.max(np.abs(g_t - lorentzian_G(1.0, 1.0, t))) <= 1e-5
        assert np.max(np.abs(g2 - lorentzian_G_two_time(1.0, 1.0, t, tau))) <= 1e-5
        with pytest.raises(KernelRangeError, match="t = 11 "):
            propagators(tabulated_lorentzian(10.9), t, tau, 0.01)

    def test_range_checked_before_sampling(self):
        # t = 1000 on a kernel tabulated to t = 2 is refused before the 10^6
        # sample times up to it are allocated (16 MiB with their kernel values)
        tab = tabulated_lorentzian(2.0)
        message = "^t = 1000 beyond last sample t_max = 2; refusing to extrapolate$"
        tracemalloc.start()
        try:
            with pytest.raises(KernelRangeError, match=message):
                propagators(tab, 1000.0, 0.0, 0.001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_propagators_route_by_kernel(self):
        t = np.array([0.0, 0.5, 2.0, 2.0])
        tau = np.array([1.0, 0.0, 1.5, 2.0])
        g_t, g_tau, g2 = propagators(LorentzianKernel(1.0, 1.0), t, tau)
        assert np.array_equal(g_t, lorentzian_G(1.0, 1.0, t))
        assert np.array_equal(g_tau, lorentzian_G(1.0, 1.0, tau))
        assert np.array_equal(g2, lorentzian_G_two_time(1.0, 1.0, t, tau))
        num = propagators(tabulated_lorentzian(4.0), t, tau, 0.01)
        for a, b in zip(num, (g_t, g_tau, g2)):
            assert a.dtype == complex
            assert np.max(np.abs(a - b)) <= 1e-5
        # scalars broadcast to 0-d results
        assert propagators(LorentzianKernel(1.0, 1.0), np.pi, np.pi)[2] == pytest.approx(
            TWO_EXP_MINUS_PI, abs=1e-15
        )

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_degenerate_times(self, tabulated):
        # both routes return values for empty and all-zero time arrays
        kernel = tabulated_lorentzian(1.0) if tabulated else LorentzianKernel(1.0, 1.0)
        empty = propagators(kernel, np.zeros((0, 3)), np.zeros(3), 0.01)
        assert [a.shape for a in empty] == [(0, 3)] * 3
        g_t, g_tau, g2 = propagators(kernel, np.zeros(4), 0.0, 0.01)
        assert g_t.shape == g_tau.shape == g2.shape == (4,)
        assert np.array_equal(g_t, np.ones(4))
        assert np.array_equal(g_tau, np.ones(4))
        assert np.array_equal(g2, np.zeros(4))
        if tabulated:
            assert all(a.dtype == complex for a in (*empty, g_t, g_tau, g2))

    def test_grid_mismatch_rejected(self):
        tab = tabulated_lorentzian(4.0)
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, 1.0, 1.003, 0.02)  # off-grid tau, the largest time
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, 1.003, 1.0, 0.02)  # off-grid time
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, -0.02, 1.0, 0.02)  # negative time
        with pytest.raises(ValidationError, match="t_step"):
            propagators(tab, 1.0, 1.0)  # no step for the quadrature

    @pytest.mark.parametrize("tabulated", [False, True])
    @pytest.mark.parametrize(
        "t, tau, t_step, name",
        [
            (np.nan, 1.0, 0.01, "t"),
            ([0.5, -np.inf], 1.0, 0.01, "t"),
            (1.0, np.inf, 0.01, "tau"),
            (1.0, 1.0, 0.0, "t_step"),
            (1.0, 1.0, -0.01, "t_step"),
            (1.0, 1.0, np.nan, "t_step"),
            (1.0, 1.0, np.inf, "t_step"),
        ],
    )
    def test_bad_times_and_steps_rejected(self, tabulated, t, tau, t_step, name):
        # on both routes, whether or not the closed forms need the step
        kernel = tabulated_lorentzian(2.0) if tabulated else LorentzianKernel(1.0, 1.0)
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            propagators(kernel, t, tau, t_step)

    @pytest.mark.parametrize(
        "t, tau, t_step",
        [(1e300, 1e300, 0.01), (1.0, -1e300, 0.01), (1e17, 0.0, 0.01), (1.0, 1.0, 1e-300)],
    )
    def test_times_beyond_the_index_range_rejected(self, t, tau, t_step):
        # no grid index holds t / t_step: refused before the cast to int,
        # which would warn (an error under the suite's filter)
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tabulated_lorentzian(2.0), t, tau, t_step)

    def test_markov_limit_vanishes_monotonically(self):
        sups = []
        for eps in (0.1, 0.03, 0.01):
            h = eps / 25
            t_max = 200 * h  # covers the sup of the two-time surface
            _, _, surface = tabulated_surface(1.0, eps, t_max, h)
            sups.append(np.max(np.abs(surface)))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 5e-3

    def test_delta_like_kernel_suppressed(self):
        h = 1e-3 / 25
        _, _, surface = tabulated_surface(1.0, 1e-3, 200 * h, h)
        assert np.max(np.abs(surface)) < 1e-2

    def test_probability_bound(self):
        tau_c = 1.0
        for ratio in (0.1, 0.5, 1.0, 2.0):
            gamma = ratio / tau_c
            t_max = min(5.0 / gamma, 8.0 * tau_c)
            h = tau_c / 100
            t_max = round(t_max / h) * h
            _, G, surface = tabulated_surface(gamma, tau_c, t_max, h)
            excess = np.abs(surface) ** 2 - (1.0 - np.abs(G[:, None]) ** 2)
            assert np.max(excess) <= 1e-9

    def test_two_time_real_for_real_kernel(self):
        _, _, surface = tabulated_surface(1.0, 1.0, 3.0, 0.01)
        assert np.max(np.abs(surface.imag)) < 1e-12


def _identity(G, i, j):
    """G2 at the index pairs (i, j) from samples of G by the identity."""
    return G[i] * G[j] - G[i + j]


def _exponential_sum_exact(alphas, lambdas, times):
    """G, I_k and A_k at each time, for f(t) = sum_k alpha_k e^{-lambda_k t}:
    the (2K+1)-variable linear ODE G' = -sum_k I_k, I_k' = alpha_k G -
    lambda_k I_k, A_k' = G - lambda_k A_k from G(0) = 1, I_k(0) = A_k(0) = 0,
    integrated exactly by a matrix exponential. Its G solves the Volterra
    equation, and G2(t, tau) = sum_k alpha_k A_k(t) A_k(tau)."""
    alphas = np.asarray(alphas, dtype=complex)
    lambdas = np.asarray(lambdas, dtype=complex)
    K = alphas.size
    M = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    M[0, 1 : K + 1] = -1.0
    M[1 : K + 1, 0] = alphas
    M[K + 1 :, 0] = 1.0
    M[1:, 1:] = -np.diag(np.concatenate([lambdas, lambdas]))
    return np.array([expm(M * t)[:, 0] for t in times])


# Kernel samples on t_k = k h for the identity-vs-quadrature tests, each
# |G| <= 1: a detuned single exponential, a complex two-term sum, an Ohmic
# kernel with a power-law tail and a real oscillating one
IDENTITY_KERNELS = {
    "detuned": lambda t: 0.5 * np.exp(-(1.0 + 8.0j) * t),
    "two-term": lambda t: 0.4 * np.exp(-(1.0 + 2.0j) * t) + (0.3 - 0.1j) * np.exp(-0.5 * t),
    "ohmic": lambda t: 1.25 / (1.0 + 5.0j * t) ** 2,
    "oscillating": lambda t: 0.5 * np.exp(-t) * np.cos(3.0 * t),
}


class TestG2Identity:
    """G2(t, tau) = G(t) G(tau) - G(t + tau) for any kernel, which is how
    propagators gets G2 on a tabulated kernel; checked against the closed
    forms, exact exponential sums and the double-convolution quadrature."""

    @pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("tau_c_fixed", [True, False])
    def test_closed_forms(self, ratio, tau_c_fixed):
        # every chi regime, chi = 0 at gamma tau_c = 1/2 included
        gamma, tau_c = (ratio, 1.0) if tau_c_fixed else (1.0, ratio)
        t, tau = np.random.default_rng(5).uniform(0.0, 20.0 / gamma, (2, 2000))
        t[:10] = tau[-10:] = 0.0

        def G(x):
            return lorentzian_G(gamma, tau_c, x)

        ref = lorentzian_G_two_time(gamma, tau_c, t, tau)
        assert np.max(np.abs(G(t) * G(tau) - G(t + tau) - ref)) <= 1e-14
        assert np.max(np.abs(ref)) > 1e-4

    @pytest.mark.parametrize(
        "alphas, lambdas",
        [
            ([0.4, 0.3 - 0.1j], [1.0 + 2.0j, 0.5]),  # complex two-term
            ([0.2, 0.2, 0.1], [1.0, 1.0 + 1e-6, 3.0]),  # near-degenerate
            ([0.5], [1.0 + 8.0j]),  # detuned by 8 decay rates
        ],
    )
    def test_exponential_sums(self, alphas, lambdas):
        t, tau = np.random.default_rng(1).uniform(0.0, 10.0, (2, 40))
        K = len(alphas)
        at_t, at_tau, at_sum = (
            _exponential_sum_exact(alphas, lambdas, x) for x in (t, tau, t + tau)
        )
        g2 = np.sum(np.asarray(alphas) * at_t[:, K + 1 :] * at_tau[:, K + 1 :], axis=1)
        identity = at_t[:, 0] * at_tau[:, 0] - at_sum[:, 0]
        assert np.max(np.abs(identity - g2)) <= 1e-13
        assert np.max(np.abs(g2)) > 1e-2

    @pytest.mark.parametrize("name", list(IDENTITY_KERNELS))
    def test_matches_quadrature_on_one_solve(self, name):
        # both from one volterra_trapezoid G: two second-order discretisations
        # of one G2, whose difference falls x4 per halving of h. On a single
        # exponential they agree to rounding at every step.
        diffs = []
        for h in (0.02, 0.01, 0.005):
            n = int(round(4.0 / h))
            f = IDENTITY_KERNELS[name](np.arange(2 * n + 1) * h)
            G = volterra_trapezoid(f, h)
            idx = np.arange(0, n + 1, n // 20)
            i, j = idx[:, None], idx
            quad = two_time_trapezoid(f, G, h, i, j)
            assert np.max(np.abs(quad)) > 1e-2
            diffs.append(np.max(np.abs(_identity(G, i, j) - quad)))
        if name == "detuned":
            assert max(diffs) <= 1e-14
        else:
            assert 1e-8 < diffs[2] < diffs[1] < diffs[0] <= 1e-4
            for coarse, fine in zip(diffs, diffs[1:]):
                assert 3.5 <= coarse / fine <= 4.5

    def test_born_markov_cancellation(self):
        # gamma tau_c = 1e-3: G is nearly a semigroup, so G2 is the small
        # difference of two products of order 1 and the CPF is tiny; the
        # identity keeps it, to rounding on the closed-form G and to the
        # step's O(h^2) on the tabulated route
        gamma, tau_c = 1.0, 1e-3
        h = tau_c / 25
        t = np.arange(51) * (int(round(0.1 / h)) * h)
        T, U = t[:, None], t[None, :]
        ts = np.arange(2 * int(round(t[-1] / h)) + 1) * h
        tab = TabulatedKernel(
            times=ts, values=eval_kernel_grid(LorentzianKernel(gamma, tau_c), ts)
        )
        g_t, _, g2 = propagators(tab, T, U, h)

        def G(x):
            return lorentzian_G(gamma, tau_c, x)

        exact_g2 = lorentzian_G_two_time(gamma, tau_c, T, U)
        for scheme, p in ((MeasurementScheme.ZZZ, 0.8), (MeasurementScheme.XZX, 1.0)):
            state = InitialState.from_population(p)
            ref = closed_values(scheme, state, G(T), exact_g2)
            peak = np.max(np.abs(ref))
            assert peak > 1e-6
            closed = closed_values(scheme, state, G(T), G(T) * G(U) - G(T + U))
            assert np.max(np.abs(closed - ref)) <= 1e-10 * peak
            numeric = closed_values(scheme, state, g_t, g2)
            assert np.max(np.abs(numeric - ref)) <= 1e-3 * peak

    @pytest.mark.parametrize(
        "grid, limit_mib",
        [("equal", 1.0), ("2-D", 8.0)],
    )
    def test_working_memory(self, grid, limit_mib):
        # a tabulated kernel at gamma tau_c = 1/2, 151 times to gamma t = 15
        # at step 0.01: G from one solve over 3001 steps, G2 indexed out of
        # it. The double-convolution quadrature held 12.6 MiB (equal times)
        # and 40 MiB (2-D) of FFT blocks here.
        ts = np.arange(3001) * 0.01
        tab = TabulatedKernel(times=ts, values=eval_kernel_grid(LorentzianKernel(1.0, 0.5), ts))
        t = np.arange(151) * 0.1
        args = (t, t) if grid == "equal" else (t[:, None], t[None, :])
        propagators(tab, *args, 0.01)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            propagators(tab, *args, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestRates:
    def test_exponential_gives_constant_rate(self):
        # weak-coupling G = e^{-gamma t/2}: -(d/dt) ln G is gamma/2, constant
        gamma = 0.7
        h = 0.01
        ts = np.arange(0, 5 + h / 2, h)
        gamma_t, omega_t = rates_from_G(np.exp(-gamma * ts / 2).astype(complex), h)
        assert np.max(np.abs(gamma_t - gamma / 2)) < 1e-6
        assert np.max(np.abs(omega_t)) < 1e-9

    def test_chi_zero_analytic_rate(self):
        # gamma tau_c = 1/2: gamma(t) = (1/2 tau_c) x/(1+x), x = t/2 tau_c
        tau_c = 1.0
        h = 0.005
        ts = np.arange(0, 8 + h / 2, h)
        gamma_t, _ = rates_from_G(np.asarray(lorentzian_G(0.5, tau_c, ts), dtype=complex), h)
        x = ts / (2 * tau_c)
        expected = (1 / (2 * tau_c)) * x / (1 + x)
        assert np.max(np.abs(gamma_t - expected)) < 1e-4
        assert np.all(gamma_t >= -1e-12)

    def test_real_G_zero_frequency(self):
        _, G = volterra(LorentzianKernel(0.4, 1.0), 5.0, 0.01)
        _, omega_t = rates_from_G(G, 0.01)
        assert np.max(np.abs(omega_t)) < 1e-9

    def test_zero_crossing_detected_with_index(self):
        # gamma tau_c = 1 crosses zero at t = 3 pi/2 tau_c
        tau_c = 1.0
        h = 0.01
        ts = np.arange(0, 6 + h / 2, h)
        with pytest.raises(PropagatorZeroCrossingError) as excinfo:
            rates_from_G(np.asarray(lorentzian_G(1.0, tau_c, ts), dtype=complex), h)
        assert abs(excinfo.value.t - 3 * np.pi / 2) < 0.02

    def test_complex_G_phase_unwrapped(self):
        # G = e^{-t/2 - 3 i t} winds through the branch cut of the principal
        # log several times; the rates must stay gamma = 1/2, omega = 3
        h = 0.01
        ts = np.arange(0, 5 + h / 2, h)
        gamma_t, omega_t = rates_from_G(np.exp(-ts / 2 - 3j * ts), h)
        assert np.max(np.abs(gamma_t - 0.5)) < 1e-9
        assert np.max(np.abs(omega_t - 3.0)) < 1e-9

    def test_bad_input_rejected(self):
        G = np.exp(-np.arange(10) * 0.01)
        for t_step in (0.0, np.nan):
            with pytest.raises(ValidationError, match="t_step"):
                rates_from_G(G, t_step)
        for values in (G[:2], G.reshape(2, 5)):
            with pytest.raises(ValidationError, match="3 grid points"):
                rates_from_G(values, 0.01)

    def test_rate_round_trip(self):
        # integrate gamma(t) + i omega(t) back to G, gamma tau_c = 0.4
        gamma, tau_c = 0.4, 1.0
        h = 0.002
        ts = np.arange(0, 5 + h / 2, h)
        G = np.asarray(lorentzian_G(gamma, tau_c, ts), dtype=complex)
        gamma_t, omega_t = rates_from_G(G, h)
        integrand = gamma_t + 1j * omega_t
        cumulative = np.concatenate(
            ([0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2) * h)
        )
        reconstructed = np.exp(-cumulative)
        assert np.max(np.abs(reconstructed - G)) < 1e-4


class TestBackflow:
    def test_trivial_full_decay(self):
        assert backflow_probabilities(0.0, 0.0) == (0.0, 0.0)

    def test_frozen_reexcitation_value(self):
        p_s, p_r = backflow_probabilities(EXP_MINUS_HALF_PI, TWO_EXP_MINUS_PI)
        assert p_s == pytest.approx(EXP_MINUS_PI, abs=1e-15)
        assert p_r == pytest.approx(P_REEXCITE, abs=1e-15)

    def test_reexcitation_matches_collapsed_statevector(self):
        # oracle: |amplitude of re-excited branch|^2 from the channel map
        from cpfsim import angles_from_propagator, apply_U_tau, JointState

        g_t = EXP_MINUS_HALF_PI
        g2 = TWO_EXP_MINUS_PI
        angles = angles_from_propagator(g_t, g_t, g2)
        env_excited = JointState(amplitudes=np.array([0, 0, 1.0, 0], dtype=complex))
        after = apply_U_tau(env_excited, angles.theta_tilde, angles.theta_tilde_prime)
        assert abs(after.amplitudes[1]) ** 2 == pytest.approx(P_REEXCITE, abs=1e-12)

    def test_probabilities_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = rng.uniform(0, 0.999)
            g2 = rng.uniform(0, 1) * np.sqrt(1 - g * g)
            p_s, p_r = backflow_probabilities(g, g2)
            assert 0.0 <= p_s < 1.0
            assert 0.0 <= p_r <= 1.0

    def test_conditioning_impossible(self):
        with pytest.raises(ConditioningImpossibleError):
            backflow_probabilities(1.0, 0.0)


class TestGridTypes:
    def test_anti_damped_kernel_rejected(self):
        # f = -1 solves to G = cosh t > 1: no propagator of a decaying qubit
        ts = np.arange(201) * 0.01
        tab = TabulatedKernel(times=ts, values=-np.ones(ts.size))
        with pytest.raises(ValidationError, match="not a propagator"):
            propagators(tab, 2.0, 0.0, 0.01)


def test_short_inputs():
    f = np.array([0.5 + 0j])
    assert volterra_trapezoid(f, 0.01)[0] == 1.0


def _volterra_reference(f: np.ndarray, h: float) -> np.ndarray:
    """The direct O(n^2) loop form of volterra_trapezoid, kept as the
    reference the blocked FFT solve is checked against."""
    f = np.ascontiguousarray(f, dtype=complex)
    n = f.shape[0] - 1
    G = np.empty(n + 1, dtype=complex)
    G[0] = 1.0
    if n == 0:
        return G
    fr = f[::-1]
    gw = np.empty(n + 1, dtype=complex)  # G with the k=0 trapezoid half-weight
    gw[0] = 0.5
    I_prev = 0.0 + 0.0j  # trapezoidal convolution integral at step i
    denom = 1.0 + h * h * f[0] / 4.0
    hh = 0.5 * h * h
    for i in range(n):
        # P = sum_{k=0..i} c_k f[i+1-k] G[k], c_0 = 1/2, c_k = 1 otherwise
        P = np.dot(fr[n - i - 1 : n], gw[: i + 1])
        G_next = (G[i] - 0.5 * h * I_prev - hh * P) / denom
        G[i + 1] = G_next
        gw[i + 1] = G_next
        I_prev = h * (P + 0.5 * f[0] * G_next)
    return G


# The blocked Volterra solve reorders each step's history sum of the loop;
# the rounding is carried through up to 2e4 steps.
VOLTERRA_REL_TOL = 1e-12
LEAF = propagator._VOLTERRA_LEAF


class TestVolterraBlocked:
    @pytest.mark.parametrize("rotating", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, LEAF - 1, LEAF, LEAF + 1, 1500, 20000])
    def test_matches_loop(self, n, rotating):
        h = 0.01
        t = np.arange(n + 1) * h
        f = 0.5 * np.exp(-t - (4j * t if rotating else 0.0))
        ref = _volterra_reference(f, h)
        out = volterra_trapezoid(f, h)
        assert out.shape == (n + 1,) and out[0] == 1.0
        assert np.max(np.abs(out - ref)) <= VOLTERRA_REL_TOL * np.max(np.abs(ref))
        if rotating and n > 100:
            assert np.max(np.abs(ref.imag)) > 0.1 * np.max(np.abs(ref))

    def test_strong_coupling_matches_loop(self):
        # gamma tau_c = 20: G oscillates through zero, each step's history
        # sum cancels strongly
        h = 0.005
        t = np.arange(3001) * h
        f = 10.0 * np.exp(-t).astype(complex)
        ref = _volterra_reference(f, h)
        assert np.min(ref.real) < -0.5
        assert np.max(np.abs(volterra_trapezoid(f, h) - ref)) <= VOLTERRA_REL_TOL


# On a single exponential the identity and the double-convolution quadrature
# agree to rounding at every step; bound set from float64 epsilon (2.2e-16)
# times the O(100) terms per sum, before any measurement.
EXPONENTIAL_REL_TOL = 1e-13


def _exponential_table(n, m, rotating=False, h=0.01):
    """f = e^{-t}/2, or e^{-(1 + 4i) t}/2, on 0..n+m steps as a tabulated
    kernel; its samples; and the reference's G on 0..max(n, m)."""
    t = np.arange(n + m + 1) * h
    f = 0.5 * np.exp(-t - (4j * t if rotating else 0.0))
    return TabulatedKernel(times=t, values=f), f, volterra_trapezoid(f[: max(n, m) + 1], h), h


class TestTabulatedG2:
    """The G2 of propagators on a tabulated kernel, the route of sweep and
    witness on a kernel file, against the double-convolution reference at
    any set of (t, tau) grid pairs."""

    def _check(self, tab, f, G, h, i, j):
        g2 = propagators(tab, np.multiply(i, h), np.multiply(j, h), h)[2]
        ref = two_time_trapezoid(f, G, h, i, j)
        assert g2.shape == ref.shape == np.broadcast(i, j).shape
        assert np.max(np.abs(g2 - ref)) <= EXPONENTIAL_REL_TOL * np.max(np.abs(ref))
        edge = (np.asarray(i) == 0) | (np.asarray(j) == 0)
        assert np.all(g2[edge] == 0) and np.all(ref[edge] == 0)
        return g2, ref

    @pytest.mark.parametrize(
        "n, m, rotating",
        [(120, 120, False), (150, 47, False), (40, 133, False), (700, 333, True)],
    )
    def test_matches_reference(self, n, m, rotating):
        problem = _exponential_table(n, m, rotating)
        _, ref = self._check(*problem, np.arange(n + 1)[:, None], np.arange(m + 1))
        if rotating:
            assert np.max(np.abs(ref.imag)) > 0.1 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rotating", [False, True])
    def test_row_subset_matches_reference(self, rotating):
        n, m = 90, 61
        tab, f, G, h = _exponential_table(n, m, rotating)
        cols = np.arange(m + 1)
        self._check(tab, f, G, h, np.array([n, 0, 17, 17, 3, 0, n - 1])[:, None], cols)
        # rows to t = 30 need the kernel only to t + tau = 30 + m
        short = TabulatedKernel(times=tab.times[: 31 + m], values=f[: 31 + m])
        self._check(short, f, G, h, np.arange(0, 31, 5)[:, None], cols)
        assert propagators(tab, [], [], h)[2].shape == (0,)

    @pytest.mark.parametrize("rotating", [False, True])
    def test_pairs_match_reference(self, rotating):
        # n != m; unordered and repeated pairs; t = 0 and tau = 0 edges
        n, m = 137, 90
        rng = np.random.default_rng(7)
        i = np.concatenate([rng.integers(0, n + 1, 396), [n, n, 0, 0, 5, n, 1, 1, 64]])
        j = np.concatenate([rng.integers(0, m + 1, 396), [m, 0, m, 0, m, 1, 1, m, 3]])
        problem = _exponential_table(n, m, rotating)
        g2, _ = self._check(*problem, i, j)
        # a (t, tau) grid of any shape gives the same values
        g2_3d, _ = self._check(*problem, i.reshape(3, 3, -1), j.reshape(3, 3, -1))
        assert np.array_equal(g2_3d.ravel(), g2)

    @pytest.mark.parametrize("leaf", [1, 4])
    def test_one_row_per_block(self, leaf, monkeypatch):
        # a Volterra leaf of one step, or of a few: every history sum handed
        # on block by block, and G2 from it still the reference's
        problem = _exponential_table(50, 50, rotating=True)
        monkeypatch.setattr(propagator, "_VOLTERRA_LEAF", leaf)
        self._check(*problem, np.array([50, 0, 25])[:, None], np.arange(51))
        self._check(*problem, [50, 3, 25, 3, 49, 7], [2, 50, 25, 1, 50, 9])

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([-1], ValidationError),
            ([0, 16], KernelRangeError),
            ([1.5], ValidationError),
            ([0.0, 2.0 + 1e-6], ValidationError),
            ([[3], [16]], KernelRangeError),
            ([15.5], ValidationError),
        ],
    )
    def test_bad_rows_rejected(self, rows, error):
        # t in steps off the grid or beyond the kernel's 15 steps, at tau = 0
        tab, _, _, h = _exponential_table(10, 5)
        with pytest.raises(error):
            propagators(tab, np.multiply(rows, h), 0.0, h)

    @pytest.mark.parametrize(
        "i, j, error",
        [
            ([0], [16], KernelRangeError),
            ([8], [8], KernelRangeError),
            ([0], [-1], ValidationError),
            ([1], [2.5], ValidationError),
            ([0, 1], [0, 1, 2], ValueError),
        ],
    )
    def test_bad_pairs_rejected(self, i, j, error):
        # pairs off the grid, reaching beyond the kernel's 15 steps (each
        # time within it in [8, 8]) or of shapes that do not broadcast
        tab, _, _, h = _exponential_table(10, 5)
        with pytest.raises(error):
            propagators(tab, np.multiply(i, h), np.multiply(j, h), h)

    def test_solve_rows_matches_full_pipeline(self):
        ts, G, surface = tabulated_surface(1.0, 1.0, 2.0, 0.01)
        rows = np.arange(0, 201, 20)
        g_t, _, g2_rows = propagators(tabulated_lorentzian(4.0), ts[rows, None], ts, 0.01)
        assert np.array_equal(g_t[:, 0], G[rows])
        assert np.array_equal(g2_rows, surface[rows])


def test_kernel_length_validation():
    # the whole 301 x 301 grid needs 601 samples; pairs reaching 399 steps
    # need no more than 400, and get the values of a longer kernel
    tab, _, _, h = _exponential_table(300, 300)
    short = TabulatedKernel(times=tab.times[:400], values=tab.values[:400])
    idx = np.arange(301) * h
    with pytest.raises(KernelRangeError):
        propagators(short, idx[:, None], idx, h)
    t, tau = idx[[300, 150]], idx[[99, 249]]
    assert np.array_equal(propagators(short, t, tau, h)[2], propagators(tab, t, tau, h)[2])
