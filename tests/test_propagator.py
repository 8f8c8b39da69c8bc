"""Propagator layer: Volterra solver vs closed forms, two-time object,
rates, backflow."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cpfsim import (
    InitialState,
    LorentzianKernel,
    MeasurementScheme,
    TabulatedKernel,
    backflow_probabilities,
    decay_rates,
    eval_kernel_grid,
    lorentzian_G,
    lorentzian_G_two_time,
    propagators,
)
from cpfsim import propagator
from cpfsim.cpf import closed_values
from cpfsim.propagator import volterra_trapezoid
from cpfsim.errors import (
    ConditioningImpossibleError,
    InternalConsistencyError,
    KernelRangeError,
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


def _series_cs(chi_sq, x):
    """(C, S) = (e^{-x} cosh(chi x), e^{-x} sinh(chi x) / chi) at one x from
    their power series in chi^2, e^{-x} sum_k chi^{2k} x^{2k + m} / (2k + m)!
    for m = 0 and 1, each summed by fsum until its terms vanish."""
    sums = []
    for m in (0, 1):
        terms, term, k = [], x**m, m
        while term:
            terms.append(term)
            term *= chi_sq * x * x / ((k + 1) * (k + 2))
            k += 2
        sums.append(math.exp(-x) * math.fsum(terms))
    return sums


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

    @pytest.mark.parametrize(
        "ratio", [0.5 * (1 - 2e-10), 0.5 * (1 - 1e-11), 0.5, 0.5 * (1 + 1e-11), 0.5 * (1 + 2e-10)]
    )
    def test_rounding_accuracy_near_chi_zero(self, ratio):
        # gamma = 1, gamma tau_c = ratio, on both sides of chi = 0: G = C + S,
        # G2 = 2 gamma tau_c S(t) S(tau) and G' = -gamma S against the
        # chi^2 power series of C and S, to rounding
        tau_c = ratio
        chi_sq = 1.0 - 2.0 * tau_c  # exact for tau_c in [1/4, 1]
        ts = np.linspace(0.0, 10.0, 201)
        c, s = np.array([_series_cs(chi_sq, t / (2.0 * tau_c)) for t in ts]).T
        g = lorentzian_G(1.0, tau_c, ts)
        assert np.max(np.abs(g - (c + s))) < 1e-14
        g2 = lorentzian_G_two_time(1.0, tau_c, ts[:, None], ts[None, :])
        assert np.max(np.abs(g2 - 2.0 * tau_c * s[:, None] * s[None, :])) < 1e-14
        rate, _ = decay_rates(LorentzianKernel(1.0, tau_c), ts)
        assert np.max(np.abs(rate * g - s)) < 1e-14

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "closed_form",
        [
            lambda: lorentzian_G(1e300, 1e300, [0.0, 1.0]),
            lambda: lorentzian_G(1e308, 1.0, 0.0),
            lambda: lorentzian_G(np.float64(1e300), np.float64(1e300), 0.0),
            lambda: lorentzian_G_two_time(1e308, 1.0, 0.0, 1.0),
            lambda: LorentzianKernel(1e300, 1e300),
            lambda: LorentzianKernel(np.float64(1e308), np.float64(1.0)),
        ],
    )
    def test_two_gamma_tau_c_beyond_the_float_range_refused(self, closed_form):
        # chi^2 = 1 - 2 gamma tau_c = -inf would make every value NaN, G(0)
        # included; refused with no RuntimeWarning
        with pytest.raises(ValidationError, match="^2 gamma tau_c is beyond the float range"):
            closed_form()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_non_finite_times_refused(self, gamma, bad):
        # refused before any formula, with no RuntimeWarning from cos(inf)
        for call, name in [
            (lambda: lorentzian_G(gamma, 1.0, [0.5, bad]), "t"),
            (lambda: lorentzian_G_two_time(gamma, 1.0, bad, 1.0), "t"),
            (lambda: lorentzian_G_two_time(gamma, 1.0, 1.0, [0.5, bad]), "tau"),
        ]:
            with pytest.raises(ValidationError, match=f"^{name} must be finite$"):
                call()

    def test_each_input_checked_once(self, monkeypatch):
        # one kernel per public call, none per lookup of the solved closed forms
        solved, made = propagator.solve(LorentzianKernel(1.0, 1.0), 1.0), []
        kernel = lambda *a: made.append(a) or LorentzianKernel(*a)  # noqa: E731
        monkeypatch.setattr(propagator, "LorentzianKernel", kernel)
        lorentzian_G_two_time(1.0, 1.0, [0.5, 1.0], 2.0)
        lorentzian_G(1.0, 1.0, 0.5)
        solved.G(0.5), solved.G2(0.5, 0.5), solved.rates(0.5)
        assert made == [(1.0, 1.0)] * 2

    def test_largest_two_gamma_tau_c_still_evaluated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lorentzian_G(8e307, 1.0, 0.0) == 1.0
            assert lorentzian_G_two_time(8e307, 1.0, 0.0, 1.0) == 0.0


class TestDominantPole:
    """Once the fast mode has decayed, the closed forms are the dominant
    pole's: an analysis of G and G2 at gamma tau_c < 1/2, never a route to
    them."""

    @staticmethod
    def pole(ratio, tau_c=1.0):
        """chi, the residue Z0 = (1 + 1/chi)/2 and the pole s0 = -(1 - chi)/2 tau_c,
        1 - chi written as 2 gamma tau_c / (1 + chi) so that it does not cancel."""
        chi = math.sqrt(1.0 - 2.0 * ratio)
        return chi, (1.0 + 1.0 / chi) / 2.0, -2.0 * ratio / (1.0 + chi) / (2.0 * tau_c)

    @pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1, 0.4])
    def test_slow_mode_amplitudes(self, ratio):
        # the fast mode's weight relative to the slow one is e^{-chi t / tau_c}:
        # below 1e-13 from chi t / tau_c = 13 ln 10 on
        tau_c = 1.0
        chi, z0, s0 = self.pole(ratio, tau_c)
        t = np.linspace(1.0, 3.0, 41) * 13 * math.log(10) * tau_c / chi
        assert np.max(np.exp(-chi * t / tau_c)) < 1e-13
        g = lorentzian_G(ratio / tau_c, tau_c, t)
        assert np.max(np.abs(g / (z0 * np.exp(s0 * t)) - 1)) <= 1e-12
        tau = t[::-1]
        g2 = lorentzian_G_two_time(ratio / tau_c, tau_c, t, tau)
        amplitude = ratio / (2 * chi**2)
        assert z0 * (z0 - 1) == pytest.approx(amplitude, rel=1e-12)
        assert np.max(np.abs(g2 / (amplitude * np.exp(s0 * (t + tau))) - 1)) <= 1e-12

    @pytest.mark.parametrize("ratio", [1e-8, 1e-6, 1e-4])
    def test_born_markov_regime_to_rounding(self, ratio):
        # deep in the paper's regime, from t = 40 tau_c (the fast mode below
        # e^-40) to gamma t = 20: a slow rate formed as 1 - chi cancels and
        # reads up to 4e-10 off here
        tau_c = 1.0
        chi, z0, s0 = self.pole(ratio, tau_c)
        t = np.linspace(40.0 * tau_c, 20.0 * tau_c / ratio, 101)
        g = lorentzian_G(ratio / tau_c, tau_c, t)
        assert np.max(np.abs(g / (z0 * np.exp(s0 * t)) - 1)) <= 1e-14
        tau = t[::-1]
        g2 = lorentzian_G_two_time(ratio / tau_c, tau_c, t, tau)
        amplitude = ratio / (2 * chi**2)
        assert np.max(np.abs(g2 / (amplitude * np.exp(s0 * (t + tau))) - 1)) <= 1e-14

    @pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1])
    def test_memory_amplitude_is_the_first_moment(self, ratio):
        # (Z0 - 1) / (gamma tau_c / 2), the memory amplitude over the kernel's
        # first moment, is 2 / (chi (1 + chi)) = 1 + 1.5 gamma tau_c
        # + 2.5 (gamma tau_c)^2 + ...: within 2 gamma tau_c of 1 for
        # gamma tau_c <= 0.1 (3.09 at 0.4)
        _, z0, _ = self.pole(ratio)
        assert abs((z0 - 1) / (ratio / 2) - 1) <= 2 * ratio
        assert (z0 - 1) / (ratio / 2) == pytest.approx(1 + 1.5 * ratio, abs=4 * ratio**2)
        assert (self.pole(0.4)[1] - 1) / 0.2 == pytest.approx(3.09, abs=0.01)


class TestTwoPoles:
    """At gamma tau_c > 1/2, chi = i w, and G is the sum of both poles'
    terms Z e^{s t}: an analysis of G and G2, never a route to them."""

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 5.0])
    def test_closed_forms_are_the_sum_of_both_poles(self, ratio):
        tau_c = 1.0
        chi = 1j * math.sqrt(2.0 * ratio - 1.0)
        s = (-1.0 + np.array([chi, -chi])) / (2.0 * tau_c)
        z = (1.0 + np.array([1.0, -1.0]) / chi) / 2.0
        t = np.linspace(0.0, 20.0 * tau_c, 201)
        at_t = np.exp(np.multiply.outer(t, s))
        assert np.max(np.abs(lorentzian_G(ratio / tau_c, tau_c, t) - at_t @ z)) <= 1e-12
        g2 = lorentzian_G_two_time(ratio / tau_c, tau_c, t[:, None], t[None, :])
        both = np.einsum("k,l,ik,jl->ij", z, z, at_t, at_t)
        single = np.exp(np.multiply.outer(t[:, None] + t[None, :], s)) @ z
        assert np.max(np.abs(g2 - (both - single))) <= 1e-12 * np.max(np.abs(g2))


class TestVolterraSolver:
    def test_chi_zero_boundary(self):
        tau_c = 1.0
        ts, G = volterra(LorentzianKernel(0.5, tau_c), 10.0, tau_c / 500)
        x = ts / (2 * tau_c)
        assert np.max(np.abs(G - np.exp(-x) * (1 + x))) < 1e-6

    def test_initial_value_exact(self):
        _, G = volterra(LorentzianKernel(1.0, 1.0), 1.0, 0.01)
        assert G[0] == 1.0

    def test_coarse_step_refused(self, monkeypatch):
        # the Lorentzian tau_c/4 rule, read off the samples: |f| falls by 1/e
        # in tau_c = 1. Refused from any pair, before the kernel is sampled
        tab = tabulated_lorentzian(10.0)
        monkeypatch.setattr(propagator, "eval_kernel_grid", None)
        with pytest.raises(ValidationError, match=r"t_step = 0\.5 > 0\.25, a quarter"):
            propagators(tab, 5.0, 0.0, 0.5)
        with pytest.raises(ValidationError, match=r"t_step = 0\.5 > 0\.25"):
            propagators(tab, [0.5, 1.0], [1.0, 0.5], 0.5)

    def test_resolving_steps_not_refused(self):
        # a step of exactly a quarter of the 1/e time, any step for a kernel
        # without one, and any step for the closed forms, warning-free
        tab = tabulated_lorentzian(10.0)
        quarter = tab.decay_time() / 4
        assert quarter == pytest.approx(0.25, abs=1e-4)
        ts = np.arange(0, 5.0 + 1e-9, 0.01)
        slow = TabulatedKernel(times=ts, values=0.01 * np.exp(-ts / 10.0))
        assert slow.decay_time() is None
        lorentzian = LorentzianKernel(1.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, _, _ = propagators(tab, np.arange(5) * quarter, 0.0, quarter)
            propagators(tab, [0.2, 1.0], [1.0, 0.2], 0.2)
            g_slow, _, _ = propagators(slow, [0.0, 1.0, 2.0], 0.0, 1.0)
            closed = [propagators(lorentzian, 5.0, 2.5, h) for h in (1e-3, 0.5, 2.5, 1e6)]
        assert np.max(np.abs(g - lorentzian_G(1.0, 1.0, np.arange(5) * quarter))) < 1e-2
        assert np.all(np.abs(g_slow) <= 1.0)
        want = (lorentzian_G(1.0, 0.01, 5.0), lorentzian_G(1.0, 0.01, 2.5))
        assert all(c[:2] == want for c in closed)

    def test_solve_beyond_the_step_bound_refused(self, monkeypatch):
        # 2**22 steps are the longest solve; one more is refused by its
        # count, before the kernel is sampled
        tab = tabulated_lorentzian(10.0)
        h = 2.0**-20
        monkeypatch.setattr(propagator, "eval_kernel_grid", None)
        bound = f"needs a solve of {2**22 + 1} steps, more than {2**22}$"
        with pytest.raises(ValidationError, match=bound):
            propagators(tab, 2.0 + h, 2.0, h)
        with pytest.raises(ValidationError, match="t_step = 1e-09 needs a solve of 4000000000 "):
            propagators(tab, 2.0, 2.0, 1e-9)

    def test_grid_validation(self):
        tab = tabulated_lorentzian(2.0)
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, 0.001, 0.0, 0.01)  # shorter than one step
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, 1.0005, 0.0, 0.01)  # not a whole number of steps


class TestTwoTime:
    @pytest.mark.parametrize(
        "gamma, t, message",
        [(0.0, 1.0, "gamma must be > 0, got 0.0"), (1.0, -1.0, "t and tau must be >= 0")],
        ids=["gamma-zero", "negative-t"],
    )
    def test_closed_form_validation(self, gamma, t, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            lorentzian_G_two_time(gamma, 1.0, t, 1.0)

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
        with pytest.raises(KernelRangeError, match=r"^t = 11\.0 "):
            propagators(tabulated_lorentzian(10.9), t, tau, 0.01)

    def test_range_checked_before_sampling(self):
        # t = 1000 on a kernel tabulated to t = 2 is refused before the 10^6
        # sample times up to it are allocated (16 MiB with their kernel values)
        tab = tabulated_lorentzian(2.0)
        message = r"^t = 1000\.0 beyond last sample t_max = 2\.0; refusing to extrapolate$"
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
        [
            (1e300, 1e300, 0.01),
            (1.0, -1e300, 0.01),
            (1e17, 0.0, 0.01),
            (1.0, 1.0, 1e-300),
            (1e308, 1e308, 1.0),  # t + tau overflows to inf
        ],
    )
    def test_times_beyond_the_index_range_rejected(self, t, tau, t_step):
        # no grid index holds t / t_step: refused before the cast to int,
        # which would warn (an error under the suite's filter), a negative
        # time as off the grid and any other by its step count
        if min(t, tau) < 0:
            match = "integration grid"
        else:
            match = r"^t_step = \S+ needs a solve of \S+ steps, more than 4194304$"
        with pytest.raises(ValidationError, match=match):
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


class TestG2Identity:
    """G2(t, tau) = G(t) G(tau) - G(t + tau) for any kernel, which is how
    propagators gets G2 on a tabulated kernel; test_routes.py checks it
    against the closed forms, exact exponential sums and the
    double-convolution quadrature."""

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
        # gamma tau_c = 0.1: once G's faster pole has decayed, G is the
        # exponential of its slowest pole and the rate the constant
        # (1 - chi)/(2 tau_c); G is real, so omega = 0
        tau_c = 1.0
        limit = (1 - np.sqrt(0.8)) / (2 * tau_c)
        ts = np.arange(100, 200 + 0.05, 0.1) * tau_c
        gamma_t, omega_t = decay_rates(LorentzianKernel(0.1 / tau_c, tau_c), ts)
        assert np.max(np.abs(gamma_t - limit)) < 1e-12
        assert np.max(np.abs(omega_t)) == 0.0

    @pytest.mark.parametrize("ratio", [0.1, 0.5])
    def test_rate_positive_and_tends_to_the_pole_rate(self, ratio):
        # the propagator-based witness reads Markovian here: the rate is
        # positive at every t > 0 and rises to (1 - chi)/(2 tau_c)
        tau_c = 1.0
        limit = (1 - np.sqrt(1 - 2 * ratio)) / (2 * tau_c)
        ts = np.arange(0, 200 + 0.05, 0.1) * tau_c
        gamma_t, _ = decay_rates(LorentzianKernel(ratio / tau_c, tau_c), ts)
        assert np.all(gamma_t[1:] > 0)
        assert np.all(np.diff(gamma_t) >= -1e-15)
        assert np.all(gamma_t <= limit)
        assert gamma_t[-1] == pytest.approx(limit, rel=0.01)

    def test_chi_zero_analytic_rate(self):
        # gamma tau_c = 1/2: gamma(t) = (1/2 tau_c) x/(1+x), x = t/2 tau_c;
        # exact by the closed form, to O(h^2) by the quadrature
        tau_c = 1.0
        h = 0.005
        ts = np.arange(0, 8 + h / 2, h)
        x = ts / (2 * tau_c)
        expected = (1 / (2 * tau_c)) * x / (1 + x)
        for kernel, bound in (
            (LorentzianKernel(0.5, tau_c), 1e-12),
            (tabulated_lorentzian(16 + 2 * h, h, 0.5, tau_c), 1e-4),
        ):
            gamma_t, _ = decay_rates(kernel, ts, h)
            assert np.max(np.abs(gamma_t - expected)) < bound
            assert np.all(gamma_t >= -1e-12)

    def test_closed_form_is_the_derivative_of_lorentzian_G(self):
        # -rate G = G', against a 1e-6 central difference of lorentzian_G in
        # all three chi regimes
        tau_c = 1.0
        ts = np.linspace(1e-6, 20.0, 2001)
        d = 1e-6
        for ratio in (1e-3, 0.01, 0.5, 2.0):
            gamma_t, _ = decay_rates(LorentzianKernel(ratio, tau_c), ts)
            dg = (lorentzian_G(ratio, tau_c, ts + d) - lorentzian_G(ratio, tau_c, ts - d)) / (2 * d)
            assert np.max(np.abs(-gamma_t * lorentzian_G(ratio, tau_c, ts) - dg)) < 1e-9, ratio

    def test_rate_at_t0_is_zero(self):
        # G'(0) = 0: the closed form and the quadrature's difference over
        # |0 - h| and 0 + h give exactly 0
        for ratio in (1e-3, 0.01, 0.5, 2.0):
            assert decay_rates(LorentzianKernel(ratio, 1.0), 0.0) == (0.0, 0.0)
            gamma_0, omega_0 = decay_rates(tabulated_lorentzian(1.0, 0.01, ratio, 1.0), 0.0, 0.01)
            assert (gamma_0, omega_0) == (0.0, 0.0)
            assert not np.signbit(gamma_0)

    def test_real_G_zero_frequency(self):
        ts = np.arange(501) * 0.01
        _, omega_t = decay_rates(tabulated_lorentzian(10.1, 0.01, 0.4, 1.0), ts, 0.01)
        assert np.max(np.abs(omega_t)) < 1e-9

    @pytest.mark.parametrize("ratio, t_end", [(0.1, 5.0), (2.0, 2.0)])
    def test_quadrature_rate_error_falls_fourfold(self, ratio, t_end):
        # second order: halving the step from tau_c/25 quarters the error
        # against the closed form (gamma tau_c = 2 stops before G's first
        # zero near t = 2.42 tau_c)
        tau_c = 1.0
        ts = np.arange(round(t_end * 25) + 1) * (tau_c / 25)
        exact, _ = decay_rates(LorentzianKernel(ratio / tau_c, tau_c), ts)
        errors = []
        for h in (tau_c / 25, tau_c / 50):
            gamma_t, _ = decay_rates(tabulated_lorentzian(t_end + 1.0, h, ratio / tau_c, tau_c), ts, h)
            errors.append(np.max(np.abs(gamma_t - exact)))
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)

    def test_bad_input_rejected(self):
        # decay_rates refuses what the propagators call it makes refuses
        tab = tabulated_lorentzian(1.0)
        ts = np.arange(10) * 0.01
        for t_step in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(ValidationError, match="t_step"):
                decay_rates(tab, ts, t_step)
        with pytest.raises(ValidationError, match="explicit t_step"):
            decay_rates(tab, ts)
        with pytest.raises(ValidationError, match="integration grid"):
            decay_rates(tab, ts + 0.005, 0.01)
        with pytest.raises(KernelRangeError):
            decay_rates(tab, ts + 1.0, 0.01)
        with pytest.raises(ValidationError, match="t must be >= 0"):
            decay_rates(LorentzianKernel(1.0, 1.0), -ts)
        for t in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="t must be finite"):
                decay_rates(LorentzianKernel(1.0, 1.0), t)

    def test_rate_round_trip(self):
        # integrate gamma(t) + i omega(t) back to G, gamma tau_c = 0.4
        gamma, tau_c = 0.4, 1.0
        h = 0.002
        ts = np.arange(0, 5 + h / 2, h)
        G = np.asarray(lorentzian_G(gamma, tau_c, ts), dtype=complex)
        gamma_t, omega_t = decay_rates(LorentzianKernel(gamma, tau_c), ts)
        integrand = gamma_t + 1j * omega_t
        cumulative = np.concatenate(
            ([0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2) * h)
        )
        reconstructed = np.exp(-cumulative)
        assert np.max(np.abs(reconstructed - G)) < 1e-4

    def test_complex_G_phase_unwrapped(self):
        # f = e^{-(1 + 2i) t} / 2: G turns through the branch cut of the
        # principal log; the integral of gamma(t) + i omega(t) gives back
        # propagators' G to O(h^2) all the same
        t_end = 25.0
        for h in (0.02, 0.01):
            ts = np.arange(round(2 * t_end / h) + 1) * h
            kernel = TabulatedKernel(ts, 0.5 * np.exp(-(1 + 2j) * ts))
            ts = ts[: round(t_end / h) + 1]
            gamma_t, omega_t = decay_rates(kernel, ts, h)
            G, _, _ = propagators(kernel, ts, 0.0, h)
            assert np.max(np.abs(np.diff(np.angle(G)))) > np.pi
            integrand = gamma_t + 1j * omega_t
            cumulative = np.concatenate(
                ([0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2) * h)
            )
            assert np.max(np.abs(np.exp(-cumulative) - G)) < 0.2 * h * h


class TestBackflow:
    def test_trivial_full_decay(self):
        assert backflow_probabilities(0.0, 0.0) == (0.0, 0.0)

    def test_frozen_reexcitation_value(self):
        p_s, p_r = backflow_probabilities(EXP_MINUS_HALF_PI, TWO_EXP_MINUS_PI)
        assert p_s == pytest.approx(EXP_MINUS_PI, abs=1e-15)
        assert p_r == pytest.approx(P_REEXCITE, abs=1e-15)

    @pytest.mark.parametrize(
        "g_t, g2, p_reexcite",
        [
            (EXP_MINUS_HALF_PI, TWO_EXP_MINUS_PI, P_REEXCITE),
            (0.3 + 0.4j, 0.5 * np.exp(1j), 0.25 / 0.75),
        ],
        ids=["frozen", "complex"],
    )
    def test_reexcitation_matches_statevector(self, g_t, g2, p_reexcite):
        # oracle: under z-z-z at p = 1, the decayed system is found excited
        # again with P(z = +1, x = +1 | y = -1) = |G2|^2 / (1 - |G|^2)
        from cpfsim import angles_from_propagator, conditional_table, simulate_sequence

        zzz = MeasurementScheme.ZZZ
        joint = simulate_sequence(
            InitialState(1.0, 0.0), zzz, angles_from_propagator(g_t, g_t, g2)
        )
        assert backflow_probabilities(g_t, g2)[1] == pytest.approx(p_reexcite, abs=1e-15)
        assert conditional_table(joint, zzz, -1)[0] == pytest.approx(p_reexcite, abs=1e-12)

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

    @pytest.mark.parametrize("g_t, g2", [(np.nan, 0.1), (0.5, np.nan), (complex(0.5, np.inf), 0.1)])
    def test_non_finite_amplitudes_refused(self, g_t, g2):
        with pytest.raises(ValidationError, match="must be finite$"):
            backflow_probabilities(g_t, g2)

    def test_reexcitation_above_one_raises(self):
        # |G2|^2 / (1 - |G|^2) = 0.81 / 0.75 = 1.08 breaks the amplitude bound
        with pytest.raises(InternalConsistencyError, match="^re-excitation probability 1.08 > 1"):
            backflow_probabilities(0.5, 0.9)


class TestGridTypes:
    def test_anti_damped_kernel_rejected(self):
        # f = -1 solves to G = cosh t > 1: no propagator of a decaying qubit
        ts = np.arange(201) * 0.01
        tab = TabulatedKernel(times=ts, values=-np.ones(ts.size))
        with pytest.raises(ValidationError, match="not a propagator"):
            propagators(tab, 2.0, 0.0, 0.01)


class TestSolved:
    """solve's value and its lookups G, G2 and rates, which propagators and
    decay_rates read."""

    KERNELS = {
        "closed": lambda: LorentzianKernel(1.0, 1.0),
        "grid": lambda: tabulated_lorentzian(2.0),
    }

    @pytest.mark.parametrize("route", KERNELS)
    def test_wrappers_equal_the_lookups_bitwise(self, route):
        kernel = self.KERNELS[route]()
        t = np.arange(0, 51, 5)[:, None] * 0.01
        tau = np.arange(0, 51, 10) * 0.01
        solved = propagator.solve(kernel, 1.0, 0.01)
        for got, want in zip(
            propagators(kernel, t, tau, 0.01), (solved.G(t), solved.G(tau), solved.G2(t, tau))
        ):
            assert np.array_equal(got, np.broadcast_to(want, got.shape))
        # decay_rates solves to the last time and a step
        rates = propagator.solve(kernel, 0.51, 0.01).rates(t.ravel())
        for got, want in zip(decay_rates(kernel, t.ravel(), 0.01), rates):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("route", KERNELS)
    def test_rates_exactly_zero_at_t0(self, route):
        solved = propagator.solve(self.KERNELS[route](), 0.5, 0.01)
        gamma_0, omega_0 = solved.rates(0.0)
        assert (gamma_0, omega_0) == (0.0, 0.0)
        assert not np.signbit(gamma_0)

    @pytest.mark.parametrize("route", KERNELS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_refused(self, route, bad):
        solved = propagator.solve(self.KERNELS[route](), 1.0, 0.01)
        for lookup in (solved.G, solved.rates, lambda t: solved.G2(t, 0.5)):
            with pytest.raises(ValidationError, match="^t must be finite$"):
                lookup([0.5, bad])
        with pytest.raises(ValidationError, match="^tau must be finite$"):
            solved.G2(0.5, [0.5, bad])

    def test_negative_times_refused(self):
        closed = propagator.solve(LorentzianKernel(1.0, 1.0), 1.0)
        for lookup in (closed.G, closed.rates):
            with pytest.raises(ValidationError, match="^t must be >= 0$"):
                lookup([0.5, -0.5])
        with pytest.raises(ValidationError, match="^t and tau must be >= 0$"):
            closed.G2(0.5, -0.5)
        grid = propagator.solve(tabulated_lorentzian(2.0), 1.0, 0.01)
        for lookup in (grid.G, grid.rates, lambda t: grid.G2(t, 0.5), lambda t: grid.G2(0.5, t)):
            with pytest.raises(ValidationError, match="integration grid"):
                lookup([0.5, -0.01])
            with pytest.raises(ValidationError, match="integration grid"):
                lookup(-1e-12)  # within the off-grid tolerance of t = 0

    def test_off_the_grid_and_beyond_the_solve_refused(self):
        solved = propagator.solve(tabulated_lorentzian(2.0), 1.0, 0.01)
        assert solved.g.shape == (101,)
        for lookup in (solved.G, solved.rates, lambda t: solved.G2(t, 0.0)):
            with pytest.raises(ValidationError, match="integration grid"):
                lookup([0.5, 0.505])
        # G to t = 1 itself; G2 and the rate read G at t + tau and t + step
        assert solved.G(1.0) == solved.g[100]
        beyond = r"beyond the solve, which ends at t = 1\.0$"
        with pytest.raises(ValidationError, match=f"^t {beyond}"):
            solved.G(1.01)
        with pytest.raises(ValidationError, match=f"^t \\+ tau {beyond}"):
            solved.G2(0.6, 0.5)
        with pytest.raises(ValidationError, match=f"^t \\+ t_step {beyond}"):
            solved.rates(1.0)
        with pytest.raises(ValidationError, match=f"^t {beyond}"):
            solved.G(1e300)

    def test_closed_forms_take_any_time(self):
        # no grid and no end: t_end and the step are not read by the lookups
        kernel = LorentzianKernel(1.0, 1.0)
        solved = propagator.solve(kernel, 0.0, 0.5)
        assert solved.g is None
        assert solved.G(np.pi) == lorentzian_G(1.0, 1.0, np.pi)
        assert solved.G2(np.pi, 0.123) == lorentzian_G_two_time(1.0, 1.0, np.pi, 0.123)

    @pytest.mark.parametrize(
        "kernel", [tabulated_lorentzian(2.0), LorentzianKernel(1.0, 1.0)], ids=["grid", "closed"]
    )
    def test_nan_end_refused(self, kernel):
        # NaN is not > 0, so it read as no solve: a one-point grid whose next
        # lookup failed with "beyond the solve, which ends at t = 0"
        with pytest.raises(ValidationError, match="^t_end must be a number, got nan$"):
            propagator.solve(kernel, float("nan"), 0.01)

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_no_solve_below_the_first_step(self, monkeypatch, t_end):
        # G(0) = 1 needs no kernel sample and no solve
        monkeypatch.setattr(propagator, "volterra_trapezoid", None)
        monkeypatch.setattr(propagator, "eval_kernel_grid", None)
        solved = propagator.solve(tabulated_lorentzian(2.0), t_end, 0.5)
        assert solved.G([0.0, 0.0]).tolist() == [1.0, 1.0]
        assert solved.G2(0.0, 0.0) == 0.0


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
