"""Propagator layer: Volterra solver vs closed forms, two-time object,
rates, density matrix, backflow."""
import warnings

import numpy as np
import pytest

from cpfsim import (
    InitialState,
    LorentzianKernel,
    PropagatorGrid,
    TabulatedKernel,
    backflow_probabilities,
    eval_kernel_grid,
    lorentzian_G,
    lorentzian_G_two_time,
    propagators,
    rates_from_G,
    rho_t,
    solve_volterra,
)
from cpfsim import propagator
from cpfsim.propagator import solve_two_time_pairs, two_time_trapezoid, volterra_trapezoid
from cpfsim.errors import (
    ConditioningImpossibleError,
    CoarseStepWarning,
    GridMismatchError,
    KernelRangeError,
    PropagatorZeroCrossingError,
    ValidationError,
)

# Frozen with mpmath (mp.dps=30):
EXP_MINUS_HALF_PI = 0.20787957635076193  # e^{-pi/2}
TWO_EXP_MINUS_PI = 0.08642783652754450   # 2 e^{-pi}
EXP_MINUS_PI = 0.04321391826377225       # e^{-pi}
EXP_MINUS_TWO = 0.1353352832366127       # e^{-2}
TWO_OVER_E = 0.7357588823428846          # 2 e^{-1}
# |G2|^2/(1-|G|^2) at gamma tau_c = 1, t = tau = pi tau_c:
P_REEXCITE = 0.007807148399647461


def tabulated_lorentzian(t_end, h=0.01):
    """The gamma = tau_c = 1 Lorentzian kernel as a tabulated one, sampled
    every h up to t_end: a kernel without closed forms whose propagators
    are known."""
    ts = np.arange(0, t_end + h / 2, h)
    return TabulatedKernel(times=ts, values=eval_kernel_grid(LorentzianKernel(1.0, 1.0), ts))


def two_time_surface(kernel, t_max, h):
    """G on [0, t_max] and the whole G2 surface, from the pairs solve."""
    idx = np.arange(int(round(t_max / h)) + 1)
    return solve_two_time_pairs(kernel, t_max, h, idx[:, None], idx)


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
        grid = solve_volterra(LorentzianKernel(gamma, tau_c), 5.0 / gamma, tau_c / 100)
        err = np.max(np.abs(grid.values - lorentzian_G(gamma, tau_c, grid.times)))
        assert err <= 1e-5

    def test_second_order_convergence(self):
        gamma = tau_c = 1.0
        errs = []
        for h in (tau_c / 100, tau_c / 200):
            grid = solve_volterra(LorentzianKernel(gamma, tau_c), 5.0, h)
            errs.append(np.max(np.abs(grid.values - lorentzian_G(gamma, tau_c, grid.times))))
        assert errs[0] / errs[1] >= 3.5

    def test_chi_zero_boundary(self):
        tau_c = 1.0
        grid = solve_volterra(LorentzianKernel(0.5, tau_c), 10.0, tau_c / 500)
        x = grid.times / (2 * tau_c)
        assert np.max(np.abs(grid.values - np.exp(-x) * (1 + x))) < 1e-6

    def test_initial_value_exact(self):
        grid = solve_volterra(LorentzianKernel(1.0, 1.0), 1.0, 0.01)
        assert grid.values[0] == 1.0

    def test_tabulated_kernel_agrees_with_analytic(self):
        gamma = tau_c = 1.0
        h = tau_c / 100
        ts = np.arange(0, 5.0 + h / 2, h)
        tab = TabulatedKernel(times=ts, values=eval_kernel_grid(LorentzianKernel(gamma, tau_c), ts))
        grid = solve_volterra(tab, 5.0, h)
        assert np.max(np.abs(grid.values - lorentzian_G(gamma, tau_c, grid.times))) < 1e-5

    def test_coarse_step_warns_or_rejects(self):
        k = LorentzianKernel(1.0, 1.0)
        with pytest.warns(CoarseStepWarning):
            solve_volterra(k, 5.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoarseStepWarning)
            with pytest.raises(CoarseStepWarning):
                solve_volterra(k, 5.0, 0.5)

    def test_coarse_step_warns_for_tabulated_kernel(self):
        # the Lorentzian tau_c/4 rule, read off the samples: |f| falls by 1/e
        # in tau_c = 1
        tab = tabulated_lorentzian(10.0)
        with pytest.warns(CoarseStepWarning, match="t_step = 0.5 > 0.25"):
            solve_volterra(tab, 5.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoarseStepWarning)
            solve_volterra(tab, 5.0, 0.2)
            propagators(tab, [0.2, 1.0], [1.0, 0.2], 0.2)
            with pytest.raises(CoarseStepWarning):
                propagators(tab, [0.5, 1.0], [1.0, 0.5], 0.5)

    def test_grid_validation(self):
        k = LorentzianKernel(1.0, 1.0)
        with pytest.raises(ValidationError):
            solve_volterra(k, 0.001, 0.01)
        with pytest.raises(GridMismatchError):
            solve_volterra(k, 1.0005, 0.01)

    def test_real_kernel_gives_real_G(self):
        grid = solve_volterra(LorentzianKernel(1.0, 1.0), 5.0, 0.01)
        assert np.max(np.abs(grid.values.imag)) < 1e-12


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
        k = LorentzianKernel(gamma, tau_c)
        grid, surface = two_time_surface(k, 5.0 * tau_c, tau_c / 100)
        ref = lorentzian_G_two_time(gamma, tau_c, grid.times[:, None], grid.times[None, :])
        assert np.max(np.abs(surface - ref)) <= 1e-5

    def test_edges_are_exactly_zero(self):
        _, surface = two_time_surface(LorentzianKernel(1.0, 1.0), 2.0, 0.02)
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
        k = LorentzianKernel(1.0, 1.0)
        with pytest.raises(GridMismatchError):
            solve_two_time_pairs(k, 1.003, 0.02, 0, 0)  # off-grid t_max
        tab = tabulated_lorentzian(4.0)
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, 1.003, 1.0, 0.02)  # off-grid time
        with pytest.raises(ValidationError, match="integration grid"):
            propagators(tab, -0.02, 1.0, 0.02)  # negative time
        with pytest.raises(ValidationError, match="t_step"):
            propagators(tab, 1.0, 1.0)  # no step for the quadrature

    def test_markov_limit_vanishes_monotonically(self):
        sups = []
        for eps in (0.1, 0.03, 0.01):
            k = LorentzianKernel(1.0, 1.0 * eps)
            h = k.tau_c / 25
            t_max = 200 * h  # covers the sup of the two-time surface
            _, surface = two_time_surface(k, t_max, h)
            sups.append(np.max(np.abs(surface)))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 5e-3

    def test_delta_like_kernel_suppressed(self):
        k = LorentzianKernel(1.0, 1.0 * 1e-3)
        h = k.tau_c / 25
        _, surface = two_time_surface(k, 200 * h, h)
        assert np.max(np.abs(surface)) < 1e-2

    def test_probability_bound(self):
        tau_c = 1.0
        for ratio in (0.1, 0.5, 1.0, 2.0):
            gamma = ratio / tau_c
            k = LorentzianKernel(gamma, tau_c)
            t_max = min(5.0 / gamma, 8.0 * tau_c)
            h = tau_c / 100
            t_max = round(t_max / h) * h
            grid, surface = two_time_surface(k, t_max, h)
            excess = np.abs(surface) ** 2 - (
                1.0 - np.abs(grid.values[:, None]) ** 2
            )
            assert np.max(excess) <= 1e-9

    def test_two_time_real_for_real_kernel(self):
        k = LorentzianKernel(1.0, 1.0)
        _, surface = two_time_surface(k, 3.0, 0.01)
        assert np.max(np.abs(surface.imag)) < 1e-12


class TestDensityMatrix:
    def test_pure_excited_no_decay(self):
        rho = rho_t(InitialState(1.0, 0.0), 1.0)
        assert rho.up_up == pytest.approx(1.0)
        assert rho.down_down == pytest.approx(0.0)

    def test_pure_excited_full_decay(self):
        rho = rho_t(InitialState(1.0, 0.0), 0.0)
        assert rho.up_up == pytest.approx(0.0)
        assert rho.down_down == pytest.approx(1.0)

    def test_superposition_half_decay(self):
        s = InitialState(1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = rho_t(s, 0.5)
        assert rho.up_up == pytest.approx(0.125, abs=1e-15)
        assert rho.up_down == pytest.approx(0.25, abs=1e-15)

    def test_trace_and_hermiticity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(size=4)
            a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
            norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            s = InitialState(a / norm, b / norm)
            g = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            rho = rho_t(s, g)
            assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12

    def test_rejects_superunitary_G(self):
        with pytest.raises(ValidationError):
            rho_t(InitialState(1.0, 0.0), 1.5)


class TestRates:
    def test_exponential_gives_constant_rate(self):
        # weak-coupling G = e^{-gamma t/2}: -(d/dt) ln G is gamma/2, constant
        gamma = 0.7
        h = 0.01
        ts = np.arange(0, 5 + h / 2, h)
        grid = PropagatorGrid(t_step=h, values=np.exp(-gamma * ts / 2).astype(complex))
        rates = rates_from_G(grid)
        assert np.max(np.abs(rates.gamma_t - gamma / 2)) < 1e-6
        assert np.max(np.abs(rates.omega_t)) < 1e-9

    def test_chi_zero_analytic_rate(self):
        # gamma tau_c = 1/2: gamma(t) = (1/2 tau_c) x/(1+x), x = t/2 tau_c
        tau_c = 1.0
        h = 0.005
        ts = np.arange(0, 8 + h / 2, h)
        grid = PropagatorGrid(
            t_step=h, values=np.asarray(lorentzian_G(0.5, tau_c, ts), dtype=complex)
        )
        rates = rates_from_G(grid)
        x = ts / (2 * tau_c)
        expected = (1 / (2 * tau_c)) * x / (1 + x)
        assert np.max(np.abs(rates.gamma_t - expected)) < 1e-4
        assert np.all(rates.gamma_t >= -1e-12)

    def test_real_G_zero_frequency(self):
        grid = solve_volterra(LorentzianKernel(0.4, 1.0), 5.0, 0.01)
        rates = rates_from_G(grid)
        assert np.max(np.abs(rates.omega_t)) < 1e-9

    def test_zero_crossing_detected_with_index(self):
        # gamma tau_c = 1 crosses zero at t = 3 pi/2 tau_c
        tau_c = 1.0
        h = 0.01
        ts = np.arange(0, 6 + h / 2, h)
        grid = PropagatorGrid(
            t_step=h, values=np.asarray(lorentzian_G(1.0, tau_c, ts), dtype=complex)
        )
        with pytest.raises(PropagatorZeroCrossingError) as excinfo:
            rates_from_G(grid)
        assert abs(excinfo.value.t - 3 * np.pi / 2) < 0.02

    def test_complex_G_phase_unwrapped(self):
        # G = e^{-t/2 - 3 i t} winds through the branch cut of the principal
        # log several times; the rates must stay gamma = 1/2, omega = 3
        h = 0.01
        ts = np.arange(0, 5 + h / 2, h)
        grid = PropagatorGrid(t_step=h, values=np.exp(-ts / 2 - 3j * ts))
        rates = rates_from_G(grid)
        assert np.max(np.abs(rates.gamma_t - 0.5)) < 1e-9
        assert np.max(np.abs(rates.omega_t - 3.0)) < 1e-9

    def test_rate_round_trip(self):
        # integrate gamma(t) + i omega(t) back to G, gamma tau_c = 0.4
        gamma, tau_c = 0.4, 1.0
        h = 0.002
        ts = np.arange(0, 5 + h / 2, h)
        grid = PropagatorGrid(
            t_step=h, values=np.asarray(lorentzian_G(gamma, tau_c, ts), dtype=complex)
        )
        rates = rates_from_G(grid)
        integrand = rates.gamma_t + 1j * rates.omega_t
        cumulative = np.concatenate(
            ([0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2) * h)
        )
        reconstructed = np.exp(-cumulative)
        assert np.max(np.abs(reconstructed - grid.values)) < 1e-4


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
    def test_propagator_grid_invariants(self):
        with pytest.raises(ValidationError):
            PropagatorGrid(t_step=0.1, values=np.array([0.9, 0.5], dtype=complex))
        with pytest.raises(ValidationError):
            PropagatorGrid(t_step=0.1, values=np.array([1.0, 1.5], dtype=complex))


def test_short_inputs():
    f = np.array([0.5 + 0j])
    assert volterra_trapezoid(f, 0.01)[0] == 1.0
    G = np.array([1.0 + 0j])
    out = two_time_trapezoid(np.array([0.5 + 0j]), G, G, 0.01, [0], [0])
    assert out.shape == (1,)
    assert out[0] == 0.0


def test_kernel_length_validation():
    h = 0.01
    f = 0.5 * np.exp(-np.arange(501) * h).astype(complex)
    G = volterra_trapezoid(f[:301], h)
    idx = np.arange(301)
    with pytest.raises(ValueError):
        two_time_trapezoid(f[:400], G, G, h, idx[:, None], idx)  # needs 601 samples
    # pairs that reach no further than the samples need no more of them
    out = two_time_trapezoid(f[:400], G, G, h, [300, 150], [99, 249])
    ref = two_time_trapezoid(f, G, G, h, [300, 150], [99, 249])
    assert np.max(np.abs(out - ref)) <= 1e-15


def _two_time_reference(
    f: np.ndarray, G_t: np.ndarray, G_tau: np.ndarray, h: float
) -> np.ndarray:
    """The direct np.convolve form of two_time_trapezoid: the full surface,
    O(n m (n + m)), kept as the reference the FFT kernel is checked against."""
    f = np.ascontiguousarray(f, dtype=complex)
    G_t = np.ascontiguousarray(G_t, dtype=complex)
    G_tau = np.ascontiguousarray(G_tau, dtype=complex)
    n = G_t.shape[0] - 1
    m = G_tau.shape[0] - 1
    if f.shape[0] < n + m + 1:
        raise ValueError(f"kernel samples cover {f.shape[0] - 1} steps, need {n + m}")

    # Stage 1 (inner t' integral for every tau' offset l):
    # H[i, l] = h [ sum_{k=0..i} f[k+l] G_t[i-k] - f[l] G_t[i]/2 - f[i+l] G_t[0]/2 ]
    H = np.empty((n + 1, m + 1), dtype=complex)
    for l in range(m + 1):
        H[:, l] = np.convolve(f[l : l + n + 1], G_t)[: n + 1]
    H -= 0.5 * np.outer(G_t, f[: m + 1])
    hankel = f[np.arange(n + 1)[:, None] + np.arange(m + 1)[None, :]]
    H -= (0.5 * G_t[0]) * hankel
    H *= h
    H[0, :] = 0.0

    # Stage 2 (outer tau' integral for every t row):
    # G2[i, j] = h [ sum_{l=0..j} H[i,l] G_tau[j-l] - H[i,0] G_tau[j]/2 - H[i,j] G_tau[0]/2 ]
    G2 = np.empty((n + 1, m + 1), dtype=complex)
    for i in range(n + 1):
        G2[i, :] = np.convolve(H[i, :], G_tau)[: m + 1]
    G2 -= 0.5 * np.outer(H[:, 0], G_tau)
    G2 -= (0.5 * G_tau[0]) * H
    G2 *= h
    G2[:, 0] = 0.0
    G2[0, :] = 0.0
    return G2


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


# The FFT kernel reorders the sums of the reference; bound set from float64
# epsilon (2.2e-16) times the O(100) terms per sum, before any measurement.
FFT_REL_TOL = 1e-13
# The blocked Volterra solve reorders each step's history sum; the error is
# carried through up to 2e4 steps, so its bound is looser than FFT_REL_TOL.
VOLTERRA_REL_TOL = 1e-12
LEAF = propagator._VOLTERRA_LEAF


def _kernel_problem(n, m, rotating=False, h=0.01):
    """Kernel samples on 0..n+m and the solved G on both axes."""
    t = np.arange(n + m + 1) * h
    f = 0.5 * np.exp(-t - (4j * t if rotating else 0.0))
    G = volterra_trapezoid(f[: max(n, m) + 1], h)
    return f, G[: n + 1], G[: m + 1], h


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


class TestTwoTimeKernel:
    @pytest.mark.parametrize(
        "n, m, rotating",
        [(120, 120, False), (150, 47, False), (40, 133, False), (700, 333, True)],
    )
    def test_matches_reference(self, n, m, rotating):
        f, G_t, G_tau, h = _kernel_problem(n, m, rotating)
        ref = _two_time_reference(f, G_t, G_tau, h)
        out = two_time_trapezoid(f, G_t, G_tau, h, np.arange(n + 1)[:, None], np.arange(m + 1))
        assert out.shape == (n + 1, m + 1)
        assert np.max(np.abs(out - ref)) <= FFT_REL_TOL * np.max(np.abs(ref))
        assert np.all(out[0, :] == 0) and np.all(out[:, 0] == 0)
        if rotating:
            assert np.max(np.abs(ref.imag)) > 0.1 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rotating", [False, True])
    def test_row_subset_matches_reference(self, rotating):
        n, m = 90, 61
        f, G_t, G_tau, h = _kernel_problem(n, m, rotating)
        ref = _two_time_reference(f, G_t, G_tau, h)
        rows = np.array([n, 0, 17, 17, 3, 0, n - 1])
        out = two_time_trapezoid(f, G_t, G_tau, h, rows[:, None], np.arange(m + 1))
        assert out.shape == (len(rows), m + 1)
        assert np.max(np.abs(out - ref[rows])) <= FFT_REL_TOL * np.max(np.abs(ref))
        assert np.all(out[1] == 0) and np.all(out[:, 0] == 0)
        # only the kernel samples up to the largest i + j are read
        low = np.arange(0, 31, 5)
        out = two_time_trapezoid(f[: 30 + m + 1], G_t, G_tau, h, low[:, None], np.arange(m + 1))
        assert np.max(np.abs(out - ref[low])) <= FFT_REL_TOL * np.max(np.abs(ref))
        assert two_time_trapezoid(f, G_t, G_tau, h, [], []).shape == (0,)
        assert two_time_trapezoid(f, G_t, G_tau, h, np.zeros((0, 3), int), 0).shape == (0, 3)

    @pytest.mark.parametrize("rotating", [False, True])
    def test_pairs_match_reference(self, rotating):
        # n != m; unordered and repeated pairs; t = 0 and tau = 0 edges;
        # rows asking for few and for many tau columns
        n, m = 137, 90
        f, G_t, G_tau, h = _kernel_problem(n, m, rotating)
        ref = _two_time_reference(f, G_t, G_tau, h)
        rng = np.random.default_rng(7)
        i = np.concatenate([rng.integers(0, n + 1, 396), [n, n, 0, 0, 5, n, 1, 1, 64]])
        j = np.concatenate([rng.integers(0, m + 1, 396), [m, 0, m, 0, m, 1, 1, m, 3]])
        out = two_time_trapezoid(f, G_t, G_tau, h, i, j)
        assert out.shape == i.shape
        assert np.max(np.abs(out - ref[i, j])) <= FFT_REL_TOL * np.max(np.abs(ref))
        assert np.all(out[(i == 0) | (j == 0)] == 0)
        # a (t, tau) grid of any shape gives the same values
        out = two_time_trapezoid(f, G_t, G_tau, h, i.reshape(3, 3, -1), j.reshape(3, 3, -1))
        assert out.shape == (3, 3, len(i) // 9)
        assert np.max(np.abs(out.ravel() - ref[i, j])) <= FFT_REL_TOL * np.max(np.abs(ref))

    def test_one_row_per_block(self, monkeypatch):
        f, G_t, G_tau, h = _kernel_problem(50, 50, rotating=True)
        ref = _two_time_reference(f, G_t, G_tau, h)
        monkeypatch.setattr(propagator, "_FFT_BLOCK_BYTES", 1)
        rows = [50, 0, 25]
        out = two_time_trapezoid(f, G_t, G_tau, h, np.array(rows)[:, None], np.arange(51))
        assert np.max(np.abs(out - ref[rows])) <= FFT_REL_TOL * np.max(np.abs(ref))
        i, j = [50, 3, 25, 3, 49, 7], [2, 50, 25, 1, 50, 9]
        out = two_time_trapezoid(f, G_t, G_tau, h, i, j)
        assert np.max(np.abs(out - ref[i, j])) <= FFT_REL_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "rows", [[-1], [0, 11], [1.5], np.array([0.0, 2.0]), ["0", "1"], [True]]
    )
    def test_bad_rows_rejected(self, rows):
        # t indices out of [0, n] or not integers, against tau index 0
        f, G_t, G_tau, h = _kernel_problem(10, 5)
        with pytest.raises(ValueError):
            two_time_trapezoid(f, G_t, G_tau, h, rows, 0)

    @pytest.mark.parametrize(
        "i, j", [([0], [6]), ([0], [-1]), ([1], [2.0]), ([0, 1], [0, 1, 2]), ([1], [False])]
    )
    def test_bad_pairs_rejected(self, i, j):
        # tau indices out of [0, m] or not integers, or shapes that do not broadcast
        f, G_t, G_tau, h = _kernel_problem(10, 5)
        with pytest.raises(ValueError):
            two_time_trapezoid(f, G_t, G_tau, h, i, j)

    def test_solve_rows_matches_full_pipeline(self):
        k = LorentzianKernel(1.0, 1.0)
        grid = solve_volterra(k, 2.0, 0.01)
        _, surface = two_time_surface(k, 2.0, 0.01)
        rows = np.arange(0, 201, 20)
        row_grid, g2_rows = solve_two_time_pairs(k, 2.0, 0.01, rows[:, None], np.arange(201))
        assert np.array_equal(row_grid.values, grid.values)
        assert g2_rows.shape == (11, 201)
        assert np.max(np.abs(g2_rows - surface[::20])) <= FFT_REL_TOL * np.max(
            np.abs(surface)
        )
