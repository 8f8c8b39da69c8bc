"""Channel-map statevector oracle: unitarity, projections, enumeration,
and equivalence with the analytic tables and closed forms."""
import numpy as np
import pytest

from cpfsim import (
    ChannelAngles,
    InitialState,
    JointState,
    MeasurementScheme,
    angles_from_propagator,
    apply_U_t,
    apply_U_tau,
    build_table,
    conditional_table,
    cpf_closed_form,
    cpf_from_table,
    lorentzian_G,
    lorentzian_G_two_time,
    prepare_joint,
    project,
    simulate_sequence,
)
from cpfsim.errors import (
    ConditioningImpossibleError,
    InternalConsistencyError,
    NonUnitaryMapError,
    UnsupportedRegimeError,
    ValidationError,
    ZeroProbabilityBranchError,
)

EXP_MINUS_HALF_PI = 0.20787957635076193
TWO_EXP_MINUS_PI = 0.08642783652754450
# 0.5*arccos(e^{-pi/2}) and -2e^{-pi}/sqrt(1-e^{-pi}), mpmath 30 digits:
THETA_AT_PI = 0.6806948241821583
SIN_2TP_AT_PI = -0.08835806923902005


def ket(i):
    amps = np.zeros(4, dtype=complex)
    amps[i] = 1.0
    return JointState(amplitudes=amps)


class TestAngles:
    def test_identity_channel(self):
        ang = angles_from_propagator(1.0, 1.0, 0.0)
        assert ang.theta == 0.0
        assert ang.theta_tilde_prime == 0.0

    def test_full_damping(self):
        ang = angles_from_propagator(0.0, 0.5, 0.0)
        assert ang.theta == pytest.approx(np.pi / 4)

    def test_frozen_values_at_pi(self):
        ang = angles_from_propagator(
            EXP_MINUS_HALF_PI, EXP_MINUS_HALF_PI, TWO_EXP_MINUS_PI
        )
        assert ang.theta == pytest.approx(THETA_AT_PI, abs=1e-15)
        assert np.sin(2 * ang.theta_tilde_prime) == pytest.approx(
            SIN_2TP_AT_PI, abs=1e-15
        )

    def test_cos_two_theta_recovers_G(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g_t = rng.uniform(-0.999, 0.999)
            g_tau = rng.uniform(-0.999, 0.999)
            g2 = rng.uniform(-1, 1) * np.sqrt(1 - g_t * g_t)
            ang = angles_from_propagator(g_t, g_tau, g2)
            assert np.cos(2 * ang.theta) == pytest.approx(g_t, abs=1e-10)
            assert np.cos(2 * ang.theta_tilde) == pytest.approx(g_tau, abs=1e-10)
            assert np.sin(2 * ang.theta_tilde_prime) == pytest.approx(
                -g2 / np.sqrt(1 - g_t * g_t), abs=1e-10
            )

    def test_complex_inputs_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            angles_from_propagator(0.5 + 0.1j, 0.5, 0.1)

    def test_probability_bound_enforced(self):
        with pytest.raises(InternalConsistencyError):
            angles_from_propagator(0.9, 0.5, 0.9)


class TestMaps:
    def test_ground_state_fixed(self):
        for theta in (0.0, 0.3, np.pi / 4):
            out = apply_U_t(ket(0), theta)
            assert np.allclose(out.amplitudes, ket(0).amplitudes)

    def test_identity_angle(self):
        out = apply_U_t(ket(1), 0.0)
        assert np.allclose(out.amplitudes, ket(1).amplitudes)

    def test_complete_decay(self):
        out = apply_U_t(ket(1), np.pi / 4)
        assert abs(out.amplitudes[2]) == pytest.approx(1.0)

    def test_U_t_unitary_on_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps[3] = 0.0
            amps /= np.linalg.norm(amps)
            s = JointState(amplitudes=amps)
            out = apply_U_t(s, rng.uniform(0, np.pi))
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_U_tau_basis_actions(self):
        out = apply_U_tau(ket(0), 0.2, 0.4)
        assert np.allclose(out.amplitudes, ket(0).amplitudes)
        out = apply_U_tau(ket(1), 0.0, 0.0)
        assert np.allclose(out.amplitudes, ket(1).amplitudes)
        # environment excitation re-excites the system
        out = apply_U_tau(ket(2), 0.1, 0.5 * np.arcsin(SIN_2TP_AT_PI))
        assert out.amplitudes[1] == pytest.approx(SIN_2TP_AT_PI, abs=1e-15)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_U_tau_mixed_support_requires_rotation_pair(self):
        amps = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        s = JointState(amplitudes=amps)
        with pytest.raises(NonUnitaryMapError):
            apply_U_tau(s, 0.3, 0.2)
        # theta' = -theta completes an orthogonal rotation: allowed
        out = apply_U_tau(s, 0.3, -0.3)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_single_excitation_precondition(self):
        bad = np.array([0, 0, 0, 1], dtype=complex)
        with pytest.raises(ValidationError):
            apply_U_t(JointState(amplitudes=bad), 0.1)


class TestProjection:
    def test_z_projection_on_excited(self):
        prob, collapsed = project(ket(1), "z", +1)
        assert prob == pytest.approx(1.0)
        assert np.allclose(collapsed.amplitudes, ket(1).amplitudes)

    def test_x_projection_half(self):
        prob, collapsed = project(ket(1), "x", +1)
        assert prob == pytest.approx(0.5)
        expected = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        assert np.allclose(collapsed.amplitudes, expected)

    def test_environment_untouched(self):
        # project system of |down,1>: z=-1 certain, env excitation kept
        prob, collapsed = project(ket(2), "z", -1)
        assert prob == pytest.approx(1.0)
        assert np.allclose(collapsed.amplitudes, ket(2).amplitudes)

    def test_survival_probability_after_damping(self):
        g_t = 0.37
        damped = apply_U_t(ket(1), 0.5 * np.arccos(g_t))
        prob, _ = project(damped, "z", +1, collapse=False)
        assert prob == pytest.approx(g_t**2, abs=1e-12)

    def test_zero_probability_branch(self):
        with pytest.raises(ZeroProbabilityBranchError):
            project(ket(1), "z", -1)

    def test_y_projection_convention(self):
        # |+i> = (|up> + i|down>)/sqrt(2) is the +1 eigenstate of sigma_y
        plus_i = JointState(
            amplitudes=np.array([1j, 1, 0, 0], dtype=complex) / np.sqrt(2)
        )
        prob, _ = project(plus_i, "y", +1, collapse=False)
        assert prob == pytest.approx(1.0, abs=1e-12)


class TestSequence:
    def test_identity_dynamics_pins_all_outcomes(self):
        joint = simulate_sequence(
            InitialState(1.0, 0.0), MeasurementScheme.ZZZ, ChannelAngles(0.0, 0.0, 0.0)
        )
        assert joint[(+1, +1, +1)] == pytest.approx(1.0)
        assert sum(v for k, v in joint.items() if k != (+1, +1, +1)) == pytest.approx(0.0)

    @pytest.mark.parametrize("scheme", list(MeasurementScheme))
    @pytest.mark.parametrize("p", [1.0, 0.8, 0.5])
    def test_joint_distribution_normalized(self, scheme, p):
        angles = angles_from_propagator(0.4, 0.3, 0.2 * np.sqrt(1 - 0.16))
        joint = simulate_sequence(InitialState.from_population(p), scheme, angles)
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in joint.values())

    @pytest.mark.parametrize("scheme", list(MeasurementScheme))
    def test_oracle_matches_tables_and_closed_forms(self, scheme):
        gamma = tau_c = 1.0
        ts = np.linspace(0, 2 * np.pi, 6)[1:] * tau_c
        for p in (1.0, 0.8, 0.5):
            state = InitialState.from_population(p)
            for t in ts:
                for tau in ts:
                    g_t = float(lorentzian_G(gamma, tau_c, t))
                    g_tau = float(lorentzian_G(gamma, tau_c, tau))
                    g2 = float(lorentzian_G_two_time(gamma, tau_c, t, tau))
                    angles = angles_from_propagator(g_t, g_tau, g2)
                    joint = simulate_sequence(state, scheme, angles)
                    for y in (+1, -1):
                        expected = build_table(scheme, state, g_t, g_tau, g2, y)
                        enumerated = conditional_table(joint, scheme, y)
                        for z in (+1, -1):
                            for x in (+1, -1):
                                assert enumerated.p(z, x) == pytest.approx(
                                    expected.p(z, x), abs=1e-10
                                )
                    closed = cpf_closed_form(scheme, state, g_t, g2).value
                    oracle = cpf_from_table(conditional_table(joint, scheme, -1)).value
                    assert oracle == pytest.approx(closed, abs=1e-9)

    def test_y_plus_cpf_null_through_enumeration(self):
        gamma = tau_c = 1.0
        angles = angles_from_propagator(
            float(lorentzian_G(gamma, tau_c, 1.7)),
            float(lorentzian_G(gamma, tau_c, 2.4)),
            float(lorentzian_G_two_time(gamma, tau_c, 1.7, 2.4)),
        )
        for scheme in MeasurementScheme:
            for p in (1.0, 0.8, 0.5):
                joint = simulate_sequence(InitialState.from_population(p), scheme, angles)
                value = cpf_from_table(conditional_table(joint, scheme, +1)).value
                assert abs(value) <= 1e-12

    def test_theta_tilde_does_not_affect_y_minus(self):
        state = InitialState.from_population(0.8)
        base = angles_from_propagator(0.5, 0.5, 0.3)
        perturbed = ChannelAngles(base.theta, base.theta_tilde + 0.37, base.theta_tilde_prime)
        for scheme in MeasurementScheme:
            v0 = cpf_from_table(
                conditional_table(simulate_sequence(state, scheme, base), scheme, -1)
            ).value
            v1 = cpf_from_table(
                conditional_table(simulate_sequence(state, scheme, perturbed), scheme, -1)
            ).value
            assert abs(v0 - v1) <= 1e-12

    def test_branch_sign_of_theta_tilde_prime(self):
        # zzz observables depend on sin^2(2 theta'); xzx flips with the branch
        # sign through sin(2 theta) sin(2 theta'), matching the closed form
        # only for the adopted minus convention.
        state = InitialState.from_population(0.8)
        g_t, g_tau, g2 = 0.5, 0.4, 0.3
        adopted = angles_from_propagator(g_t, g_tau, g2)
        flipped = ChannelAngles(adopted.theta, adopted.theta_tilde, -adopted.theta_tilde_prime)

        def value(scheme, angles):
            joint = simulate_sequence(state, scheme, angles)
            return cpf_from_table(conditional_table(joint, scheme, -1)).value

        assert value(MeasurementScheme.ZZZ, adopted) == pytest.approx(
            value(MeasurementScheme.ZZZ, flipped), abs=1e-12
        )
        xzx_adopted = value(MeasurementScheme.XZX, adopted)
        xzx_flipped = value(MeasurementScheme.XZX, flipped)
        assert xzx_adopted == pytest.approx(-xzx_flipped, abs=1e-12)
        assert xzx_adopted == pytest.approx(
            cpf_closed_form(MeasurementScheme.XZX, state, g_t, g2).value, abs=1e-12
        )

    def test_oracle_matches_closed_forms_complex_state(self):
        # complex amplitudes exercise the Im(ab*) prefactor of the y-z-y
        # closed form and the Re(ab*) one of x-z-x against the enumeration
        state = InitialState(0.6 * np.exp(0.7j), 0.8 * np.exp(-0.3j))
        gamma = tau_c = 1.0
        for t, tau in [(0.8, 1.9), (2.4, 2.4), (np.pi, 0.7)]:
            g_t = float(lorentzian_G(gamma, tau_c, t))
            g_tau = float(lorentzian_G(gamma, tau_c, tau))
            g2 = float(lorentzian_G_two_time(gamma, tau_c, t, tau))
            angles = angles_from_propagator(g_t, g_tau, g2)
            for scheme in MeasurementScheme:
                joint = simulate_sequence(state, scheme, angles)
                oracle = cpf_from_table(conditional_table(joint, scheme, -1)).value
                closed = cpf_closed_form(scheme, state, g_t, g2).value
                assert oracle == pytest.approx(closed, abs=1e-12)
                plus = cpf_from_table(conditional_table(joint, scheme, +1)).value
                assert abs(plus) <= 1e-12

    def test_conditioning_impossible_from_enumeration(self):
        # p=1 at t=0: the system cannot be found decayed
        joint = simulate_sequence(
            InitialState(1.0, 0.0), MeasurementScheme.ZZZ, ChannelAngles(0.0, 0.0, 0.0)
        )
        with pytest.raises(ConditioningImpossibleError):
            conditional_table(joint, MeasurementScheme.ZZZ, -1)

    def test_reduced_state_matches_density_matrix(self):
        # partial trace over the environment after U(t) reproduces rho_t
        from cpfsim import rho_t

        state = InitialState(0.6, 0.8)
        g_t = 0.55
        evolved = apply_U_t(prepare_joint(state), 0.5 * np.arccos(g_t))
        a = evolved.amplitudes
        sys_env = np.array([[a[1], a[3]], [a[0], a[2]]])  # rows: up, down
        reduced = sys_env @ sys_env.conj().T
        assert np.allclose(reduced, rho_t(state, g_t).matrix, atol=1e-12)
