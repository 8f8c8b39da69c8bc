"""Channel-map statevector oracle: amplitude checks and enumeration. Its
equivalence with the tables and closed forms is in test_routes.py."""
import numpy as np
import pytest

from cpfsim import (
    InitialState,
    MeasurementScheme,
    angles_from_propagator,
    conditional_table,
    cpf_closed_form,
    cpf_from_table,
    simulate_sequence,
)
from cpfsim.cpf import conditioning_probability
from cpfsim.errors import ConditioningImpossibleError, InternalConsistencyError

ZZZ, XZX, YZY = MeasurementScheme.ZZZ, MeasurementScheme.XZX, MeasurementScheme.YZY
OUTCOMES = (+1, -1)


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return InitialState(v[0], v[1])


def random_amplitudes(rng):
    """Complex G(t), G(tau), G2 with |G| < 1 and |G2|^2 <= 1 - |G(t)|^2."""
    phase = lambda: np.exp(2j * np.pi * rng.uniform())
    g_t = rng.uniform(0, 0.999) * phase()
    g_tau = rng.uniform(0, 0.999) * phase()
    g2 = rng.uniform(0, 1) * np.sqrt(1 - abs(g_t) ** 2) * phase()
    return g_t, g_tau, g2


def y_minus_cpf(state, scheme, amplitudes):
    joint = simulate_sequence(state, scheme, amplitudes)
    return cpf_from_table(conditional_table(joint, scheme, -1)).value


class TestAmplitudes:
    def test_complex_inputs_accepted(self):
        amplitudes = angles_from_propagator(0.5 + 0.1j, 0.5, 0.1)
        assert amplitudes == (0.5 + 0.1j, 0.5 + 0j, 0.1 + 0j)
        assert all(type(v) is complex for v in amplitudes)

    @pytest.mark.parametrize(
        "values",
        [(1.1, 0.5, 0.0), (0.5, 0.6 + 0.9j, 0.0), (0.9, 0.5, 0.9), (0.5, 0.5, np.nan)],
        ids=["G_t", "G_tau", "G2_bound", "nan"],
    )
    def test_out_of_bound_values_raise(self, values):
        with pytest.raises(InternalConsistencyError):
            angles_from_propagator(*values)

    def test_bounds_hold_to_tolerance(self):
        # |G2|^2 = 1 - |G(t)|^2 exactly and |G| = 1 are admissible
        angles_from_propagator(0.6, 1.0, 0.8j)
        angles_from_propagator(1.0 + 1e-12, 1.0, 0.0)


class TestSequence:
    def test_identity_dynamics_pins_all_outcomes(self):
        joint = simulate_sequence(InitialState(1.0, 0.0), ZZZ, (1.0, 1.0, 0.0))
        assert joint[(+1, +1, +1)] == pytest.approx(1.0)
        assert sum(v for k, v in joint.items() if k != (+1, +1, +1)) == pytest.approx(0.0)

    @pytest.mark.parametrize("amplitudes", [(0.3, 0.7, 0.5), (0.3 - 0.6j, 0.2j, 0.1 + 0.2j)])
    def test_ground_state_fixed(self, amplitudes):
        # |down> neither decays nor is excited: every outcome reads -1
        joint = simulate_sequence(InitialState(0.0, 1.0), ZZZ, amplitudes)
        assert joint[(-1, -1, -1)] == pytest.approx(1.0, abs=1e-15)

    def test_full_decay(self):
        # G(t) = 0: the excited system is found decayed at t with certainty
        joint = simulate_sequence(InitialState(1.0, 0.0), ZZZ, (0.0, 0.5, 0.0))
        assert joint[(+1, -1, -1)] == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ConditioningImpossibleError):
            conditional_table(joint, ZZZ, +1)

    def test_y_axis_convention(self):
        # |+i> = (|up> + i|down>)/sqrt(2) is the +1 eigenstate of sigma_y
        state = InitialState(1 / np.sqrt(2), 1j / np.sqrt(2))
        joint = simulate_sequence(state, YZY, (0.4, 0.3, 0.2))
        assert sum(joint[(+1, y, z)] for y in OUTCOMES for z in OUTCOMES) == pytest.approx(
            1.0, abs=1e-15
        )

    @pytest.mark.parametrize("scheme", list(MeasurementScheme))
    def test_reduced_state_marginals(self, scheme):
        # the past marginal is |<x|psi>|^2, and the present one the
        # population of the decayed qubit, |G(t)|^2 of the excited weight
        rng = np.random.default_rng(11)
        kets = {
            ZZZ: {+1: (1, 0), -1: (0, 1)},
            XZX: {x: (1, x) for x in OUTCOMES},
            YZY: {x: (1, 1j * x) for x in OUTCOMES},
        }[scheme]
        for _ in range(50):
            state = random_state(rng)
            amplitudes = random_amplitudes(rng)
            joint = simulate_sequence(state, scheme, amplitudes)
            for x in OUTCOMES:
                up, down = np.conj(kets[x]) / np.linalg.norm(kets[x])
                past = abs(up * state.a + down * state.b) ** 2
                marginal = sum(joint[(x, y, z)] for y in OUTCOMES for z in OUTCOMES)
                assert marginal == pytest.approx(past, abs=1e-12)
            for y in OUTCOMES:
                present = sum(joint[(x, y, z)] for x in OUTCOMES for z in OUTCOMES)
                expected = conditioning_probability(scheme, state, y, amplitudes[0])
                assert present == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize("scheme", list(MeasurementScheme))
    @pytest.mark.parametrize("p", [1.0, 0.8, 0.5])
    def test_joint_distribution_normalized(self, scheme, p):
        amplitudes = angles_from_propagator(0.4, 0.3, 0.2 * np.sqrt(1 - 0.16))
        joint = simulate_sequence(InitialState.from_population(p), scheme, amplitudes)
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in joint.values())

    def test_G_tau_does_not_enter_y_minus(self):
        state = InitialState.from_population(0.8)
        for scheme in MeasurementScheme:
            tables = [
                conditional_table(simulate_sequence(state, scheme, (0.5, g_tau, 0.3)), scheme, -1)
                for g_tau in (0.5, -0.2 + 0.7j, 0.0)
            ]
            for table in tables[1:]:
                assert table == pytest.approx(tables[0], abs=1e-15)

    def test_global_phase_of_G2_leaves_zzz(self):
        state = InitialState.from_population(0.8)
        base = y_minus_cpf(state, ZZZ, (0.5, 0.4, 0.3))
        for phase in (np.exp(0.9j), -1.0, 1j):
            assert y_minus_cpf(state, ZZZ, (0.5, 0.4, 0.3 * phase)) == pytest.approx(base, abs=1e-15)

    def test_sign_of_G2(self):
        # zzz observables depend on |G2|^2; xzx flips with the sign of G2
        # through the interference term Re G2, matching the closed form
        # only for the re-excitation amplitude -G2
        state = InitialState.from_population(0.8)
        adopted, flipped = (0.5, 0.4, 0.3), (0.5, 0.4, -0.3)
        assert y_minus_cpf(state, ZZZ, adopted) == pytest.approx(
            y_minus_cpf(state, ZZZ, flipped), abs=1e-12
        )
        xzx_adopted = y_minus_cpf(state, XZX, adopted)
        assert xzx_adopted == pytest.approx(-y_minus_cpf(state, XZX, flipped), abs=1e-12)
        assert xzx_adopted == pytest.approx(cpf_closed_form(XZX, state, 0.5, 0.3).value, abs=1e-12)

    def test_conditioning_impossible_from_enumeration(self):
        # p=1 at t=0: the system cannot be found decayed
        joint = simulate_sequence(InitialState(1.0, 0.0), ZZZ, (1.0, 1.0, 0.0))
        with pytest.raises(ConditioningImpossibleError):
            conditional_table(joint, ZZZ, -1)
