"""CPF tables and closed forms: identities, signs, boundaries, errors."""
import numpy as np
import pytest

from cpfsim import (
    CpfResult,
    InitialState,
    angles_from_propagator,
    conditional_table,
    simulate_sequence,
    MeasurementScheme,
    cpf_closed_form,
    cpf_from_table,
    lorentzian_G,
    lorentzian_G_two_time,
)
from cpfsim.cpf import (
    _CELLS, closed_values, conditioning_probability, table_correlation, table_probs,
)
from cpfsim.errors import (
    ConditioningImpossibleError,
    InternalConsistencyError,
    ValidationError,
)

ZZZ, XZX, YZY = MeasurementScheme.ZZZ, MeasurementScheme.XZX, MeasurementScheme.YZY

# Frozen from the high-precision closed-form substitution (see test_propagator):
EXP_MINUS_HALF_PI = 0.20787957635076193
TWO_EXP_MINUS_PI = 0.08642783652754450
CPF_ZZZ_P08 = 0.005129165333104857   # p=0.8, gamma tau_c=1, t=tau=pi tau_c
CPF_XZX_P1 = -0.08833652010735720    # p=1, same point
XZX_KAPPA = 0.08833652010735720      # 2 Re G2 / (2 - |G|^2) at the same point


def cells(probs):
    """{(z, x): P(z, x | y)} of one table of four entries in _CELLS order."""
    return dict(zip(_CELLS, np.asarray(probs).tolist()))


def p_z(tbl, z):
    return tbl[(z, +1)] + tbl[(z, -1)]


def p_x(tbl, x):
    return tbl[(+1, x)] + tbl[(-1, x)]


def random_table_inputs(rng):
    """Normalized real state, G_t in (0,1), G2 obeying the probability bound."""
    p = rng.uniform(0.05, 0.95)
    state = InitialState.from_population(p)
    g_t = rng.uniform(0.0, 0.999)
    g2 = rng.uniform(-1.0, 1.0) * np.sqrt(1 - g_t * g_t) * 0.999
    return state, g_t, g2


class TestTableBuilders:
    def test_zzz_y_minus_entries_pure_excited(self):
        g_t, g2 = 0.5, 0.3
        tbl = cells(table_probs(ZZZ, InitialState(1.0, 0.0), -1, g_t, 0.4, g2))
        assert tbl[(+1, -1)] == 0.0
        assert tbl[(-1, -1)] == 0.0
        assert tbl[(+1, +1)] == pytest.approx(g2**2 / (1 - g_t**2), abs=1e-15)

    def test_zzz_t_zero_degenerates_to_past_minus(self):
        tbl = cells(table_probs(ZZZ, InitialState.from_population(0.8), -1, 1.0, 0.7, 0.0))
        assert tbl[(-1, -1)] == pytest.approx(1.0)
        assert tbl[(+1, +1)] == 0.0
        assert tbl[(-1, +1)] == 0.0

    def test_zzz_y_plus_entries(self):
        g_tau = 0.6
        tbl = cells(table_probs(ZZZ, InitialState.from_population(0.8), +1, 0.5, g_tau, 0.2))
        assert tbl[(+1, +1)] == pytest.approx(g_tau**2)
        assert tbl[(-1, +1)] == pytest.approx(1 - g_tau**2)
        assert p_x(tbl, -1) == 0.0

    def test_zzz_conditioning_impossible(self):
        # no table exists: every entry is NaN, and the one-point API refuses it
        probs = table_probs(ZZZ, InitialState(1.0, 0.0), -1, 1.0, 1.0, 0.0)
        assert probs.shape == (4,)
        assert np.isnan(probs).all()
        assert np.isnan(table_correlation(probs))
        with pytest.raises(ConditioningImpossibleError):
            cpf_from_table(probs)

    @pytest.mark.parametrize(
        "scheme, p, g_t", [(ZZZ, 0.0, 0.5), (XZX, 0.8, 0.0), (YZY, 0.8, 0.0)]
    )
    def test_y_plus_conditioning_impossible(self, scheme, p, g_t):
        # P(y = +1) = 0 (never excited under z-z-z at p = 0, or G(t) = 0):
        # no table exists, as in the channel-map oracle
        state = InitialState.from_population(p)
        assert np.isnan(table_probs(scheme, state, +1, g_t, 0.6, 0.0)).all()
        with pytest.raises(ConditioningImpossibleError, match=r"P\(y=\+1\)"):
            cpf_closed_form(scheme, state, g_t, 0.0, y=+1)
        joint = simulate_sequence(state, scheme, angles_from_propagator(g_t, 0.6, 0.0))
        with pytest.raises(ConditioningImpossibleError):
            conditional_table(joint, scheme, +1)

    def test_xzx_y_plus_is_z_independent(self):
        state = InitialState.from_population(0.7)
        tbl = cells(table_probs(XZX, state, +1, 0.5, 0.5, 0.2))
        for x in (+1, -1):
            expected = abs(state.a + x * state.b) ** 2 / 4
            assert tbl[(+1, x)] == pytest.approx(expected, abs=1e-15)
            assert tbl[(-1, x)] == pytest.approx(expected, abs=1e-15)

    def test_xzx_frozen_interference_coefficient(self):
        tbl = cells(table_probs(
            XZX, InitialState(1.0, 0.0), -1, EXP_MINUS_HALF_PI, EXP_MINUS_HALF_PI,
            TWO_EXP_MINUS_PI,
        ))
        for z in (+1, -1):
            for x in (+1, -1):
                expected = 0.25 * (1 - z * x * XZX_KAPPA)
                assert tbl[(z, x)] == pytest.approx(expected, abs=1e-15)

    def test_xzx_markov_limit_factorizes(self):
        state = InitialState.from_population(0.6)
        probs = table_probs(XZX, state, -1, 0.5, 0.5, 0.0)
        assert cpf_from_table(probs).value == pytest.approx(0.0, abs=1e-15)

    def test_tables_normalized(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            state, g_t, g2 = random_table_inputs(rng)
            for y in (+1, -1):
                for scheme in (ZZZ, XZX, YZY):
                    tbl = cells(table_probs(scheme, state, y, g_t, g_t, g2))
                    total = sum(tbl.values())
                    assert total == pytest.approx(1.0, abs=1e-10)
                    assert p_z(tbl, +1) + p_z(tbl, -1) == pytest.approx(1.0, abs=1e-10)


class TestArrayCore:
    @staticmethod
    def batch(rng):
        """G(t) of shape (5, 1), G(tau) of shape (1, 4) and G2 of shape (5, 4)
        inside the probability bound; row 0 is t = 0 (G = 1, so G2 = 0)."""
        g_t = rng.uniform(0.0, 0.999, size=(5, 1))
        g_t[0, 0] = 1.0
        g_tau = rng.uniform(0.0, 0.999, size=(1, 4))
        g2 = rng.uniform(-1.0, 1.0, size=(5, 4)) * np.sqrt(1 - g_t * g_t) * 0.999
        return g_t, g_tau, g2

    def test_batch_matches_per_point_calls(self):
        # p = 1 at t = 0 leaves y = -1 impossible under z-z-z: those points
        # are NaN in the batch and in the one-point table, while the
        # one-point API raises
        g_t, g_tau, g2 = self.batch(np.random.default_rng(31))
        impossible = 0
        for p in (1.0, 0.7):
            state = InitialState.from_population(p)
            for scheme in MeasurementScheme:
                for y in (+1, -1):
                    closed = closed_values(scheme, state, g_t, g2, y=y)
                    assert closed.shape == (5, 4)
                    probs = table_probs(scheme, state, y, g_t, g_tau, g2)
                    assert probs.shape == (5, 4, 4)
                    table = table_correlation(probs)
                    for i, j in np.ndindex(5, 4):
                        point = (g_t[i, 0], g_tau[0, j], g2[i, j])
                        one = table_probs(scheme, state, y, *point)
                        assert one.shape == (4,)
                        assert np.array_equal(probs[i, j], one, equal_nan=True)
                        try:
                            value = cpf_closed_form(scheme, state, point[0], point[2], y=y).value
                        except ConditioningImpossibleError:
                            impossible += 1
                            assert np.isnan(closed[i, j])
                            assert np.isnan(one).all()
                            assert np.isnan(table[i, j])
                            with pytest.raises(ConditioningImpossibleError):
                                cpf_from_table(one)
                        else:
                            assert closed[i, j] == value
                            assert table[i, j] == cpf_from_table(one).value
        assert impossible == 4  # z-z-z, p = 1, y = -1: the t = 0 row

    def test_one_bad_point_raises(self):
        g_t, g_tau, g2 = self.batch(np.random.default_rng(32))
        state = InitialState.from_population(0.7)
        bad = g2.copy()
        bad[3, 2] = 1.5  # |G2|^2 > 1 - |G|^2 and |2 Re G2| > 2 - |G|^2
        for scheme in MeasurementScheme:
            table_probs(scheme, state, -1, g_t, g_tau, g2)
            with pytest.raises(InternalConsistencyError):
                table_probs(scheme, state, -1, g_t, g_tau, bad)


class TestClosedFormIdentity:
    def test_zzz_table_equals_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            state, g_t, g2 = random_table_inputs(rng)
            via_table = cpf_from_table(table_probs(ZZZ, state, -1, g_t, g_t, g2)).value
            closed = cpf_closed_form(ZZZ, state, g_t, g2).value
            assert abs(via_table - closed) < 1e-12

    def test_xzx_table_equals_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            state, g_t, g2 = random_table_inputs(rng)
            via_table = cpf_from_table(table_probs(XZX, state, -1, g_t, g_t, g2)).value
            closed = cpf_closed_form(XZX, state, g_t, g2).value
            assert abs(via_table - closed) < 1e-12

    def test_yzy_table_equals_closed_form_complex_states(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            v = rng.normal(size=4)
            a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
            norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            state = InitialState(a / norm, b / norm)
            g_t = rng.uniform(0.0, 0.999)
            g2 = rng.uniform(-1.0, 1.0) * np.sqrt(1 - g_t * g_t) * 0.999
            via_table = cpf_from_table(table_probs(YZY, state, -1, g_t, g_t, g2)).value
            closed = cpf_closed_form(YZY, state, g_t, g2).value
            assert abs(via_table - closed) < 1e-12

    def test_main_text_sum_form_identity(self):
        # sum_{zx} [P(z,x|y) - P(z|y)P(x|y)] O_z O_x == covariance form
        rng = np.random.default_rng(10)
        for _ in range(200):
            state, g_t, g2 = random_table_inputs(rng)
            probs = table_probs(XZX, state, -1, g_t, g_t, g2)
            tbl = cells(probs)
            explicit = sum(
                z * x * (tbl[(z, x)] - p_z(tbl, z) * p_x(tbl, x))
                for z in (+1, -1)
                for x in (+1, -1)
            )
            assert abs(explicit - cpf_from_table(probs).value) < 1e-14


class TestClosedFormValues:
    def test_zzz_frozen_value(self):
        state = InitialState.from_population(0.8)
        value = cpf_closed_form(ZZZ, state, EXP_MINUS_HALF_PI, TWO_EXP_MINUS_PI).value
        assert value == pytest.approx(CPF_ZZZ_P08, abs=1e-15)

    def test_xzx_frozen_value(self):
        state = InitialState.from_population(1.0)
        value = cpf_closed_form(XZX, state, EXP_MINUS_HALF_PI, TWO_EXP_MINUS_PI).value
        assert value == pytest.approx(CPF_XZX_P1, abs=1e-15)

    def test_zzz_vanishes_for_pure_preparations(self):
        assert cpf_closed_form(ZZZ, InitialState(1.0, 0.0), 0.5, 0.3).value == 0.0

    def test_zzz_conditioning_impossible_at_t0_pure(self):
        with pytest.raises(ConditioningImpossibleError):
            cpf_closed_form(ZZZ, InitialState(1.0, 0.0), 1.0, 0.0)

    def test_xzx_vanishing_prefactor(self):
        s = InitialState(1 / np.sqrt(2), 1 / np.sqrt(2))  # 2 Re(ab*) = 1
        assert cpf_closed_form(XZX, s, 0.5, 0.3).value == pytest.approx(0.0, abs=1e-15)

    def test_yzy_vanishing_prefactor_complex(self):
        s = InitialState(1 / np.sqrt(2), 1j / np.sqrt(2))  # 2 Im(ab*) = -1
        assert abs(2 * (s.a * np.conj(s.b)).imag) == pytest.approx(1.0)
        assert cpf_closed_form(YZY, s, 0.5, 0.3).value == pytest.approx(0.0, abs=1e-15)

    def test_yzy_equals_xzx_for_pure_excited(self):
        s = InitialState.from_population(1.0)
        value = cpf_closed_form(YZY, s, EXP_MINUS_HALF_PI, TWO_EXP_MINUS_PI).value
        assert value == pytest.approx(CPF_XZX_P1, abs=1e-15)

    def test_yzy_real_state_has_unit_prefactor(self):
        s = InitialState.from_population(0.7)  # real a, b: Im(ab*) = 0
        g_t, g2 = 0.4, 0.2
        expected = -g2 / (1 - g_t**2 / 2)
        assert cpf_closed_form(YZY, s, g_t, g2).value == pytest.approx(expected, abs=1e-15)

    def test_markov_limit_zero(self):
        s = InitialState.from_population(0.8)
        assert cpf_closed_form(ZZZ, s, 0.5, 0.0).value == 0.0
        assert cpf_closed_form(XZX, s, 0.5, 0.0).value == 0.0

    def test_y_plus_exactly_zero(self):
        rng = np.random.default_rng(13)
        for scheme in MeasurementScheme:
            for _ in range(20):
                state, g_t, g2 = random_table_inputs(rng)
                assert cpf_closed_form(scheme, state, g_t, g2, y=+1).value == 0.0


class TestStructure:
    def test_sign_structure(self):
        # zzz >= 0 always; xzx <= 0 wherever Re G2 >= 0
        rng = np.random.default_rng(12)
        for _ in range(500):
            state, g_t, g2 = random_table_inputs(rng)
            assert cpf_closed_form(ZZZ, state, g_t, g2).value >= 0.0
            if g2 >= 0:
                assert cpf_closed_form(XZX, state, g_t, g2).value <= 0.0

    def test_magnitude_ordering_pure_excited(self):
        # |zzz| <= |xzx| for p=1, backed by |G2|^2 <= |Re G2| on the grid
        gamma = tau_c = 1.0
        ts = np.linspace(0.05, 5.0, 100)
        state = InitialState.from_population(1.0)
        for t in ts:
            g_t = float(lorentzian_G(gamma, tau_c, t))
            g2 = float(lorentzian_G_two_time(gamma, tau_c, t, t))
            assert g2**2 <= abs(g2) + 1e-15
            assert abs(cpf_closed_form(ZZZ, state, g_t, g2).value) <= abs(
                cpf_closed_form(XZX, state, g_t, g2).value
            ) + 1e-15

    def test_weak_coupling_small(self):
        gamma, tau_c = 0.01, 1.0
        ts = np.linspace(0, 5 / gamma, 400)
        for p in (0.8, 1.0):
            state = InitialState.from_population(p)
            for t in ts[1:]:
                g_t = float(lorentzian_G(gamma, tau_c, t))
                g2 = float(lorentzian_G_two_time(gamma, tau_c, t, t))
                assert abs(cpf_closed_form(ZZZ, state, g_t, g2).value) <= 0.01
                assert abs(cpf_closed_form(XZX, state, g_t, g2).value) <= 0.01


class TestValidation:
    def test_initial_state_normalization(self):
        with pytest.raises(ValidationError):
            InitialState(1.0, 0.5)
        with pytest.raises(ValidationError):
            InitialState.from_population(1.5)
        with pytest.raises(ValidationError, match="must equal 1"):
            InitialState(float("nan"), 0.0)

    @staticmethod
    def joint(y_weights):
        """A joint {(x, y, z): P} whose y = -1 cells carry ``y_weights`` in
        _CELLS order and whose y = +1 cells are 0."""
        joint = {(x, +1, z): 0.0 for z, x in _CELLS}
        joint.update({(x, -1, z): w for (z, x), w in zip(_CELLS, y_weights)})
        return joint

    def test_table_validation(self):
        # the oracle's conditional_table checks y; cpf_from_table takes
        # exactly four entries forming a distribution
        good = self.joint([0.25, 0.25, 0.25, 0.25])
        assert conditional_table(good, ZZZ, -1).tolist() == [0.25] * 4
        with pytest.raises(ValidationError, match="y must be"):
            conditional_table(good, ZZZ, 0)
        malformed = conditional_table(self.joint([0.5, -0.25, 0.5, 0.25]), ZZZ, -1)
        with pytest.raises(ValidationError, match=r"out of range at \(1, -1\)"):
            cpf_from_table(malformed)
        with pytest.raises(ValidationError, match=r"out of range at \(1, -1\): nan"):
            cpf_from_table([0.5, np.nan, 0.25, 0.25])
        with pytest.raises(ValidationError, match="entries sum to 1.2"):
            cpf_from_table([0.6, 0.2, 0.2, 0.2])
        for bad in ([0.5, 0.5], np.full((2, 4), 0.25), [0.2] * 5):
            with pytest.raises(ValidationError, match="four entries"):
                cpf_from_table(bad)
        with pytest.raises(ValidationError, match=r"\|CPF\| = 4 > 1"):
            CpfResult(value=4.0)

    def test_conditioning_probability_refuses_y_zero(self):
        with pytest.raises(ValidationError, match="^y must be \\+1 or -1, got 0$"):
            conditioning_probability(ZZZ, InitialState(1.0, 0.0), 0, np.array([0.5]))

    def test_product_table_gives_zero(self):
        probs = [(0.3 if z == 1 else 0.7) * (0.6 if x == 1 else 0.4) for z, x in _CELLS]
        assert cpf_from_table(probs).value == pytest.approx(0.0, abs=1e-15)

    def test_perfect_correlation_table(self):
        assert cpf_from_table([0.5, 0.0, 0.0, 0.5]).value == pytest.approx(1.0)
