"""Angle-parameterized channel maps on an explicit system-environment
statevector: the brute-force oracle for every probability in the package.

Although the physical environment has infinitely many modes, the reduced
statistics of the measurement sequence X -> U(t) -> Y -> U(tau) -> Z are
reproduced exactly by treating the environment as a two-level system
(no excitation / one excitation), which is also how the photonic setup
encodes it in the path degree of freedom. The joint state lives in the
4-dimensional basis

    index 0: |down> x |0>     index 1: |up> x |0>
    index 2: |down> x |1>     index 3: |up> x |1>   (never populated)

U(t) is an amplitude damping channel with cos(2 theta) = G(t). U(tau) is
the extended damping channel: it additionally lets the environment
excitation re-excite the system with amplitude sin(2 theta_tilde_prime) =
-G2(t, tau) / sqrt(1 - |G(t)|^2) (the sign follows the amplitude solution
of the second decay interval; all observables below are insensitive to the
overall branch sign in the z-z-z scheme and pick up the printed sign of the
x-z-x closed form with this convention).

The two second-interval angles parameterize one rotation only per sector:
the intermediate z measurement leaves the state supported either on
|up>|0> (y = +1) or on span{|down>|0>, |down>|1>} (y = -1), and on each of
those supports the map is an exact isometry for any angle pair. Applying
the raw two-angle block to a state that mixes both sectors would not be
unitary; that is refused rather than renormalized away. The conditioned
tables P(z, x | y) are arrays of four entries in ``cpfsim.cpf._CELLS`` order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .cpf import _CELLS, _OUTCOMES, InitialState, MeasurementScheme
from .errors import (
    ConditioningImpossibleError,
    InternalConsistencyError,
    NonUnitaryMapError,
    UnsupportedRegimeError,
    ValidationError,
    ZeroProbabilityBranchError,
)

_IMAG_TOL = 1e-9
_BRANCH_TOL = 1e-14  # below this, an outcome branch is treated as absent
_SECTOR_TOL = 1e-12

# scheme -> (past axis, future axis); the present measurement is always z
_SCHEME_AXES = {
    MeasurementScheme.ZZZ: ("z", "z"),
    MeasurementScheme.XZX: ("x", "x"),
    MeasurementScheme.YZY: ("y", "y"),
}


@dataclass(frozen=True)
class ChannelAngles:
    """Rotation angles of the two decay-interval maps (radians)."""

    theta: float
    theta_tilde: float
    theta_tilde_prime: float


@dataclass(frozen=True)
class JointState:
    """Normalized system x environment amplitudes in the 4-state basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValidationError("joint state needs exactly 4 amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"state norm {norm!r} must be 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def prepare_joint(state: InitialState) -> JointState:
    """(a|up> + b|down>) x |0>: environment in its ground state."""
    return JointState(amplitudes=np.array([state.b, state.a, 0.0, 0.0], dtype=complex))


def _clip_unit(v: float, what: str) -> float:
    if abs(v) > 1.0 + _IMAG_TOL:
        raise InternalConsistencyError(f"{what} = {v!r} outside [-1, 1]")
    return min(max(v, -1.0), 1.0)


def _real_or_raise(value: complex, name: str) -> float:
    value = complex(value)
    if abs(value.imag) > _IMAG_TOL:
        raise UnsupportedRegimeError(
            f"{name} has imaginary part {value.imag:g}; the channel-map "
            "construction assumes a real bath correlation"
        )
    return value.real


def angles_from_propagator(G_t: complex, G_tau: complex, G_two: complex) -> ChannelAngles:
    """Map real propagator values onto the channel angles.

    cos(2 theta) = G(t), cos(2 theta_tilde) = G(tau),
    sin(2 theta_tilde_prime) = -G2 / sqrt(1 - G(t)^2), with
    theta_tilde_prime = 0 at the t = 0 edge where |G(t)| = 1.
    """
    g_t = _real_or_raise(G_t, "G(t)")
    g_tau = _real_or_raise(G_tau, "G(tau)")
    g_two = _real_or_raise(G_two, "G2(t, tau)")
    g_t = _clip_unit(g_t, "G(t)")
    g_tau = _clip_unit(g_tau, "G(tau)")
    theta = 0.5 * math.acos(g_t)
    theta_tilde = 0.5 * math.acos(g_tau)
    residual = 1.0 - g_t * g_t
    if residual <= 1e-24:
        if abs(g_two) > _IMAG_TOL:
            raise InternalConsistencyError(
                f"G2 = {g_two:g} nonzero while |G(t)| = 1 violates the probability bound"
            )
        theta_tilde_prime = 0.0
    else:
        s = -g_two / math.sqrt(residual)
        if abs(s) > 1.0 + _IMAG_TOL:
            raise InternalConsistencyError(
                f"|G2| = {abs(g_two):g} exceeds sqrt(1 - G(t)^2) = {math.sqrt(residual):g}: "
                "probability bound violated"
            )
        theta_tilde_prime = 0.5 * math.asin(min(max(s, -1.0), 1.0))
    return ChannelAngles(
        theta=theta, theta_tilde=theta_tilde, theta_tilde_prime=theta_tilde_prime
    )


def _require_single_excitation(s: JointState) -> None:
    if abs(s.amplitudes[3]) > _SECTOR_TOL:
        raise ValidationError(
            "|up>|1> is populated; the decay maps act on the single-excitation sector"
        )


def apply_U_t(s: JointState, theta: float) -> JointState:
    """First-interval amplitude damping channel, extended to a rotation.

    |down>|0> is fixed; (|up>|0>, |down>|1>) rotate by 2 theta.
    """
    _require_single_excitation(s)
    c = math.cos(2.0 * theta)
    sn = math.sin(2.0 * theta)
    a = s.amplitudes
    out = np.array([a[0], c * a[1] - sn * a[2], sn * a[1] + c * a[2], a[3]])
    return JointState(amplitudes=out)


def apply_U_tau(s: JointState, theta_tilde: float, theta_tilde_prime: float) -> JointState:
    """Second-interval extended damping channel.

    |up>|0> decays with angle theta_tilde; |down>|1> re-excites with angle
    theta_tilde_prime. With both sectors populated the pair must form a
    single rotation (sin(2 theta_tilde + 2 theta_tilde_prime) = 0);
    otherwise the map is not an isometry and is refused.
    """
    _require_single_excitation(s)
    a = s.amplitudes
    both_populated = abs(a[1]) > _SECTOR_TOL and abs(a[2]) > _SECTOR_TOL
    non_unitarity = abs(math.sin(2.0 * theta_tilde + 2.0 * theta_tilde_prime))
    if both_populated and non_unitarity > 1e-9:
        raise NonUnitaryMapError(
            "independent angles theta_tilde != -theta_tilde_prime do not define "
            "a unitary on a state populating both |up>|0> and |down>|1>"
        )
    c_t = math.cos(2.0 * theta_tilde)
    s_t = math.sin(2.0 * theta_tilde)
    c_p = math.cos(2.0 * theta_tilde_prime)
    s_p = math.sin(2.0 * theta_tilde_prime)
    out = np.array([a[0], c_t * a[1] + s_p * a[2], s_t * a[1] + c_p * a[2], a[3]])
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > 1e-12:
        raise InternalConsistencyError(f"map failed to preserve norm: {norm!r}")
    return JointState(amplitudes=out)


def _projector_ket(direction: str, outcome: int) -> np.ndarray:
    """System ket (up component, down component) of the rank-1 projector."""
    if outcome not in _OUTCOMES:
        raise ValidationError(f"outcome must be +1 or -1, got {outcome}")
    if direction == "z":
        return np.array([1.0, 0.0], dtype=complex) if outcome == +1 else np.array([0.0, 1.0], dtype=complex)
    if direction == "x":
        return np.array([1.0, outcome], dtype=complex) / math.sqrt(2.0)
    if direction == "y":
        return np.array([1.0, 1j * outcome], dtype=complex) / math.sqrt(2.0)
    raise ValidationError(f"direction must be one of x, y, z; got {direction!r}")


def project(
    s: JointState, direction: str, outcome: int, collapse: bool = True
) -> Tuple[float, Optional[JointState]]:
    """Projective measurement of the system; the environment is untouched.

    Returns (probability, collapsed state). With ``collapse`` the
    post-measurement state is the projector ket re-prepared in each
    environment branch; a ~zero-probability branch cannot be collapsed.
    """
    ket = _projector_ket(direction, outcome)
    a = s.amplitudes
    # overlap of the projector ket with the system component, per environment state
    amp_env0 = np.conj(ket[0]) * a[1] + np.conj(ket[1]) * a[0]
    amp_env1 = np.conj(ket[0]) * a[3] + np.conj(ket[1]) * a[2]
    prob = abs(amp_env0) ** 2 + abs(amp_env1) ** 2
    if not collapse:
        return float(prob), None
    if prob < _BRANCH_TOL:
        raise ZeroProbabilityBranchError(
            f"branch ({direction}, {outcome:+d}) has probability {prob:.3e}"
        )
    root = math.sqrt(prob)
    out = np.array(
        [
            amp_env0 * ket[1] / root,
            amp_env0 * ket[0] / root,
            amp_env1 * ket[1] / root,
            amp_env1 * ket[0] / root,
        ]
    )
    return float(prob), JointState(amplitudes=out)


def simulate_sequence(
    state: InitialState, scheme: MeasurementScheme, angles: ChannelAngles
) -> Dict[Tuple[int, int, int], float]:
    """Enumerate all eight outcome paths of X -> U(t) -> Y -> U(tau) -> Z.

    Returns the joint distribution {(x, y, z): P(z, y, x)}. Zero-probability
    branches contribute 0. The intermediate measurement is always in the z
    basis; the past projection re-prepares the projected state exactly as
    the experiment does.
    """
    past_axis, future_axis = _SCHEME_AXES[scheme]
    joint: Dict[Tuple[int, int, int], float] = {}
    start = prepare_joint(state)
    for x in _OUTCOMES:
        p_x, s_x = project(start, past_axis, x, collapse=False)
        if p_x < _BRANCH_TOL:
            for y in _OUTCOMES:
                for z in _OUTCOMES:
                    joint[(x, y, z)] = 0.0
            continue
        _, s_x = project(start, past_axis, x)
        s_t = apply_U_t(s_x, angles.theta)
        for y in _OUTCOMES:
            p_y, _ = project(s_t, "z", y, collapse=False)
            if p_y < _BRANCH_TOL:
                for z in _OUTCOMES:
                    joint[(x, y, z)] = 0.0
                continue
            _, s_y = project(s_t, "z", y)
            s_tau = apply_U_tau(s_y, angles.theta_tilde, angles.theta_tilde_prime)
            for z in _OUTCOMES:
                p_z, _ = project(s_tau, future_axis, z, collapse=False)
                joint[(x, y, z)] = p_x * p_y * p_z
    return joint


def conditional_table(
    joint: Dict[Tuple[int, int, int], float], scheme: MeasurementScheme, y: int
) -> np.ndarray:
    """Condition an enumerated joint distribution on the present outcome y:
    P(z, x | y) as an array of four entries in _CELLS order, which
    ``cpf_from_table`` checks to be a distribution. ``scheme`` is not needed
    to condition it."""
    if y not in _OUTCOMES:
        raise ValidationError(f"y must be +1 or -1, got {y}")
    p_y = sum(joint[(x, y, z)] for x in _OUTCOMES for z in _OUTCOMES)
    if p_y <= 1e-12:
        raise ConditioningImpossibleError(f"P(y={y:+d}) = {p_y:.3e} ~ 0")
    return np.array([joint[(x, y, z)] / p_y for z, x in _CELLS])
