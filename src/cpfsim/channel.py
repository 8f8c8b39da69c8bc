"""Statevector enumeration of the measurement sequence on complex
amplitudes: the brute-force oracle for every probability in the package.

Although the physical environment has infinitely many modes, the reduced
statistics of the measurement sequence X -> U(t) -> Y -> U(tau) -> Z are
reproduced exactly by treating the environment as a two-level system (no
excitation / one excitation), as in the single-excitation sector of the
damped Jaynes-Cummings model and as the photonic setup encodes it in the
path degree of freedom. Each outcome branch is one unnormalised 2 x 2 array

    psi[env, sys],   env in (0, 1) excitations,   sys in (up, down),

so the squared norm of a branch after its last projection is its joint
probability: nothing is collapsed, renormalised or skipped on the way.

U(t) keeps |down,0> and sends |up,0> to G(t)|up,0> + sqrt(1 - |G(t)|^2)
|down,1>. The z outcome y selects the sector that U(tau) acts on:

* y = +1 leaves only |up,0>, which decays once more with G(tau);
* y = -1 leaves |down,0> and |down,1>. |down,0> is fixed, and the
  environment excitation returns to |up,0> with amplitude -G2(t, tau) per
  unit |up,0> amplitude before U(t), since the system amplitude obeys
  G(t + tau) = G(t) G(tau) - G2(t, tau). The rest stays in the environment.

Both sectors are therefore written in the |up,0> amplitude before U(t),
with no division by sqrt(1 - |G(t)|^2). The conditioned tables P(z, x | y)
are arrays of four entries in ``cpfsim.cpf._CELLS`` order.
"""
from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .cpf import _CELLS, _OUTCOMES, InitialState, MeasurementScheme
from .errors import ConditioningImpossibleError, InternalConsistencyError, ValidationError

_BOUND_TOL = 1e-9

# scheme -> (past axis, future axis); the present measurement is always z
_SCHEME_AXES = {
    MeasurementScheme.ZZZ: ("z", "z"),
    MeasurementScheme.XZX: ("x", "x"),
    MeasurementScheme.YZY: ("y", "y"),
}

# axis -> outcome -> system ket (up component, down component)
_R = 1.0 / math.sqrt(2.0)
_KETS = {
    "z": {+1: np.array([1.0, 0.0]), -1: np.array([0.0, 1.0])},
    "x": {o: np.array([_R, o * _R]) for o in _OUTCOMES},
    "y": {o: np.array([_R, 1j * o * _R]) for o in _OUTCOMES},
}


def angles_from_propagator(
    G_t: complex, G_tau: complex, G_two: complex
) -> Tuple[complex, complex, complex]:
    """(G(t), G(tau), G2(t, tau)) as Python complex numbers, the amplitudes
    that ``simulate_sequence`` takes, after checking |G(t)|, |G(tau)| <= 1
    and |G2|^2 <= 1 - |G(t)|^2 to 1e-9 (NaN fails too). The function
    returns no angles; its name is kept for its callers, the benchmark's
    oracle check and the README example."""
    G_t, G_tau, G_two = complex(G_t), complex(G_tau), complex(G_two)
    for name, value in (("G(t)", G_t), ("G(tau)", G_tau)):
        if not abs(value) <= 1.0 + _BOUND_TOL:
            raise InternalConsistencyError(f"|{name}| = {abs(value)!r} must not exceed 1")
    residual = 1.0 - abs(G_t) ** 2
    if not abs(G_two) ** 2 <= residual + _BOUND_TOL:
        raise InternalConsistencyError(
            f"|G2|^2 = {abs(G_two) ** 2!r} exceeds 1 - |G(t)|^2 = {residual!r}: "
            "probability bound violated"
        )
    return G_t, G_tau, G_two


def simulate_sequence(
    state: InitialState,
    scheme: MeasurementScheme,
    amplitudes: Tuple[complex, complex, complex],
) -> Dict[Tuple[int, int, int], float]:
    """Enumerate all eight outcome paths of X -> U(t) -> Y -> U(tau) -> Z.

    ``amplitudes`` is (G(t), G(tau), G2(t, tau)) from
    ``angles_from_propagator``. Returns the joint distribution
    {(x, y, z): P(z, y, x)}. The intermediate measurement is always in the
    z basis; the past projection re-prepares the projected state exactly as
    the experiment does.
    """
    G_t, G_tau, G_two = amplitudes
    past_axis, future_axis = _SCHEME_AXES[scheme]
    decay_tau = math.sqrt(max(0.0, 1.0 - abs(G_tau) ** 2))
    kept = math.sqrt(max(0.0, 1.0 - abs(G_t) ** 2 - abs(G_two) ** 2))
    joint: Dict[Tuple[int, int, int], float] = {}
    for x in _OUTCOMES:
        # the environment starts in |0>, so only row 0 is ever projected
        ket = _KETS[past_axis][x]
        up, down = np.vdot(ket, (state.a, state.b)) * ket
        # psi[env, sys] after U(tau), per outcome y of the present z measurement
        sectors = {
            +1: np.array([[G_tau * G_t * up, 0.0], [0.0, decay_tau * G_t * up]]),
            -1: np.array([[-G_two * up, down], [0.0, kept * up]]),
        }
        for y, psi in sectors.items():
            for z in _OUTCOMES:
                branch = psi @ _KETS[future_axis][z].conj()
                joint[(x, y, z)] = float(np.vdot(branch, branch).real)
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
