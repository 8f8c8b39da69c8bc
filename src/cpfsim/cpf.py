"""Conditional past-future (CPF) correlations: probability tables and
closed forms.

Three successive projective measurements with outcomes x, y, z in {+1, -1}
are separated by decay intervals t and tau. The CPF correlation conditioned
on the intermediate outcome y,

    C_pf(t, tau)|_y = <O_z O_x>_y - <O_z>_y <O_x>_y,

is a minimal operational memory witness: it vanishes identically for
memoryless dynamics, for any measurement scheme, and is assembled here from
the joint conditional table P(z, x | y).

Two independent routes are provided and cross-asserted in the test suite:

* the explicit eight-entry tables (``table_probs``), which are what the
  experiment estimates from coincidence counts, and
* the reduced closed forms (``closed_values``), all proportional to the
  two-time memory object G2(t, tau).

Both are NumPy expressions broadcast over arrays of propagator values, so a
whole (t, tau) grid is one call; a point whose conditioning outcome has zero
probability comes back as NaN, since its estimator would have zero counts.
Conditioning on y = +1 gives exactly zero for every scheme, wherever y = +1
can occur.

A table is one type throughout the package: a float array whose last axis
holds the four entries P(z, x | y) in ``_CELLS`` order. The noise model
degrades, samples and estimates arrays of them; the channel-map oracle
returns one. The one-point API, ``cpf_from_table`` and ``cpf_closed_form``,
raises :class:`ConditioningImpossibleError` where the conditioning outcome
cannot occur (a table of NaN) rather than returning a number, and
``cpf_from_table`` refuses a table that is not a distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConditioningImpossibleError,
    InternalConsistencyError,
    ValidationError,
)

_OUTCOMES = (+1, -1)
_CELLS = tuple((z, x) for z in _OUTCOMES for x in _OUTCOMES)
_DENOM_TOL = 1e-12
_ENTRY_TOL = 1e-9  # defensive slack for analytically-in-range entries
_CPF_TOL = 1e-12
_IMPOSSIBLE = {
    -1: "P(y=-1) ~ 0: system cannot be found decayed (e.g. t = 0 with b = 0)",
    +1: "P(y=+1) ~ 0: system cannot be found excited (G(t) = 0, or a = 0 under z-z-z)",
}


class MeasurementScheme(Enum):
    """Directions of the (past, present, future) projective measurements."""

    ZZZ = "zzz"
    XZX = "xzx"
    YZY = "yzy"


# Phase u of the past and future axis of a coherent scheme in the xy plane:
# its +1 outcome projects on (|up> + u* |down>) / sqrt(2).
_AXIS_PHASE = {MeasurementScheme.XZX: 1, MeasurementScheme.YZY: -1j}


@dataclass(frozen=True)
class InitialState:
    """Qubit amplitudes (a, b) on (|up>, |down>); normalized."""

    a: complex
    b: complex

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        norm = abs(a) ** 2 + abs(b) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValidationError(f"|a|^2 + |b|^2 = {norm!r} must equal 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_population(cls, p: float) -> "InitialState":
        """State sqrt(p)|up> + sqrt(1-p)|down> used throughout the sweeps."""
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"p must lie in [0, 1], got {p}")
        return cls(a=math.sqrt(p), b=math.sqrt(1.0 - p))


@dataclass(frozen=True)
class CpfResult:
    """A CPF correlation value of one point, checked to lie in [-1, 1]."""

    value: float

    def __post_init__(self):
        _bounded(self.value)


def _covariance(p: np.ndarray):
    """<O_z O_x> - <O_z><O_x> of tables of shape (..., 4), cells P(z, x) in
    _CELLS order."""
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    return (((p0 - p1) - p2) + p3) - ((p0 + p1) - (p2 + p3)) * ((p0 + p2) - (p1 + p3))


def _bounded(values: np.ndarray) -> np.ndarray:
    """``values``, after checking |CPF| <= 1 wherever they are numbers."""
    magnitude = np.abs(values)
    if np.any(magnitude > 1.0 + _CPF_TOL):
        raise ValidationError(
            f"|CPF| = {np.nanmax(magnitude):g} > 1 is impossible for +-1 outcomes"
        )
    return values


def cpf_from_table(probs) -> CpfResult:
    """CPF correlation <O_z O_x>_y - <O_z>_y <O_x>_y of one table of four
    entries P(z, x | y) in _CELLS order, refused unless it is a distribution."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (len(_CELLS),):
        raise ValidationError(f"a table has four entries in _CELLS order, got shape {probs.shape}")
    if np.isnan(probs).all():
        raise ConditioningImpossibleError("P(y) ~ 0: the table is NaN, no outcome y to condition on")
    entries = probs.tolist()
    for cell, p in zip(_CELLS, entries):
        if not (-1e-12 <= p <= 1.0 + 1e-12):
            raise ValidationError(f"P(z,x|y) out of range at {cell}: {p}")
    total = sum(entries)
    if abs(total - 1.0) > 1e-10:
        raise ValidationError(f"entries sum to {total!r}, must be 1")
    return CpfResult(value=float(_covariance(probs)))


def table_correlation(probs: np.ndarray) -> np.ndarray:
    """CPF correlation of tables of shape (..., 4) from ``table_probs``."""
    return _bounded(_covariance(probs))


def conditioning_probability(
    scheme: MeasurementScheme, state: InitialState, y: int, G_t
) -> np.ndarray:
    """P(y) of the intermediate outcome over an array of G(t); NaN where it
    vanishes, since no table can then be conditioned on y.

    z-z-z: P(y = +1) = |G(t)|^2 |a|^2 and P(y = -1) = (1 - |G(t)|^2)|a|^2 +
    |b|^2, the probability of finding the system decayed at t. x-z-x and
    y-z-y: the past measurement leaves the excited population at one half,
    so P(y = +1) = |G(t)|^2 / 2 and P(y = -1) = 1 - |G(t)|^2 / 2 >= 1/2.
    """
    if y not in _OUTCOMES:
        raise ValidationError(f"y must be +1 or -1, got {y}")
    g_t2 = np.abs(G_t) ** 2
    if scheme is MeasurementScheme.ZZZ:
        a2 = abs(state.a) ** 2
        p = g_t2 * a2 if y == +1 else (1.0 - g_t2) * a2 + abs(state.b) ** 2
    else:
        p = g_t2 / 2.0 if y == +1 else 1.0 - g_t2 / 2.0
    return np.where(p > _DENOM_TOL, p, np.nan)


def _entries(where: str, cells, shape, possible=True) -> np.ndarray:
    """Stack the four cell values along a last axis, check that every entry
    of a possible point lies in [0, 1] up to _ENTRY_TOL and clamp it there;
    the rows of impossible points are NaN."""
    p = np.stack([np.broadcast_to(c, shape) for c in cells], axis=-1)
    possible = np.broadcast_to(possible, shape)[..., None]
    bad = possible & ~((p >= -_ENTRY_TOL) & (p <= 1.0 + _ENTRY_TOL))
    if np.any(bad):
        raise InternalConsistencyError(f"{where}: entry {float(p[bad][0])!r} outside [0, 1]")
    return np.where(possible, np.clip(p, 0.0, 1.0), np.nan)


def table_probs(
    scheme: MeasurementScheme, state: InitialState, y: int, G_t, G_tau, G_two
) -> np.ndarray:
    """Joint conditional tables P(z, x | y) over broadcast propagator values,
    shape (..., 4) with the cells in _CELLS order; points where y has zero
    probability (:func:`conditioning_probability`) are NaN rows.

    z-z-z: for y = +1 the past is pinned to x = +1 and the future entries
    are |G(tau)|^2 and 1 - |G(tau)|^2; for y = -1 all entries share the
    normalization D = P(y = -1).
    x-z-x and y-z-y, one formula: the past axis has phase u in the xy plane
    (``_AXIS_PHASE``: 1 for x, -i for y), and the past outcome carries the
    weight w(x) = P(x) = |a + x u b|^2 / 2, independent of y. For y = +1 the
    table is the z-independent w(x)/2; for y = -1 it is w(x) [1 - zx kappa] / 2
    with the interference term kappa = 2 Re G2 / (2 - |G(t)|^2).
    """
    denom = conditioning_probability(scheme, state, y, G_t)  # checks y
    where = f"{scheme.value} y={y:+d}"
    shape = np.broadcast_shapes(np.shape(G_t), np.shape(G_tau), np.shape(G_two))
    possible = ~np.isnan(denom)
    if scheme is MeasurementScheme.ZZZ:
        if y == +1:
            g_tau2 = np.abs(G_tau) ** 2
            return _entries(where, (g_tau2, 0.0, 1.0 - g_tau2, 0.0), shape, possible)
        a2 = abs(state.a) ** 2
        b2 = abs(state.b) ** 2
        g_two2 = np.abs(G_two) ** 2
        cells = (
            g_two2 * a2 / denom,
            0.0,
            (1.0 - g_two2 - np.abs(G_t) ** 2) * a2 / denom,
            b2 / denom,
        )
        return _entries(where, cells, shape, possible)
    u = _AXIS_PHASE[scheme]
    weights = {x: abs(state.a + x * u * state.b) ** 2 / 2.0 for x in _OUTCOMES}
    if y == +1:
        return _entries(where, [weights[x] / 2.0 for _, x in _CELLS], shape, possible)
    kappa = 2.0 * np.real(G_two) / (2.0 - np.abs(G_t) ** 2)
    cells = [weights[x] * (1.0 - z * x * kappa) / 2.0 for z, x in _CELLS]
    return _entries(where, cells, shape, possible)


def closed_values(
    scheme: MeasurementScheme, state: InitialState, G_t, G_two, *, y: int = -1
) -> np.ndarray:
    """Closed-form correlation conditioned on y over broadcast propagator
    values; NaN where y has zero probability.

    y = -1. z-z-z: 4 |a|^2 |b|^2 |G2|^2 / D^2 with D = P(y = -1);
    non-negative, quadratic in G2. x-z-x and y-z-y: -(1 - (2c)^2) Re G2 /
    (1 - |G(t)|^2 / 2) with the coherence c = Re(a (u b)*) along the past
    axis of phase u (``_AXIS_PHASE``), linear in Re G2 with opposite sign;
    the denominator never falls below 1/2, and c enters only squared.
    y = +1 re-prepares the excited product state, so the past decouples
    from the future exactly: 0 for every scheme and every parameter value.
    """
    denom = conditioning_probability(scheme, state, y, G_t)
    if y == +1:
        return np.where(np.isnan(denom), np.nan, np.zeros(np.shape(G_two)))
    if scheme is MeasurementScheme.ZZZ:
        a2 = abs(state.a) ** 2
        b2 = abs(state.b) ** 2
        return _bounded((4.0 * a2 * b2 / denom**2) * np.abs(G_two) ** 2)
    coherence = (state.a * np.conj(_AXIS_PHASE[scheme] * state.b)).real
    prefactor = 1.0 - (2.0 * coherence) ** 2
    return _bounded(-(prefactor / denom) * np.real(G_two))


def cpf_closed_form(
    scheme: MeasurementScheme,
    state: InitialState,
    G_t: complex,
    G_two: complex,
    *,
    y: int = -1,
) -> CpfResult:
    """The closed form of the given scheme, conditioned on y, at one point."""
    value = float(closed_values(scheme, state, G_t, G_two, y=y))
    if math.isnan(value):
        raise ConditioningImpossibleError(_IMPOSSIBLE[y])
    return CpfResult(value=value)
