"""Wave-vector propagator G(t), the two-time memory object G(t, tau),
decay rates, and backflow probabilities.

G(t) solves the convoluted (Volterra) evolution

    dG/dt = -int_0^t f(t - t') G(t') dt',    G(0) = 1,

driven by the bath correlation f. For a Lorentzian kernel the solution has
the closed form (chi = sqrt(1 - 2 gamma tau_c))

    G(t) = e^{-t/2tau_c} [cosh(t chi / 2 tau_c) + sinh(t chi / 2 tau_c)/chi],

evaluated through trigonometric identities when chi is imaginary and through
the analytic chi -> 0 limit e^{-t/2tau_c}(1 + t/2tau_c) at gamma tau_c = 1/2.

The memory object governing conditional past-future correlations is not
G(t) itself but the double convolution

    G2(t, tau) = int_0^t dt' int_0^tau dtau'
                 f(tau' + t') G(t - t') G(tau - tau'),

with Lorentzian closed form
(2 gamma tau_c / chi^2) e^{-(t+tau)/2tau_c} sinh(t chi/2tau_c) sinh(tau chi/2tau_c).
It vanishes when f approaches a delta function, i.e. exactly in the
Born-Markov regime, even where G(t) decays monotonically. For any kernel it
equals G(t) G(tau) - G(t + tau) (see :func:`propagators`): how far G is from
a semigroup.

Numerical quadrature is trapezoidal product integration of G with a fixed
step (second order), by one kernel on an array of kernel samples; G2 follows
from the solved G by the identity above, on the same grid. Callers get G and
G2 from :func:`propagators`, which picks the closed forms or the quadrature
by kernel type, and is the only code that drives the quadrature kernel.
"""
from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from .bath import BathKernel, LorentzianKernel, decay_time, eval_kernel_grid
from .errors import (
    ConditioningImpossibleError,
    CoarseStepWarning,
    InternalConsistencyError,
    PropagatorZeroCrossingError,
    ValidationError,
)

_ABS_TOL = 1e-9  # allowed |G| overshoot above 1 (amplitude of a normalized component)
_CHI_SQ_TOL = 1e-10  # |chi|^2 below this uses the analytic chi -> 0 limit
_MAX_INDEX = np.iinfo(np.intp).max // 2  # largest grid index of a time


# volterra_trapezoid: trapezoidal product integration of
# dG/dt = -int_0^t f(t-s) G(s) ds, G(0) = 1, on the uniform grid t_i = i h
# (second order). The time derivative is stepped with the trapezoidal
# (Crank-Nicolson) rule and the convolution integral is evaluated with the
# trapezoidal rule at both endpoints; the implicit G_{i+1} term is solved for
# in closed form. The history sum of each step is accumulated as in Hairer,
# Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 532 (1985): the steps of
# each leaf of _VOLTERRA_LEAF are solved together as one triangular Toeplitz
# system, and each completed dyadic block of steps is handed to the equally
# long block after it by one FFT product. O(n log^2 n) time instead of the
# O(n^2) of the direct sum, same weights.

# Steps solved together per leaf of volterra_trapezoid; a power of two, so
# that every block handed on is one and its FFT length too.
_VOLTERRA_LEAF = 64


def volterra_trapezoid(f: np.ndarray, h: float) -> np.ndarray:
    """Solve the convoluted propagator equation on the grid t_i = i h.

    Parameters
    ----------
    f:
        Kernel samples f(i h), i = 0..n, complex.
    h:
        Grid step, > 0.

    Returns
    -------
    Complex array G(i h), i = 0..n, with G[0] = 1 exactly.
    """
    fft = np.fft  # numpy loads its fft module on first use, not at import
    f = np.ascontiguousarray(f, dtype=complex)
    n = f.shape[0] - 1
    G = np.ones(n + 1, dtype=complex)
    if n == 0:
        return G
    # Step p needs the history sum P[p] = sum_{k=0..p-1} c_k f[p-k] G[k],
    # c_0 = 1/2 and c_k = 1 otherwise; gw is G with that half-weight at
    # k = 0. P holds the part of each sum from the blocks solved so far,
    # starting with k = 0.
    size = _VOLTERRA_LEAF
    while size < n:
        size *= 2
    gw = np.zeros(size + 1, dtype=complex)
    gw[0] = 0.5
    P = np.zeros(size + 1, dtype=complex)
    P[1 : n + 1] = 0.5 * f[1:]
    f0 = complex(f[0])
    hh = 0.5 * h * h
    # The steps
    #   G[p] (1 + h^2 f[0]/4) = G[p-1] - (h/2) I[p-1] - (h^2/2) P[p],
    #   I[p] = h (P[p] + f[0] G[p] / 2),  I[0] = 0,
    # of one leaf p = lo..lo+w-1 are linear in its G values x: with
    # P[lo+q] = a[q] + sum_{r<q} f[q-r] x[r], they read M x = b for a lower
    # triangular Toeplitz M, the same for every leaf, with first column mc.
    # x is then b convolved with u, the power-series inverse of mc. Every
    # leaf reuses u, so its rounding errors would add up from leaf to leaf:
    # it is computed in extended precision and rounded once.
    w = min(_VOLTERRA_LEAF, n)
    ext = np.clongdouble
    h_ext = np.longdouble(h)
    f_ext = f[:w].astype(ext)
    mc = np.empty(w, dtype=ext)
    mc[0] = 1 + h_ext * h_ext * f_ext[0] / 4
    mc[1:] = h_ext * h_ext / 2 * (f_ext[1:] + f_ext[:-1])
    if w > 1:  # x[q-1] enters once more through G[p-1] and I[p-1]
        mc[1] = h_ext * h_ext / 2 * f_ext[1] - (1 - h_ext * h_ext * f_ext[0] / 4)
    u = np.empty(w, dtype=ext)
    u[0] = 1 / mc[0]
    for k in range(1, w):
        u[k] = -np.sum(mc[k:0:-1] * u[:k]) / mc[0]
    u = u.astype(complex)
    f_hat = {}  # FFT of f[:2 half] per handed-on block length
    G_prev = 1.0 + 0.0j
    I_prev = 0.0 + 0.0j
    for leaf, lo in enumerate(range(1, n + 1, _VOLTERRA_LEAF), start=1):
        hi = min(lo + _VOLTERRA_LEAF, n + 1)
        a = P[lo:hi]
        b = a.copy()
        b[1:] += a[:-1]
        b *= -hh
        b[0] += G_prev - 0.5 * h * I_prev
        x = np.convolve(u[: hi - lo], b)[: hi - lo]
        gw[lo:hi] = x
        G_prev = complex(x[-1])
        P_last = complex(a[-1] + np.dot(f[hi - lo - 1 : 0 : -1], x[:-1]))
        I_prev = h * (P_last + 0.5 * f0 * G_prev)
        if hi > n:
            break
        # The leaves just solved close a dyadic block of `half` steps that is
        # the left half of a block twice as long: add its terms to the sums
        # of the right half, one circular convolution of length 2 half.
        half = _VOLTERRA_LEAF * (leaf & -leaf)
        if half not in f_hat:
            f_hat[half] = fft.fft(f[: 2 * half], 2 * half)
        conv = fft.ifft(fft.fft(gw[hi - half : hi], 2 * half) * f_hat[half])
        P[hi : hi + half] += conv[half:]
    G[1:] = gw[1 : n + 1]
    return G


def lorentzian_G(gamma: float, tau_c: float, t) -> np.ndarray | float:
    """Closed-form propagator for the Lorentzian kernel; real-valued.

    Accepts scalar or array t >= 0 and handles all three chi regimes,
    including the chi = 0 boundary at gamma tau_c = 1/2.
    """
    if not (gamma > 0 and tau_c > 0):
        raise ValidationError("gamma and tau_c must be > 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be >= 0")
    x = t / (2.0 * tau_c)
    chi_sq = 1.0 - 2.0 * gamma * tau_c
    if abs(chi_sq) < _CHI_SQ_TOL:
        out = np.exp(-x) * (1.0 + x)
    elif chi_sq > 0:
        chi = np.sqrt(chi_sq)
        # e^{-x} [cosh(x chi) + sinh(x chi)/chi] expanded into decaying
        # exponentials: safe from cosh overflow at large t
        out = 0.5 * (
            (1.0 + 1.0 / chi) * np.exp(-x * (1.0 - chi))
            + (1.0 - 1.0 / chi) * np.exp(-x * (1.0 + chi))
        )
    else:
        w = np.sqrt(-chi_sq)
        out = np.exp(-x) * (np.cos(x * w) + np.sin(x * w) / w)
    return out if out.ndim else float(out)


def lorentzian_G_two_time(gamma: float, tau_c: float, t, tau) -> np.ndarray | float:
    """Closed-form two-time memory object for the Lorentzian kernel."""
    if not (gamma > 0 and tau_c > 0):
        raise ValidationError("gamma and tau_c must be > 0")
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(t < 0) or np.any(tau < 0):
        raise ValidationError("t and tau must be >= 0")
    xt = t / (2.0 * tau_c)
    xu = tau / (2.0 * tau_c)
    chi_sq = 1.0 - 2.0 * gamma * tau_c
    if abs(chi_sq) < _CHI_SQ_TOL:
        out = 2.0 * gamma * tau_c * xt * xu * np.exp(-(xt + xu))
    elif chi_sq > 0:
        chi = np.sqrt(chi_sq)
        st = 0.5 * (np.exp(-xt * (1.0 - chi)) - np.exp(-xt * (1.0 + chi)))
        su = 0.5 * (np.exp(-xu * (1.0 - chi)) - np.exp(-xu * (1.0 + chi)))
        out = (2.0 * gamma * tau_c / chi_sq) * st * su
    else:
        w = np.sqrt(-chi_sq)
        # sinh(i w x) = i sin(w x); the two factors of i cancel chi^2 = -w^2
        out = (
            (2.0 * gamma * tau_c / (w * w))
            * np.exp(-(xt + xu))
            * np.sin(xt * w)
            * np.sin(xu * w)
        )
    return out if out.ndim else float(out)


def _check_step(t_step) -> None:
    if not 0 < t_step < np.inf:  # False for NaN too
        raise ValidationError(f"t_step must be a finite number > 0, got {t_step}")


def propagators(
    kernel: BathKernel, t, tau, t_step: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G(t), G(tau) and G2(t, tau) over broadcast time arrays.

    The one place that chooses how they are computed: a Lorentzian kernel
    uses the closed forms (real values), any other kernel the quadrature on
    the grid of step ``t_step`` (complex values, error O(t_step^2)), on
    which every time must lie. There the kernel is sampled once, up to the
    largest t + tau, G is solved once over that whole range and

        G2(t, tau) = G(t) G(tau) - G(t + tau).

    This holds for any kernel. Write G^(s) for the Laplace transform of G;
    the Volterra equation gives G^(s) = 1/(s + f^(s)). The double transform
    (t -> s, tau -> p) of f(t + tau) is (f^(s) - f^(p))/(p - s), that of
    G(t + tau) is (G^(s) - G^(p))/(p - s), so the double transform of G2 is
    G^(s) G^(p) (f^(s) - f^(p))/(p - s). Substituting f^ = 1/G^ - s turns
    it into G^(s) G^(p) - (G^(s) - G^(p))/(p - s), the transform of the
    right-hand side. Empty or all-zero times need no solve, since G(0) = 1
    and G2(0, 0) = 0.

    A step coarser than a quarter of the kernel's 1/e decay time (see
    :func:`cpfsim.bath.decay_time`) cannot resolve the kernel: the caller
    gets a :class:`CoarseStepWarning`. A non-finite time, a ``t_step`` that
    is not a finite number > 0 or a solved |G| above 1 raise
    :class:`ValidationError`. A t + tau beyond a tabulated kernel's last
    sample raises :class:`cpfsim.errors.KernelRangeError` before the kernel
    is sampled.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    for name, times in (("t", t), ("tau", tau)):
        if not np.all(np.isfinite(times)):
            raise ValidationError(f"{name} must be finite")
    if t_step is not None:
        _check_step(t_step)
    t, tau = np.broadcast_arrays(t, tau)
    if isinstance(kernel, LorentzianKernel):
        gamma, tau_c = kernel.gamma, kernel.tau_c
        return (
            lorentzian_G(gamma, tau_c, t),
            lorentzian_G(gamma, tau_c, tau),
            lorentzian_G_two_time(gamma, tau_c, t, tau),
        )
    if t_step is None:
        raise ValidationError("tabulated kernels need an explicit t_step")
    times = np.stack([t, tau])
    if not np.any(times):
        return np.ones(t.shape, complex), np.ones(t.shape, complex), np.zeros(t.shape, complex)
    t_max = float(np.max(times))
    off_grid = ValidationError("times must be >= 0 and lie on the integration grid")
    # times / t_step must fit an index, and i + j too, before the cast
    if np.max(np.abs(times)) > _MAX_INDEX * float(t_step):
        raise off_grid
    idx = np.asarray(np.rint(times / t_step), dtype=int)
    if np.min(idx) < 0 or np.max(np.abs(idx * t_step - times)) > 1e-9 * max(1.0, t_max):
        raise off_grid
    decay = decay_time(kernel)
    if decay is not None and t_step > decay / 4:
        warnings.warn(
            f"t_step = {t_step:g} > {decay / 4:g}, a quarter of the time in which "
            "|f| falls by 1/e: step too coarse to resolve the kernel",
            CoarseStepWarning,
            stacklevel=2,
        )
    i, j = idx
    n = int(np.max(i + j))
    # the kernel's range check on the last sample time, before the n + 1
    # sample times are allocated
    eval_kernel_grid(kernel, n * t_step)
    g = volterra_trapezoid(eval_kernel_grid(kernel, np.arange(n + 1) * t_step), t_step)
    if np.max(np.abs(g)) > 1.0 + _ABS_TOL:
        raise ValidationError("|G| exceeds 1 beyond tolerance; not a propagator")
    return g[i], g[j], g[i] * g[j] - g[i + j]


def rates_from_G(values, t_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Decay rate gamma(t) and frequency shift omega(t), defined by
    gamma(t) + i omega(t) = -(d/dt) ln G(t), of G sampled at t_k = k t_step.

    Finite differences of -ln G: central in the interior, second-order
    one-sided stencils at the endpoints. Raises
    :class:`PropagatorZeroCrossingError` at the first grid index where G
    vanishes or (for real-valued samples) changes sign: the rates diverge
    there and everything after it is meaningless.
    """
    _check_step(t_step)
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1 or v.size < 3:
        raise ValidationError("need a 1-D array of at least 3 grid points for rate stencils")
    tiny = np.abs(v) <= 1e-12
    if np.any(tiny):
        idx = int(np.argmax(tiny))
        raise PropagatorZeroCrossingError(index=idx, t=idx * t_step)
    if np.max(np.abs(v.imag)) <= 1e-12:
        sign_change = v.real[:-1] * v.real[1:] < 0
        if np.any(sign_change):
            idx = int(np.argmax(sign_change)) + 1
            raise PropagatorZeroCrossingError(index=idx, t=idx * t_step)
    log_g = np.log(v)
    # the principal log jumps by 2 pi across the branch cut; unwrap only the
    # phase so a rotating complex G gives a finite frequency shift
    log_g = log_g.real + 1j * np.unwrap(log_g.imag)
    d = np.empty_like(log_g)
    d[1:-1] = (log_g[2:] - log_g[:-2]) / (2.0 * t_step)
    d[0] = (-3.0 * log_g[0] + 4.0 * log_g[1] - log_g[2]) / (2.0 * t_step)
    d[-1] = (3.0 * log_g[-1] - 4.0 * log_g[-2] + log_g[-3]) / (2.0 * t_step)
    return -d.real, -d.imag


def backflow_probabilities(G_t: complex, G_two: complex) -> tuple[float, float]:
    """Survival and conditional re-excitation probabilities.

    Returns (P(up, t | up, 0), P(up, t+tau | down, t; up, 0)) =
    (|G(t)|^2, |G2(t, tau)|^2 / (1 - |G(t)|^2)). The second one is the
    operational backflow witness: it vanishes exactly in the Markovian
    limit, whatever G(t) does.
    """
    p_survive = abs(complex(G_t)) ** 2
    if p_survive >= 1.0:
        raise ConditioningImpossibleError(
            "|G(t)| >= 1: the system cannot have been found decayed at t"
        )
    p_reexcite = abs(complex(G_two)) ** 2 / (1.0 - p_survive)
    if p_reexcite > 1.0 + _ABS_TOL:
        raise InternalConsistencyError(
            f"re-excitation probability {p_reexcite:g} > 1 violates the "
            "amplitude normalization bound"
        )
    return p_survive, min(p_reexcite, 1.0)
