"""Wave-vector propagator G(t), the two-time memory object G(t, tau),
density-matrix evolution, decay rates, and backflow probabilities.

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
Born-Markov regime, even where G(t) decays monotonically.

Numerical quadrature is trapezoidal product integration with a fixed step
(second order), by two kernels on arrays of kernel samples; the step is kept
common between G, G2 and the probability tables so the correlation layer
operates on aligned grids. Callers get all three from :func:`propagators`,
which picks the closed forms or the quadrature by kernel type, and is the
only code that drives the quadrature kernels.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bath import BathKernel, LorentzianKernel, decay_time, eval_kernel_grid
from .cpf import InitialState
from .errors import (
    ConditioningImpossibleError,
    CoarseStepWarning,
    InternalConsistencyError,
    PropagatorZeroCrossingError,
    ValidationError,
)

_ABS_TOL = 1e-9  # allowed |G| overshoot above 1 (amplitude of a normalized component)
_CHI_SQ_TOL = 1e-10  # |chi|^2 below this uses the analytic chi -> 0 limit


@dataclass(frozen=True)
class DensityMatrix:
    """Qubit state in the (up, down) basis; validated trace-1 Hermitian PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError("density matrix must be 2x2")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValidationError(f"trace must be 1, got {np.trace(m)}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValidationError("density matrix must be Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -1e-12 or eigs[-1] > 1.0 + 1e-12:
            raise ValidationError(f"eigenvalues must lie in [0, 1], got {eigs}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def up_up(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def up_down(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def down_up(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def down_down(self) -> complex:
        return complex(self.matrix[1, 1])


# Quadrature kernels on the uniform grid t_i = i h (both second order):
#
# * volterra_trapezoid: trapezoidal product integration of
#   dG/dt = -int_0^t f(t-s) G(s) ds, G(0) = 1. The time derivative is
#   stepped with the trapezoidal (Crank-Nicolson) rule and the convolution
#   integral is evaluated with the trapezoidal rule at both endpoints; the
#   implicit G_{i+1} term is solved for in closed form. The history sum of
#   each step is accumulated as in Hairer, Lubich & Schlichte, SIAM J. Sci.
#   Stat. Comput. 6, 532 (1985): the steps of each leaf of _VOLTERRA_LEAF
#   are solved together as one triangular Toeplitz system, and each
#   completed dyadic block of steps is handed to the equally long block
#   after it by one FFT product. O(n log^2 n) time instead of the O(n^2) of
#   the direct sum, same weights.
# * two_time_trapezoid: tensor-product trapezoid for
#   G2(t_i, tau_j) = int_0^{t_i} dt' int_0^{tau_j} dtau'
#                    f(tau' + t') G(t_i - t') G(tau_j - tau'),
#   at the requested (i, j) pairs only, factorised into two 1-D
#   convolutions per distinct t row i, each one FFT product. A row is
#   integrated up to the largest tau index jmax asked of it, with the FFT
#   length L the next power of two above max(i + jmax, 2 jmax); rows of
#   equal L go through the FFTs together, in blocks of at most
#   _FFT_BLOCK_BYTES per (rows x L) complex array, so the working memory
#   is a few such blocks plus the result. The t = 0 row and the tau = 0
#   column are exactly 0 (empty integration range) and are not integrated.

# Size of one (rows x FFT length) complex block of two_time_trapezoid.
_FFT_BLOCK_BYTES = 16 * 2**20
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


def two_time_trapezoid(
    f: np.ndarray, G_t: np.ndarray, G_tau: np.ndarray, h: float, i, j
) -> np.ndarray:
    """Tensor-product trapezoid of the double convolution at (t, tau) pairs.

    Parameters
    ----------
    f:
        Kernel samples f(k h), k = 0.. at least max(i + j).
    G_t, G_tau:
        Propagator samples on the t axis (0..n) and tau axis (0..m).
    h:
        Common grid step of all three sample arrays.
    i, j:
        Integer t indices in [0, n] and tau indices in [0, m], broadcast
        against each other; pairs may repeat and come in any order.

    Returns
    -------
    Complex array of the broadcast shape of (i, j), holding
    G2(i h, j h); exactly 0 where i = 0 or j = 0 (empty integration range).
    """
    fft = np.fft
    f = np.ascontiguousarray(f, dtype=complex)
    G_t = np.ascontiguousarray(G_t, dtype=complex)
    G_tau = np.ascontiguousarray(G_tau, dtype=complex)
    i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    for name, idx, top in (("i", i, G_t.shape[0] - 1), ("j", j, G_tau.shape[0] - 1)):
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integer grid indices")
        if idx.size and (idx.min() < 0 or idx.max() > top):
            raise ValueError(f"{name} must lie in [0, {top}]")
    i, j = i.astype(np.intp), j.astype(np.intp)
    need = int(np.max(i + j, initial=0))
    if f.shape[0] < need + 1:
        raise ValueError(f"kernel samples cover {f.shape[0] - 1} steps, need {need}")
    G2 = np.zeros(i.size, dtype=complex)
    live = np.flatnonzero((i > 0) & (j > 0))
    pair_i = i.reshape(-1)[live]
    pair_j = j.reshape(-1)[live]

    # Row i needs (G_t[:i+1] * f)[i + l] for l = 0..jmax, which only reads
    # f[:i+jmax+1], and the causal part of H[i, :] * G_tau up to jmax, which
    # needs 2 jmax + 1 points: a circular convolution of length L has no
    # wrap-around in either. Rows are taken in order of L, then of i.
    rows, row_of = np.unique(pair_i, return_inverse=True)
    jmax = np.zeros(rows.size, dtype=np.intp)
    np.maximum.at(jmax, row_of, pair_j)
    # 2**e with span = mantissa * 2**e, mantissa in [0.5, 1): the next power
    # of two above span, as int(span).bit_length() gives it
    L_row = np.left_shift(1, np.frexp(np.maximum(rows + jmax, 2 * jmax))[1])
    order = np.lexsort((rows, L_row))
    rank = np.empty(rows.size, dtype=np.intp)
    rank[order] = np.arange(rows.size)
    pair_rank = rank[row_of]
    pair_order = np.argsort(pair_rank, kind="stable")
    pair_rank = pair_rank[pair_order]
    groups = np.flatnonzero(np.diff(L_row[order], prepend=0, append=0))
    for g_start, g_stop in zip(groups[:-1], groups[1:]):
        L = int(L_row[order[g_start]])
        J = int(jmax[order[g_start:g_stop]].max())
        f_hat = fft.fft(f[:L], L)
        G_tau_hat = fft.fft(G_tau[: J + 1], L)
        G_t_pad = np.zeros(L, dtype=complex)
        G_t_pad[: min(G_t.shape[0], L)] = G_t[:L]
        lag = np.arange(L)
        l = np.arange(J + 1)
        block = max(1, _FFT_BLOCK_BYTES // (16 * L))
        for start in range(g_start, g_stop, block):
            stop = min(start + block, g_stop)
            r = rows[order[start:stop], None]
            jm = jmax[order[start:stop], None]
            at = r + l  # where l <= jm, at < L and f covers it

            # Stage 1 (inner t' integral for every tau' offset l):
            # H[i, l] = h [ sum_{k=0..i} f[k+l] G_t[i-k] - f[l] G_t[i]/2 - f[i+l] G_t[0]/2 ]
            spec = fft.fft(np.where(lag <= r, G_t_pad, 0.0), axis=1)
            spec *= f_hat
            conv = fft.ifft(spec, axis=1)
            H = np.take_along_axis(conv, np.minimum(at, L - 1), axis=1)
            H -= 0.5 * G_t[r] * f[: J + 1]
            H -= (0.5 * G_t[0]) * f[np.minimum(at, f.shape[0] - 1)]
            H *= h
            # beyond jm, H is undefined; stage 2 is causal and L > 2 J, so it
            # would reach the output up to jm only through FFT rounding
            H[l > jm] = 0.0

            # Stage 2 (outer tau' integral for every t row):
            # G2[i, j] = h [ sum_{l=0..j} H[i,l] G_tau[j-l] - H[i,0] G_tau[j]/2 - H[i,j] G_tau[0]/2 ]
            spec = fft.fft(H, L, axis=1)
            spec *= G_tau_hat
            out = fft.ifft(spec, axis=1)[:, : J + 1]
            out -= 0.5 * H[:, :1] * G_tau[: J + 1]
            out -= (0.5 * G_tau[0]) * H
            out *= h

            a, b = np.searchsorted(pair_rank, (start, stop))
            sel = pair_order[a:b]
            G2[live[sel]] = out[pair_rank[a:b] - start, pair_j[sel]]
    return G2.reshape(i.shape)


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
    which every time must lie. The kernel is sampled once, up to the largest
    t + tau; G2 is computed at the given (t, tau) pairs only. Empty or
    all-zero times need no solve, since G(0) = 1 and G2(0, 0) = 0.

    A step coarser than a quarter of the kernel's 1/e decay time (see
    :func:`cpfsim.bath.decay_time`) cannot resolve the kernel: the caller
    gets a :class:`CoarseStepWarning`. A non-finite time, a ``t_step`` that
    is not a finite number > 0 or a solved |G| above 1 raise
    :class:`ValidationError`.
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
    idx = np.asarray(np.rint(times / t_step), dtype=int)
    if np.min(idx) < 0 or np.max(np.abs(idx * t_step - times)) > 1e-9 * max(1.0, t_max):
        raise ValidationError("times must be >= 0 and lie on the integration grid")
    decay = decay_time(kernel)
    if decay is not None and t_step > decay / 4:
        warnings.warn(
            f"t_step = {t_step:g} > {decay / 4:g}, a quarter of the time in which "
            "|f| falls by 1/e: step too coarse to resolve the kernel",
            CoarseStepWarning,
            stacklevel=2,
        )
    i, j = idx
    n = int(np.max(idx))
    f = eval_kernel_grid(kernel, np.arange(max(n, int(np.max(i + j))) + 1) * t_step)
    g = volterra_trapezoid(f[: n + 1], t_step)
    if np.max(np.abs(g)) > 1.0 + _ABS_TOL:
        raise ValidationError("|G| exceeds 1 beyond tolerance; not a propagator")
    return g[i], g[j], two_time_trapezoid(f, g, g, t_step, i, j)


def rho_t(state: InitialState, G_val: complex) -> DensityMatrix:
    """Reduced qubit state after decay for time t with propagator value G."""
    G_val = complex(G_val)
    if abs(G_val) > 1.0 + _ABS_TOL:
        raise ValidationError(f"|G| = {abs(G_val):g} exceeds 1")
    a, b = state.a, state.b
    p_up = abs(a) ** 2 * abs(G_val) ** 2
    coh = a * np.conj(b) * G_val
    return DensityMatrix(
        matrix=np.array([[p_up, coh], [np.conj(coh), 1.0 - p_up]], dtype=complex)
    )


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
