"""Wave-vector propagator G(t), the two-time memory object G(t, tau),
decay rates, and backflow probabilities.

G(t) solves the convoluted (Volterra) evolution

    dG/dt = -int_0^t f(t - t') G(t') dt',    G(0) = 1,

driven by the bath correlation f. For a Lorentzian kernel the solution has
a closed form in x = t / 2 tau_c and chi = sqrt(1 - 2 gamma tau_c): with

    C(t) = e^{-x} cosh(chi x),    S(t) = e^{-x} sinh(chi x) / chi,

both entire in chi^2 (so real for imaginary chi as well),

    G(t) = C(t) + S(t),    G'(t) = -gamma S(t)

(Breuer & Petruccione, The Theory of Open Quantum Systems, sec. 10.1).
One helper evaluates the pair in two branches, real chi and imaginary chi,
both accurate to rounding at every gamma tau_c, gamma tau_c = 1/2 (chi = 0)
included.

The memory object governing conditional past-future correlations is not
G(t) itself but the double convolution

    G2(t, tau) = int_0^t dt' int_0^tau dtau'
                 f(tau' + t') G(t - t') G(tau - tau'),

with Lorentzian closed form 2 gamma tau_c S(t) S(tau).
It vanishes when f approaches a delta function, i.e. exactly in the
Born-Markov regime, even where G(t) decays monotonically. For any kernel it
equals G(t) G(tau) - G(t + tau) (see :meth:`Solved.G2`): how far G is
from a semigroup.

Numerical quadrature is trapezoidal product integration of G with a fixed
step (second order), by one kernel on an array of kernel samples; G2 follows
from the solved G by the identity above, on the same grid. :func:`solve`, the
only code that drives the quadrature kernel, picks it or the closed forms by
kernel type and returns the solved propagator as one value, from which
:func:`propagators` and :func:`decay_rates` read G, G2 and G'.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bath import LorentzianKernel, eval_kernel_grid
from .errors import ConditioningImpossibleError, InternalConsistencyError, ValidationError

_ABS_TOL = 1e-9  # allowed |G| overshoot above 1 (amplitude of a normalized component)
_MAX_STEPS = 2**22  # longest quadrature solve: ~130 B and 1.6 us a step
_OFF_GRID = "times must be >= 0 and lie on the integration grid"


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


def _finite(t, name: str, negative: Optional[str] = None) -> np.ndarray:
    """``t`` as floats, refused unless finite and, with a ``negative`` message, >= 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValidationError(f"{name} must be finite")
    if negative and np.any(t < 0):
        raise ValidationError(negative)
    return t


def _lorentzian_cs(kernel: LorentzianKernel, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) = (e^{-x} cosh(chi x), e^{-x} sinh(chi x) / chi) at x = t / 2 tau_c,
    chi^2 = 1 - 2 gamma tau_c: the pair every Lorentzian closed form is built from."""
    chi_sq = 1.0 - 2.0 * kernel.gamma * kernel.tau_c
    x = t / (2.0 * kernel.tau_c)
    if chi_sq > 0:
        # e^{-x(1 - chi)} = slow and e^{-x(1 + chi)} = slow (1 - r): both
        # decay, so nothing overflows at large t; r / chi does not cancel
        # as chi -> 0, nor 1 - chi = 2 gamma tau_c / (1 + chi) as chi -> 1
        chi = np.sqrt(chi_sq)
        slow = np.exp(-x * (2.0 * kernel.gamma * kernel.tau_c / (1.0 + chi)))
        r = -np.expm1(-2.0 * chi * x)
        return slow * (1.0 - 0.5 * r), slow * r / (2.0 * chi)
    # chi = i w: cosh(i w x) = cos(w x), sinh(i w x) / (i w) = sin(w x) / w
    w = np.sqrt(-chi_sq)
    decay = np.exp(-x)
    return decay * np.cos(w * x), decay * (np.sin(w * x) / w if w > 0 else x)


def _closed_G(kernel: LorentzianKernel, t) -> np.ndarray | float:
    c, s = _lorentzian_cs(kernel, _finite(t, "t", "t must be >= 0"))
    out = c + s
    return out if out.ndim else float(out)


def _closed_G2(kernel: LorentzianKernel, t, tau) -> np.ndarray | float:
    negative = "t and tau must be >= 0"
    t, tau = _finite(t, "t", negative), _finite(tau, "tau", negative)
    (_, s_t), (_, s_tau) = _lorentzian_cs(kernel, t), _lorentzian_cs(kernel, tau)
    out = 2.0 * kernel.gamma * kernel.tau_c * s_t * s_tau
    return out if out.ndim else float(out)


def lorentzian_G(gamma: float, tau_c: float, t) -> np.ndarray | float:
    """Closed-form propagator C + S for the Lorentzian kernel; real-valued.
    At finite t >= 0 and any gamma tau_c, the chi = 0 boundary 1/2 included."""
    return _closed_G(LorentzianKernel(gamma, tau_c), t)


def lorentzian_G_two_time(gamma: float, tau_c: float, t, tau) -> np.ndarray | float:
    """Closed-form two-time memory object 2 gamma tau_c S(t) S(tau) for the
    Lorentzian kernel, at finite t, tau >= 0."""
    return _closed_G2(LorentzianKernel(gamma, tau_c), t, tau)


def solve(kernel, t_end: float, t_step: Optional[float] = None) -> Solved:
    """The solved propagator of ``kernel`` up to ``t_end``; the one place that
    chooses how G is computed: a Lorentzian kernel's closed forms, real at any
    t >= 0, else G solved once on the grid of step ``t_step`` (complex, error
    O(t_step^2)), or not at all if t_end <= 0. A NaN ``t_end``, a ``t_step``
    that is not a finite number > 0 or a solved |G| above 1 raise
    :class:`ValidationError`, and so do, before the kernel is sampled, a solve
    of over 2**22 steps, a ``t_end`` off the grid and a step coarser than a
    quarter of the kernel's 1/e time ``decay_time()``; a ``t_end`` beyond a
    tabulated kernel's last sample by more than rounding raises
    :class:`cpfsim.errors.KernelRangeError`."""
    if t_step is not None and not 0 < t_step < np.inf:  # False for NaN too
        raise ValidationError(f"t_step must be a finite number > 0, got {t_step}")
    if np.isnan(t_end):  # not > 0, so it would read as no solve
        raise ValidationError(f"t_end must be a number, got {t_end}")
    if isinstance(kernel, LorentzianKernel):
        return Solved(kernel)
    if t_step is None:
        raise ValidationError("tabulated kernels need an explicit t_step")
    if not t_end > 0:
        return Solved(kernel, t_step, np.ones(1, dtype=complex))
    with np.errstate(over="ignore"):  # a count beyond the float range is inf
        n = float(np.rint(t_end / t_step))
    if n > _MAX_STEPS:
        raise ValidationError(
            f"t_step = {t_step:g} needs a solve of {n:.15g} steps, more than {_MAX_STEPS}"
        )
    if abs(n * t_step - t_end) > 1e-9 * max(1.0, t_end):
        raise ValidationError(_OFF_GRID)
    decay = kernel.decay_time()
    if decay is not None and t_step > decay / 4:
        raise ValidationError(
            f"t_step = {t_step:g} > {decay / 4:g}, a quarter of the time in which "
            "|f| falls by 1/e: step too coarse to resolve the kernel"
        )
    # the kernel's range check on the last sample time, before n + 1 are allocated
    eval_kernel_grid(kernel, n * t_step)
    g = volterra_trapezoid(eval_kernel_grid(kernel, np.arange(int(n) + 1) * t_step), t_step)
    if np.max(np.abs(g)) > 1.0 + _ABS_TOL:
        raise ValidationError("|G| exceeds 1 beyond tolerance; not a propagator")
    return Solved(kernel, t_step, g)


@dataclass(frozen=True, eq=False)
class Solved:
    """A Lorentzian ``kernel``'s closed forms (``g`` None), or ``g``, G at the
    grid times i ``step``, i = 0..n. Its lookups refuse a time that is not
    finite or is negative, and on the grid one off it or beyond the solve."""

    kernel: object
    step: Optional[float] = None
    g: Optional[np.ndarray] = None

    def _index(self, t, name: str) -> np.ndarray:
        t = _finite(t, name)
        with np.errstate(over="ignore"):
            i = np.rint(t / self.step)  # float indices, cast once known to be <= n
        tol = 1e-9 * max(1.0, (self.g.size - 1) * self.step)
        if np.any(t < 0) or np.any(np.abs(i * self.step - t) > tol):
            raise ValidationError(_OFF_GRID)
        return i

    def _at(self, i: np.ndarray, name: str):
        n = self.g.size - 1
        if np.any(i > n):
            raise ValidationError(f"{name} beyond the solve, which ends at t = {n * self.step!r}")
        return self.g[i.astype(int)]

    def G(self, t):
        if self.g is None:
            return _closed_G(self.kernel, t)
        return self._at(self._index(t, "t"), "t")

    def G2(self, t, tau):
        """The closed form, or on the grid G(t) G(tau) - G(t + tau), true for any
        kernel. With G^ the Laplace transform of G, the Volterra equation gives
        G^(s) = 1/(s + f^(s)). The double transform (t -> s, tau -> p) of f(t + tau)
        is (f^(s) - f^(p))/(p - s), that of G(t + tau) is (G^(s) - G^(p))/(p - s),
        so that of G2 is G^(s) G^(p) (f^(s) - f^(p))/(p - s). Substituting
        f^ = 1/G^ - s turns it into G^(s) G^(p) - (G^(s) - G^(p))/(p - s)."""
        if self.g is None:
            return _closed_G2(self.kernel, t, tau)
        i, j = self._index(t, "t"), self._index(tau, "tau")
        return self._at(i, "t") * self._at(j, "tau") - self._at(i + j, "t + tau")

    def rates(self, t):
        """(gamma(t), omega(t)): exact from the closed form G' = -gamma S, or from
        a central difference of G at the indices |i - 1| and i + 1, error
        O(step^2) as G's and exactly 0 at t = 0, where G' = 0."""
        if self.g is None:
            c, s = _lorentzian_cs(self.kernel, _finite(t, "t", "t must be >= 0"))
            rate = self.kernel.gamma * s / (c + s)
        else:
            i = self._index(t, "t")
            g_fwd = self._at(i + 1, "t + t_step")
            rate = (self._at(np.abs(i - 1), "t") - g_fwd) / (2.0 * self.step) / self._at(i, "t")
        return rate.real, rate.imag


def propagators(
    kernel, t, tau, t_step: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G(t), G(tau) and G2(t, tau) over broadcast finite time arrays, from
    one :func:`solve` up to the largest t + tau; its refusals apply."""
    t, tau = np.broadcast_arrays(_finite(t, "t"), _finite(tau, "tau"))
    with np.errstate(over="ignore"):  # a t + tau beyond the float range: inf steps, refused
        t_end = float(np.max(t + tau, initial=0.0))
    solved = solve(kernel, t_end, t_step)
    g2 = solved.G2(t, tau)  # first: it checks both times before it reads G at any
    return solved.G(t), solved.G(tau), g2


def decay_rates(kernel, t, t_step: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Decay rate gamma(t) and frequency shift omega(t), gamma + i omega = -G'/G,
    from one :func:`solve` to the last t and a step; they diverge, unrefused, at a zero of G."""
    t = _finite(t, "t")
    return solve(kernel, float(np.max(t, initial=0.0)) + (t_step or 0.0), t_step).rates(t)


def backflow_probabilities(G_t: complex, G_two: complex) -> tuple[float, float]:
    """Survival and conditional re-excitation probabilities.

    Returns (P(up, t | up, 0), P(up, t+tau | down, t; up, 0)) =
    (|G(t)|^2, |G2(t, tau)|^2 / (1 - |G(t)|^2)). The second one is the
    operational backflow witness: it vanishes exactly in the Markovian
    limit, whatever G(t) does. Amplitudes that are not finite are refused.
    """
    G_t, G_two = complex(G_t), complex(G_two)
    if not np.all(np.isfinite([G_t, G_two])):
        raise ValidationError(f"G(t) = {G_t} and G2 = {G_two} must be finite")
    p_survive = abs(G_t) ** 2
    if p_survive >= 1.0:
        raise ConditioningImpossibleError(
            "|G(t)| >= 1: the system cannot have been found decayed at t"
        )
    p_reexcite = abs(G_two) ** 2 / (1.0 - p_survive)
    if p_reexcite > 1.0 + _ABS_TOL:
        raise InternalConsistencyError(
            f"re-excitation probability {p_reexcite:g} > 1 violates the "
            "amplitude normalization bound"
        )
    return p_survive, min(p_reexcite, 1.0)
