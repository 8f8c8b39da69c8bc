"""Test-side references for the quadrature route of :func:`cpfsim.propagators`.

``two_time_trapezoid`` is G2 from its definition as a double convolution,
the ``double_convolution`` route of tests/test_routes.py: it and its helper
``_weighted_reversed`` take kernel samples and G as arrays and use nothing of
the package, which that module's import rule checks. The other helpers do
use it: ``volterra`` solves for G on the grid t_k = k h with the package's
``volterra_trapezoid``, without the grid checks; ``tabulated_lorentzian``
samples a Lorentzian kernel into a :class:`cpfsim.TabulatedKernel`, which
has no closed forms, so ``propagators`` takes it through the quadrature route
that ``sweep`` and ``witness`` run on a kernel file; ``tabulated_surface`` is
G and G2 over a grid on that route."""
import numpy as np

from cpfsim import LorentzianKernel, TabulatedKernel, eval_kernel_grid, propagators
from cpfsim.propagator import volterra_trapezoid


def volterra(kernel, t_max, h):
    """The grid times 0, h, ..., t_max and G on them."""
    times = np.arange(int(round(t_max / h)) + 1) * h
    return times, volterra_trapezoid(eval_kernel_grid(kernel, times), h)


def _weighted_reversed(G, ends):
    """w_k G[e - k] for k = 0..max(ends), one row per end e: G reversed to
    end at k = e, times the trapezoid weights of the range 0..e (1, halved
    at both ends, 0 beyond e and on the empty range e = 0)."""
    k = np.arange(ends.max() + 1)
    e = ends[:, None]
    w = np.where((k == 0) | (k == e), 0.5, 1.0) * (k <= e) * (e > 0)
    return w * G[np.abs(e - k)]


def two_time_trapezoid(f, G, h, i, j):
    """G2(i h, j h) at the integer pairs (i, j), broadcast against each
    other, by the tensor-product trapezoid of

        G2(t, tau) = int_0^t dt' int_0^tau dtau' f(t' + tau') G(t - t') G(tau - tau'),

    G2(ih, jh) = h^2 sum_{k<=i} sum_{l<=j} w_k w_l f[k+l] G[i-k] G[j-l]:
    a Hankel gather of the kernel samples f between two weighted, reversed
    G vectors. Reads f up to max(i) + max(j) and G up to max(i, j)."""
    i, j = np.broadcast_arrays(i, j)
    (rows, at_i), (cols, at_j) = (np.unique(x.ravel(), return_inverse=True) for x in (i, j))
    hankel = f[np.add.outer(np.arange(rows.max() + 1), np.arange(cols.max() + 1))]
    surface = _weighted_reversed(G, rows) @ hankel @ _weighted_reversed(G, cols).T
    return h * h * surface[at_i, at_j].reshape(i.shape)


def tabulated_lorentzian(t_end, h=0.01, gamma=1.0, tau_c=1.0):
    """The Lorentzian kernel as a tabulated one, sampled every h up to
    t_end: a kernel without closed forms whose propagators are known."""
    ts = np.arange(0, t_end + h / 2, h)
    return TabulatedKernel(times=ts, values=eval_kernel_grid(LorentzianKernel(gamma, tau_c), ts))


def tabulated_surface(gamma, tau_c, t_max, h):
    """The grid times 0, h, ..., t_max, and G and the whole G2 surface over
    them from ``propagators`` on the Lorentzian's samples up to 2 t_max."""
    ts = np.arange(int(round(t_max / h)) + 1) * h
    kernel = tabulated_lorentzian(2 * ts[-1], h, gamma, tau_c)
    g_t, _, g2 = propagators(kernel, ts[:, None], ts, h)
    return ts, g_t[:, 0], g2
