"""The quadrature route of :func:`cpfsim.propagators` for any kernel,
Lorentzian ones included: the two array kernels on samples of the kernel on
the grid t_k = k h, without the grid checks. For a Lorentzian kernel,
``propagators`` uses the closed forms instead, so the tests use these
helpers to check the quadrature against those closed forms."""
import numpy as np

from cpfsim import eval_kernel_grid
from cpfsim.propagator import two_time_trapezoid, volterra_trapezoid


def volterra(kernel, t_max, h):
    """The grid times 0, h, ..., t_max and G on them."""
    times = np.arange(int(round(t_max / h)) + 1) * h
    return times, volterra_trapezoid(eval_kernel_grid(kernel, times), h)


def two_time(kernel, t_max, h, i, j):
    """The grid times 0, h, ..., t_max, G on them, and G2 at the integer
    pairs (i, j), broadcast against each other, from one set of kernel
    samples reaching max(t_max, max(i + j) h)."""
    n = int(round(t_max / h))
    f = eval_kernel_grid(kernel, np.arange(max(n, int(np.max(np.add(i, j)))) + 1) * h)
    G = volterra_trapezoid(f[: n + 1], h)
    return np.arange(n + 1) * h, G, two_time_trapezoid(f, G, G, h, i, j)


def two_time_surface(kernel, t_max, h):
    """The grid times, G on them and the whole G2 surface over them."""
    idx = np.arange(int(round(t_max / h)) + 1)
    return two_time(kernel, t_max, h, idx[:, None], idx)
