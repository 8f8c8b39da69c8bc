"""The quadrature route of :func:`cpfsim.propagators` for any kernel,
Lorentzian ones included, without the grid checks: G from
``volterra_trapezoid`` on samples of the kernel on the grid t_k = k h, and
G2 from its definition as a double convolution, by ``two_time_trapezoid``.
For a Lorentzian kernel, ``propagators`` uses the closed forms instead, so
the tests use these helpers to check the quadrature against those closed
forms. The package gets G2 from G alone, by G(t) G(tau) - G(t + tau);
``two_time_trapezoid`` is the independent reference that identity is
checked against."""
import numpy as np

from cpfsim import eval_kernel_grid
from cpfsim.propagator import volterra_trapezoid

# two_time_trapezoid: tensor-product trapezoid for
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
