"""Environment correlation functions (memory kernels).

The bath enters the dynamics exclusively through its two-time correlation
function f(t); nothing else about the microscopic environment is ever
represented. A kernel family is one class with ``sample`` and ``decay_time``:

* ``LorentzianKernel``: f(t) = (gamma / 2 tau_c) exp(-|t| / tau_c), the
  exponential correlation of a Lorentzian spectral density. This is the
  canonical instance with closed-form propagators.
* ``TabulatedKernel``: complex samples on an ascending time grid starting
  at 0, evaluated by linear interpolation. Extrapolation is refused: a
  silently extrapolated memory kernel corrupts convolutions invisibly. A
  time beyond the last sample by rounding only reads the last sample.

Kernels are immutable value types, safe for concurrent reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, Optional, Union

import numpy as np

from .errors import KernelRangeError, ValidationError

# a time beyond a tabulated kernel's last sample by at most this, relative,
# is that time rounded: n * step of a grid ending on it can exceed it by an ulp
_ROUNDING = 1e-12


@dataclass(frozen=True)
class LorentzianKernel:
    """Exponential bath correlation with integrated weight gamma / 2."""

    gamma: float
    tau_c: float

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValidationError(f"gamma must be > 0, got {self.gamma}")
        if not (self.tau_c > 0):
            raise ValidationError(f"tau_c must be > 0, got {self.tau_c}")
        if 2.0 * float(self.gamma) * float(self.tau_c) == np.inf:  # chi^2 = -inf: NaN closed forms
            raise ValidationError(f"2 gamma tau_c is beyond the float range at {self}")

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """f at the float times ``ts``, of either sign (via |t|)."""
        out = (self.gamma / (2.0 * self.tau_c)) * np.exp(-np.abs(ts) / self.tau_c)
        return out.astype(complex)

    def decay_time(self) -> float:
        return self.tau_c


@dataclass(frozen=True)
class TabulatedKernel:
    """Complex correlation samples on a strictly ascending grid from t = 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValidationError("times and values must be 1-D arrays of equal length")
        if times.size < 2:
            raise ValidationError("tabulated kernel needs at least 2 samples")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values.view(float)))):
            raise ValidationError("tabulated kernel samples must be finite")
        if times[0] != 0.0:
            raise ValidationError(f"tabulated times must start at 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("tabulated times must be strictly ascending")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """f at the float times ``ts`` in [0, t_max], interpolated linearly; a
        time beyond t_max by rounding, at most 1e-12 relative, reads f(t_max)."""
        if np.any(ts < 0):
            raise KernelRangeError("tabulated kernel is only defined for t >= 0")
        if np.any(ts > self.t_max * (1.0 + _ROUNDING)):
            raise KernelRangeError(
                f"t = {float(np.max(ts))!r} beyond last sample t_max = {self.t_max!r}; "
                "refusing to extrapolate"
            )
        re = np.interp(ts, self.times, self.values.real)
        im = np.interp(ts, self.times, self.values.imag)
        return re + 1j * im

    def decay_time(self) -> Optional[float]:
        """The first crossing of |f(0)|/e by |f|, interpolated linearly
        between samples, or None if |f(0)| = 0 or |f| stays above it."""
        mag = np.abs(self.values)
        level = mag[0] / np.e
        below = np.flatnonzero(mag <= level)
        if mag[0] == 0 or not below.size:
            return None
        k = int(below[0])
        t0, t1 = self.times[k - 1 : k + 1]
        return float(t0 + (t1 - t0) * (mag[k - 1] - level) / (mag[k - 1] - mag[k]))


def eval_kernel_grid(kernel, ts: np.ndarray) -> np.ndarray:
    """f of ``kernel`` at the times ``ts``, which must be finite."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValidationError("t must be finite")
    return kernel.sample(ts)


def load_kernel_csv(path: Union[str, Path]) -> TabulatedKernel:
    """Load a tabulated kernel from CSV: time, real part, optional imaginary part.

    Times are in units of 1/gamma of the bath and values in their inverse
    square, read as they are. Lines of the UTF-8 file end in ``\\n``,
    ``\\r\\n`` or ``\\r``; whitespace-only lines are skipped. The first other
    line is a header whose first cell is not a number. One ``np.loadtxt``
    call reads the data rows, all 2 or all 3 cells wide, each cell an ASCII
    decimal, ``inf`` or ``nan`` literal, maybe padded and in one pair of
    quotes closed on its line. Samples must be finite, times ascend strictly
    from 0. An unreadable file raises :class:`ValidationError` naming it, a
    bad row naming its line.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read kernel file: {exc}") from exc
    lines = text.split("\n")
    if '"' in text:  # NumPy's reader would join the lines of an open quote
        for ln, line in enumerate(lines, 1):
            if line.count('"') % 2:
                raise ValidationError(f"{path}:{ln}: quote not closed on its line")
    head = next((k for k, line in enumerate(lines) if line.strip()), None)
    if head is None:
        raise ValidationError(f"{path}: empty kernel file")
    if _cell_value(lines[head].split(",", 1)[0]) is not None:
        raise ValidationError(f"{path}:{head + 1}: header row required, found numeric first row")
    body = lines[head + 1 :]
    if any(map(str.isspace, body)):
        body = [line for line in body if not line.isspace()]
    if not any(body):  # loadtxt skips empty lines itself, and warns on no data
        _raise_first_bad_row(path, lines, head + 1)
    try:
        cells = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, quotechar='"')
        if cells.shape[1] not in (2, 3):
            raise ValueError("expected 2 or 3 columns")
        im = cells[:, 2] if cells.shape[1] == 3 else np.zeros(len(cells))
        with np.errstate(invalid="ignore"):  # an inf cell: NaN, refused by the kernel
            values = cells[:, 1] + 1j * im
        return TabulatedKernel(times=cells[:, 0].copy(), values=values)
    except ValueError:  # a ValidationError of the kernel's is one too
        _raise_first_bad_row(path, lines, head + 1)


def _cell_value(cell: str) -> Optional[float]:
    """The value NumPy's reader gives one cell, or None where it gives none."""
    cell = cell.rstrip()
    if len(cell) > 1 and cell[0] == cell[-1] == '"':
        cell = cell[1:-1]
    cell = cell.strip()
    # float() also takes "1_000.5" and non-ASCII digits; NumPy's reader does not
    try:
        return float(cell) if cell.isascii() and "_" not in cell else None
    except ValueError:
        return None


def _raise_first_bad_row(path: Path, lines: list[str], start: int) -> NoReturn:
    """Raise the error of the first malformed or non-finite data row from
    ``lines[start]`` on, by physical line, of too few rows, or of a time out of order."""
    numbered = enumerate(lines[start:], start + 1)
    rows = [(ln, line.split(",")) for ln, line in numbered if line.strip()]
    for ln, cells in rows:
        if len(cells) not in (2, 3):
            raise ValidationError(f"{path}:{ln}: expected 2 or 3 columns, got {len(cells)}")
        if len(cells) != len(rows[0][1]):
            raise ValidationError(
                f"{path}:{ln}: expected {len(rows[0][1])} columns as on line {rows[0][0]}, "
                f"got {len(cells)}"
            )
        for cell in cells:
            value = _cell_value(cell)
            if value is None:
                raise ValidationError(f"{path}:{ln}: could not convert string to float: {cell!r}")
            if not np.isfinite(value):
                raise ValidationError(f"{path}:{ln}: kernel samples must be finite, got {cell!r}")
    if len(rows) < 2:
        raise ValidationError(f"{path}: tabulated kernel needs at least 2 samples, got {len(rows)}")
    t = [_cell_value(cells[0]) for _, cells in rows]
    for k, (ln, _) in enumerate(rows):
        if (t[k] <= t[k - 1] if k else t[k] != 0):
            raise ValidationError(f"{path}:{ln}: times must ascend strictly from 0, got {t[k]}")
    raise AssertionError(f"{path}: no malformed row found")  # unreachable
