"""Environment correlation functions (memory kernels).

The bath enters the dynamics exclusively through its two-time correlation
function f(t); nothing else about the microscopic environment is ever
represented. Two kernel families are supported:

* ``LorentzianKernel``: f(t) = (gamma / 2 tau_c) exp(-|t| / tau_c), the
  exponential correlation of a Lorentzian spectral density. This is the
  canonical instance with closed-form propagators.
* ``TabulatedKernel``: complex samples on an ascending time grid starting
  at 0, evaluated by linear interpolation. Extrapolation is refused: a
  silently extrapolated memory kernel corrupts convolutions invisibly.

Kernels are immutable value types, safe for concurrent reads.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NoReturn, Optional, Union

import numpy as np

from .errors import KernelRangeError, ValidationError


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
        if times[0] != 0.0:
            raise ValidationError(f"tabulated times must start at 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("tabulated times must be strictly ascending")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values.view(float)))):
            raise ValidationError("tabulated kernel samples must be finite")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def t_max(self) -> float:
        return float(self.times[-1])


BathKernel = Union[LorentzianKernel, TabulatedKernel]


def eval_kernel_grid(kernel: BathKernel, ts: np.ndarray) -> np.ndarray:
    """Evaluate f at the times ``ts``. Lorentzian kernels accept any t (via
    |t|); tabulated kernels require 0 <= t <= t_max and interpolate linearly
    between samples."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(kernel, LorentzianKernel):
        out = (kernel.gamma / (2.0 * kernel.tau_c)) * np.exp(-np.abs(ts) / kernel.tau_c)
        return out.astype(complex)
    if isinstance(kernel, TabulatedKernel):
        if np.any(ts < 0):
            raise KernelRangeError("tabulated kernel is only defined for t >= 0")
        if np.any(ts > kernel.t_max):
            raise KernelRangeError(
                f"t = {float(np.max(ts)):g} beyond last sample t_max = {kernel.t_max:g}; "
                "refusing to extrapolate"
            )
        re = np.interp(ts, kernel.times, kernel.values.real)
        im = np.interp(ts, kernel.times, kernel.values.imag)
        return re + 1j * im
    raise ValidationError(f"unknown kernel type {type(kernel).__name__}")


def decay_time(kernel: BathKernel) -> Optional[float]:
    """Time in which |f| falls to |f(0)|/e: tau_c for a Lorentzian kernel;
    for a tabulated one the first such crossing of |f| interpolated linearly
    between samples, or None if |f(0)| = 0 or |f| stays above it."""
    if isinstance(kernel, LorentzianKernel):
        return kernel.tau_c
    mag = np.abs(kernel.values)
    level = mag[0] / np.e
    below = np.flatnonzero(mag <= level)
    if mag[0] == 0 or not below.size:
        return None
    k = int(below[0])
    t0, t1 = kernel.times[k - 1 : k + 1]
    return float(t0 + (t1 - t0) * (mag[k - 1] - level) / (mag[k - 1] - mag[k]))


def load_kernel_csv(path: Union[str, Path], time_scale: float = 1.0) -> TabulatedKernel:
    """Load a tabulated kernel from CSV: time, real part, optional imaginary part.

    A header row is required; rows whose cells are all blank are skipped.
    ``time_scale`` multiplies the time column, e.g. 1/gamma when the file
    declares times in units of 1/gamma. A malformed row raises
    :class:`ValidationError` naming the file and its physical line.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(map(str.strip, row))]
    if not rows:
        raise ValidationError(f"{path}: empty kernel file")
    try:
        float(rows[0][0])
    except ValueError:
        pass  # non-numeric first cell: header present, as required
    else:
        raise ValidationError(f"{path}: header row required, found numeric first row")
    body = rows[1:]
    width = np.fromiter(map(len, body), dtype=np.intp, count=len(body))
    if np.any((width < 2) | (width > 3)):
        _raise_first_bad_row(path)
    try:
        cells = np.fromiter(
            map(float, chain.from_iterable(body)), dtype=float, count=int(width.sum())
        )
    except ValueError:
        _raise_first_bad_row(path)
    # row k starts at cell first[k]: time, real part, then the imaginary
    # part where the row has three cells
    first = np.cumsum(width) - width
    three = width == 3
    im = np.zeros(len(body))
    im[three] = cells[first[three] + 2]
    times = cells[first] * time_scale
    return TabulatedKernel(times=times, values=cells[first + 1] + 1j * im)


def _raise_first_bad_row(path: Path) -> NoReturn:
    """Raise the error of the first malformed data row, by physical line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
    for ln, row in rows[1:]:
        if len(row) not in (2, 3):
            raise ValidationError(f"{path}:{ln}: expected 2 or 3 columns, got {len(row)}")
        for cell in row:
            try:
                float(cell)
            except ValueError as exc:
                raise ValidationError(f"{path}:{ln}: {exc}") from exc
    raise AssertionError(f"{path}: no malformed row found")  # unreachable
