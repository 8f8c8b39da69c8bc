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
    """Evaluate f at the times ``ts``, which must be finite. Lorentzian
    kernels accept any t (via |t|); tabulated kernels require
    0 <= t <= t_max and interpolate linearly between samples."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValidationError("t must be finite")
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


def load_kernel_csv(path: Union[str, Path]) -> TabulatedKernel:
    """Load a tabulated kernel from CSV: time, real part, optional imaginary part.

    Times are in units of 1/gamma of the bath and values in their inverse
    square, read as they are. A header row is required; rows whose cells
    are all blank are skipped. A file that cannot be read as UTF-8 CSV
    raises :class:`ValidationError` naming the file, and a malformed row
    one naming the file and its physical line.

    Two readers give the same arrays to the bit. A file whose first line is
    an unquoted header and whose data rows all have 2 cells, or all 3, is
    read with NumPy's C text reader (``np.loadtxt``). Every other file, and
    every file that reader refuses (a quoted cell, a whitespace-only row,
    ``1_000.5``, a non-ASCII digit, a malformed row), is read with the
    ``csv`` module and ``float``, which also make every error message.
    """
    path = Path(path)
    columns = _read_uniform(path)
    if columns is None:
        columns = _read_rows(path)
    times, re, im = columns
    return TabulatedKernel(times=times, values=re + 1j * im)


def _check_header(path: Path, row: list[str]) -> None:
    try:
        float(row[0])
    except ValueError:
        pass  # non-numeric first cell: header present, as required
    else:
        raise ValidationError(f"{path}: header row required, found numeric first row")


def _read_uniform(path: Path) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Times, real and imaginary parts of a file whose data rows NumPy's C
    reader takes whole and all have 2 or all 3 cells; None for any other
    file, which :func:`_read_rows` then reads and judges."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError):
        return None  # _read_rows raises its own message
    lines = text.split("\n")
    # a quote may open a header cell that spans lines, and the csv path
    # refuses a cell longer than its field limit
    if '"' in lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        header = next(csv.reader(lines[:1]))
    except csv.Error:
        return None
    body = lines[1:]
    if not any(map(str.strip, header)) or not any(map(str.strip, body)):
        return None  # a blank first line, or no data rows for loadtxt to read
    _check_header(path, header)
    try:
        cells = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if cells.shape[1] not in (2, 3):
        return None
    im = cells[:, 2] if cells.shape[1] == 3 else np.zeros(len(cells))
    return cells[:, 0].copy(), cells[:, 1], im


def _read_rows(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, real and imaginary parts read row by row with ``csv`` and ``float``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if any(map(str.strip, row))]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: cannot read kernel file: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty kernel file")
    _check_header(path, rows[0])
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
    return cells[first], cells[first + 1], im


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
