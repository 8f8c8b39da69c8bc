"""Bath kernel: closed form values, weight conservation, tabulation."""
import csv
import re

import numpy as np
import pytest
from scipy.integrate import quad

from cpfsim import (
    LorentzianKernel,
    TabulatedKernel,
    eval_kernel_grid,
    load_kernel_csv,
)
from cpfsim.bath import decay_time
from cpfsim.config import parse_config
from cpfsim.errors import KernelRangeError, ValidationError

# Oracle: mpmath.mp.dps=30 gives 2*exp(-1) = 0.735758882342884643...
TWO_OVER_E = 0.7357588823428846


def test_lorentzian_at_zero_is_half_gamma_over_tau_c():
    assert eval_kernel_grid(LorentzianKernel(1.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_kernel_grid(LorentzianKernel(3.0, 0.5), 0.0) == pytest.approx(3.0, abs=1e-14)


def test_lorentzian_decays_to_zero():
    assert abs(eval_kernel_grid(LorentzianKernel(1.0, 1.0), 80.0)) < 1e-30


def test_lorentzian_frozen_value():
    # gamma=2, tau_c=0.5, t=0.5: (gamma/2 tau_c) e^{-t/tau_c} = 2 e^{-1}
    assert eval_kernel_grid(LorentzianKernel(2.0, 0.5), 0.5) == pytest.approx(
        TWO_OVER_E, abs=1e-15
    )


def test_lorentzian_accepts_negative_t_via_abs():
    k = LorentzianKernel(1.0, 2.0)
    assert eval_kernel_grid(k, [-1.5, -0.5]).tolist() == eval_kernel_grid(k, [1.5, 0.5]).tolist()


def test_lorentzian_integrated_weight_is_half_gamma():
    # independent quadrature oracle for the integral of f over [0, inf)
    for gamma, tau_c in [(1.0, 1.0), (0.3, 2.0), (2.0, 0.25)]:
        k = LorentzianKernel(gamma, tau_c)
        weight, _ = quad(lambda t: float(eval_kernel_grid(k, t).real), 0, np.inf)
        assert weight == pytest.approx(gamma / 2.0, rel=1e-8)


def test_lorentzian_monotone_nonincreasing():
    vals = eval_kernel_grid(LorentzianKernel(1.3, 0.7), np.linspace(0, 10, 500))
    assert np.all(vals.real >= 0)
    assert np.all(np.diff(vals.real) <= 0)


def test_lorentzian_validation():
    with pytest.raises(ValidationError):
        LorentzianKernel(0.0, 1.0)
    with pytest.raises(ValidationError):
        LorentzianKernel(1.0, -2.0)


def test_markovian_limit_preserves_weight():
    # shrinking tau_c at fixed gamma approaches gamma/2 times a delta function
    for eps in (1.0, 0.1, 0.01):
        k = LorentzianKernel(1.0, 1.0 * eps)
        weight, _ = quad(lambda t: float(eval_kernel_grid(k, t).real), 0, np.inf)
        assert weight == pytest.approx(0.5, rel=1e-8)


def test_tabulated_interpolates_linearly():
    k = TabulatedKernel(times=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 3.0, 3.0]))
    assert eval_kernel_grid(k, 0.5) == pytest.approx(2.0)
    assert eval_kernel_grid(k, 1.5) == pytest.approx(3.0)


def test_tabulated_matches_sampled_lorentzian_at_second_order():
    ref = LorentzianKernel(1.0, 1.0)
    t_probe = np.linspace(0, 4, 173)
    errs = []
    for h in (0.02, 0.01):
        ts = np.arange(0, 5.0 + h / 2, h)
        tab = TabulatedKernel(times=ts, values=eval_kernel_grid(ref, ts))
        errs.append(
            np.max(np.abs(eval_kernel_grid(tab, t_probe) - eval_kernel_grid(ref, t_probe)))
        )
    assert errs[1] < errs[0] / 3.0  # O(h^2) interpolation error
    assert errs[1] < 2e-5


def test_tabulated_refuses_extrapolation_and_negative_t():
    k = TabulatedKernel(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
    with pytest.raises(KernelRangeError):
        eval_kernel_grid(k, 1.0001)
    with pytest.raises(KernelRangeError):
        eval_kernel_grid(k, -0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "kernel",
    [LorentzianKernel(1.0, 1.0), TabulatedKernel(times=np.array([0.0, 1.0]), values=np.ones(2))],
    ids=["lorentzian", "tabulated"],
)
def test_non_finite_times_are_refused(kernel, t):
    # a NaN time gave NaN on both kernels, and +inf gave 0 on a Lorentzian one
    with pytest.raises(ValidationError, match="^t must be finite$"):
        eval_kernel_grid(kernel, np.array([0.5, t]))


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        TabulatedKernel(times=np.array([0.1, 1.0]), values=np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        TabulatedKernel(times=np.array([0.0, 0.0]), values=np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        TabulatedKernel(times=np.array([0.0]), values=np.array([1.0]))
    with pytest.raises(ValidationError):
        TabulatedKernel(times=np.array([0.0, 1.0]), values=np.array([np.nan, 0.5]))


def test_kernel_csv_roundtrip(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n1.0,0.5,-0.25\n2.0,0.25,0.0\n")
    k = load_kernel_csv(path)
    assert eval_kernel_grid(k, 1.0) == pytest.approx(0.5 - 0.25j)
    # two-column form
    path2 = tmp_path / "kernel2.csv"
    path2.write_text("t,re\n0.0,1.0\n2.0,0.0\n")
    assert eval_kernel_grid(load_kernel_csv(path2), 1.0) == pytest.approx(0.5)


def test_kernel_csv_requires_header(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("0.0,1.0\n1.0,0.5\n")
    with pytest.raises(ValidationError, match="header"):
        load_kernel_csv(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("t,re\n0.0,1.0\n0.5\n1.0,0.5\n", 3),
        ("t,re\n0.0,1.0\n0.5,1.0,0.0,9.0\n1.0,0.5\n", 3),
        ("t,re\n0.0,1.0\n0.5,abc\n1.0,0.5\n", 3),
        ("t,re\n0.0,1.0\n0.5,1.0,x\n1.0,0.5\n", 3),
        # the line of the file, not the count of non-blank rows
        ("t,re\n\n0,1\n1,2,3,4\n", 4),
    ],
    ids=["one-column", "four-columns", "non-numeric-re", "non-numeric-im", "after-blank-line"],
)
def test_kernel_csv_malformed_row_names_path_and_line(tmp_path, text, line):
    path = tmp_path / "kernel.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:{line}: "):
        load_kernel_csv(path)


@pytest.mark.parametrize("case", ["directory", "not-utf8", "cell-beyond-csv-field-limit"])
def test_kernel_csv_unreadable_file_names_path(tmp_path, case):
    path = tmp_path / "kernel.csv"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"t,re\n0,1\n1,\xff\n")
    else:
        path.write_text("t,re\n0," + "1" * (csv.field_size_limit() + 1) + "\n1,2\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: cannot read kernel file: "):
        load_kernel_csv(path)


def test_kernel_csv_skips_blank_lines_and_loads_complex_values(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("t,re,im\n\n0.0,1.0,0.0\n  ,\n1.0,0.5,-0.25\n\n")
    k = load_kernel_csv(path)
    assert k.times.tolist() == [0.0, 1.0]
    assert k.values.tolist() == [1.0 + 0.0j, 0.5 - 0.25j]


def _load_kernel_csv_reference(path):
    """The per-row csv + float() loop form of load_kernel_csv, kept as the
    reference the vectorised loader is checked against."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # (physical line number, row) of the non-blank rows
        rows = [
            (reader.line_num, row) for row in reader if row and any(c.strip() for c in row)
        ]
    if not rows:
        raise ValidationError(f"{path}: empty kernel file")
    header = rows[0][1]
    try:
        float(header[0])
    except ValueError:
        pass  # non-numeric first cell: header present, as required
    else:
        raise ValidationError(f"{path}: header row required, found numeric first row")
    times, values = [], []
    for ln, row in rows[1:]:
        if len(row) not in (2, 3):
            raise ValidationError(f"{path}:{ln}: expected 2 or 3 columns, got {len(row)}")
        try:
            t = float(row[0])
            re_ = float(row[1])
            im = float(row[2]) if len(row) == 3 else 0.0
        except ValueError as exc:
            raise ValidationError(f"{path}:{ln}: {exc}") from exc
        times.append(t)
        values.append(re_ + 1j * im)
    return TabulatedKernel(times=np.array(times), values=np.array(values))


KERNEL_FILES = {
    "two-columns": "t,re\n0,1\n0.5,0.25\n1,-0.5\n",
    "three-columns": "t,re,im\n0,1,0\n0.5,0.25,-0.125\n1,-0.5,-0.0\n",
    "mixed-columns": "t,re,im\n0,1\n0.5,0.25,-0.0\n1,-0.5\n1.5,-0.0,2e-3\n",
    "blank-lines": "\n\nt,re\n\n0,1\n  ,\n \t\n0.5,0.5\n,\n1,0\n\n",
    "crlf": "t,re,im\r\n0,1,0\r\n\r\n0.5,0.5,0.1\r\n1,0,0\r\n",
    "cr-only": "t,re\r0,1\r0.5,0.5\r1,0",
    "padded-cells": "t , re , im\n 0 ,1 , 0\n\t0.5,\t 0.5 ,0.25 \n1 , 0,-1e-3\n",
    "quoted-cells": '"t","re"\n"0","1.5"\n"0.5",0.25\n1,"-0.0"\n',
    "float-syntax": "t,re,im\n0,+1.5E0,-0\n0.5,1_000.5,.5\n1,5.,1e-310\n",
    "no-final-newline": "t,re\n0,1\n1,0.5",
    "header-only": "t,re\n",
    "one-row": "t,re\n0,1\n",
    "non-finite": "t,re\n0,1\n1,nan\n",
    "numeric-header": "0,1\n1,2\n",
    "empty": "\n \n",
    "ragged-then-bad-float": "t,re\n0,1\n1,x\n2,1,2,3\n",
    "bad-float-then-ragged": "t,re\n0,1\n1,2,3,4\n2,x\n",
    "bad-time": "t,re,im\n0,1,0\nzero,1,0\n",
    "one-cell-after-blank": "t,re\n\n\n0,1\n7\n",
    "empty-cell": "t,re\n0,1\n1,\n",
}


def _load(loader, path):
    try:
        return loader(path)
    except ValidationError as exc:
        return exc


def _load_through_config(path):
    # the config route at gamma = 2: a kernel file's times are already in
    # units of 1/gamma, so the file is read unscaled
    bath = {"gamma": 2.0, "kernel_csv": str(path), "time_unit": "seconds"}
    return parse_config({"bath": bath}).bath.make_kernel()


@pytest.mark.parametrize("route", ["loader", "config"])
@pytest.mark.parametrize("name", sorted(KERNEL_FILES))
def test_kernel_csv_matches_reference_loop(tmp_path, name, route):
    # accepted files give the same arrays to the bit; rejected files raise
    # the same ValidationError message
    path = tmp_path / "kernel.csv"
    path.write_bytes(KERNEL_FILES[name].encode("utf-8"))
    ref = _load(_load_kernel_csv_reference, path)
    out = _load(load_kernel_csv if route == "loader" else _load_through_config, path)
    assert type(out) is type(ref)
    if isinstance(ref, ValidationError):
        assert str(out) == str(ref)
    else:
        for a, b in ((out.times, ref.times), (out.values, ref.values)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_kernel_csv_matches_reference_loop_on_a_large_file(tmp_path):
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.001, 0.01, 3000))
    t[0] = 0.0
    v = rng.normal(size=(3000, 2))
    lines = ["time,re,im"]
    for k in range(3000):
        lines.append(f"{t[k]:.17g},{v[k, 0]:.17g}" + (f",{v[k, 1]:.17g}" if k % 3 else ""))
        if k % 500 == 7:
            lines.append("")
    path = tmp_path / "kernel.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    ref = _load_kernel_csv_reference(path)
    out = load_kernel_csv(path)
    assert out.times.tobytes() == ref.times.tobytes()
    assert out.values.tobytes() == ref.values.tobytes()


def test_decay_time():
    assert decay_time(LorentzianKernel(1.0, 0.25)) == 0.25
    ts = np.linspace(0.0, 3.0, 3001)
    k = TabulatedKernel(times=ts, values=np.exp(-ts / 0.5 + 3j * ts))
    assert decay_time(k) == pytest.approx(0.5, rel=1e-6)
    # the crossing between two samples is interpolated linearly in |f|
    k = TabulatedKernel(times=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 0.5, 0.0]))
    assert decay_time(k) == pytest.approx(1.0 + (0.5 - np.exp(-1.0)) / 0.5)
    # |f| that never falls by 1/e on the table, or starts at 0: no time scale
    assert decay_time(TabulatedKernel(times=ts, values=np.exp(-ts / 10.0))) is None
    assert decay_time(TabulatedKernel(times=ts, values=ts * np.exp(-ts))) is None
