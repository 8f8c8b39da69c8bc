"""Bath kernel: closed form values, weight conservation, tabulation."""
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from cpfsim import (
    LorentzianKernel,
    TabulatedKernel,
    eval_kernel_grid,
    load_kernel_csv,
)
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


def test_range_error_prints_both_times_exactly():
    # with %g, a time 1e-10 relative beyond the last sample read as equal to
    # it: "t = 2.2 beyond last sample t_max = 2.2"
    k = TabulatedKernel(times=np.array([0.0, 2.2]), values=np.array([1.0, 0.5]))
    t = 2.2 * (1 + 1e-10)
    with pytest.raises(KernelRangeError) as exc:
        eval_kernel_grid(k, t)
    assert str(exc.value) == f"t = {t!r} beyond last sample t_max = 2.2; refusing to extrapolate"
    printed = re.fullmatch(r"t = (\S+) beyond last sample t_max = (\S+); .*", str(exc.value))
    assert (float(printed[1]), float(printed[2])) == (t, 2.2)


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
    with pytest.raises(ValidationError, match="^times and values must be 1-D arrays of equal"):
        TabulatedKernel([0, 1], [1, 2, 3])


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


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_kernel_csv_unreadable_file_names_path(tmp_path, case):
    path = tmp_path / "kernel.csv"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"t,re\n0,1\n1,\xff\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: cannot read kernel file: "):
        load_kernel_csv(path)


def test_kernel_csv_skips_blank_lines_and_loads_complex_values(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("t,re,im\n\n0.0,1.0,0.0\n  \n1.0,0.5,-0.25\n\n")
    k = load_kernel_csv(path)
    assert k.times.tolist() == [0.0, 1.0]
    assert k.values.tolist() == [1.0 + 0.0j, 0.5 - 0.25j]


# one cell of the grammar: an ASCII decimal, inf or nan literal
_NUMBER = re.compile(
    r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)", re.ASCII | re.IGNORECASE
)


def _reference_cell(cell):
    """A cell's number: whitespace and one pair of quotes stripped; a quote
    opens the cell, and whitespace may follow the closing one."""
    cell = cell.rstrip()
    if len(cell) > 1 and cell[0] == cell[-1] == '"':
        cell = cell[1:-1]
    cell = cell.strip()
    return float(cell) if _NUMBER.fullmatch(cell) else None


def _load_kernel_csv_reference(path):
    """The kernel-file grammar line by line, kept as the reference the
    loader, one np.loadtxt call, is checked against."""
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: cannot read kernel file: {exc}") from exc
    lines = list(enumerate(re.split("\r\n|\r|\n", text), 1))
    for ln, line in lines:
        if line.count('"') % 2:
            raise ValidationError(f"{path}:{ln}: quote not closed on its line")
    # (physical line number, line) of the non-blank lines
    lines = [(ln, line) for ln, line in lines if line.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty kernel file")
    ln, header = lines[0]
    if _reference_cell(header.split(",")[0]) is not None:
        raise ValidationError(f"{path}:{ln}: header row required, found numeric first row")
    rows = lines[1:]
    times, values = [], []
    for ln, line in rows:
        row = line.split(",")
        if len(row) not in (2, 3):
            raise ValidationError(f"{path}:{ln}: expected 2 or 3 columns, got {len(row)}")
        width, first = len(rows[0][1].split(",")), rows[0][0]
        if len(row) != width:
            raise ValidationError(
                f"{path}:{ln}: expected {width} columns as on line {first}, got {len(row)}"
            )
        numbers = []
        for cell in row:
            x = _reference_cell(cell)
            if x is None:
                raise ValidationError(f"{path}:{ln}: could not convert string to float: {cell!r}")
            if x != x or x in (float("inf"), float("-inf")):
                raise ValidationError(f"{path}:{ln}: kernel samples must be finite, got {cell!r}")
            numbers.append(x)
        t, re_, im = numbers if len(numbers) == 3 else numbers + [0.0]
        times.append(t)
        values.append(re_ + 1j * im)
    if len(rows) < 2:
        raise ValidationError(f"{path}: tabulated kernel needs at least 2 samples, got {len(rows)}")
    for (ln, _), t, before in zip(rows, times, [None, *times]):
        if t != 0 if before is None else t <= before:
            raise ValidationError(f"{path}:{ln}: times must ascend strictly from 0, got {t}")
    return TabulatedKernel(times=np.array(times), values=np.array(values))


# name: (file text, None where it loads, else its error after the path)
KERNEL_FILES = {
    "two-columns": ("t,re\n0,1\n0.5,0.25\n1,-0.5\n", None),
    "three-columns": ("t,re,im\n0,1,0\n0.5,0.25,-0.125\n1,-0.5,-0.0\n", None),
    "blank-lines": ("\n\nt,re\n\n0,1\n  \n \t\n0.5,0.5\n\x0c\n1,0\n\n", None),
    "crlf": ("t,re,im\r\n0,1,0\r\n\r\n0.5,0.5,0.1\r\n1,0,0\r\n", None),
    "cr-only": ("t,re\r0,1\r0.5,0.5\r1,0", None),
    "mixed-line-ends": ("t,re\r\n0,1\r0.5,0.5\n\r\n1,0\r", None),
    "padded-cells": ("t , re , im\n 0 ,1 , 0\n\t0.5,\t 0.5 ,0.25 \n1 , 0,-1e-3\n", None),
    "quoted-cells": ('"t","re"\n"0","1.5"\n"0.5",0.25\n1,"-0.0"\n', None),
    "padded-quoted-cells": ('t,re\n" 0 " ,1\n"0.5"\t,"\t0.5"\n1,0\n', None),
    "float-syntax": ("t,re,im\n0,+1.5E0,-0\n0.5,1000.5,.5\n1,5.,1e-310\n", None),
    "no-final-newline": ("t,re\n0,1\n1,0.5", None),
    "uniform-blank-before-header": ("\nt,re\n0,1\n1,0.5\n", None),
    "uniform-signed-zeros": ("t,re\n0,-0.0\n1,-0\n", None),
    "header-not-a-number": ("1_000,re\n0,1\n1,0.5\n", None),
    "header-only": ("t,re\n", ": tabulated kernel needs at least 2 samples, got 0"),
    "one-row": ("t,re\n0,1\n", ": tabulated kernel needs at least 2 samples, got 1"),
    "non-finite": ("t,re\n0,1\n1,nan\n", ":3: kernel samples must be finite, got 'nan'"),
    # 1j * inf once warned and named neither file nor line; the suite turns
    # RuntimeWarning into an error
    "inf-imaginary": ("t,re,im\n0,1,0\n1,0.5,inf", ":3: kernel samples must be finite, got 'inf'"),
    "inf-time": ("t,re\n0,1\n\n-inf,0\n", ":4: kernel samples must be finite, got '-inf'"),
    "overflow-real": ("t,re\n0,1\n1,1e999\n", ":3: kernel samples must be finite, got '1e999'"),
    "numeric-header": ("0,1\n1,2\n", ":1: header row required, found numeric first row"),
    "quoted-numeric-header": (
        '\n"0","1"\n1,2\n2,3\n',
        ":2: header row required, found numeric first row",
    ),
    "empty": ("\n \n", ": empty kernel file"),
    "ragged-then-bad-float": (
        "t,re\n0,1\n1,x\n2,1,2,3\n",
        ":3: could not convert string to float: 'x'",
    ),
    "bad-float-then-ragged": ("t,re\n0,1\n1,2,3,4\n2,x\n", ":3: expected 2 or 3 columns, got 4"),
    "bad-time": ("t,re,im\n0,1,0\nzero,1,0\n", ":3: could not convert string to float: 'zero'"),
    "one-cell-after-blank": ("t,re\n\n\n0,1\n7\n", ":5: expected 2 or 3 columns, got 1"),
    # times out of order: the line of the first such time, blank lines counted
    "late-start": ("t,re\n\n0.1,1\n1,0.5\n", ":3: times must ascend strictly from 0, got 0.1"),
    "repeated-time": (
        "t,re\n0,1\n0.5,0.5\n0.5,0.25\n",
        ":4: times must ascend strictly from 0, got 0.5",
    ),
    "descending-time": (
        "t,re,im\n0,1,0\n2,1,0\n1,1,0\n",
        ":4: times must ascend strictly from 0, got 1.0",
    ),
    # a malformed row later in the file is named before an earlier time
    "late-start-then-bad-float": ("t,re\n1,1\n2,x\n", ":3: could not convert string to float: 'x'"),
    "empty-cell": ("t,re\n0,1\n1,\n", ":3: could not convert string to float: ''"),
    "comma-only-row": ("t,re\n0,1\n  ,\n1,2\n", ":3: could not convert string to float: '  '"),
    "hash-data-row": ("t,re\n0,1\n#0.5,2\n1,3\n", ":3: could not convert string to float: '#0.5'"),
    "uniform-one-column": ("t\n0\n1\n2\n", ":2: expected 2 or 3 columns, got 1"),
    "uniform-four-columns": ("t,re,im,x\n0,1,0,9\n1,2,3,4\n", ":2: expected 2 or 3 columns, got 4"),
    "cr-only-bad-row": ("t,re\r0,1\r\r1,x\r", ":4: could not convert string to float: 'x'"),
    "unclosed-quote-in-header": ('"t,re\n0,1\n1,0.5\n', ":1: quote not closed on its line"),
    "space-before-quote": (
        't,re\n0,1\n "1",2\n',
        ":3: could not convert string to float: ' \"1\"'",
    ),
    # forms only the former csv path took: refused by line, never misread
    "mixed-columns": (
        "t,re,im\n0,1\n0.5,0.25,-0.0\n1,-0.5\n",
        ":3: expected 2 columns as on line 2, got 3",
    ),
    "underscore-digits": (
        "t,re\n0,1\n0.5,1_000.5\n1,0\n",
        ":3: could not convert string to float: '1_000.5'",
    ),
    "non-ascii-digits": ("t,re\n0,1\n0.5,١\n1,0\n", ":3: could not convert string to float: '١'"),
    # NumPy's reader would join these lines into the one row 1,2,3
    "quote-spans-lines": ('t,re\n0,1\n"1\n2",3\n4,5\n', ":3: quote not closed on its line"),
    "quote-open-at-end": ('t,re\n0,1\n1,"2', ":3: quote not closed on its line"),
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


def _assert_same_load(out, ref):
    """The same ValidationError message, or the same arrays to the bit."""
    assert type(out) is type(ref)
    if isinstance(ref, ValidationError):
        assert str(out) == str(ref)
    else:
        for a, b in ((out.times, ref.times), (out.values, ref.values)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("route", ["loader", "config"])
@pytest.mark.parametrize("name", sorted(KERNEL_FILES))
def test_kernel_csv_matches_reference_loop(tmp_path, name, route):
    text, error = KERNEL_FILES[name]
    path = tmp_path / "kernel.csv"
    path.write_bytes(text.encode("utf-8"))
    ref = _load(_load_kernel_csv_reference, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # such as loadtxt's on a file without data
        out = _load(load_kernel_csv if route == "loader" else _load_through_config, path)
    assert str(out) == f"{path}{error}" if error else isinstance(out, TabulatedKernel)
    _assert_same_load(out, ref)


def _random_kernel_file(rng):
    """A small kernel file mixing line ends, blank lines, padding, quotes and
    now and then a malformed header, row or cell."""

    def pick(options):
        return options[rng.integers(len(options))]

    def cell(x):
        if rng.random() < 0.01:
            return pick(["", "x", "1_000.5", "١", "0x1p3", "1e", '"1', ' "1"', "#1", '"1"x'])
        text = pick(["{:.17g}", "{:g}", "{:.3e}", "{:+.2f}"]).format(x)
        if rng.random() < 0.005:
            text = pick(["inf", "-Infinity", "nan", "1e999"])
        pad = lambda: pick(["", "", " ", "\t", "  "])  # noqa: E731
        if rng.random() < 0.2:
            return f'"{pad()}{text}{pad()}"{pad()}'
        return f"{pad()}{text}{pad()}"

    width = pick([2, 3])
    header = ["t,re,im", '"t","re"', " time , f", "t,re,im,", "t"] * 4 + ['"t,"re"', "0,1", '"0",1']
    lines = [pick(header)]
    for k in range(rng.integers(0, 12)):
        n = width if rng.random() > 0.04 else pick([1, 2, 3, 4])
        t = k if rng.random() > 0.05 else 0.5
        lines.append(",".join(cell(x) for x in [t, *rng.normal(size=n - 1)]))
    for _ in range(rng.integers(0, 3)):
        lines.insert(rng.integers(len(lines) + 1), pick(["", " ", "\t", " \t "]))
    ends = [pick(["\n", "\r\n", "\r"]) for _ in lines]
    if rng.random() < 0.5:
        ends = [ends[0]] * len(lines)
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def test_kernel_csv_matches_reference_loop_on_random_files(tmp_path):
    rng = np.random.default_rng(25)
    path = tmp_path / "kernel.csv"
    loaded = 0
    for _ in range(3000):
        text = _random_kernel_file(rng)
        path.write_bytes(text.encode("utf-8"))
        ref = _load(_load_kernel_csv_reference, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _load(load_kernel_csv, path)
        _assert_same_load(out, ref)
        loaded += isinstance(out, TabulatedKernel)
    assert 500 < loaded < 2500  # both outcomes are exercised


@pytest.mark.parametrize("uniform", [False, True], ids=["mixed-widths", "uniform-widths"])
def test_kernel_csv_matches_reference_loop_on_a_large_file(tmp_path, uniform):
    # uniform rows of %.17g values with CRLF ends and blank lines load to the
    # bit; the same rows with every third imaginary part left out are refused
    # at the first 3-cell row
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.001, 0.01, 3000))
    t[0] = 0.0
    v = rng.normal(size=(3000, 2))
    lines = ["time,re,im"]
    for k in range(3000):
        im = f",{v[k, 1]:.17g}" if uniform or k % 3 else ""
        lines.append(f"{t[k]:.17g},{v[k, 0]:.17g}{im}")
        if k % 500 == 7:
            lines.append("")
    path = tmp_path / "kernel.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    out = _load(load_kernel_csv, path)
    _assert_same_load(out, _load(_load_kernel_csv_reference, path))
    assert isinstance(out, TabulatedKernel) if uniform else (
        str(out) == f"{path}:3: expected 2 columns as on line 2, got 3"
    )


def test_decay_time():
    assert LorentzianKernel(1.0, 0.25).decay_time() == 0.25
    ts = np.linspace(0.0, 3.0, 3001)
    k = TabulatedKernel(times=ts, values=np.exp(-ts / 0.5 + 3j * ts))
    assert k.decay_time() == pytest.approx(0.5, rel=1e-6)
    # the crossing between two samples is interpolated linearly in |f|
    k = TabulatedKernel(times=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 0.5, 0.0]))
    assert k.decay_time() == pytest.approx(1.0 + (0.5 - np.exp(-1.0)) / 0.5)
    # |f| that never falls by 1/e on the table, or starts at 0: no time scale
    assert TabulatedKernel(times=ts, values=np.exp(-ts / 10.0)).decay_time() is None
    assert TabulatedKernel(times=ts, values=ts * np.exp(-ts)).decay_time() is None
