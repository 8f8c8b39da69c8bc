"""Bath kernel: closed form values, weight conservation, tabulation."""
import re

import numpy as np
import pytest
from scipy.integrate import quad

from cpfsim import (
    LorentzianKernel,
    TabulatedKernel,
    eval_kernel,
    eval_kernel_grid,
    load_kernel_csv,
    markovian_limit_kernel,
)
from cpfsim.errors import KernelRangeError, ValidationError

# Oracle: mpmath.mp.dps=30 gives 2*exp(-1) = 0.735758882342884643...
TWO_OVER_E = 0.7357588823428846


def test_lorentzian_at_zero_is_half_gamma_over_tau_c():
    assert eval_kernel(LorentzianKernel(1.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_kernel(LorentzianKernel(3.0, 0.5), 0.0) == pytest.approx(3.0, abs=1e-14)


def test_lorentzian_decays_to_zero():
    assert abs(eval_kernel(LorentzianKernel(1.0, 1.0), 80.0)) < 1e-30


def test_lorentzian_frozen_value():
    # gamma=2, tau_c=0.5, t=0.5: (gamma/2 tau_c) e^{-t/tau_c} = 2 e^{-1}
    assert eval_kernel(LorentzianKernel(2.0, 0.5), 0.5) == pytest.approx(
        TWO_OVER_E, abs=1e-15
    )


def test_lorentzian_accepts_negative_t_via_abs():
    k = LorentzianKernel(1.0, 2.0)
    assert eval_kernel(k, -1.5) == eval_kernel(k, 1.5)


def test_lorentzian_integrated_weight_is_half_gamma():
    # independent quadrature oracle for the integral of f over [0, inf)
    for gamma, tau_c in [(1.0, 1.0), (0.3, 2.0), (2.0, 0.25)]:
        k = LorentzianKernel(gamma, tau_c)
        weight, _ = quad(lambda t: eval_kernel(k, t).real, 0, np.inf)
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


def test_markovian_limit_kernel():
    k = markovian_limit_kernel(1.0, 1.0, 0.01)
    assert k == LorentzianKernel(1.0, 0.01)
    assert markovian_limit_kernel(1.0, 1.0, 1.0) == LorentzianKernel(1.0, 1.0)
    with pytest.raises(ValidationError):
        markovian_limit_kernel(1.0, 1.0, 0.0)


def test_markovian_limit_preserves_weight():
    for eps in (1.0, 0.1, 0.01):
        k = markovian_limit_kernel(1.0, 1.0, eps)
        weight, _ = quad(lambda t: eval_kernel(k, t).real, 0, np.inf)
        assert weight == pytest.approx(0.5, rel=1e-8)


def test_tabulated_interpolates_linearly():
    k = TabulatedKernel(times=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 3.0, 3.0]))
    assert eval_kernel(k, 0.5) == pytest.approx(2.0)
    assert eval_kernel(k, 1.5) == pytest.approx(3.0)


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
        eval_kernel(k, 1.0001)
    with pytest.raises(KernelRangeError):
        eval_kernel(k, -0.1)


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
    assert eval_kernel(k, 1.0) == pytest.approx(0.5 - 0.25j)
    # two-column form
    path2 = tmp_path / "kernel2.csv"
    path2.write_text("t,re\n0.0,1.0\n2.0,0.0\n")
    assert eval_kernel(load_kernel_csv(path2), 1.0) == pytest.approx(0.5)


def test_kernel_csv_time_scale(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("t_in_inverse_gamma,re\n0.0,1.0\n1.0,0.5\n")
    k = load_kernel_csv(path, time_scale=2.0)  # gamma = 0.5
    assert k.t_max == pytest.approx(2.0)


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


def test_kernel_csv_skips_blank_lines_and_loads_complex_values(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("t,re,im\n\n0.0,1.0,0.0\n  ,\n1.0,0.5,-0.25\n\n")
    k = load_kernel_csv(path)
    assert k.times.tolist() == [0.0, 1.0]
    assert k.values.tolist() == [1.0 + 0.0j, 0.5 - 0.25j]
