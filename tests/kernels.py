"""The writers of the generated kernel files that configs in tests/configs
read, one per file. The tests call them, and so does the CI bytes report,
whose job installs NumPy only: besides the standard library, this module
imports NumPy alone.

Each writes its file into ``directory`` under the name its config reads, as
``t,re`` rows of 17 significant digits, and returns the file's path.
"""
from pathlib import Path

import numpy as np


def _write(path: Path, t: np.ndarray, f: np.ndarray) -> Path:
    path.write_text("t,re\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, f)))
    return path


def exact_coverage_kernel(directory, samples=221) -> Path:
    """tests/configs/exact_coverage.json's kernel: f = e^{-t} / 2 sampled every
    0.01 from t = 0, 221 samples up to t = 2.2, the last time that config's
    solve reaches; ``samples=220`` ends one sample short of it."""
    t = np.arange(samples) * 0.01
    return _write(Path(directory) / "exact_coverage_kernel.csv", t, np.exp(-t) / 2)


def markov_limit_kernel(directory, tau_c=0.01) -> Path:
    """tests/configs/tabulated_markov_limit.json's kernel: the gamma = 1
    Lorentzian at gamma tau_c = ``tau_c``, sampled every tau_c / 10 up to
    t = 10.5."""
    t = np.arange(round(105 / tau_c) + 1) * (tau_c / 10)
    return _write(Path(directory) / "markov_limit_kernel.csv", t, 0.5 / tau_c * np.exp(-t / tau_c))
