"""Deterministic CSV output.

Every dataset starts with a comment header block carrying the package
version, a canonical (sorted-keys) echo of the generating config and any
further deterministic run facts, such as the RNG contract, so a rerun with
an identical config is byte-identical. Dialect: comma separator,
'.' decimal point, one header row, UTF-8, LF line endings.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import __version__
from .propagator import PropagatorGrid, TwoTimeGrid


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "nan" if np.isnan(v) else f"{float(v):.12g}"
    return str(v)


def write_dataset(
    path: Union[str, Path],
    fieldnames: Sequence[str],
    rows: Iterable[Sequence[object]],
    config_echo: Mapping[str, object],
    comments: Sequence[str] = (),
) -> Path:
    """Write ``rows``, each a sequence of values in ``fieldnames`` order,
    below the version and config-echo header and one '# ' line per entry
    of ``comments``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# cpfsim {__version__}\n")
        fh.write(
            "# config "
            + json.dumps(config_echo, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow(map(format_value, row))
    return path


def write_propagator_csv(grid: PropagatorGrid, path: Union[str, Path]) -> Path:
    """Long-format export: t, re, im."""
    rows = ((t, v.real, v.imag) for t, v in zip(grid.times, grid.values))
    return write_dataset(path, ["t", "re", "im"], rows, {"t_step": grid.t_step})


def write_two_time_csv(grid: TwoTimeGrid, path: Union[str, Path]) -> Path:
    """Long-format export: t, tau, re, im."""

    def rows():
        for i, t in enumerate(grid.t_times):
            for j, tau in enumerate(grid.tau_times):
                v = grid.values[i, j]
                yield t, tau, v.real, v.imag

    return write_dataset(
        path,
        ["t", "tau", "re", "im"],
        rows(),
        {"t_step": grid.t_step, "tau_step": grid.tau_step},
    )


def write_joint_csv(
    joint: Mapping[tuple[int, int, int], float], path: Union[str, Path]
) -> Path:
    """Audit export of an enumerated joint distribution: x, y, z, probability."""
    rows = ((x, y, z, p) for (x, y, z), p in sorted(joint.items(), reverse=True))
    return write_dataset(path, ["x", "y", "z", "probability"], rows, {})
