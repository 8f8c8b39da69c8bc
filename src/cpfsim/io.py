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
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import __version__


# Rows are formatted and written this many at a time: large enough that the
# per-block overhead vanishes, small enough that the formatted strings of a
# block stay a few MB (formatting a whole sweep at once grows peak RSS by
# two thirds).
_BLOCK_ROWS = 4096


def format_value(v) -> str:
    """The text of one cell. This is the definition of the dataset bytes;
    the column fast paths of :func:`write_dataset` must match it."""
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


def _format_column(column: Sequence[object]) -> Sequence[str]:
    """``format_value`` of every cell of one column. Columns of one exact
    type take a fast path with the same bytes: '%.12g' prints NaN of either
    sign as 'nan', exactly as ``format_value`` does."""
    types = set(map(type, column))
    if types == {float}:
        return ["%.12g" % v for v in column]
    if types == {str}:
        return column
    if types == {int}:
        return [str(v) for v in column]
    return [format_value(v) for v in column]


def write_dataset(
    path: Union[str, Path],
    fieldnames: Sequence[str],
    rows: Iterable[Sequence[object]],
    config_echo: Mapping[str, object],
    comments: Sequence[str] = (),
) -> Path:
    """Write ``rows``, each a sequence of values in ``fieldnames`` order,
    below the version and config-echo header and one '# ' line per entry
    of ``comments``. Cells are formatted a column at a time, in blocks of
    rows. A row whose length is not ``len(fieldnames)`` raises
    ``ValueError`` and leaves the file incomplete."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = len(fieldnames)
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
        rows = iter(rows)
        start = 0
        while block := list(islice(rows, _BLOCK_ROWS)):
            if set(map(len, block)) != {width}:
                k = next(k for k, row in enumerate(block) if len(row) != width)
                raise ValueError(
                    f"data row {start + k} has {len(block[k])} values, expected {width}"
                )
            columns = [_format_column(column) for column in zip(*block)]
            writer.writerows(zip(*columns))
            start += len(block)
    return path
