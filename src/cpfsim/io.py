"""Deterministic CSV output.

Every dataset starts with a comment header block carrying the package
version, the run's parsed config as one sorted-keys JSON line and any
further deterministic run facts, such as the RNG contract, so a rerun with
an identical config is byte-identical. Dialect: comma separator,
'.' decimal point, one header row, UTF-8, LF line endings.

``format_value`` defines the text of each cell, and no cell is quoted: a
text cell holding ',', '"', CR or LF is refused. ``write_dataset`` writes
every cell through printf: each block becomes one printf row template, and
each chunk of ``_BLOCK_ROWS`` rows is written by one printf of that template
repeated once per row. A column given as a (values, index) pair, such as
the time columns of a 2-D sweep, has each of its values formatted once.
"""
from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import Union

import numpy as np

from . import __version__


# Rows are formatted and written this many at a time: large enough that the
# per-chunk overhead vanishes, small enough that the formatted strings of a
# chunk stay a few MB (formatting a whole sweep at once grows peak RSS by
# two thirds).
_BLOCK_ROWS = 4096


def format_value(v) -> str:
    """The text of one cell, never quoted: ``v`` is None, text without ',',
    '"', CR or LF, an integer (not a bool) or a float, else ``ValueError``.
    This is the definition of the dataset bytes; the column fast paths of
    :func:`write_dataset` must match it."""
    if v is None:
        return ""
    if isinstance(v, str):
        if any(c in v for c in ',"\r\n'):
            raise ValueError(f"text {v!r} holds ',', '\"', CR or LF")
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    raise ValueError(f"a scalar must be None, text, an integer or a float, got {type(v).__name__}")


def _column(where: str, entry):
    """(printf conversion, function of (start, stop) that gives its
    arguments for rows [start, stop), number of rows) of a column entry."""
    if isinstance(entry, tuple):
        values, rows = entry if len(entry) == 2 else (None, None)
        if not (isinstance(values, np.ndarray) and isinstance(rows, np.ndarray)
                and values.dtype == np.float64 and rows.dtype.kind in "iu"
                and values.ndim == rows.ndim == 1):
            raise ValueError(f"{where}: a pair must be a 1-D float64 and a 1-D integer array")
        # NumPy would read a negative index from the end
        if rows.size and (rows.min() < 0 or rows.max() >= values.size):
            bad = rows.min() if rows.min() < 0 else rows.max()
            raise ValueError(f"{where}: index {bad} outside [0, {values.size})")
        # each value formatted once
        texts = np.array(["%.12g" % v for v in values.tolist()], dtype=object)
        return "%s", lambda start, stop: texts[rows[start:stop]].tolist(), rows.size
    if not isinstance(entry, np.ndarray) or entry.dtype.kind not in "fiu":
        got = f"dtype {entry.dtype}" if isinstance(entry, np.ndarray) else type(entry).__name__
        raise ValueError(f"{where}: a column must be a float or integer NumPy array, got {got}")
    if entry.ndim != 1:
        raise ValueError(f"{where}: a column must be 1-D")
    # format_value's text of the Python floats or ints of tolist
    conversion = "%.12g" if entry.dtype.kind == "f" else "%d"
    return conversion, lambda start, stop: entry[start:stop].tolist(), len(entry)


def _block_layout(index: int, block: Sequence, fieldnames: Sequence[str]):
    """(row template, rows, columns) of one block. A scalar entry is baked
    into the template; each column adds one conversion to it and one
    function of (start, stop) to ``columns`` that gives the arguments of
    that conversion for rows [start, stop)."""
    if len(block) != len(fieldnames):
        unmatched = (
            f"none for field {fieldnames[len(block)]!r}"
            if len(block) < len(fieldnames)
            else f"{len(block) - len(fieldnames)} beyond the last field"
        )
        raise ValueError(
            f"block {index} has {len(block)} entries for {len(fieldnames)} fields: {unmatched}"
        )
    parts, columns, n_rows = [], [], None
    for name, entry in zip(fieldnames, block):
        where = f"block {index} field {name!r}"
        if not isinstance(entry, (np.ndarray, Sequence)) or isinstance(entry, (str, bytes)):
            try:
                parts.append(format_value(entry).replace("%", "%%"))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            continue
        conversion, column, length = _column(where, entry)
        if n_rows is None:
            n_rows = length
        elif length != n_rows:
            raise ValueError(f"{where} has {length} values, expected {n_rows}")
        parts.append(conversion)
        columns.append(column)
    if n_rows is None:
        raise ValueError(f"block {index} has no column entry to set its number of rows")
    return ",".join(parts) + "\n", n_rows, columns


def write_dataset(
    path: Union[str, Path],
    fieldnames: Sequence[str],
    blocks: Iterable[Sequence[object]],
    config_echo: Mapping[str, object],
    comments: Sequence[str] = (),
) -> Path:
    """Write ``blocks`` below the version and config-echo header and one
    '# ' line per entry of ``comments``.

    Each block has one entry per field, in ``fieldnames`` order: a scalar,
    written in every row of the block, or a column: a 1-D float or integer
    NumPy array with one value per row, or a (values, index) pair of a 1-D
    float64 array and a 1-D integer array of indices into it, which stands
    for the column ``values[index]``. The columns of a block have one
    length, and a block has at least one. A block that breaks this, or has
    an array of another dtype, a list, a tuple that is not such a pair or
    an index out of range as an entry, raises ``ValueError`` naming the
    block and the field, and so does a scalar that ``format_value`` refuses
    (a bool, a complex number, any other object) or whose text holds ',',
    '"', CR or LF. Cells are the text of ``format_value``, never quoted,
    and the header row is the field names joined by ','.

    The file is written to a temporary file beside ``path`` and renamed
    onto ``path`` only when complete: on any error the temporary file is
    removed and a file already at ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            _write(fh, fieldnames, blocks, config_echo, comments)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write(fh, fieldnames, blocks, config_echo, comments) -> None:
    fh.write(f"# cpfsim {__version__}\n")
    fh.write(
        "# config "
        + json.dumps(config_echo, sort_keys=True, separators=(",", ":"))
        + "\n"
    )
    fh.writelines(f"# {line}\n" for line in comments)
    fh.write(",".join(fieldnames) + "\n")
    for index, block in enumerate(blocks):
        template, n_rows, columns = _block_layout(index, block, fieldnames)
        width = len(columns)
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            # the chunk's cells in row-major order, for one printf of the
            # template repeated once per row
            cells = [None] * ((stop - start) * width)
            for k, column in enumerate(columns):
                cells[k::width] = column(start, stop)
            fh.write((template * (stop - start)) % tuple(cells))
