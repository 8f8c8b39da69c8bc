"""Deterministic CSV output.

Every dataset starts with a comment header block carrying the package
version, the run's parsed config as one sorted-keys JSON line and any
further deterministic run facts, such as the RNG contract, so a rerun with
an identical config is byte-identical. Dialect: comma separator,
'.' decimal point, one header row, UTF-8, LF line endings.

``format_value`` defines the text of each cell. ``write_dataset`` writes the
same bytes faster: each block becomes one printf row template, and each
chunk of ``_BLOCK_ROWS`` rows is written by one printf of that template
repeated once per row. A float64 column of at least one chunk in which at
most half of the rows are distinct, such as the time columns of a 2-D
sweep, has each distinct value formatted once, and once per file when
several blocks hold the same column object.
"""
from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable, Mapping, Sequence
from io import StringIO
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


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in one cell of a row of several
    fields. The csv module of the running Python decides the quoting, whose
    rules differ between versions (3.11 leaves a bare '\\r' unquoted)."""
    buf = StringIO()
    # a second, empty field keeps an empty text from being quoted
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _repeated_floats(column):
    """For a float64 array column of at least one chunk of rows, of which at
    most half are distinct, a function of (start, stop) that gives rows
    [start, stop) as their '%.12g' text, each distinct value formatted
    once; otherwise None. Values are told apart by their bits, so -0.0 and
    0.0 (and NaNs of either sign or any payload) keep the text of their own
    value. Float text needs no csv quoting."""
    # a shorter column saves less than the sort costs; and a run that sorts
    # nothing never maps NumPy's sort code, 0.2-0.4 MB of peak RSS on an
    # appendix-d run, whose columns are 101 rows long
    if not (
        isinstance(column, np.ndarray)
        and column.dtype == np.float64
        and len(column) >= _BLOCK_ROWS
    ):
        return None
    bits = column.view(np.uint64)
    ordered = np.sort(bits)
    starts = ordered[1:] != ordered[:-1]
    if 2 * (1 + np.count_nonzero(starts)) > bits.size:
        return None
    distinct = np.concatenate((ordered[:1], ordered[1:][starts]))
    texts = np.array(["%.12g" % v for v in distinct.view(np.float64).tolist()], dtype=object)
    # the rows' indices into texts are found per chunk, so that no array of
    # the column's length outlives this call
    return lambda start, stop: texts[np.searchsorted(distinct, bits[start:stop])].tolist()


def _block_layout(index: int, block: Sequence, fieldnames: Sequence[str], cache: dict):
    """(row template, rows, columns) of one block. A scalar entry is baked
    into the template; each column adds one conversion to it and one
    function of (start, stop) to ``columns`` that gives the arguments of
    that conversion for rows [start, stop). ``cache`` maps the id of each
    column seen so far in the file to (column, its ``_repeated_floats``)."""
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
        if not isinstance(entry, (np.ndarray, Sequence)) or isinstance(entry, (str, bytes)):
            parts.append(_csv_cell(format_value(entry)).replace("%", "%%"))
            continue
        if not isinstance(entry, np.ndarray) or entry.dtype.kind not in "fiu":
            got = f"dtype {entry.dtype}" if isinstance(entry, np.ndarray) else type(entry).__name__
            raise ValueError(
                f"block {index} field {name!r}: a column must be a float or integer "
                f"NumPy array, got {got}"
            )
        if entry.ndim != 1:
            raise ValueError(f"block {index} field {name!r}: a column must be 1-D")
        if n_rows is None:
            n_rows = len(entry)
        elif len(entry) != n_rows:
            raise ValueError(
                f"block {index} field {name!r} has {len(entry)} values, expected {n_rows}"
            )
        # blocks may share a column object, as the scheme blocks of a sweep
        # share its time columns: each one is sorted once. The cache holds
        # the column, so that its id is not reused while the cache lives.
        if id(entry) not in cache:
            cache[id(entry)] = (entry, _repeated_floats(entry))
        repeated = cache[id(entry)][1]
        if repeated is None:
            # format_value's text of the Python floats or ints of tolist
            parts.append("%.12g" if entry.dtype.kind == "f" else "%d")
            columns.append(lambda start, stop, entry=entry: entry[start:stop].tolist())
        else:
            parts.append("%s")
            columns.append(repeated)
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
    NumPy array with one value per row. The columns of a block have one
    length, and a block has at least one. A block that breaks this, or has
    an array of another dtype, a list or a tuple as an entry, raises
    ``ValueError`` naming the block and the field. Cells are the text of
    ``format_value``, a scalar's quoted as ``csv.writer`` quotes it.

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
    csv.writer(fh, lineterminator="\n").writerow(fieldnames)
    cache = {}
    for index, block in enumerate(blocks):
        template, n_rows, columns = _block_layout(index, block, fieldnames, cache)
        width = len(columns)
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            # the chunk's cells in row-major order, for one printf of the
            # template repeated once per row
            cells = [None] * ((stop - start) * width)
            for k, column in enumerate(columns):
                cells[k::width] = column(start, stop)
            fh.write((template * (stop - start)) % tuple(cells))
