"""The column-wise CSV writer writes the bytes of the per-cell reference."""
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cpfsim import __version__
from cpfsim import io
from cpfsim.io import format_value, write_dataset

FIELDS = ["mixed", "text", "flag", "count", "x", "y"]
ECHO = {"grid": {"points": 3}, "bath": {"gamma": 1.0}}
SPECIALS = [float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16]


def _write_dataset_reference(path, fieldnames, rows, config_echo, comments=()):
    """The per-row loop the column-wise writer replaced: one ``format_value``
    call per cell."""
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


def _mixed_rows():
    """Every cell type a runner writes, mixed within columns and alone."""
    mixed = [None, "s", True, np.int64(3), np.float64("nan"), -0.0]
    texts = ["zzz", "a,b", 'say "hi"', "two\nlines", ""]
    flags = [True, False, np.bool_(True), np.bool_(False), None]
    counts = [0, -7, np.int64(2**62), 10**20, np.int32(-3)]
    xs = [0.1, *SPECIALS, np.float64(2.5), np.float64("nan"), 1 / 3]
    rows = []
    for k, x in enumerate(xs):
        rows.append((
            mixed[k % 6], texts[k % 5], flags[k % 5], counts[k % 5], x, float(np.float64(x)) * 2,
        ))
    return rows


def _assert_same_bytes(tmp_path, fieldnames, rows, comments=()):
    rows = list(rows)
    new = write_dataset(tmp_path / "new.csv", fieldnames, iter(rows), ECHO, comments)
    ref = _write_dataset_reference(tmp_path / "ref.csv", fieldnames, rows, ECHO, comments)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_bytes()


class TestSameBytes:
    def test_mixed_columns(self, tmp_path):
        data = _assert_same_bytes(tmp_path, FIELDS, _mixed_rows())
        assert b'"a,b"' in data and b'"say ""hi"""' in data and b'"two\nlines"' in data

    def test_uniform_columns(self, tmp_path):
        # one exact type per column: the str, int and float fast paths, and
        # np.float64 columns, which take the per-cell path
        rng = np.random.default_rng(5)
        xs = rng.normal(size=50).tolist()
        rows = [
            ("xzx", k, x, np.float64(x), x if k % 2 else np.float64(x), None)
            for k, x in enumerate(xs)
        ]
        _assert_same_bytes(tmp_path, FIELDS, rows)

    def test_header_only(self, tmp_path):
        data = _assert_same_bytes(tmp_path, FIELDS, [])
        assert data.decode().splitlines()[-1] == ",".join(FIELDS)

    def test_generator_rows_and_comments(self, tmp_path):
        rows = (("s", k, k / 7, None, True, float(k)) for k in range(20))
        data = _assert_same_bytes(tmp_path, FIELDS, rows, comments=["rng v2 per-point-block"])
        assert b"\n# rng v2 per-point-block\n" in data

    @pytest.mark.parametrize("n_rows", [1, 3, 4, 7, 9, 10])
    def test_rows_span_blocks(self, tmp_path, monkeypatch, n_rows):
        # block edges inside and at the end of the data, and a column whose
        # type changes from one block to the next
        monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
        rows = (_mixed_rows() * 2)[:n_rows]
        rows = [(*row[:5], k if k >= 4 else float(k)) for k, row in enumerate(rows)]
        _assert_same_bytes(tmp_path, FIELDS, rows)

    def test_float_fast_path_matches_format_value(self):
        bits = np.random.default_rng(8).integers(0, 2**64, size=10**5, dtype=np.uint64)
        values = [*bits.view(np.float64).tolist(), *SPECIALS]
        assert ["%.12g" % v for v in values] == [format_value(v) for v in values]
        assert io._format_column(values) == [format_value(v) for v in values]


class TestRaggedRows:
    @pytest.mark.parametrize("bad", [("a", 1), ("a", 1, 2.0, None, True, 0.5, "extra")])
    def test_wrong_length_raises(self, tmp_path, monkeypatch, bad):
        monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
        good = ("a", 1, 2.0, None, True, 0.5)
        rows = [good] * 4 + [bad, good]
        msg = f"data row 4 has {len(bad)} values, expected 6"
        with pytest.raises(ValueError, match=msg):
            write_dataset(tmp_path / "out.csv", FIELDS, rows, ECHO)
