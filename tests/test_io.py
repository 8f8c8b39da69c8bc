"""The block CSV writer writes the bytes of the per-cell reference, and
refuses every scalar that would need quoting or has no text of its own."""
import csv
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpfsim import __version__
from cpfsim import io, runs
from cpfsim.config import load_config
from cpfsim.io import format_value, write_dataset

FIELDS = ["mixed", "text", "flag", "count", "x", "y"]
ECHO = {"grid": {"points": 3}, "bath": {"gamma": 1.0}}
SPECIALS = [float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16]
SWEEP_GRID = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "sweep_grid.json"
# values that compare equal but print apart (0.0, -0.0), NaNs of both signs
# and with a payload, which all print 'nan', and the extremes
NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
REPEATED = [0.0, -0.0, float("nan"), -float("nan"), NAN_PAYLOAD, float("inf"), -float("inf"),
            5e-324, -5e-324, 0.1, 1 / 3, 1e16]
# every scalar type a cell takes, and text that a printf template must escape
SCALARS = [
    None, 0, -7, 10**20, np.int64(2**62), np.int32(-3), 0.1, -0.0, float("nan"),
    np.float64(2.5), np.float32(0.1), "zzz", np.str_("xzx"), " leading space", "100%",
    "%s%%d%", "", "tab\tand 'single' quotes",
]
# text that would need quoting, and scalars with no text of their own
QUOTED = ["a,b", 'say "hi"', "two\nlines", "cr\ronly", "\r\n", ","]
UNTYPED = [
    pytest.param(True, "bool", id="True"), pytest.param(False, "bool", id="False"),
    pytest.param(np.bool_(True), "bool", id="np.bool_"),
    pytest.param(1 + 2j, "complex", id="complex"),
    pytest.param(np.complex128(0.5), "complex128", id="np.complex128"),
    pytest.param(b"zzz", "bytes", id="bytes"), pytest.param(object(), "object", id="object"),
    pytest.param(np.datetime64("2020-01-01"), "datetime64", id="np.datetime64"),
]


def _write_dataset_reference(path, fieldnames, rows, config_echo, comments=()):
    """The per-row loop the block writer replaced: one ``format_value``
    call per cell, each cell quoted as ``csv.writer`` quotes it; a cell
    that ``format_value`` takes needs no quoting."""
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


def _rows(blocks):
    """The rows a block stands for: each scalar repeated, each column
    indexed (an array yields NumPy scalars), a (values, index) pair as the
    column values[index]."""
    for block in blocks:
        block = [e[0][e[1]] if isinstance(e, tuple) else e for e in block]
        columns = [e for e in block if isinstance(e, np.ndarray)]
        for k in range(len(columns[0])):
            yield tuple(e[k] if isinstance(e, np.ndarray) else e for e in block)


def _assert_same_bytes(tmp_path, fieldnames, blocks, comments=()):
    blocks = list(blocks)
    new = write_dataset(tmp_path / "new.csv", fieldnames, iter(blocks), ECHO, comments)
    ref = _write_dataset_reference(
        tmp_path / "ref.csv", fieldnames, _rows(blocks), ECHO, comments
    )
    assert new.read_bytes() == ref.read_bytes()
    return new.read_bytes()


def _numeric_columns(n_rows):
    """One column of each numeric kind the writer takes, with the float
    specials."""
    xs = np.resize(np.array([0.1, *SPECIALS, 2.5, np.nan, 1 / 3]), n_rows)
    return [
        np.arange(n_rows, dtype=np.uint8), np.arange(-3, n_rows - 3),
        np.resize(np.array([0, -7, 2**62, -(2**63)]), n_rows),
        xs.astype(np.float32), xs, xs * 2,
    ]


class TestSameBytes:
    def test_scalar_entries(self, tmp_path):
        # each scalar baked into a block's template, in every position,
        # next to one array column
        x = np.array([0.5, -1.25, np.nan])
        blocks = []
        for value in SCALARS:
            for field in range(len(FIELDS)):
                block = [value] * len(FIELDS)
                block[field] = x
                blocks.append(block)
        data = _assert_same_bytes(tmp_path, FIELDS, blocks)
        assert b",100%," in data and b",%s%%d%," in data and b", leading space," in data

    def test_uniform_columns(self, tmp_path):
        # one float or integer array dtype per column
        rng = np.random.default_rng(5)
        xs = np.array([*SPECIALS, *rng.normal(size=50)])
        columns = [
            [xs, xs.astype(np.float32), (np.arange(57) - 28.5).astype(np.float16) / 7,
             np.arange(-3, 54), np.arange(57, dtype=np.uint8), np.arange(57, dtype=np.int8) - 28],
            [np.full(57, 2**64 - 1, dtype=np.uint64), np.arange(57, dtype=np.int32) * -(2**20),
             np.full(57, -(2**63)), xs * 1e290, xs * 1e-300, xs[::-1]],
        ]
        _assert_same_bytes(tmp_path, FIELDS, columns)

    def test_header_only(self, tmp_path):
        data = _assert_same_bytes(tmp_path, FIELDS, [])
        assert data.decode().splitlines()[-1] == ",".join(FIELDS)
        empty = ["zzz", np.array([]), np.array([], dtype=np.uint8), np.array([], dtype=int),
                 0.5, None]
        assert _assert_same_bytes(tmp_path, FIELDS, [empty, empty]) == data

    def test_generator_rows_and_comments(self, tmp_path):
        blocks = (
            ("s", np.arange(k, k + 5), np.arange(5) / 7, None, -k, float(k)) for k in range(4)
        )
        data = _assert_same_bytes(tmp_path, FIELDS, blocks, comments=["rng v2 per-point-block"])
        assert b"\n# rng v2 per-point-block\n" in data

    def test_one_field(self, tmp_path):
        # a one-field block is one column, so no row can be blank
        blocks = [[np.array([np.nan, 2.0])], [np.array([-1, 0])], [np.array([1.5, -0.0])]]
        data = _assert_same_bytes(tmp_path, ["only"], blocks)
        assert data.endswith(b"\nonly\nnan\n2\n-1\n0\n1.5\n-0\n")

    @pytest.mark.parametrize("n_rows", [1, 3, 4, 7, 9, 10])
    def test_rows_span_blocks(self, tmp_path, monkeypatch, n_rows):
        # chunk edges inside and at the end of a block, in blocks of
        # different lengths and column types
        monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
        columns = _numeric_columns(n_rows)
        blocks = [
            columns,
            ["zzz", *columns[1:3], np.arange(n_rows), np.arange(n_rows) / 3, 0.25],
            [None, "%", np.int8(-1), 3, np.arange(n_rows + 2) / 7, np.arange(n_rows + 2) * 1.5],
        ]
        _assert_same_bytes(tmp_path, FIELDS, blocks)

    def test_float_fast_path_matches_format_value(self, tmp_path):
        bits = np.random.default_rng(8).integers(0, 2**64, size=10**5, dtype=np.uint64)
        values = [*bits.view(np.float64).tolist(), *SPECIALS]
        assert ["%.12g" % v for v in values] == [format_value(v) for v in values]
        array = np.array(values)
        _assert_same_bytes(tmp_path, ["x", "y"], [[array, -array]])


def _pair(values, n_rows):
    """A (values, index) pair of ``n_rows`` rows that cycles through ``values``."""
    values = np.array(values, dtype=np.float64)
    return values, np.resize(np.arange(values.size), n_rows)


class TestPairColumns:
    """A column given as a (values, index) pair is the column values[index],
    each value formatted once; the bytes stay those of format_value. Most
    tests shrink the chunk to 3 rows, so that repeats span chunks."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(io, "_BLOCK_ROWS", 3)

    def test_specials(self, tmp_path, small_chunks):
        values, index = _pair(REPEATED, 5 * len(REPEATED))
        _assert_same_bytes(tmp_path, ["x", "y"], [[(values, index), (values, index[::-1])]])

    def test_zero_and_negative_zero_alone(self, tmp_path, small_chunks):
        # values that compare equal keep their own text
        data = _assert_same_bytes(tmp_path, ["x"], [[_pair([0.0, -0.0], 8)]])
        assert data.endswith(b"\nx\n0\n-0\n0\n-0\n0\n-0\n0\n-0\n")

    def test_strided_reversed_and_float32(self, tmp_path, small_chunks):
        # strided values and indices, reversed values, float64 values cast
        # from float32, and indices of narrow and unsigned dtypes
        values, index = _pair(REPEATED, 6 * len(REPEATED))
        pairs = [
            (np.repeat(values, 2)[::2], index[::2]),
            (values[::-1], index[: index.size // 2].astype(np.int32)),
            (values.astype(np.float32).astype(np.float64), index[1::2].astype(np.uint8)),
        ]
        assert not (pairs[0][0].flags.c_contiguous or pairs[0][1].flags.c_contiguous)
        _assert_same_bytes(tmp_path, ["a", "b", "c"], [pairs])

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 7, 12, 25])
    def test_repeats_span_chunks(self, tmp_path, small_chunks, n_rows):
        values, index = _pair(REPEATED[:4], n_rows)
        blocks = [
            ["zzz", (values, index), np.arange(n_rows) / 7],
            [-0.0, (values, index[::-1]), values[index]],
        ]
        _assert_same_bytes(tmp_path, ["s", "x", "y"], blocks)

    def test_percent_scalar_beside_a_pair(self, tmp_path, small_chunks):
        pair = _pair(REPEATED, 2 * len(REPEATED))
        blocks = [["100%", pair, "%s%%d%", pair, "a'%d'"]]
        data = _assert_same_bytes(tmp_path, ["a", "x", "b", "y", "c"], blocks)
        assert b"100%,0,%s%%d%,0,a'%d'\n" in data

    def test_sweep_grid_blocks(self, tmp_path, monkeypatch):
        # the blocks run_sweep writes for the benchmark's 2-D grid: t and tau
        # as the 151 output times, indexed by the plane's (i, j)
        captured = []

        def capture(path, fieldnames, blocks, config_echo, comments=()):
            captured.append((fieldnames, list(blocks)))
            return path

        monkeypatch.setattr(runs, "write_dataset", capture)
        runs.run_sweep(load_config(SWEEP_GRID), tmp_path)
        (fieldnames, blocks), = captured
        assert len(blocks) == 3
        for block in blocks:
            (t, i), (tau, j) = block[4:6]
            assert t is tau and t.size == 151
            assert i.tolist() == np.repeat(np.arange(151), 151).tolist()
            assert j.tolist() == np.tile(np.arange(151), 151).tolist()
        _assert_same_bytes(tmp_path, fieldnames, blocks)

    def test_working_memory_is_one_chunk(self, tmp_path):
        # a pair and a distinct column of 2e5 rows: ~5 MB of text, which a
        # writer that formats a whole block at once would hold
        n = 200_000
        block = ["zzz", _pair(np.linspace(0.0, 5.0, 151), n), np.arange(n) / 7, 1]
        write_dataset(tmp_path / "warm.csv", ["s", "x", "y", "k"], [block], ECHO)
        tracemalloc.start()
        try:
            write_dataset(tmp_path / "out.csv", ["s", "x", "y", "k"], [block], ECHO)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out.csv").stat().st_size > 5 * 2**20
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize(
        "pair",
        [
            (1, 2), (), (np.arange(3.0),), (np.arange(3.0), np.arange(3), np.arange(3)),
            (np.arange(3.0, dtype=np.float32), np.arange(3)), (np.arange(3), np.arange(3)),
            (np.ones((1, 3)), np.arange(3)), (np.arange(3.0), np.arange(3.0)),
            (np.arange(3.0), np.array([True, False, True])),
            (np.arange(3.0), np.zeros((3, 1), dtype=int)), (np.arange(3.0), [0, 1, 2]),
            ([0.0, 1.0, 2.0], np.arange(3)),
        ],
        ids=[
            "two-ints", "empty", "one-array", "three-arrays", "float32-values", "int-values",
            "2-D-values", "float-index", "bool-index", "2-D-index", "list-index", "list-values",
        ],
    )
    def test_malformed_pair_raises(self, tmp_path, pair):
        good = ["a", np.arange(3.0), np.arange(3)]
        msg = "^block 1 field 'x': a pair must be a 1-D float64 and a 1-D integer array$"
        with pytest.raises(ValueError, match=msg):
            write_dataset(
                tmp_path / "out.csv", ["s", "x", "k"], [good, ["b", pair, np.arange(3)]], ECHO
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "n_values, index, bad",
        [
            (3, [0, -1, 2], -1), (3, [0, 3, 2], 3), (3, [-4, 5, 0], -4), (0, [0], 0),
            (3, np.array([0, 2**64 - 1], dtype=np.uint64), 2**64 - 1),
        ],
        ids=["negative", "at-length", "both-sides", "no-values", "uint64"],
    )
    def test_index_out_of_range_raises(self, tmp_path, n_values, index, bad):
        # NumPy would read a negative index from the end of the values
        pair = (np.arange(float(n_values)), np.asarray(index))
        msg = rf"^block 0 field 'x': index {bad} outside \[0, {n_values}\)$"
        with pytest.raises(ValueError, match=msg):
            write_dataset(tmp_path / "out.csv", ["s", "x"], [["a", pair]], ECHO)
        assert list(tmp_path.iterdir()) == []


class TestRaggedRows:
    @pytest.mark.parametrize(
        "bad", [("x", np.zeros(2)), ("count", np.arange(4)), ("y", (np.ones(5), np.arange(4)))]
    )
    def test_wrong_length_raises(self, tmp_path, monkeypatch, bad):
        monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
        name, column = bad
        good = ["a", np.arange(1, 4), np.ones(3), None, 7, np.full(3, 0.5)]
        broken = list(good)
        broken[FIELDS.index(name)] = column
        n_rows = len(column[1] if isinstance(column, tuple) else column)  # a pair's index rows
        msg = f"block 2 field '{name}' has {n_rows} values, expected 3"
        with pytest.raises(ValueError, match=msg):
            write_dataset(tmp_path / "out.csv", FIELDS, [good, good, broken, good], ECHO)

    @pytest.mark.parametrize(
        "width, msg",
        [(5, "block 1 has 5 entries for 6 fields: none for field 'y'"),
         (7, "block 1 has 7 entries for 6 fields: 1 beyond the last field")],
    )
    def test_wrong_width_raises(self, tmp_path, width, msg):
        good = ["a", 1, 2.0, None, 7, np.arange(4.0)]
        broken = [*good[:5], np.arange(4.0), "extra"][:width]
        with pytest.raises(ValueError, match=msg):
            write_dataset(tmp_path / "out.csv", FIELDS, [good, broken], ECHO)

    def test_block_without_column_raises(self, tmp_path):
        with pytest.raises(ValueError, match="block 0 has no column entry"):
            write_dataset(tmp_path / "out.csv", ["a", "b"], [["s", 1.0]], ECHO)

    def test_two_dimensional_column_raises(self, tmp_path):
        with pytest.raises(ValueError, match="block 0 field 'b': a column must be 1-D"):
            write_dataset(tmp_path / "out.csv", ["a", "b"], [["s", np.ones((2, 2))]], ECHO)

    @pytest.mark.parametrize(
        "column, got",
        [([1.0, 2.0], "list"),
         (np.array(["zzz", 1.5], dtype=object), "dtype object"),
         (np.array(["zzz", "xzx"]), "dtype <U3"), (np.array([True, False]), "dtype bool"),
         (np.array([1 + 2j, 0.5]), "dtype complex128"),
         (np.array(["2020-01-01", "2020-01-02"], dtype="M8[D]"), "dtype datetime64[D]")],
        ids=["list", "object", "str", "bool", "complex", "datetime"],
    )
    def test_non_numeric_column_raises(self, tmp_path, column, got):
        # a column is a float or integer array or a (values, index) pair;
        # other entries with one value per row are refused, not printed cell
        # by cell
        good = ["a", np.arange(2.0), np.arange(2)]
        msg = (
            "^block 1 field 'x': a column must be a float or integer NumPy array, "
            f"got {re.escape(got)}$"
        )
        with pytest.raises(ValueError, match=msg):
            write_dataset(
                tmp_path / "out.csv", ["s", "x", "k"], [good, ["b", column, np.arange(2)]], ECHO
            )
        assert list(tmp_path.iterdir()) == []


class TestRefusedScalars:
    """A scalar entry is None, text, an integer or a float, and no cell is
    quoted: text that would need quoting and any other scalar raise, naming
    the block and the field, and leave no file."""

    def _refused(self, tmp_path, scalar, msg):
        good = ["a", np.arange(2.0), 1]
        with pytest.raises(ValueError, match=msg):
            write_dataset(
                tmp_path / "out.csv", ["s", "x", "k"], [good, ["b", np.arange(2.0), scalar]], ECHO
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", QUOTED)
    def test_text_that_needs_quoting_raises(self, tmp_path, text):
        msg = rf"^block 1 field 'k': text {re.escape(repr(text))} holds ',', '\"', CR or LF$"
        self._refused(tmp_path, text, msg)

    @pytest.mark.parametrize("scalar, got", UNTYPED)
    def test_scalar_of_another_type_raises(self, tmp_path, scalar, got):
        msg = f"^block 1 field 'k': a scalar must be None, text, an integer or a float, got {got}$"
        self._refused(tmp_path, scalar, msg)


class TestAtomicWrite:
    def _blocks_then(self, error):
        yield ["a", np.arange(10.0)]
        yield ["b", np.arange(10.0)]
        raise error

    @pytest.mark.parametrize("existing", [False, True])
    def test_error_mid_write_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        # two blocks are formatted and written before the error
        monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
        target = tmp_path / "out" / "data.csv"
        if existing:
            target.parent.mkdir()
            target.write_bytes(b"previous dataset\n")
        with pytest.raises(RuntimeError, match="runner failed"):
            write_dataset(target, ["s", "x"], self._blocks_then(RuntimeError("runner failed")), ECHO)
        assert sorted(p.name for p in target.parent.iterdir()) == (["data.csv"] if existing else [])
        if existing:
            assert target.read_bytes() == b"previous dataset\n"

    def test_ragged_block_leaves_no_partial_file(self, tmp_path):
        blocks = [["a", np.arange(5.0)], ["b", np.arange(5.0)], [np.arange(2.0), np.arange(3.0)]]
        with pytest.raises(ValueError, match="block 2 field 'x'"):
            write_dataset(tmp_path / "data.csv", ["s", "x"], blocks, ECHO)
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_target(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_bytes(b"previous dataset\n")
        write_dataset(target, ["s", "x"], [["a", np.array([1.5])]], ECHO)
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]
        assert target.read_bytes().endswith(b"s,x\na,1.5\n")
