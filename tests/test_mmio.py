"""Matrix Market reader and writer, including error positions."""

import io
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saddlebounds import mmio
from saddlebounds.errors import ParseError, StructureError
from saddlebounds.mmio import (
    _parse_float,
    _parse_int,
    _tokens,
    format_matrix_market,
    read_matrix_market,
    write_matrix_market,
)


def write_text(path, text):
    # newline="" keeps CRLF line endings as written
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return str(path)


def reference_format(array, symmetric=False):
    """The per-entry writer loop, kept as the byte reference for
    format_matrix_market (validation left out)."""
    arr = np.asarray(array, dtype=float)
    rows, cols = arr.shape
    kind = "symmetric" if symmetric else "general"
    out = [f"%%MatrixMarket matrix coordinate real {kind}"]
    entries = []
    for j in range(cols):
        start = j if symmetric else 0
        for i in range(start, rows):
            if arr[i, j] != 0.0:
                entries.append((i, j, arr[i, j]))
    out.append(f"{rows} {cols} {len(entries)}")
    out.extend(f"{i + 1} {j + 1} {v:.17g}" for i, j, v in entries)
    return "\n".join(out) + "\n"


def reference_read_data(text):
    """The line-by-line reader of a data section, kept as the reference for
    read_matrix_market: per line tokenize, parse, range-check and store.
    ``text`` has a well-formed banner on its first line and a well-formed
    size line on the first line after it that is neither a comment nor
    blank. Lines end where universal newlines end them."""
    lines = io.StringIO(text, newline=None).readlines()
    _, _, fmt, _, symmetry = lines[0].split()
    at = next(k for k in range(1, len(lines))
              if lines[k].strip() and not lines[k].lstrip().startswith("%"))
    size = [int(t) for t in lines[at].split()]
    rows, cols = size[:2]
    out = np.zeros((rows, cols))
    data_lines = [
        (lineno, line)
        for lineno, line in enumerate(lines[at + 1 :], start=at + 2)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    last = data_lines[-1][0] if data_lines else at + 1
    if fmt == "coordinate":
        if len(data_lines) != size[2]:
            raise ParseError(f"expected {size[2]} entries, found {len(data_lines)}", last)
        for lineno, line in data_lines:
            toks = _tokens(line)
            if len(toks) != 3:
                raise ParseError(f"entry needs 'row col value', got {len(toks)} tokens", lineno)
            i = _parse_int(toks[0][0], lineno, toks[0][1])
            j = _parse_int(toks[1][0], lineno, toks[1][1])
            v = _parse_float(toks[2][0], lineno, toks[2][1])
            if not 1 <= i <= rows:
                raise ParseError(f"row index {i} outside 1..{rows}", lineno, toks[0][1])
            if not 1 <= j <= cols:
                raise ParseError(f"column index {j} outside 1..{cols}", lineno, toks[1][1])
            out[i - 1, j - 1] = v
            if symmetry == "symmetric":
                out[j - 1, i - 1] = v
        return out
    if symmetry == "symmetric":
        coords = [(i, j) for j in range(cols) for i in range(j, rows)]
    else:
        coords = [(i, j) for j in range(cols) for i in range(rows)]
    if len(data_lines) != len(coords):
        raise ParseError(
            f"expected {len(coords)} values for a {rows} x {cols} {symmetry} array, "
            f"found {len(data_lines)}",
            last,
        )
    for (lineno, line), (i, j) in zip(data_lines, coords):
        toks = _tokens(line)
        if len(toks) != 1:
            raise ParseError(f"array entry needs one value per line, got {len(toks)}", lineno)
        out[i, j] = _parse_float(toks[0][0], lineno, toks[0][1])
        if symmetry == "symmetric":
            out[j, i] = out[i, j]
    return out


def outcome(read, path):
    """A matrix, or the message, line and column of the ParseError."""
    try:
        return read(path)
    except ParseError as err:
        return (str(err), err.line, err.column)


class TestRoundTrip:
    def test_general_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 6))
        m[1, 2] = 0.0  # structural zero must survive
        m[3, 0] = 1.0 / 3.0
        path = tmp_path / "m.mtx"
        write_matrix_market(path, m)
        assert np.array_equal(read_matrix_market(path), m)

    def test_symmetric_stores_lower_triangle(self, tmp_path):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((5, 5))
        m = g + g.T
        path = tmp_path / "s.mtx"
        write_matrix_market(path, m, symmetric=True)
        text = path.read_text()
        assert text.startswith("%%MatrixMarket matrix coordinate real symmetric\n")
        # header + size + 15 lower-triangle entries
        assert len(text.strip().split("\n")) == 2 + 15
        assert np.array_equal(read_matrix_market(path), m)

    def test_output_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3))
        assert format_matrix_market(m) == format_matrix_market(m.copy())


class TestReader:
    def test_array_format_is_column_major(self, tmp_path):
        path = write_text(
            tmp_path / "a.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n1.5\n2.5\n3.5\n4.5\n",
        )
        np.testing.assert_array_equal(
            read_matrix_market(path), [[1.5, 3.5], [2.5, 4.5]]
        )

    def test_array_symmetric_lower_packing(self, tmp_path):
        path = write_text(
            tmp_path / "a.mtx",
            "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
        )
        np.testing.assert_array_equal(read_matrix_market(path), [[1.0, 2.0], [2.0, 3.0]])

    def test_integer_field(self, tmp_path):
        path = write_text(
            tmp_path / "i.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 2 -4\n",
        )
        out = read_matrix_market(path)
        assert out.dtype == float
        np.testing.assert_array_equal(out, [[3.0, 0.0], [0.0, -4.0]])

    def test_interior_comments_and_blanks_skipped(self, tmp_path):
        path = write_text(
            tmp_path / "c.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "% header comment\n2 2 2\n1 1 1.0\n\n% interior\n2 1 2.0\n",
        )
        np.testing.assert_array_equal(read_matrix_market(path), [[1.0, 0.0], [2.0, 0.0]])

    def test_symmetric_coordinate_mirrors(self, tmp_path):
        path = write_text(
            tmp_path / "s.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 5.0\n",
        )
        np.testing.assert_array_equal(read_matrix_market(path), [[1.0, 5.0], [5.0, 0.0]])


class TestIntegerField:
    """An integer file holds integers: any other value token is refused
    with its line and column, and an integral one reads as float() reads it."""

    @pytest.mark.parametrize("token", ["2.5", "1.0", "1e0", "nan", "inf", "0x1"])
    def test_coordinate_value_must_be_an_integer(self, tmp_path, token):
        text = f"%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n1 2 {token}\n"
        path = write_text(tmp_path / "i.mtx", text)
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert (info.value.line, info.value.column) == (4, 5)
        assert f"expected an integer, got {token!r}" in str(info.value)

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_array_value_must_be_an_integer(self, tmp_path, symmetry):
        text = f"%%MatrixMarket matrix array integer {symmetry}\n2 2\n1\n2.5\n3\n4\n"
        if symmetry == "symmetric":
            text = text.replace("\n4\n", "\n")
        path = write_text(tmp_path / "i.mtx", text)
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert (info.value.line, info.value.column) == (4, 1)
        assert "expected an integer, got '2.5'" in str(info.value)

    def test_integral_values_keep_their_bits(self, tmp_path):
        tokens = ["+3", "-0", "1_0", "9" * 20, "-12345678901234567891"]
        text = ("%%MatrixMarket matrix array integer general\n"
                f"{len(tokens)} 1\n" + "\n".join(tokens) + "\n")
        out = read_matrix_market(write_text(tmp_path / "i.mtx", text))
        want = np.array([float(t) for t in tokens])
        assert out.tobytes() == want.reshape(-1, 1).tobytes()


class TestParseErrors:
    def check(self, tmp_path, text, line=None, column=None, fragment=None):
        path = write_text(tmp_path / "bad.mtx", text)
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        err = info.value
        if line is not None:
            assert err.line == line
        if column is not None:
            assert err.column == column
        if fragment is not None:
            assert fragment in str(err)

    def test_empty_file(self, tmp_path):
        self.check(tmp_path, "", line=1, fragment="empty")

    def test_missing_banner(self, tmp_path):
        self.check(tmp_path, "1 1 1\n1 1 2.0\n", line=1, column=1, fragment="banner")

    def test_short_banner(self, tmp_path):
        self.check(tmp_path, "%%MatrixMarket matrix coordinate\n", line=1, fragment="5 tokens")

    def test_unsupported_field_points_at_token(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
        self.check(tmp_path, text, line=1, column=34, fragment="complex")

    def test_unsupported_object_points_at_token(self, tmp_path):
        text = "%%MatrixMarket vector coordinate real general\n1 1 0\n"
        self.check(tmp_path, text, line=1, column=16, fragment="unsupported object 'vector'")

    def test_unsupported_symmetry_points_at_token(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 0\n"
        self.check(tmp_path, text, line=1, column=39,
                   fragment="unsupported symmetry 'skew-symmetric'")

    def test_unsupported_format(self, tmp_path):
        text = "%%MatrixMarket matrix sparse real general\n1 1 0\n"
        self.check(tmp_path, text, line=1, column=23, fragment="sparse")

    def test_missing_size_line(self, tmp_path):
        self.check(tmp_path, "%%MatrixMarket matrix coordinate real general\n% only comments\n",
                   fragment="size")

    def test_size_line_token_count(self, tmp_path):
        self.check(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2\n",
                   line=2, fragment="3 integers")

    def test_nonsquare_symmetric(self, tmp_path):
        self.check(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n",
                   line=2, fragment="square")

    def test_bad_integer_token(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 2.0\n"
        self.check(tmp_path, text, line=3, column=1, fragment="integer")

    def test_bad_value_token(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"
        self.check(tmp_path, text, line=3, column=5, fragment="number")

    def test_row_index_out_of_range(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 2.0\n"
        self.check(tmp_path, text, line=3, column=1, fragment="outside")

    def test_entry_count_mismatch(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2.0\n"
        self.check(tmp_path, text, fragment="expected 3 entries")

    def test_array_value_count_mismatch(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n"
        self.check(tmp_path, text, fragment="expected 4 values")

    def test_array_multiple_values_per_line(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n1 2\n1.0 2.0\n2.0\n"
        self.check(tmp_path, text, line=3, fragment="one value")

    def test_array_values_on_one_line(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n3 1\n1 2 3\n"
        self.check(tmp_path, text, line=3, column=None,
                   fragment="expected 3 values for a 3 x 1 general array, found 1")

    def test_oversized_size_line(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n10000000 10000000 1\n1 1 1.0\n"
        self.check(tmp_path, text, line=2, column=None,
                   fragment="a 10000000 x 10000000 matrix does not fit in memory")

    def test_zero_dimension(self, tmp_path):
        self.check(tmp_path, "%%MatrixMarket matrix coordinate real general\n0 2 0\n",
                   line=2, fragment="positive")


class _Stop(Exception):
    pass


def shapes_checked(path, stop=False):
    """The shapes read_matrix_market passes to its check_shape, and the
    array it reads, or None when the check raises to stop the read."""
    seen = []

    def check(rows, cols):
        seen.append((rows, cols))
        if stop:
            raise _Stop

    try:
        out = read_matrix_market(path, check_shape=check)
    except _Stop:
        out = None
    return seen, out


def _never_called(rows, cols):
    raise AssertionError(f"check_shape called with {rows} x {cols}")


class TestShape:
    """read_matrix_market's check_shape sees the shape of the banner and
    size line as the full read gives it, before any data is parsed."""

    @pytest.mark.parametrize("text, shape", [
        ("%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 1\n1 1 1.0\n", (3, 3)),
        ("%%MatrixMarket matrix array real general\n2 4\n" + "1.0\n" * 8, (2, 4)),
        ("%%MatrixMarket matrix coordinate real general\r\n% c\r2 3 0\r\n", (2, 3)),
    ])
    def test_agrees_with_the_full_read(self, tmp_path, text, shape):
        path = write_text(tmp_path / "m.mtx", text)
        seen, out = shapes_checked(path)
        assert seen == [out.shape] == [read_matrix_market(path).shape] == [shape]

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real general\n% c\n\n2 2 1\n1 1 3.0\n",
        "%%MatrixMarket matrix coordinate real general\r\n \t\r\n% c\r\n\r\n2 2 1\r\n1 1 3.0\r\n",
        "%%MatrixMarket matrix array real general\n\n2 2\n3.0\n0\n0\n0\n",
    ])
    def test_blank_lines_before_the_size_line_are_skipped(self, tmp_path, text):
        # as the data section skips them, and as NIST's mmio.c and
        # scipy.io.mmread read such a file
        path = write_text(tmp_path / "m.mtx", text)
        expected = [[3.0, 0.0], [0.0, 0.0]]
        np.testing.assert_array_equal(read_matrix_market(path), expected)
        np.testing.assert_array_equal(reference_read_data(text), expected)
        assert shapes_checked(path, stop=True) == ([(2, 2)], None)

    def test_reads_no_data(self, tmp_path):
        # a check that raises ends the read before the malformed data
        path = write_text(tmp_path / "m.mtx",
                          "%%MatrixMarket matrix coordinate real general\n"
                          "1500 600 900000\n1 1 1.0\n1 2 not-a-num")
        assert shapes_checked(path, stop=True) == ([(1500, 600)], None)
        with pytest.raises(ParseError, match="^expected 900000 entries, found 2"):
            read_matrix_market(path)

    @pytest.mark.parametrize("text", [
        "",
        "1 1 1\n1 1 2.0\n",
        "%%MatrixMarket matrix coordinate\n",
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
        "%%MatrixMarket matrix coordinate real general\n% only comments\n",
        # a form feed ends no line, so the size line stays in the comment
        "%%MatrixMarket matrix coordinate real general\r\n% c\x0c2 3 0\r\n",
        # blank lines are skipped, and no size line follows them
        "%%MatrixMarket matrix coordinate real general\n\n  \t\n",
        "%%MatrixMarket matrix coordinate real general\n2 2\n",
        "%%MatrixMarket matrix coordinate real general\n2 x 0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n",
        "%%MatrixMarket matrix coordinate real general\n0 2 0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
    ])
    def test_header_errors_are_the_full_reads(self, tmp_path, text):
        # raised unchanged, and check_shape is never called for them
        path = write_text(tmp_path / "bad.mtx", text)
        with pytest.raises(ParseError) as full:
            read_matrix_market(path)
        with pytest.raises(ParseError) as shape:
            read_matrix_market(path, check_shape=_never_called)
        assert (str(shape.value), shape.value.line, shape.value.column) == (
            str(full.value), full.value.line, full.value.column)


class TestWriter:
    def test_symmetric_requires_square(self):
        with pytest.raises(StructureError):
            format_matrix_market(np.ones((2, 3)), symmetric=True)

    def test_symmetric_requires_exact_symmetry(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]])
        with pytest.raises(StructureError):
            format_matrix_market(m, symmetric=True)

    def test_rejects_non_2d(self):
        with pytest.raises(StructureError):
            format_matrix_market(np.ones(3))

    def test_column_major_entry_order(self):
        m = np.array([[0.0, 2.0], [1.0, 0.0]])
        lines = format_matrix_market(m).strip().split("\n")
        assert lines[1] == "2 2 2"
        assert lines[2] == "2 1 1"
        assert lines[3] == "1 2 2"

    @pytest.mark.parametrize("array, symmetric", [
        (np.array([[1.0, 2.0], [3.0, 1.0]]), True),
        (np.ones(3), False),
    ], ids=["non-symmetric", "1-D"])
    def test_refused_matrix_leaves_no_file(self, tmp_path, array, symmetric):
        path = tmp_path / "m.mtx"
        with pytest.raises(StructureError):
            write_matrix_market(path, array, symmetric=symmetric)
        assert not path.exists()

    CHUNK = mmio.WRITE_CHUNK_ENTRIES

    @pytest.mark.parametrize("nonzeros", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1],
                             ids=["0", "1", "chunk", "chunk+1", "2chunks+1"])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
    def test_chunks_join_to_one_format_call(self, tmp_path, nonzeros, symmetric):
        # the first ``nonzeros`` stored places in column-major order hold
        # values, the rest zeros; n(n + 1)/2 > 2 * CHUNK + 1
        n = math.isqrt(4 * self.CHUNK) + 2
        places = [(i, j) for j in range(n) for i in range(j if symmetric else 0, n)]
        values = np.random.default_rng(nonzeros).standard_normal(nonzeros).tolist()
        arr = np.zeros((n, n))
        entries = []
        for (i, j), v in zip(places, values):
            arr[i, j] = v
            if symmetric:
                arr[j, i] = v
            entries += [i + 1, j + 1, v]
        kind = "symmetric" if symmetric else "general"
        want = (f"%%MatrixMarket matrix coordinate real {kind}\n{n} {n} {nonzeros}\n"
                + "%d %d %.17g\n" * nonzeros % tuple(entries))
        assert format_matrix_market(arr, symmetric=symmetric) == want
        path = tmp_path / "m.mtx"
        write_matrix_market(path, arr, symmetric=symmetric)
        assert path.read_text(encoding="ascii") == want


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def coordinate_text(entries, rows=100, cols=100, symmetry="general"):
    lines = [f"%%MatrixMarket matrix coordinate real {symmetry}", f"{rows} {cols} {len(entries)}"]
    return "\n".join(lines + list(entries)) + "\n"


JUNK_TOKENS = ["0", "1", "2", "+1", "1_0", "-1", "1.0", "1e0", "x", "2.5", "-0.0",
               "nan", "-nan", "1e400", "9" * 20, "%", "%c", "1_0.5", "2.5\x00", "1\x00"]

# each separates tokens as a space does; \x0b, \x0c and \x1c to \x1f end no line
SEPARATORS = [" ", " ", " ", "   ", "\t", " \t\t", "\x1f", "\x0b", "\x0c", "\x1c", "\x1d",
              "\x1e", "\x00"]


@st.composite
def matrix_market_texts(draw):
    """Small Matrix Market texts with a valid header and a data section
    mixing entries, junk lines, blank and comment lines and wrong counts."""
    fmt = draw(st.sampled_from(["coordinate", "array"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    rows = draw(st.integers(1, 3))
    cols = rows if symmetry == "symmetric" else draw(st.integers(1, 3))
    value = st.one_of(st.floats(width=64).map(repr), st.sampled_from(["1_0.5", "-nan"]))
    sep = st.sampled_from(SEPARATORS)
    if fmt == "coordinate":
        expected = draw(st.integers(0, 6))
        index = st.integers(0, 4).map(str)
        entry = st.tuples(index, sep, index, sep, value).map("".join)
        size = f"{rows} {cols} {expected}"
    else:
        expected = rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * cols
        entry = value
        size = f"{rows} {cols}"
    junk = st.lists(st.sampled_from(JUNK_TOKENS), max_size=4).map(" ".join)
    count = expected + draw(st.sampled_from([0, 0, 0, 1, -1]))
    data = draw(st.lists(st.one_of(entry, entry, entry, junk),
                         min_size=max(count, 0), max_size=max(count, 0)))
    noise = st.sampled_from(["", "  \t", "% note", "  %indented"])
    for pos, line in draw(st.lists(st.tuples(st.integers(0, len(data)), noise), max_size=3)):
        data.insert(pos, line)
    if len(data) > 1 and draw(st.booleans()):
        # join two neighbouring lines, or split one at its first space
        pos = draw(st.integers(0, len(data) - 2))
        if draw(st.booleans()):
            data[pos : pos + 2] = [data[pos] + draw(sep) + data[pos + 1]]
        else:
            data[pos : pos + 1] = data[pos].split(" ", 1)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"%%MatrixMarket matrix {fmt} real {symmetry}", size, *data]
    return newline.join(lines) + newline


class TestBulkReader:
    @pytest.fixture
    def big_entries(self):
        # 6000 entries: data lines 3..6002
        rng = np.random.default_rng(7)
        i = rng.integers(1, 101, 6000).tolist()
        j = rng.integers(1, 101, 6000).tolist()
        v = rng.standard_normal(6000).tolist()
        return [f"{a} {b} {x!r}" for a, b, x in zip(i, j, v)]

    def test_large_file_matches_reference(self, tmp_path, big_entries):
        # random coordinates repeat, so later duplicates must win
        text = coordinate_text(big_entries)
        path = write_text(tmp_path / "big.mtx", text)
        assert_same_outcome(read_matrix_market(path), reference_read_data(text))

    def test_large_symmetric_file_matches_reference(self, tmp_path, big_entries):
        # the entries are placed a slice at a time: an entry in a later
        # slice still overwrites an earlier one, and its mirror
        assert len(big_entries) > mmio.PLACE_CHUNK_ENTRIES
        big_entries[10] = "3 4 1.5"
        big_entries[5000] = "4 3 -2.5"
        text = coordinate_text(big_entries, symmetry="symmetric")
        path = write_text(tmp_path / "big.mtx", text)
        got = read_matrix_market(path)
        assert_same_outcome(got, reference_read_data(text))
        assert got[2, 3] == got[3, 2] == -2.5

    @pytest.mark.parametrize(
        "bad, column, message",
        [
            ("3 4 0.5x", 5, "expected a number, got '0.5x'"),
            ("3 101 0.5", 3, "column index 101 outside 1..100"),
            ("3 4", None, "entry needs 'row col value', got 2 tokens"),
            ("3 4 0.5 %c", None, "entry needs 'row col value', got 4 tokens"),
            ("3 4 0.5\x00", 5, "expected a number, got '0.5\\x00'"),
            ("3\x00 4 0.5", 1, "expected an integer, got '3\\x00'"),
        ],
    )
    def test_error_past_first_slice(self, tmp_path, big_entries, bad, column, message):
        big_entries[4997] = bad  # file line 5000
        path = write_text(tmp_path / "bad.mtx", coordinate_text(big_entries))
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert (info.value.line, info.value.column) == (5000, column)
        assert str(info.value).startswith(message)

    def test_misaligned_lines_with_matching_token_total(self, tmp_path):
        path = write_text(tmp_path / "m.mtx", coordinate_text(["1 2", "3 4 5 6"], 4, 4))
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert (info.value.line, info.value.column) == (3, None)
        assert "got 2 tokens" in str(info.value)

    @pytest.mark.parametrize("token", ["1.0", "1e0"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_integer_index_rejected(self, tmp_path, token, position):
        fields = ["2", "2", "1.5"]
        fields[position] = token
        path = write_text(tmp_path / "i.mtx", coordinate_text([" ".join(fields)], 3, 3))
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert (info.value.line, info.value.column) == (3, 1 + 2 * position)
        assert f"expected an integer, got {token!r}" in str(info.value)

    def test_python_integer_syntax_accepted(self, tmp_path):
        path = write_text(tmp_path / "i.mtx", coordinate_text(["+1 1_0 2.5", "1_0 +2 1_5"], 10, 10))
        out = read_matrix_market(path)
        assert out[0, 9] == 2.5
        assert out[9, 1] == 15.0
        assert np.count_nonzero(out) == 2

    def test_duplicate_entries_last_wins(self, tmp_path):
        path = write_text(tmp_path / "d.mtx", coordinate_text(["1 2 1.0", "2 2 3.0", "1 2 -4.0"], 2, 2))
        np.testing.assert_array_equal(read_matrix_market(path), [[0.0, -4.0], [0.0, 3.0]])

    @pytest.mark.parametrize(
        "entries, value",
        [(["2 1 5.0", "1 2 7.0"], 7.0), (["1 2 7.0", "2 1 5.0"], 5.0)],
    )
    def test_symmetric_upper_entries_mirror_in_file_order(self, tmp_path, entries, value):
        path = write_text(tmp_path / "s.mtx", coordinate_text(entries, 2, 2, "symmetric"))
        np.testing.assert_array_equal(read_matrix_market(path), [[0.0, value], [value, 0.0]])

    def test_blank_whitespace_comment_lines_and_crlf(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\r\n"
            "% header\r\n"
            "2 2 2\r\n"
            "\r\n"
            "  \t \r\n"
            "1 1 1.5\r\n"
            "   % indented comment\r\n"
            "%\r\n"
            "2 1 -2.5\r\n"
            "\r\n"
        )
        path = write_text(tmp_path / "c.mtx", text)
        np.testing.assert_array_equal(read_matrix_market(path), [[1.5, 0.0], [-2.5, 0.0]])

    def test_crlf_error_position(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\r\n1 2\r\n\r\n1.0\r\n  oops\r\n"
        path = write_text(tmp_path / "c.mtx", text)
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert (info.value.line, info.value.column) == (5, 3)

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_no_entries_gives_zeros(self, tmp_path, symmetry):
        path = write_text(tmp_path / "z.mtx", coordinate_text([], 3, 3, symmetry) + "% trailing\n")
        out = read_matrix_market(path)
        assert out.shape == (3, 3)
        assert not out.any()

    # a negative count is refused on the size line, at the count token
    @pytest.mark.parametrize("nnz, message", [
        (-1, "entry count must be >= 0, got -1 (line 2, column 5)"),
        (10**12, "expected 1000000000000 entries, found 1 (line 3)"),
    ], ids=["-1", "1000000000000"])
    def test_impossible_entry_count(self, tmp_path, nnz, message):
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 {nnz}\n1 1 1.0\n"
        path = write_text(tmp_path / "n.mtx", text)
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert str(info.value) == message

    @settings(max_examples=200)
    @given(text=matrix_market_texts())
    def test_matches_line_by_line_reference(self, tmp_path_factory, text):
        path = write_text(tmp_path_factory.getbasetemp() / "ref.mtx", text)
        assert_same_outcome(outcome(read_matrix_market, path), outcome(reference_read_data, text))


def read_text(tmp_path, text):
    return read_matrix_market(write_text(tmp_path / "t.mtx", text))


def scan_must_not_run(*args):
    raise AssertionError("the line scan ran on a section the C reader should take")


class TestTextReaderPaths:
    """numpy's C text reader takes well-formed sections; the line scan
    takes the rest with the same results."""

    def test_writer_output_takes_the_fast_path(self, tmp_path, corpus, monkeypatch):
        monkeypatch.setattr(mmio, "_scan_columns", scan_must_not_run)
        _, p = max(corpus, key=lambda member: member[1].n)
        for name, array, symmetric in [("A", p.A.array, True), ("B", p.B.array, False),
                                       ("K", p.k_matrix, True)]:
            path = tmp_path / f"{name}.mtx"
            write_matrix_market(path, array, symmetric=symmetric)
            assert np.array_equal(read_matrix_market(path), array), name

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("sep", ["\x1f", "  ", "\t", " \t \t", "\x1f \t"])
    @pytest.mark.parametrize("fmt", ["coordinate", "array"])
    def test_separators(self, tmp_path, monkeypatch, fmt, sep, newline):
        monkeypatch.setattr(mmio, "_scan_columns", scan_must_not_run)
        if fmt == "coordinate":
            size, data = "2 2 2", [["1", "2", "0.5"], ["2", "1", "-1.5"]]
        else:
            size, data = "2 2", [["0.0"], ["-1.5"], ["0.5"], ["0.0"]]
        lines = [f"%%MatrixMarket matrix {fmt} real general", "% comment", size,
                 sep.join(data[0]), *(sep + sep.join(d) + sep for d in data[1:])]
        np.testing.assert_array_equal(read_text(tmp_path, newline.join(lines) + newline),
                                      [[0.0, 0.5], [-1.5, 0.0]])

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    @pytest.mark.parametrize("where", ["entry", "header comment", "after the last entry"])
    @pytest.mark.parametrize("fmt", ["coordinate", "array"])
    @pytest.mark.parametrize("route", ["C reader", "line scan"])
    def test_whitespace_that_ends_no_line(self, tmp_path, monkeypatch, route, char, where, fmt):
        # str.splitlines() would end a line at each of these; the reader
        # takes it for a separator, on both routes. The comment holds a
        # size line that a line break would expose; an interior comment
        # line sends the section to the line scan.
        if route == "C reader":
            monkeypatch.setattr(mmio, "_scan_columns", scan_must_not_run)
        interior = "% interior\n" if route == "line scan" else ""
        comment = f"% note{char}1 1 1\n" if where == "header comment" else ""
        end = char if where == "after the last entry" else ""
        if fmt == "coordinate":
            first = f"1{char}1{char}2.0" if where == "entry" else "1 1 2.0"
            size, data = "2 2 2", f"{first}\n{interior}2 2 3.0{end}\n"
            want = [[2.0, 0.0], [0.0, 3.0]]
        else:
            first = f"{char}2.0{char}" if where == "entry" else "2.0"
            size, data = "2 1", f"{first}\n{interior}3.0{end}\n"
            want = [[2.0], [3.0]]
        text = f"%%MatrixMarket matrix {fmt} real general\n{comment}{size}\n{data}"
        out = read_text(tmp_path, text)
        np.testing.assert_array_equal(out, want)
        assert_same_outcome(out, reference_read_data(text))

    @pytest.mark.parametrize("entries", [["1 1 0.5", "2 1 -1.5"], ["1 1 0.5", "% c\n2 1 1_5"]],
                             ids=["C reader", "line scan"])
    def test_pipe(self, tmp_path, entries):
        # a stream that cannot seek is read once, into memory
        text = coordinate_text(entries, 2, 2, "symmetric")
        path = tmp_path / "p.mtx"
        os.mkfifo(path)
        feeder = threading.Thread(target=write_text, args=(path, text))
        feeder.start()
        try:
            out = read_matrix_market(path)
        finally:
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert_same_outcome(out, reference_read_data(text))

    @pytest.mark.parametrize(
        "raw, message, column",
        [
            # the reader decodes a non-ASCII byte as U+FFFD
            (b"1 1 2.\xff", "expected a number, got '2.\ufffd'", 5),
            (b"1 \xe92 2.0", "expected an integer, got '\ufffd2'", 3),
        ],
    )
    def test_non_ascii_bytes(self, tmp_path, raw, message, column):
        path = tmp_path / "n.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n2 2 1\n" + raw + b"\n")
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert (str(info.value), info.value.column) == (f"{message} (line 3, column {column})",
                                                        column)

    @pytest.mark.parametrize("interior", ["", "% interior comment\n"])
    def test_negative_nan_keeps_its_sign_bit(self, tmp_path, interior):
        # without the comment the C reader parses -nan, with it the line scan
        text = coordinate_text(["1 1 -nan", interior + "2 2 nan"], 2, 2)
        out = read_text(tmp_path, text)
        want = np.array([float("-nan"), float("nan")]).view(np.uint64)
        assert np.array_equal(out[[0, 1], [0, 1]].view(np.uint64), want)

    @pytest.mark.parametrize("token", ["1.0", "1e0"])
    def test_index_parsed_through_a_warning_is_rejected(self, tmp_path, monkeypatch, token):
        # numpy 1.x loadtxt reads 1.0 as the int64 1 and only warns; simulate it
        loadtxt = np.loadtxt

        def lenient(data, **kwargs):
            warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt([line.replace(token, "1") for line in data], **kwargs)

        monkeypatch.setattr(mmio.np, "loadtxt", lenient)
        with pytest.raises(ParseError) as info:
            read_text(tmp_path, coordinate_text([f"{token} 1 0.5"], 2, 2))
        assert (info.value.line, info.value.column) == (3, 1)
        assert f"expected an integer, got {token!r}" in str(info.value)


class TestWriterReference:
    def test_corpus_bytes_match_reference(self, corpus):
        for label, p in corpus:
            a, b = p.A.array, p.B.array
            assert format_matrix_market(a, symmetric=True) == reference_format(a, True), label
            assert format_matrix_market(b) == reference_format(b), label

    SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0])

    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                          elements=st.one_of(SPECIAL, st.floats(width=64))))
    def test_general_bytes_match_reference(self, arr):
        assert format_matrix_market(arr) == reference_format(arr)

    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                          elements=st.one_of(SPECIAL, st.floats(allow_nan=False))))
    def test_symmetric_bytes_match_reference(self, arr):
        n = min(arr.shape)
        sym = np.tril(arr[:n, :n]) + np.tril(arr[:n, :n], -1).T
        assert format_matrix_market(sym, symmetric=True) == reference_format(sym, True)

    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                          elements=st.one_of(SPECIAL, st.floats(width=64))),
           symmetric=st.booleans())
    def test_write_then_read_round_trips(self, tmp_path_factory, arr, symmetric):
        if symmetric:
            n = min(arr.shape)
            arr = np.tril(arr[:n, :n]) + np.tril(arr[:n, :n], -1).T
            if np.isnan(arr).any():
                return
        path = tmp_path_factory.getbasetemp() / "rt.mtx"
        write_matrix_market(path, arr, symmetric=symmetric)
        back = read_matrix_market(path)
        # -0.0 is not stored, so it reads back as +0.0
        assert np.array_equal(back, arr, equal_nan=True)
        assert not np.signbit(back[arr == 0.0]).any()


def traced_peak(call, *args, **kwargs):
    """(result, peak bytes traced by tracemalloc during the call)."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestWorkingSet:
    """Reading and writing hold a few words per stored entry: no Python
    object per token, line or entry, and no copy of the whole text."""

    # bytes per stored entry; the matrix read takes 8 of them when it is
    # general, 16 when it is symmetric
    WRITE_BYTES_PER_ENTRY = 40
    READ_BYTES_PER_ENTRY = 96

    @pytest.mark.parametrize("shape, symmetric, entries", [
        ((400, 400), True, 80_200),
        ((160, 400), False, 64_000),
    ], ids=["symmetric", "general"])
    def test_peak_per_stored_entry(self, tmp_path, shape, symmetric, entries):
        arr = np.random.default_rng(5).standard_normal(shape)
        if symmetric:
            arr = arr + arr.T
        path = tmp_path / "m.mtx"
        _, write_peak = traced_peak(write_matrix_market, path, arr, symmetric=symmetric)
        back, read_peak = traced_peak(read_matrix_market, path)
        assert np.array_equal(back, arr)
        size_line = path.read_text(encoding="ascii").splitlines()[1]
        assert size_line == f"{shape[0]} {shape[1]} {entries}"
        assert write_peak <= self.WRITE_BYTES_PER_ENTRY * entries
        assert read_peak <= self.READ_BYTES_PER_ENTRY * entries

    def test_symmetric_read_peaks_no_higher_per_entry_than_general(self, tmp_path):
        # placing the symmetric entries in slices holds no index array over
        # the whole section; a general read peaks at about 48 B per stored
        # entry at any of these sizes
        rng = np.random.default_rng(5)
        sym = rng.standard_normal((400, 400))
        sym = sym + sym.T
        per_entry = []
        for arr, symmetric, entries in ((sym, True, 80_200),
                                        (rng.standard_normal((100, 401)), False, 40_100)):
            path = tmp_path / f"{'symmetric' if symmetric else 'general'}.mtx"
            write_matrix_market(path, arr, symmetric=symmetric)
            back, peak = traced_peak(read_matrix_market, path)
            assert np.array_equal(back, arr)
            assert path.read_text(encoding="ascii").splitlines()[1].endswith(f" {entries}")
            per_entry.append(peak / entries)
        assert per_entry[0] <= per_entry[1]
