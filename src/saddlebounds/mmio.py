"""Matrix Market reader and writer for dense real matrices.

Handles coordinate and array formats with general or symmetric storage.
A line ends only where the file's own lines end (``\n``, ``\r\n`` or
``\r``, as universal newlines give them); any other whitespace,
``\v``, ``\f`` and ``\x1c``-``\x1f`` included, separates tokens as a
space does. Comment and blank lines after the banner are skipped,
before the size line as in the data section, as NIST's mmio.c skips
them. The banner and size line are parsed by one function, which
also serves ``read_matrix_market_shape``: a file's shape with no data
read. The reader then hands the open file, after the size line, to
numpy's C text reader. Whatever that reader declines (a malformed
section, or syntax only Python's int() and float() accept, such as 1_0,
interior % comments or an empty section) is re-read and scanned line by
line: the scan returns the same columns, or raises a ParseError with the
line and column of the first bad token.
An ``integer`` file is always scanned, so that a value that is not an
integer is refused; an integral value reads as float() reads it.
Values are written with 17 significant digits so float64 entries
round-trip exactly, and entries are emitted in a fixed column-major
order so output bytes are stable. The writer checks the matrix before
it opens the file, then formats and writes ``WRITE_CHUNK_ENTRIES``
entries at a time with one ``%`` format call each.
"""

import io
import re
import warnings
from itertools import chain

import numpy as np

from .errors import ParseError, StructureError
from .linalg import _real

_TOKEN = re.compile(r"\S+")

_BANNER = "%%matrixmarket"
_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "integer")
_SYMMETRIES = ("general", "symmetric")

_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])

# entries formatted, and written, at a time
WRITE_CHUNK_ENTRIES = 4096
# entries of a symmetric coordinate file placed at a time
PLACE_CHUNK_ENTRIES = 4096


def _tokens(line):
    """(text, 1-based column) for each whitespace-separated token."""
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _skipped(line):
    """Whether ``line`` is a comment or blank, a line every reader skips."""
    return not line.strip() or line.lstrip().startswith("%")


def _parse_int(text, lineno, column):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", lineno, column) from None


def _parse_float(text, lineno, column):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", lineno, column) from None


def _parse_integral(text, lineno, column):
    """The value of an integer token, with the bits float() gives it."""
    _parse_int(text, lineno, column)
    return float(text)


def _read_header(lines):
    """Parse the banner and the size line from the iterator ``lines``,
    consuming no line after the size line. Returns (format, field,
    symmetry, rows, cols, entry count, 0-based index of the size line)."""
    first = next(lines, None)
    if first is None:
        raise ParseError("empty file", 1)
    header = _tokens(first)
    if not header or header[0][0].lower() != _BANNER:
        raise ParseError("missing %%MatrixMarket banner", 1, 1)
    if len(header) != 5:
        raise ParseError(
            f"banner needs 5 tokens (banner, object, format, field, symmetry), got {len(header)}",
            1,
        )
    obj = header[1][0].lower()
    fmt = header[2][0].lower()
    field = header[3][0].lower()
    symmetry = header[4][0].lower()
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", 1, header[1][1])
    if fmt not in _FORMATS:
        raise ParseError(f"unsupported format {fmt!r}", 1, header[2][1])
    if field not in _FIELDS:
        raise ParseError(f"unsupported field {field!r} (need real data)", 1, header[3][1])
    if symmetry not in _SYMMETRIES:
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1, header[4][1])

    idx = 1
    line = next(lines, None)
    while line is not None and _skipped(line):
        idx += 1
        line = next(lines, None)
    if line is None:
        raise ParseError("missing size line", idx + 1)
    size_toks = _tokens(line)
    want = 3 if fmt == "coordinate" else 2
    if len(size_toks) != want:
        raise ParseError(
            f"size line needs {want} integers for {fmt} format, got {len(size_toks)}",
            idx + 1,
        )
    rows = _parse_int(size_toks[0][0], idx + 1, size_toks[0][1])
    cols = _parse_int(size_toks[1][0], idx + 1, size_toks[1][1])
    if rows <= 0 or cols <= 0:
        raise ParseError(f"matrix dimensions must be positive, got {rows} x {cols}", idx + 1)
    if symmetry == "symmetric" and rows != cols:
        raise ParseError(f"symmetric matrix must be square, got {rows} x {cols}", idx + 1)
    if fmt == "coordinate":
        count = _parse_int(size_toks[2][0], idx + 1, size_toks[2][1])
        if count < 0:
            raise ParseError(f"entry count must be >= 0, got {count}", idx + 1, size_toks[2][1])
    elif symmetry == "symmetric":
        count = rows * (rows + 1) // 2
    else:
        count = rows * cols
    return fmt, field, symmetry, rows, cols, count, idx


def _open_text(path):
    """``path`` opened as ASCII text; any other byte reads as U+FFFD."""
    return open(path, "r", encoding="ascii", errors="replace")


def _rereadable(fh):
    """``fh``, or, when it cannot seek (a pipe), its text read whole into
    memory, which can."""
    if fh.seekable():
        return fh
    return io.TextIOWrapper(io.BytesIO(fh.buffer.read()), encoding=fh.encoding, errors=fh.errors)


def read_matrix_market_shape(path):
    """(rows, cols) of a Matrix Market file from its banner and size
    line, read and checked as ``read_matrix_market`` reads them; no line
    after the size line is read."""
    with _open_text(path) as fh:
        _, _, _, rows, cols, _, _ = _read_header(fh)
    return rows, cols


def read_matrix_market(path):
    """Read a Matrix Market file into a dense float array."""
    with _open_text(path) as opened:
        fh = _rereadable(opened)
        fmt, field, symmetry, rows, cols, count, idx = _read_header(fh)
        try:
            out = np.zeros((rows, cols))
        except (MemoryError, ValueError):
            raise ParseError(f"a {rows} x {cols} matrix does not fit in memory", idx + 1) from None
        columns = None
        if field == "real":
            columns = _load_columns(fh, fmt, rows, cols, count)
        if columns is None:
            fh.seek(0)
            lines = fh.readlines()
            columns = _scan_columns(lines, idx, fmt, field, symmetry, rows, cols, count)

    symmetric = symmetry == "symmetric"
    if fmt == "coordinate":
        i, j, v = columns
        i -= 1
        j -= 1
        if symmetric:
            # both stores of each entry, a slice of entries at a time in
            # file order: np.put writes in index order, so a later entry
            # overwrites an earlier one exactly as line-by-line stores do
            for start in range(0, len(v), PLACE_CHUNK_ENTRIES):
                si, sj, sv = (x[start:start + PLACE_CHUNK_ENTRIES] for x in (i, j, v))
                np.put(out, np.column_stack((si * cols + sj, sj * cols + si)),
                       np.column_stack((sv, sv)))
        else:
            np.put(out, i * cols + j, v)
    elif symmetric:
        # lower triangle, column by column: column j holds rows j..n-1
        j, i = np.triu_indices(rows)
        out[i, j] = columns[0]
        out[j, i] = columns[0]
    else:
        out[:] = columns[0].reshape(cols, rows).T
    return out


def _load_columns(fh, fmt, rows, cols, count):
    """The columns of the data section as np.loadtxt reads them from the
    open text file ``fh``, which stands after the size line and ends its
    lines where the file does, or None when it declines them: any error or warning (which includes an
    empty section), a wrong line count or shape, or an index outside the
    matrix. Comment lines are left to the line scan (comments=None), so
    a trailing ``% ...`` on a data line is never silently dropped."""
    with warnings.catch_warnings():
        # numpy 1.x parses 1.0 as an integer with only a DeprecationWarning
        warnings.simplefilter("error")
        try:
            if fmt == "coordinate":
                table = np.loadtxt(fh, dtype=_ENTRY, comments=None, ndmin=1)
            else:
                # ndmin=2 keeps the values of a single line in one row
                table = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if fmt == "array":
        return [table[:, 0]] if table.shape == (count, 1) else None
    if len(table) != count or not _indices_in_range(table["i"], table["j"], rows, cols):
        return None
    return [table["i"], table["j"], table["v"]]


def _indices_in_range(i, j, rows, cols):
    """Whether every 1-based coordinate lies inside the matrix."""
    return bool((i >= 1).all() and (i <= rows).all() and (j >= 1).all() and (j <= cols).all())


def _scan_columns(lines, idx, fmt, field, symmetry, rows, cols, count):
    """Scan the data section after the size line ``lines[idx]`` line by
    line with Python's int() and float(). Return its columns, as
    _load_columns does, or raise the ParseError of the first malformed
    line with the line and column of the bad token."""
    parse_value = _parse_float if field == "real" else _parse_integral
    data_lines = [(off, line) for off, line in enumerate(lines[idx + 1 :], start=idx + 2)
                  if not _skipped(line)]
    last = data_lines[-1][0] if data_lines else idx + 1

    if fmt == "coordinate":
        if len(data_lines) != count:
            raise ParseError(f"expected {count} entries, found {len(data_lines)}", last)
        entries = []
        for lineno, line in data_lines:
            toks = _tokens(line)
            if len(toks) != 3:
                raise ParseError(f"entry needs 'row col value', got {len(toks)} tokens", lineno)
            i = _parse_int(toks[0][0], lineno, toks[0][1])
            j = _parse_int(toks[1][0], lineno, toks[1][1])
            v = parse_value(toks[2][0], lineno, toks[2][1])
            if not 1 <= i <= rows:
                raise ParseError(f"row index {i} outside 1..{rows}", lineno, toks[0][1])
            if not 1 <= j <= cols:
                raise ParseError(f"column index {j} outside 1..{cols}", lineno, toks[1][1])
            entries.append((i, j, v))
        table = np.array(entries, dtype=_ENTRY)
        return [table["i"], table["j"], table["v"]]

    if len(data_lines) != count:
        raise ParseError(
            f"expected {count} values for a {rows} x {cols} {symmetry} array, "
            f"found {len(data_lines)}",
            last,
        )
    values = []
    for lineno, line in data_lines:
        toks = _tokens(line)
        if len(toks) != 1:
            raise ParseError(f"array entry needs one value per line, got {len(toks)}", lineno)
        values.append(parse_value(toks[0][0], lineno, toks[0][1]))
    return [np.array(values, dtype=np.float64)]


def _coordinate_text(array, symmetric):
    """Check ``array`` for coordinate output, then return the text of its
    file as an iterator of strings: the header, then the entries
    WRITE_CHUNK_ENTRIES at a time."""
    arr = _real(array, "each matrix entry")
    if arr.ndim != 2:
        raise StructureError(f"expected a 2-D matrix, got shape {arr.shape}")
    rows, cols = arr.shape
    if symmetric:
        if rows != cols:
            raise StructureError(f"symmetric output needs a square matrix, got {rows} x {cols}")
        if not np.array_equal(arr, arr.T):
            raise StructureError("symmetric output needs exactly symmetric entries")
    kind = "symmetric" if symmetric else "general"
    nonzero = arr.T != 0.0
    if symmetric:
        nonzero = np.triu(nonzero)  # lower triangle of arr
    j, i = np.nonzero(nonzero)  # column-major order
    header = f"%%MatrixMarket matrix coordinate real {kind}\n{rows} {cols} {i.size}\n"
    chunks = (
        _format_entries(arr, i[start : start + WRITE_CHUNK_ENTRIES],
                        j[start : start + WRITE_CHUNK_ENTRIES])
        for start in range(0, i.size, WRITE_CHUNK_ENTRIES)
    )
    return chain((header,), chunks)


def _format_entries(arr, i, j):
    """The lines of the entries arr[i, j], with 1-based indices."""
    entries = [None] * (3 * i.size)  # r1, c1, v1, r2, ... for one % call
    entries[0::3] = (i + 1).tolist()
    entries[1::3] = (j + 1).tolist()
    entries[2::3] = arr[i, j].tolist()
    return "%d %d %.17g\n" * i.size % tuple(entries)


def format_matrix_market(array, symmetric=False):
    """Render a dense matrix of real numbers (``linalg._real``) in coordinate
    format; symmetric storage keeps the lower triangle only."""
    return "".join(_coordinate_text(array, symmetric))


def write_matrix_market(path, array, symmetric=False):
    """Write a dense matrix to a coordinate-format Matrix Market file, as
    ``format_matrix_market`` renders it. The matrix is checked before the
    file is opened; the text is written as it is formatted."""
    text = _coordinate_text(array, symmetric)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(text)
