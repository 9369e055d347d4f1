"""Matrix Market reader and writer for dense real matrices.

Handles coordinate and array formats with general or symmetric storage.
The reader converts the data section in bulk, a fixed slice of lines at
a time, so the memory it needs beyond the file's lines and the matrix
stays bounded. A malformed data section is then scanned line by line,
and its ParseError carries the line and column of the first bad token.
Values are written with 17 significant digits so float64 entries
round-trip exactly, and entries are emitted in a fixed column-major
order so output bytes are stable.
"""

import re

import numpy as np

from .errors import ParseError, StructureError

_TOKEN = re.compile(r"\S+")

_BANNER = "%%matrixmarket"
_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "integer")
_SYMMETRIES = ("general", "symmetric")

# Data lines tokenized and converted at a time: only one slice's token
# lists are alive at once.
_SLICE_LINES = 4096


class _Malformed(Exception):
    """The bulk conversion rejected the data section."""


def _tokens(line):
    """(text, 1-based column) for each whitespace-separated token."""
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


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


def read_matrix_market(path):
    """Read a Matrix Market file into a dense float array."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", 1)

    header = _tokens(lines[0])
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

    # skip comments, locate the size line
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    if idx >= len(lines) or not lines[idx].strip():
        raise ParseError("missing size line", idx + 1)
    size_toks = _tokens(lines[idx])
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
    out = np.zeros((rows, cols))

    symmetric = symmetry == "symmetric"
    if fmt == "coordinate":
        count = _parse_int(size_toks[2][0], idx + 1, size_toks[2][1])
        kinds = ((int, np.int64), (int, np.int64), (float, np.float64))
    else:
        count = rows * (rows + 1) // 2 if symmetric else rows * cols
        kinds = ((float, np.float64),)
    try:
        columns = _bulk_columns(lines, idx + 1, count, kinds)
        if fmt == "coordinate" and not _indices_in_range(*columns[:2], rows, cols):
            raise _Malformed
    except _Malformed:
        _raise_first_error(lines, idx, fmt, symmetry, rows, cols, count)

    if fmt == "coordinate":
        i, j, v = columns
        i -= 1
        j -= 1
        if symmetric:
            # both stores of each entry, entries in file order: np.put writes
            # in index order, so a later entry overwrites an earlier one
            # exactly as line-by-line stores do
            i, j = np.column_stack((i, j)).ravel(), np.column_stack((j, i)).ravel()
            v = np.repeat(v, 2)
        np.put(out, i * cols + j, v)
    elif symmetric:
        # lower triangle, column by column: column j holds rows j..n-1
        j, i = np.triu_indices(rows)
        out[i, j] = columns[0]
        out[j, i] = columns[0]
    else:
        out[:] = columns[0].reshape(cols, rows).T
    return out


def _data_slices(lines, start):
    """Token lists of the data lines in ``lines[start:]``, blank and
    comment lines dropped, one slice of _SLICE_LINES lines at a time."""
    for s in range(start, len(lines), _SLICE_LINES):
        toks = [line.split() for line in lines[s : s + _SLICE_LINES]]
        yield [t for t in toks if t and not t[0].startswith("%")]


def _bulk_columns(lines, start, count, kinds):
    """Convert a data section of ``count`` lines into one array per token
    position; ``kinds`` holds a (parser, dtype) pair per position.

    Raises _Malformed on a wrong line count, a line with the wrong number
    of tokens, or a token its parser rejects.
    """
    if not 0 <= count <= len(lines) - start:
        raise _Malformed
    width = len(kinds)
    columns = [np.empty(count, dtype) for _, dtype in kinds]
    pos = 0
    for toks in _data_slices(lines, start):
        end = pos + len(toks)
        if end > count or any(len(t) != width for t in toks):
            raise _Malformed
        if not toks:
            continue
        for column, (parse, dtype), texts in zip(columns, kinds, zip(*toks)):
            try:
                column[pos:end] = np.fromiter(map(parse, texts), dtype, end - pos)
            except (ValueError, OverflowError):
                raise _Malformed from None
        pos = end
    if pos != count:
        raise _Malformed
    return columns


def _indices_in_range(i, j, rows, cols):
    """Whether every 1-based coordinate lies inside the matrix."""
    return bool((i >= 1).all() and (i <= rows).all() and (j >= 1).all() and (j <= cols).all())


def _raise_first_error(lines, idx, fmt, symmetry, rows, cols, count):
    """Raise the ParseError of the first malformed line after the size
    line ``lines[idx]``, with the line and column a line-by-line reader
    reports. Runs only after the bulk conversion rejected the section."""
    data_lines = []
    for off, line in enumerate(lines[idx + 1 :], start=idx + 2):
        if line.lstrip().startswith("%") or not line.strip():
            continue
        data_lines.append((off, line))
    last = data_lines[-1][0] if data_lines else idx + 1

    if fmt == "coordinate":
        if len(data_lines) != count:
            raise ParseError(f"expected {count} entries, found {len(data_lines)}", last)
        for lineno, line in data_lines:
            toks = _tokens(line)
            if len(toks) != 3:
                raise ParseError(f"entry needs 'row col value', got {len(toks)} tokens", lineno)
            i = _parse_int(toks[0][0], lineno, toks[0][1])
            j = _parse_int(toks[1][0], lineno, toks[1][1])
            _parse_float(toks[2][0], lineno, toks[2][1])
            if not 1 <= i <= rows:
                raise ParseError(f"row index {i} outside 1..{rows}", lineno, toks[0][1])
            if not 1 <= j <= cols:
                raise ParseError(f"column index {j} outside 1..{cols}", lineno, toks[1][1])
    else:
        if len(data_lines) != count:
            raise ParseError(
                f"expected {count} values for a {rows} x {cols} {symmetry} array, "
                f"found {len(data_lines)}",
                last,
            )
        for lineno, line in data_lines:
            toks = _tokens(line)
            if len(toks) != 1:
                raise ParseError(f"array entry needs one value per line, got {len(toks)}", lineno)
            _parse_float(toks[0][0], lineno, toks[0][1])
    raise RuntimeError("the bulk conversion rejected a data section the line scan accepts")


def format_matrix_market(array, symmetric=False, comment=None):
    """Render a dense matrix in coordinate format; symmetric storage
    keeps the lower triangle only."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 2:
        raise StructureError(f"expected a 2-D matrix, got shape {arr.shape}")
    rows, cols = arr.shape
    if symmetric:
        if rows != cols:
            raise StructureError(f"symmetric output needs a square matrix, got {rows} x {cols}")
        if not np.array_equal(arr, arr.T):
            raise StructureError("symmetric output needs exactly symmetric entries")
    kind = "symmetric" if symmetric else "general"
    out = [f"%%MatrixMarket matrix coordinate real {kind}"]
    if comment:
        out.extend(f"% {c}" for c in str(comment).splitlines())
    nonzero = arr.T != 0.0
    if symmetric:
        nonzero = np.triu(nonzero)  # lower triangle of arr
    j, i = np.nonzero(nonzero)  # column-major order
    values = arr[i, j].tolist()
    out.append(f"{rows} {cols} {len(values)}")
    out.extend(
        f"{r} {c} {v:.17g}" for r, c, v in zip((i + 1).tolist(), (j + 1).tolist(), values)
    )
    return "\n".join(out) + "\n"


def write_matrix_market(path, array, symmetric=False, comment=None):
    """Write a dense matrix to a coordinate-format Matrix Market file."""
    text = format_matrix_market(array, symmetric=symmetric, comment=comment)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
