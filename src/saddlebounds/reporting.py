"""Run configuration, problem file ingestion, and report serialization.

Reports are written as a JSON envelope (problem metadata, configuration,
bound reports with their certifications, optional sweep rows) plus CSV
files for tabular consumers. All output is byte-stable for fixed inputs:
no timestamps, sorted keys, fixed float formatting.

The envelope text is what ``json.dumps(envelope, sort_keys=True,
indent=2)`` gives, byte for byte, but it comes from a direct recursive
writer: json's C encoder is never used once ``indent`` is set, and its
pure-Python path is slower than writing the text out here. The writer
takes dicts with str keys, lists, tuples and scalars; it refuses a key
of any other type, which json.dumps would turn into text.
"""

import os
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from typing import ClassVar

import numpy as np

from .bounds import DEFAULT_ANGLE_TOL, SaddleProblem
from .errors import (
    ProblemValidationError,
    SaddleBoundsError,
    StructureError,
)
from .harness import DEFAULT_CERT_SLACK, DEFAULT_SIZE_CAP, SWEEP_CSV_HEADER
from .linalg import _integer, _scalar, checked_rel_tol, default_rank_tol
from .mmio import read_matrix_market, read_matrix_market_shape

BOUNDS_CSV_HEADER = "name,value,assumptions_met,status,slack,warnings"
# the keys of a sweep row in report.json: the columns of sweep.csv
_SWEEP_KEYS = SWEEP_CSV_HEADER.split(",")

_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# JSON text of each scalar type, up to the float specials; no other text
# from these equals a key of _FLOAT_SPECIALS
_SCALAR_TEXT = {
    str: _encode_str,
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


@dataclass(frozen=True)
class RunConfig:
    """The CLI's run settings.

    ``rel_tol`` (None: each problem uses its own default n * machine
    epsilon) and the sweep's gamma grid come from the command line. Each
    is kept as the float or int that linalg's number rules give;
    ``log_gamma_grid`` checks the grid's range. The class-level values are
    fixed; report.json records them all.
    """

    angle_tol: ClassVar[float] = DEFAULT_ANGLE_TOL
    cert_slack: ClassVar[float] = DEFAULT_CERT_SLACK
    output_format: ClassVar[str] = "json"
    seed: ClassVar[int] = 0
    size_cap: ClassVar[int] = DEFAULT_SIZE_CAP

    rel_tol: float = None
    gamma_min: float = 1e-4
    gamma_max: float = 1e4
    gamma_points: int = 25

    def __post_init__(self):
        # frozen: each checked number replaces the value given
        if self.rel_tol is not None:
            object.__setattr__(self, "rel_tol", checked_rel_tol(self.rel_tol))
        object.__setattr__(self, "gamma_min", _scalar(self.gamma_min, "gamma_min"))
        object.__setattr__(self, "gamma_max", _scalar(self.gamma_max, "gamma_max"))
        object.__setattr__(self, "gamma_points", _integer(self.gamma_points, "points"))


def read_problem(source, rel_tol=None):
    """Load and validate a saddle problem from Matrix Market files.

    ``source`` is the dict report.json records as the problem's source:
    ``{"A": path, "B": path}`` for separate blocks, or
    ``{"K": path, "n": order}`` for the whole matrix with the order n of
    its leading block. For a whole-K file the trailing block must be
    numerically zero and the off-diagonal blocks exact transposes, both
    within rel_tol * max|K| (rel_tol of None: (n + m) * machine epsilon).
    Structural failures raise StructureError naming the violated
    invariant. A rel_tol that is not one positive, finite real number, and
    a split index n that is not an integer (3.0 reads as 3), are refused
    first, with ParameterOutOfRangeError.
    """
    rel_tol = checked_rel_tol(rel_tol) if rel_tol is not None else None
    if "K" in source:
        n = _integer(source["n"], "split index n")
        k = read_matrix_market(source["K"])
        order = k.shape[0]
        if k.shape[0] != k.shape[1]:
            raise StructureError(f"K file must be square, got shape {k.shape}")
        if not 0 < n < order:
            raise StructureError(f"split index n = {n} outside 1..{order - 1}")
        k_tol = rel_tol if rel_tol is not None else default_rank_tol(order)
        scale = float(np.abs(k).max())
        tol = k_tol * scale
        trailing = float(np.abs(k[n:, n:]).max())
        if trailing > tol:
            raise StructureError(
                f"trailing (2,2) block is not zero: max entry {trailing:.6e} exceeds "
                f"rel_tol * max|K| = {tol:.6e}"
            )
        skew = float(np.abs(k[:n, n:] - k[n:, :n].T).max())
        if skew > tol:
            raise StructureError(
                f"off-diagonal blocks are not transposes: max deviation {skew:.6e} "
                f"exceeds rel_tol * max|K| = {tol:.6e}"
            )
        a = k[:n, :n]
        b = k[n:, :n]
    else:
        a = read_matrix_market(source["A"])
        b = read_matrix_market(source["B"])
    try:
        return SaddleProblem(a, b, rel_tol=rel_tol)
    except ProblemValidationError as exc:
        raise StructureError(f"invalid saddle problem: {exc}") from exc


def size_line_order(source):
    """The order n + m of K as the banner and size lines of the files in
    ``source`` give it, with no data read; None when a file is not a
    regular file (a stream can be read only once, so only ``read_problem``
    reads it), or when those lines cannot be read or describe no saddle
    problem (``read_problem`` then reports why). A split index n is
    judged first, as ``read_problem`` judges it."""
    n = _integer(source["n"], "split index n") if "K" in source else None
    paths = [source["K"]] if "K" in source else [source["A"], source["B"]]
    try:
        # stat, not open: opening and closing a named pipe breaks its writer
        if not all(stat.S_ISREG(os.stat(path).st_mode) for path in paths):
            return None
        if "K" in source:
            rows, cols = read_matrix_market_shape(source["K"])
            m = rows - n
            return rows if rows == cols and 0 < m < n else None
        n, a_cols = read_matrix_market_shape(source["A"])
        m, b_cols = read_matrix_market_shape(source["B"])
    except (SaddleBoundsError, OSError):
        return None
    return n + m if n == a_cols == b_cols and m < n else None


def bound_entry(report, certification=None):
    entry = {
        "name": report.name,
        "value": report.value,
        "assumptions_met": True,  # a bound whose assumptions fail raises instead
        "details": dict(report.details),
        "warnings": list(report.warnings),
    }
    if report.intervals is not None:
        (neg_lo, neg_hi), (pos_lo, pos_hi) = report.intervals
        entry["intervals"] = {
            "negative": [neg_lo, neg_hi],
            "positive": [pos_lo, pos_hi],
        }
    if certification is not None:
        entry["certification"] = {
            "status": certification.status,
            "slack": certification.slack,
        }
    return entry


def report_envelope(problem, config, reports, certifications=None, sweep=None,
                    oracle_result=None, source=None, notes=()):
    """Assemble the JSON report envelope.

    Its values are the ones the bounds, the oracle and the sweep built,
    unconverted; ``envelope_to_json`` writes them as json.dumps would, and
    rejects what it would reject."""
    s = problem.summary
    certs = certifications if certifications is not None else [None] * len(reports)
    bounds = [bound_entry(r, c) for r, c in zip(reports, certs)]
    cert_block = {"performed": oracle_result is not None}
    if oracle_result is not None:
        statuses = [b.get("certification", {}).get("status") for b in bounds]
        cert_block.update(
            {
                "mu_min_plus_k": oracle_result.mu_min_plus,
                "pos_count": oracle_result.pos_count,
                "neg_count": oracle_result.neg_count,
                "zero_count": 0,  # k_eigs refuses a K with an eigenvalue near zero
                "inertia_ok": oracle_result.inertia_ok,
                "all_sound": all(st in ("sound", "vacuous") for st in statuses if st),
            }
        )
    envelope = {
        "problem": {
            "n": problem.n,
            "m": problem.m,
            "rank_a": s.rank_a,
            "nullity_a": s.nullity_a,
            "mu_max": s.mu_max,
            "mu_min_plus": s.mu_min_plus,
            "sigma_max": s.sigma_max,
            "sigma_min": s.sigma_min,
            "rel_tol": problem.rel_tol,
            "source": source if source is not None else {},
        },
        "config": {
            "rel_tol": config.rel_tol,
            "angle_tol": config.angle_tol,
            "cert_slack": config.cert_slack,
            "gamma_grid": {
                "min": config.gamma_min,
                "max": config.gamma_max,
                "points": config.gamma_points,
            },
            "output_format": config.output_format,
            "seed": config.seed,
            "size_cap": config.size_cap,
        },
        "bounds": bounds,
        "certification": cert_block,
        "sweep": None,
        "notes": list(notes),
    }
    if sweep is not None:
        envelope["sweep"] = {
            "crossing_index": sweep.crossing_index,
            "actual_mu_min_plus": sweep.actual_mu_min_plus,
            "rows": [dict(zip(_SWEEP_KEYS, row)) for row in sweep.rows],
        }
    return envelope


def _write_json(value, out, indent):
    """Append the JSON text of ``value`` to ``out``. ``indent`` is a
    newline plus the indentation of the line ``value`` starts on.

    The container loops write items of an exact type in _SCALAR_TEXT
    inline; any other item recurses. A scalar of another type is written
    by the table entry of its nearest base, so a subclass of str, int or
    float (an np.float64, say) comes out as json writes it."""
    if isinstance(value, (list, tuple)):
        inner = indent + "  "
        sep = "," + inner
        head = "[" + inner
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                out.append(head)
                _write_json(item, out, inner)
            else:
                text = text(item)
                out.append(head + _FLOAT_SPECIALS.get(text, text))
            head = sep
        out.append(indent + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "," + inner
        head = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                out.append(head + _encode_str(key) + ": ")
                _write_json(item, out, inner)
            else:
                text = text(item)
                out.append(head + _encode_str(key) + ": " + _FLOAT_SPECIALS.get(text, text))
            head = sep
        out.append(indent + "}" if value else "{}")
    else:
        for cls in type(value).__mro__:
            text = _SCALAR_TEXT.get(cls)
            if text is not None:
                text = text(value)
                out.append(_FLOAT_SPECIALS.get(text, text))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def envelope_to_json(envelope):
    """The envelope as ``json.dumps(envelope, sort_keys=True, indent=2)``
    plus a newline, byte for byte. The envelope is made of dicts with str
    keys, lists, tuples and scalars; anything else, and a key that is not
    a str, raises TypeError naming its type."""
    out = []
    _write_json(envelope, out, "\n")
    out.append("\n")
    return "".join(out)


def bounds_to_csv(envelope):
    """The envelope's bound entries as a small CSV table."""
    lines = [BOUNDS_CSV_HEADER]
    for entry in envelope["bounds"]:
        cert = entry.get("certification")
        status = cert["status"] if cert is not None else ""
        slack = f"{cert['slack']:.17g}" if cert is not None else ""
        warnings = ";".join(entry["warnings"])
        lines.append(
            f"{entry['name']},{entry['value']:.17g},{entry['assumptions_met']},"
            f"{status},{slack},{warnings}"
        )
    return "\n".join(lines) + "\n"


def write_report(out_dir, envelope, sweep=None, output_format="json"):
    """Write the report files into a directory and return their paths.

    Always writes report.json; adds sweep.csv when sweep rows exist and
    bounds.csv, the envelope's bounds as CSV, when the CSV format is
    selected.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(envelope_to_json(envelope))
    written.append(path)
    if sweep is not None:
        path = os.path.join(out_dir, "sweep.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(sweep.to_csv())
        written.append(path)
    if output_format == "csv":
        path = os.path.join(out_dir, "bounds.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(bounds_to_csv(envelope))
        written.append(path)
    return written
