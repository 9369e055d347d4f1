"""Golden outputs: one 16-hex SHA-256 prefix per (member, command) of what
the command line prints and writes, so that a change moving one byte of
any output names the member it moved.

The members are the acceptance corpus (``conftest.build_corpus``) and the
``hard.py`` members, each run in process through the subcommands of
``saddlebounds.cli``, which are handed one in-memory problem, plus two
instances of the benchmark's files workload at n = 100, generated and
run through ``cli.main`` on Matrix Market files. The commands are:

* ``bound``: ``bound --gamma 1``, as JSON and as the ``--csv`` table;
* ``auto-gamma``: ``bound --auto-gamma``;
* ``sweep``: ``sweep`` on the default 25-point grid, report.json and
  sweep.csv;
* ``verify``: ``verify`` at the default gammas;
* ``generate`` (files instances only): the written files.

Each digest covers the exit code, stdout, stderr and the files written;
a refused command records its error type and message. golden.json also
records the environment that wrote it (Python, numpy, BLAS and the
machine). Where the running environment differs, a portable table is
compared instead, as digests of what must hold everywhere: exit codes,
refusal types, certification statuses, crossing indices and the
``verify`` lines with every float masked.

    PYTHONPATH=src:tests python tests/golden.py --check          # tier-1 members
    PYTHONPATH=src:tests python tests/golden.py --check --large  # hard members above order 100
    PYTHONPATH=src:tests python tests/golden.py --write          # rewrite golden.json
"""

# first: conftest pins BLAS to one thread before numpy loads
from conftest import build_corpus

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

import hard
from saddlebounds import cli
from saddlebounds.bounds import SaddleProblem
from saddlebounds.errors import SaddleBoundsError, SizeCapError
from saddlebounds.reporting import BOUNDS_CSV_HEADER

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# largest order n + m of a hard member checked in tier-1; the larger ones
# are checked with --large
MAX_ORDER = 100
LARGE_HARD = (
    "random-400x160-s3", "random-400x160-s14", "random-400x160-s17", "random-400x160-s23",
    "ipm-400x160-d0.01-s14",
)

_PROBLEM = ["--A", "A.mtx", "--B", "B.mtx"]
_FILES_PROBLEM = ["--A", "prob/A.mtx", "--B", "prob/B.mtx"]
# command -> the argument lists it runs, in order; the problem arguments follow
COMMANDS = {
    "bound": (["bound", "--gamma", "1"], ["bound", "--gamma", "1", "--csv"]),
    "auto-gamma": (["bound", "--auto-gamma"],),
    "sweep": (["sweep", "--out", "out"],),
    "verify": (["verify"],),
}
# label -> (family, parameters, seed) of the files instances
FILES = {
    "files-random-lowest-rank-100x40-s1": ("random-lowest-rank", {"n": 100, "m": 40}, 1),
    "files-ipm-like-100x40-s1": ("ipm-like", {"n": 100, "m": 40, "delta": 1e-2}, 1),
}

# a float as the CLI prints one: with a point or an exponent, or inf, nan
_FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)(?![\w.])")


@dataclass(frozen=True)
class Run:
    """What one command line gave: its exit code, the error it raised
    (None through ``cli.main``, which prints it), its stdout and stderr,
    and the files it wrote, by name."""

    code: int
    refusal: Exception
    stdout: str
    stderr: str
    files: dict

    def text(self):
        out = [f"exit {self.code}\n"]
        if self.refusal is not None:
            out.append(f"{type(self.refusal).__name__}: {self.refusal}\n")
        out += ["stdout\n", self.stdout, "stderr\n", self.stderr]
        for name, text in self.files.items():
            out += [f"file {name}\n", text]
        return "".join(out)

    def portable(self):
        """The run's text with no float in it."""
        out = [f"exit {self.code}\n"]
        if self.refusal is not None:
            out.append(f"{type(self.refusal).__name__}\n")
        for text in (self.stdout, self.files.get("report.json", "")):
            if text.startswith("{"):
                out += _envelope_facts(json.loads(text))
            elif not text.startswith(BOUNDS_CSV_HEADER):  # the CSV fields are floats
                out.append(_FLOAT.sub("*", text))
        out.append(_FLOAT.sub("*", self.stderr))
        return "".join(out)


def _envelope_facts(envelope):
    """The lines of a report.json that hold no float."""
    out = [f"{b['name']} {b.get('certification', {}).get('status')} {b['warnings']}\n"
           for b in envelope["bounds"]]
    cert = envelope["certification"]
    out.append(f"certification {cert['performed']} {cert.get('inertia_ok')} "
               f"{cert.get('all_sound')}\n")
    if envelope["sweep"] is not None:
        out.append(f"crossing {envelope['sweep']['crossing_index']}\n")
    return out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(call, argv, out="out", keep=False):
    """``call(argv)`` with stdout and stderr captured, and the files it
    wrote in the directory ``out`` read back, then deleted unless ``keep``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    refusal = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = call(argv)
        except SizeCapError as exc:
            code, refusal = cli.EXIT_SIZE_CAP, exc
        except SaddleBoundsError as exc:
            code, refusal = cli.EXIT_INPUT, exc
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            with open(path, encoding="ascii", newline="") as fh:
                files[name] = fh.read()
            if not keep:
                os.remove(path)
    return Run(code, refusal, stdout.getvalue(), stderr.getvalue(), files)


def _commands(call, problem_args):
    """command -> its runs, each given ``problem_args``."""
    return {command: [_run(call, argv + problem_args) for argv in argvs]
            for command, argvs in COMMANDS.items()}


@contextlib.contextmanager
def _reading(a, b):
    """``cli`` reads the problem (a, b) from any source, one problem for
    every command (none of them sets --relTol); the size cap is left to the
    commands' own checks."""
    problem = SaddleProblem(a, b)
    saved = cli.read_problem
    cli.read_problem = lambda source, rel_tol=None, size_cap=None: problem
    try:
        yield
    finally:
        cli.read_problem = saved


def _subcommand(args):
    """The subcommand of parsed ``args`` itself, so that an error escapes
    with its type."""
    return args.func(args)


def in_memory_runs(a, b, parsed):
    """command -> its runs, in process, on the problem (a, b); ``parsed``
    maps each command to its argument lists as ``cli.build_parser()``
    parses them."""
    with _reading(a, b):
        return {command: [_run(_subcommand, args) for args in arglists]
                for command, arglists in parsed.items()}


def files_runs(family, params, seed):
    """command -> its runs through ``cli.main``: ``generate`` writes the
    instance to prob/, and the other commands read it from there."""
    generate = ["generate", "--family", family, "--params", json.dumps(params),
                "--seed", str(seed), "--out", "prob"]
    runs = {"generate": [_run(cli.main, generate, out="prob", keep=True)]}
    runs.update(_commands(cli.main, _FILES_PROBLEM))
    shutil.rmtree("prob")
    return runs


@contextlib.contextmanager
def _scratch_dir():
    """A new temporary directory as the working directory."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(start)


def hard_members():
    """label -> member, each ``hard.py`` member once."""
    every = {}
    for member in (hard.AUTO_GAMMA + hard.ANGLE_LADDER + hard.SCALE_LADDER
                   + hard.INVERSE_IDENTITY + hard.FIXED_GAMMA_WBOUND + hard.RIGHT_ANGLE):
        every.setdefault(member.label, member)
    return every


def problems(corpus=None, large=False, small=True):
    """(label, (A, B)) of the members: the corpus (built unless given) and
    the hard members up to MAX_ORDER when ``small``, the hard members in
    LARGE_HARD when ``large``."""
    out = []
    if small:
        corpus = build_corpus() if corpus is None else corpus
        out += [(label, (p.A.array, p.B.array)) for label, p in corpus]
    for label, member in hard_members().items():
        if (label in LARGE_HARD and large) or (label not in LARGE_HARD and small):
            a, b = member.build()
            if (len(a) + len(b) > MAX_ORDER) != (label in LARGE_HARD):
                raise ValueError(f"LARGE_HARD must name the hard members above order "
                                 f"{MAX_ORDER}, and {label} has order {len(a) + len(b)}")
            out.append((label, (a, b)))
    return out


def results(corpus=None, large=False, small=True):
    """label -> command -> (digest, portable digest) of every member chosen
    as ``problems`` chooses them, plus the files instances when ``small``."""
    out = {}
    parser = cli.build_parser()
    parsed = {command: [parser.parse_args(argv + _PROBLEM) for argv in argvs]
              for command, argvs in COMMANDS.items()}
    with _scratch_dir():
        for label, (a, b) in problems(corpus, large, small):
            out[label] = in_memory_runs(a, b, parsed)
        if small:
            for label, (family, params, seed) in FILES.items():
                out[label] = files_runs(family, params, seed)
    return {label: {command: (_digest("".join(run.text() for run in runs)),
                              _digest("".join(run.portable() for run in runs)))
                    for command, runs in commands.items()}
            for label, commands in out.items()}


def _blas():
    """The BLAS numpy was built with: name, version and, for OpenBLAS, its
    configuration, which names the CPU kernels it runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        # numpy < 1.26: show_config takes no mode; numpy.__config__ keeps
        # the build's library lists
        info = getattr(np.__config__, "blas_opt_info", {})
        return {"name": ",".join(info.get("libraries", [])) or "unknown", "version": "unknown"}
    out = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    if "openblas configuration" in blas:
        out["configuration"] = blas["openblas configuration"]
    return out


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
            "machine": platform.machine()}


def load():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


def compare(golden, computed):
    """(what was compared, the moved 'member: command' names): the digests
    where golden.json was written in this environment, else the portable
    table. A member golden.json does not hold counts as moved."""
    env = environment()
    if golden["environment"] == env:
        mode, key, pick = "byte digests", "digests", 0
    else:
        differs = sorted(k for k in env if golden["environment"].get(k) != env[k])
        mode, key, pick = f"portable table ({', '.join(differs)} differ)", "portable", 1
    moved = [f"{label}: {command}" for label, commands in computed.items()
             for command, pair in commands.items()
             if golden[key].get(label, {}).get(command) != pair[pick]]
    return f"{mode} of {len(computed)} members", moved


def _member_lines(table):
    return ",\n".join(f"  {json.dumps(label)}: {json.dumps(table[label], sort_keys=True)}"
                      for label in sorted(table))


def write(computed):
    """golden.json with the environment and both digest tables, one member a line."""
    tables = {key: {label: {command: pair[i] for command, pair in commands.items()}
                    for label, commands in computed.items()}
              for i, key in enumerate(("digests", "portable"))}
    text = "{\n" + f'"environment": {json.dumps(environment(), sort_keys=True)},\n'
    text += ",\n".join(f'"{key}": {{\n{_member_lines(tables[key])}\n}}' for key in tables)
    with open(GOLDEN, "w", encoding="ascii") as fh:
        fh.write(text + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with golden.json")
    mode.add_argument("--write", action="store_true", help="rewrite golden.json")
    parser.add_argument("--large", action="store_true",
                        help="with --check: only the hard members above order "
                             f"{MAX_ORDER}")
    args = parser.parse_args(argv)
    if args.write:
        write(results(large=True))
        print(f"wrote {GOLDEN}")
        return 0
    what, moved = compare(load(), results(large=args.large, small=not args.large))
    print(f"golden: compared the {what}")
    for name in moved:
        print(f"moved: {name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
