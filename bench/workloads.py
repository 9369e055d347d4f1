"""The benchmark's workloads: files, dense and corpus.

A workload runs passes. A pass generates the workload's problem
instances, then takes each one through bound, sweep and verify, timing
every operation and checking its outcome:

* files: each instance goes through ``cli.main`` as a user would type it
  (generate, bound --auto-gamma --out, sweep --out, verify), so Matrix
  Market writing and parsing are on the measured path.
* dense and corpus: the instances stay in memory and the operations call
  the library the way cmd_bound, cmd_sweep and run_verification do, each
  one building a fresh SaddleProblem like the CLI does.

Outcome rules: a bound below the size cap certifies with every bound
sound and the inertia as expected; above the cap it comes back
uncertified, and sweep and verify are refused with SizeCapError (exit 3
on the CLI). A sweep has 25 rows, a verify finds no violation, and every
pass writes the same report bytes as the run's first pass. An operation
that breaks a rule counts as failed; one that returned a wrong result
(rather than refusing) also makes the run incorrect.
"""

import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import saddlebounds
from saddlebounds import bounds, cli, harness, mmio, problems, reporting
from saddlebounds.errors import SaddleBoundsError, SizeCapError, ZeroAngleError

# The benchmark's recipe checks call the original routine, so the traced
# run counts only the program's own numpy.linalg calls.
_eigvalsh = np.linalg.eigvalsh

VERIFY_GAMMAS = (0.1, 1.0, 10.0)
SWEEP_POINTS = 25
SIZE_CAP = reporting.RunConfig().size_cap


@dataclass
class Instance:
    """One generated problem: a family, its parameters and the seed."""

    family: str
    params: dict
    seed: int
    read_k: bool = False  # files: bound it a second time through --K FILE --n N

    @property
    def label(self):
        return f"{self.family}-{self.params['n']}x{self.params['m']}-s{self.seed}"

    @property
    def over_cap(self):
        return self.params["n"] + self.params["m"] > SIZE_CAP

    @property
    def spec(self):
        return problems.GeneratorSpec(self.family, dict(self.params), self.seed)


def family_instances(sizes, seed, read_k=False):
    """random-lowest-rank and ipm-like (delta = 1e-2) instances with m = 0.4 n."""
    out = []
    for n in sizes:
        m = 2 * n // 5
        out.append(Instance("random-lowest-rank", {"n": n, "m": m}, seed))
        out.append(Instance("ipm-like", {"n": n, "m": m, "delta": 1e-2}, seed, read_k))
    return out


@dataclass
class PassResult:
    """Seconds per (instance label, operation) in one pass, and its wall time."""

    times: dict = field(default_factory=dict)
    wall: float = 0.0

    def add(self, label, op, seconds):
        self.times[(label, op)] = self.times.get((label, op), 0.0) + seconds


class Outcomes:
    """Counts operations attempted, failed and wrong over one run.

    An operation is one (instance, command) pair, named by ``what``. It
    counts as attempted once however many passes repeat it, and as failed
    when it broke its rule on any pass, so the counts follow from the seed
    and not from how many passes fit in the run.
    """

    def __init__(self):
        self._ok = {}
        self.wrong = 0
        self._first = {}

    @property
    def attempted(self):
        return len(self._ok)

    @property
    def failed(self):
        return sum(not ok for ok in self._ok.values())

    def record(self, what, ok, wrong=False, detail=""):
        if not ok:
            self.wrong += bool(wrong)
            if self._ok.get(what, True):
                print(f"failed: {what}: {detail}".rstrip(), file=sys.stderr)
        self._ok[what] = self._ok.get(what, True) and ok
        return ok

    def same_as_first(self, key, data):
        """True when ``data`` hashes as it did in the run's first pass."""
        digest = hashlib.sha256(data).hexdigest()
        return self._first.setdefault(key, digest) == digest


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _attempt(fn, *args, **kwargs):
    """(result, error, seconds) of one library call; a SaddleBoundsError is
    an outcome to check, not a crash."""
    start = time.perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except SaddleBoundsError as exc:
        # dropping the traceback breaks the frame <-> exception cycle that
        # would keep the failed call's matrices alive until a full collection
        result, error = None, exc.with_traceback(None)
    return result, error, time.perf_counter() - start


# verify checks that hold the bounds or the inertia against the dense
# oracle; a violation there is a wrong result. The residual checks
# (inverse identity, stacked-basis spectrum) compare with fixed absolute
# tolerances, and missing one is a failed operation, not a wrong result.
_ORACLE_CHECKS = ("inertia", "containment", "soundness")


def _contradicts_oracle(violations):
    return any(v.startswith(_ORACLE_CHECKS) for v in violations)


def _certified(envelope):
    cert = envelope["certification"]
    return cert["performed"] and cert["all_sound"] and cert["inertia_ok"]


# ---------------------------------------------------------------- in memory


def memory_bound(a, b, source, zero_angle_ok=False):
    """``bound --auto-gamma`` on in-memory arrays; returns the envelope.

    With ``zero_angle_ok`` a ZeroAngleError from the gamma selector falls
    back to the bounds without a gamma, as a user would rerun ``bound``
    without --auto-gamma.
    """
    cfg = reporting.RunConfig()
    problem = bounds.SaddleProblem(a, b, rel_tol=cfg.rel_tol)
    notes = []
    try:
        if problem.is_lowest_rank:
            gamma = bounds.optimal_gamma(problem, cfg.angle_tol)
        else:
            gamma = bounds.general_rank_optimal_gamma(problem, cfg.angle_tol)
            notes.append("auto-gamma fell back to the split-based formula")
    except ZeroAngleError:
        if not zero_angle_ok:
            raise
        gamma = None
    reports = bounds.applicable_bounds(problem, gamma=gamma, angle_tol=cfg.angle_tol)
    oracle_result = certifications = None
    if problem.n + problem.m <= cfg.size_cap:
        oracle_result = harness.oracle(problem, cfg.size_cap)
        certifications = [harness.certify(r, oracle_result, cfg.cert_slack) for r in reports]
    else:
        notes.append("certification skipped: problem exceeds the oracle size cap")
    envelope = reporting.report_envelope(
        problem, cfg, reports, certifications,
        oracle_result=oracle_result, source=source, notes=notes,
    )
    return envelope, reporting.envelope_to_json(envelope)


def memory_sweep(a, b, source):
    """``sweep --points 25`` on in-memory arrays; returns (rows, report text)."""
    cfg = reporting.RunConfig(gamma_points=SWEEP_POINTS)
    problem = bounds.SaddleProblem(a, b, rel_tol=cfg.rel_tol)
    grid = harness.log_gamma_grid(cfg.gamma_min, cfg.gamma_max, cfg.gamma_points)
    sweep = harness.gamma_sweep(problem, grid, size_cap=cfg.size_cap)
    reports = bounds.applicable_bounds(problem, angle_tol=cfg.angle_tol)
    oracle_result = harness.oracle(problem, cfg.size_cap)
    certifications = [harness.certify(r, oracle_result, cfg.cert_slack) for r in reports]
    envelope = reporting.report_envelope(
        problem, cfg, reports, certifications, sweep=sweep,
        oracle_result=oracle_result, source=source,
    )
    return len(sweep.rows), reporting.envelope_to_json(envelope) + sweep.to_csv()


def memory_verify(a, b):
    """``verify`` on in-memory arrays; returns the violations found."""
    cfg = reporting.RunConfig()
    problem = bounds.SaddleProblem(a, b, rel_tol=cfg.rel_tol)
    lines = []
    return cli.run_verification(problem, VERIFY_GAMMAS, cfg.cert_slack, cfg.angle_tol,
                                cfg.size_cap, emit=lines.append)


def run_memory_ops(label, a, b, over_cap, outcomes, result, zero_angle_ok=False):
    """Bound, sweep and verify one in-memory problem, checking each outcome."""
    source = {"instance": label}

    out, err, secs = _attempt(memory_bound, a, b, source, zero_angle_ok)
    result.add(label, "bound", secs)
    if err is not None:
        outcomes.record(f"{label} bound", False, detail=f"{type(err).__name__}: {err}")
    else:
        envelope, text = out
        ok = _certified(envelope) if not over_cap else not envelope["certification"]["performed"]
        same = outcomes.same_as_first(f"{label}/bound", text.encode())
        outcomes.record(f"{label} bound", ok and same, wrong=True,
                        detail="" if same else "report differs from the first pass")

    out, err, secs = _attempt(memory_sweep, a, b, source)
    result.add(label, "sweep", secs)
    if over_cap:
        outcomes.record(f"{label} sweep", isinstance(err, SizeCapError), wrong=err is None,
                        detail=f"expected SizeCapError, got {err!r}")
    elif err is not None:
        outcomes.record(f"{label} sweep", False, detail=f"{type(err).__name__}: {err}")
    else:
        rows, text = out
        same = outcomes.same_as_first(f"{label}/sweep", text.encode())
        outcomes.record(f"{label} sweep", rows == SWEEP_POINTS and same, wrong=True,
                        detail=f"{rows} rows, same as first pass: {same}")

    out, err, secs = _attempt(memory_verify, a, b)
    result.add(label, "verify", secs)
    if over_cap:
        outcomes.record(f"{label} verify", isinstance(err, SizeCapError), wrong=err is None,
                        detail=f"expected SizeCapError, got {err!r}")
    elif err is not None:
        outcomes.record(f"{label} verify", False, detail=f"{type(err).__name__}: {err}")
    else:
        outcomes.record(f"{label} verify", not out, wrong=_contradicts_oracle(out),
                        detail="; ".join(out))


def _generate_in_memory(inst, outcomes, result):
    problem, secs = _timed(problems.generate_problem, inst.spec)
    result.add(inst.label, "generate", secs)
    a, b = problem.A.array, problem.B.array
    same = outcomes.same_as_first(f"{inst.label}/arrays", a.tobytes() + b.tobytes())
    outcomes.record(f"{inst.label} generate", same, wrong=True,
                    detail="arrays differ from the first pass")
    return a, b


class DenseWorkload:
    """Seeded instances generated in memory and run through the library,
    plus one instance above the size cap for the traced run's probe."""

    def __init__(self, instances, probe):
        self.instances = instances
        self.probe = probe

    def setup(self):
        pass

    def run_pass(self, outcomes):
        result = PassResult()
        start = time.perf_counter()
        for inst in self.instances:
            a, b = _generate_in_memory(inst, outcomes, result)
            run_memory_ops(inst.label, a, b, inst.over_cap, outcomes, result)
        result.wall = time.perf_counter() - start
        return result

    def overcap_probe(self, outcomes, tracer):
        """Generate the over-cap instance, then, with ``tracer`` installed,
        bound it and have sweep and verify refused; returns the seconds
        those three took."""
        a, b = _generate_in_memory(self.probe, outcomes, PassResult())
        tracer.install(saddlebounds)
        try:
            start = time.perf_counter()
            run_memory_ops(self.probe.label, a, b, self.probe.over_cap, outcomes, PassResult())
            return time.perf_counter() - start
        finally:
            tracer.uninstall()

    def close(self):
        pass


# ------------------------------------------------------------------ corpus

GAMMA_MAX = 1e4
_CROSSING_MARGIN = 2.0 / GAMMA_MAX
_RESEED = 104729


def _crossing_inside_grid(problem):
    a = problem.A.array
    b = problem.B.array
    return float(_eigvalsh(a + GAMMA_MAX * (b.T @ b))[0]) > _CROSSING_MARGIN


def _retry(make, seed, tries=8):
    for k in range(tries):
        problem = make(seed + k * _RESEED)
        if _crossing_inside_grid(problem):
            return problem
    raise RuntimeError(f"no member with an in-grid crossing after {tries} seeds")


def build_corpus():
    """The 214 seeded (label, problem) members of the acceptance corpus,
    by the recipe of tests/conftest.py::build_corpus."""
    members = []
    for tenths in range(1, 10):
        b2 = tenths / 10.0
        members.append((f"toy-b2={b2}", problems.gen_toy(math.sqrt(1.0 - b2 * b2), b2)))
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        members.append((f"remark-alpha={alpha}", problems.gen_remark(alpha)))
    for n, m in [(6, 2), (8, 3), (10, 4), (12, 5), (16, 6),
                 (20, 7), (24, 8), (30, 10), (40, 13), (60, 20)]:
        for seed in range(10):
            p = _retry(lambda s: problems.gen_random_lowest_rank(n, m, s), seed * 37 + n)
            members.append((f"random-{n}x{m}-s{seed}", p))
    for i in range(60):
        rng = np.random.default_rng(7000 + i)
        for _ in range(8):
            n = int(rng.integers(6, 25))
            m = int(rng.integers(1, n // 2 + 1))
            a_eigs = rng.uniform(0.2, 8.0, n - m)
            b_sing = rng.uniform(0.5, 2.0, m)
            thetas = np.sort(rng.uniform(0.1, math.pi / 2, m))
            p = problems.gen_prescribed_angles(n, m, a_eigs, b_sing, thetas, seed=i)
            if _crossing_inside_grid(p):
                break
        else:
            raise RuntimeError("no prescribed-angles draw with an in-grid crossing")
        members.append((f"angles-{n}x{m}-i{i}", p))
    for delta in (0.0, 1e-8, 1e-2, 1.0):
        for n, m in [(8, 3), (12, 4), (20, 6), (30, 8), (40, 10)]:
            for seed in (0, 1):
                p = _retry(lambda s: problems.gen_ipm_like(n, m, delta, s), seed * 53 + n + m)
                members.append((f"ipm-{n}x{m}-d{delta}-s{seed}", p))
    return members


class CorpusWorkload:
    """The acceptance corpus, rebuilt every pass; the seed fixes the order
    in which members are run."""

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        pass

    def run_pass(self, outcomes):
        result = PassResult()
        start = time.perf_counter()
        members, secs = _timed(build_corpus)
        result.add("corpus", "generate", secs)
        arrays = b"".join(p.A.array.tobytes() + p.B.array.tobytes() for _, p in members)
        outcomes.record("corpus generate", outcomes.same_as_first("corpus/arrays", arrays),
                        wrong=True, detail="members differ from the first pass")
        order = np.random.default_rng(self.seed).permutation(len(members))
        for idx in order:
            label, problem = members[idx]
            # the remark family puts A's top eigenvector inside range(B^T),
            # so its split angle is zero and auto-gamma is refused by design
            run_memory_ops(label, problem.A.array, problem.B.array, False, outcomes,
                           result, zero_angle_ok=label.startswith("remark-"))
        result.wall = time.perf_counter() - start
        return result

    def close(self):
        pass


# ------------------------------------------------------------------- files


def call_cli(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class FilesWorkload:
    """Seeded instances written and read as Matrix Market files by the CLI."""

    def __init__(self, instances, workdir):
        self.instances = instances
        self.workdir = workdir

    def _dir(self, inst, *parts):
        return os.path.join(self.workdir, inst.label, *parts)

    def setup(self):
        """Write the assembled K of each read_k instance, the input of
        ``bound --K FILE --n N``."""
        for inst in self.instances:
            os.makedirs(self._dir(inst), exist_ok=True)
            if inst.read_k:
                problem = problems.generate_problem(inst.spec)
                a, b = problem.A.array, problem.B.array
                k = np.block([[a, b.T], [b, np.zeros((b.shape[0], b.shape[0]))]])
                mmio.write_matrix_market(self._dir(inst, "K.mtx"), k, symmetric=True)

    @staticmethod
    def _bound(outcomes, what, problem_args, out_dir, reference=None):
        """One ``bound --auto-gamma --out`` call; with ``reference`` its
        bounds must also equal that envelope's."""
        code, _, err = call_cli(["bound", *problem_args, "--auto-gamma", "--out", out_dir])
        if code != 0:
            outcomes.record(what, False, wrong=code not in (2, 3),
                            detail=f"exit {code}: {err.strip()}")
            return None
        text = _read(os.path.join(out_dir, "report.json"))
        envelope = json.loads(text)
        same = outcomes.same_as_first(what, text)
        agrees = reference is None or envelope["bounds"] == reference["bounds"]
        outcomes.record(what, _certified(envelope) and same and agrees, wrong=True,
                        detail=f"certified: {_certified(envelope)}, same as first pass: "
                               f"{same}, bounds agree with --A/--B: {agrees}")
        return envelope

    def _run_instance(self, inst, outcomes, result):
        label = inst.label
        prob = self._dir(inst, "prob")
        (code, _, err), secs = _timed(call_cli, [
            "generate", "--family", inst.family, "--params", json.dumps(inst.params),
            "--seed", str(inst.seed), "--out", prob])
        result.add(label, "generate", secs)
        if code != 0:
            outcomes.record(f"{label} generate", False, detail=f"exit {code}: {err.strip()}")
            return
        written = b"".join(_read(os.path.join(prob, f)) for f in ("A.mtx", "B.mtx", "spec.json"))
        outcomes.record(f"{label} generate", outcomes.same_as_first(f"{label}/generate", written),
                        wrong=True, detail="files differ from the first pass")
        ab = ["--A", os.path.join(prob, "A.mtx"), "--B", os.path.join(prob, "B.mtx")]

        envelope, secs = _timed(self._bound, outcomes, f"{label} bound", ab,
                                self._dir(inst, "bound"))
        result.add(label, "bound", secs)
        if inst.read_k:
            k_args = ["--K", self._dir(inst, "K.mtx"), "--n", str(inst.params["n"])]
            _, secs = _timed(self._bound, outcomes, f"{label} bound --K", k_args,
                             self._dir(inst, "bound-k"), envelope)
            result.add(label, "bound", secs)

        sweep_dir = self._dir(inst, "sweep")
        (code, _, err), secs = _timed(call_cli, [
            "sweep", *ab, "--points", str(SWEEP_POINTS), "--out", sweep_dir])
        result.add(label, "sweep", secs)
        if code != 0:
            outcomes.record(f"{label} sweep", False, wrong=code not in (2, 3),
                            detail=f"exit {code}: {err.strip()}")
        else:
            csv = _read(os.path.join(sweep_dir, "sweep.csv"))
            rows = len(csv.splitlines()) - 1
            same = outcomes.same_as_first(
                f"{label}/sweep", _read(os.path.join(sweep_dir, "report.json")) + csv)
            outcomes.record(f"{label} sweep", rows == SWEEP_POINTS and same, wrong=True,
                            detail=f"{rows} rows, same as first pass: {same}")

        (code, out, err), secs = _timed(call_cli, ["verify", *ab])
        result.add(label, "verify", secs)
        ok = code == 0 and "all invariants hold" in out
        violations = [line.removeprefix("violation: ") for line in err.splitlines()
                      if line.startswith("violation: ")]
        outcomes.record(f"{label} verify", ok,
                        wrong=(code == 0 and not ok) or _contradicts_oracle(violations),
                        detail=f"exit {code}: {err.strip()}")

    def run_pass(self, outcomes):
        result = PassResult()
        start = time.perf_counter()
        for inst in self.instances:
            self._run_instance(inst, outcomes, result)
        result.wall = time.perf_counter() - start
        return result

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_workload(name, seed, workdir):
    if name == "files":
        return FilesWorkload(family_instances((100, 200), seed, read_k=True), workdir)
    if name == "dense":
        probe = Instance("random-lowest-rank", {"n": 1500, "m": 600}, seed)
        return DenseWorkload(family_instances((400,), seed), probe)
    if name == "corpus":
        return CorpusWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
