"""Span tracer for the benchmark's traced run.

The traced run rebinds public functions of the saddlebounds modules, and
the numpy.linalg routines, to wrappers that record one span per call:
layer key, start, end, parent span and the error that escaped, if any.
A name is rebound in every saddlebounds module that imported it (for
example ``saddlebounds.reporting.read_matrix_market``), so calls between
modules are seen too. Nothing in the package is edited; ``uninstall``
puts the original objects back.

Spans stay in memory. Per-layer metrics are computed from them when the
traced passes end: a key's self time is its spans' duration minus the
duration of their child spans.
"""

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAPACK_ROUTINES = ("eigh", "eigvalsh", "svd", "solve", "inv", "qr", "cholesky")

# (module, attribute, layer key). A public function missing from this
# table runs inside its caller's span, so its time is the caller's self
# time: saddle_matrix, for instance, counts as validation when
# SaddleProblem calls it and as harness work when the harness does.
TRACED = (
    ("mmio", "read_matrix_market", "mmio.read"),
    ("mmio", "write_matrix_market", "mmio.write"),
    ("mmio", "format_matrix_market", "mmio.write"),
    ("problems", "generate_problem", "problems.generate"),
    ("problems", "gen_toy", "problems.generate"),
    ("problems", "gen_remark", "problems.generate"),
    ("problems", "gen_prescribed_angles", "problems.generate"),
    ("problems", "gen_ipm_like", "problems.generate"),
    ("problems", "gen_random_lowest_rank", "problems.generate"),
    ("reporting", "read_problem", "reporting.read_problem"),
    ("reporting", "report_envelope", "reporting.envelope"),
    ("reporting", "bound_entry", "reporting.envelope"),
    ("reporting", "envelope_to_json", "reporting.write"),
    ("reporting", "bounds_to_csv", "reporting.write"),
    ("reporting", "write_report", "reporting.write"),
    ("bounds", "SaddleProblem.__init__", "bounds.validate"),
    ("bounds", "optimal_gamma", "bounds.gamma"),
    ("bounds", "general_rank_optimal_gamma", "bounds.gamma"),
    ("bounds", "applicable_bounds", "bounds.applicable"),
    ("bounds", "rusten_winther", "bounds.applicable"),
    ("bounds", "lowest_rank_bound", "bounds.applicable"),
    ("bounds", "kernel_angle_bound", "bounds.applicable"),
    ("bounds", "general_rank_bound", "bounds.applicable"),
    ("bounds", "wbound", "bounds.applicable"),
    ("bounds", "agamma_bound", "bounds.applicable"),
    ("linalg", "sym_eig", "linalg.sym_eig"),
    ("linalg", "svd", "linalg.svd"),
    ("linalg", "kernel_basis_rect", "linalg.kernel_basis_rect"),
    ("linalg", "principal_angles", "linalg.principal_angles"),
    ("harness", "oracle", "harness.oracle"),
    ("harness", "certify", "harness.oracle"),
    ("harness", "containment_violations", "harness.oracle"),
    ("harness", "gamma_sweep", "harness.sweep"),
    ("harness", "augmented_condition", "harness.condition"),
    ("harness", "inverse_identity_residual", "harness.inverse_identity"),
    ("harness", "ptp_spectrum_deviation", "harness.ptp"),
    ("cli", "main", "cli.main"),
    ("cli", "run_verification", "cli.run_verification"),
)


def _lapack_metrics():
    out = []
    for r in LAPACK_ROUTINES:
        out += [(f"lapack.{r}.calls", "count"), (f"lapack.{r}.s", "s"),
                (f"lapack.{r}.order3", "n3")]
    return out


# Every per-layer metric the traced run reports, in output order.
PER_LAYER = (
    ("mmio.read.s", "s"), ("mmio.read.calls", "count"), ("mmio.read.entries", "count"),
    ("mmio.write.s", "s"), ("mmio.write.bytes", "bytes"),
    ("problems.generate.s", "s"), ("problems.generate.calls", "count"),
    ("reporting.read_problem.s", "s"), ("reporting.envelope.s", "s"),
    ("reporting.write.s", "s"), ("reporting.write.bytes", "bytes"),
    ("bounds.validate.s", "s"), ("bounds.validate.calls", "count"),
    ("bounds.gamma.s", "s"), ("bounds.applicable.s", "s"), ("bounds.errors", "count"),
    ("linalg.sym_eig.s", "s"), ("linalg.sym_eig.calls", "count"),
    ("linalg.svd.s", "s"), ("linalg.svd.calls", "count"),
    ("linalg.kernel_basis_rect.s", "s"), ("linalg.kernel_basis_rect.calls", "count"),
    ("linalg.principal_angles.s", "s"), ("linalg.principal_angles.calls", "count"),
    ("harness.oracle.s", "s"), ("harness.sweep.s", "s"), ("harness.sweep.points", "count"),
    ("harness.condition.s", "s"), ("harness.inverse_identity.s", "s"),
    ("harness.ptp.s", "s"),
    ("cli.main.s", "s"), ("cli.run_verification.s", "s"),
    *_lapack_metrics(),
    ("overcap.s", "s"), ("overcap.validate.s", "s"), ("harness.size_cap_refusals", "count"),
    ("trace.overhead_s", "s"),
)


def _matrix_market_entries(path):
    """Stored entries of a Matrix Market file, from its size line."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        banner = fh.readline().split()
        for line in fh:
            if not line.lstrip().startswith("%"):
                size = [int(t) for t in line.split()]
                break
    if banner[2].lower() == "coordinate":
        return size[2]
    rows, cols = size
    return rows * (rows + 1) // 2 if banner[4].lower() == "symmetric" else rows * cols


def _order3(args, kwargs):
    # computed work scale of one LAPACK call: n^3 for an n-by-n operand,
    # rows * cols * min(rows, cols) for a rectangular one
    a = np.asarray(args[0] if args else kwargs["a"])
    rows, cols = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return batch * rows * cols * min(rows, cols)


def _amounts(key, args, kwargs, result):
    """Work counters a call adds beyond its span: (counter, amount) pairs."""
    if key == "mmio.read":
        return (("mmio.read.entries", _matrix_market_entries(args[0])),)
    if key == "mmio.write" and len(args) > 0 and isinstance(args[0], str):
        return (("mmio.write.bytes", os.path.getsize(args[0])),)
    if key == "reporting.write" and isinstance(result, list):
        return (("reporting.write.bytes", sum(os.path.getsize(p) for p in result)),)
    if key == "harness.sweep":
        return (("harness.sweep.points", len(args[1])),)
    if key.startswith("lapack."):
        return ((f"{key}.order3", _order3(args, kwargs)),)
    return ()


class Tracer:
    """Records spans while installed; computes per-layer metrics from them."""

    def __init__(self):
        self.spans = []  # [key, start, end, parent index, escaped error name]
        self.counters = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, key, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for name, amount in _amounts(key, args, kwargs, result):
                counters[name] += amount
            return result

        return traced

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Rebind the TRACED functions of ``package`` and numpy.linalg."""
        for mod_name in sorted({mod_name for mod_name, _, _ in TRACED}):
            importlib.import_module(f"{package.__name__}.{mod_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod_name, attr, key in TRACED:
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, method, self._wrap(key, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapper)
        for r in LAPACK_ROUTINES:
            self._rebind(np.linalg, r, self._wrap(f"lapack.{r}", getattr(np.linalg, r)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self):
        """(self seconds per key, inclusive seconds per key, counters) over
        every recorded span; inclusive time counts outermost spans only."""
        spans = self.spans
        child = [0.0] * len(spans)
        for key, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        totals = Counter(self.counters)
        for i, (key, start, end, parent, err) in enumerate(spans):
            self_s[key] += end - start - child[i]
            outer_key = spans[parent][0] if parent >= 0 else ""
            if outer_key != key:
                incl_s[key] += end - start
                totals[f"{key}.calls"] += 1
            layer = key.split(".")[0]
            if err and outer_key.split(".")[0] != layer:
                # an error that leaves its layer, counted once per layer crossing
                totals[f"{layer}.errors"] += 1
                if err == "SizeCapError" and layer == "harness":
                    totals["harness.size_cap_refusals"] += 1
        return self_s, incl_s, totals


def layer_metrics(passes, tracer, overhead_s, probe=None, probe_s=0.0):
    """Per-layer metrics as {name: (value, unit)}: values per traced pass
    from ``tracer``, and the over-cap probe's own figures from ``probe``."""
    self_s, _, totals = tracer.summary()
    _, probe_incl, probe_totals = probe.summary() if probe else ({}, {}, Counter())
    special = {
        "trace.overhead_s": overhead_s,
        "overcap.s": probe_s,
        "overcap.validate.s": probe_incl.get("bounds.validate", 0.0),
        "harness.size_cap_refusals": probe_totals["harness.size_cap_refusals"],
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".s"):
            value = self_s[name[:-2]] / passes
        else:
            value = totals[name] / passes
            if value == int(value):
                value = int(value)
        out[name] = (value, unit)
    return out
