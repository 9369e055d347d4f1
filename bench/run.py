"""saddlebounds benchmark: one workload per process, BLAS pinned to one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {files,dense,corpus} --seed N --seconds S --trace {0,1}

The program under test is the checkout's own ``src/saddlebounds``; the
benchmark exits with code 2, printing no result, when it is missing.

A run times passes while the next pass is predicted to end within
``--seconds``, and always at least one. Each end-to-end time is the
median of an (instance, operation) pair over the passes; ``setup_s`` is
the median of eight set-ups (the import time in a fresh interpreter plus
the workload's own set-up), four before the passes and four after. With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
spends half the time on untraced passes and half on traced ones, and
prints the per-layer metrics of one traced pass plus the tracing
overhead. ``attempted`` and ``failed`` count (instance, operation)
pairs, each once however many passes repeat it. The last line of
standard output is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

# Pin BLAS before numpy loads: one thread keeps timings and outputs
# reproducible on a small machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("files", "dense", "corpus")
# Set-ups timed on each side of the passes. A shared host's single-thread
# speed drifts over tens of seconds, so set-ups at both ends of the run
# are steadier than at its start only; set-ups between passes would
# leave the CPU idle before each pass, which slows the pass's first
# operations.
SETUP_REPEATS = 4


def _blas_threads():
    """(threads, how it was read): from the OpenBLAS that numpy loaded when
    it can be found, else the value pinned in the environment."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)()), name
    return BLAS_THREADS, "OPENBLAS_NUM_THREADS"


def environment(seed):
    import platform

    import numpy as np

    import saddlebounds

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "blas_threads_source": source,
        "nproc": len(os.sched_getaffinity(0)),
        "saddlebounds": saddlebounds.__version__,
        "seed": seed,
    }


def import_seconds():
    """Seconds to import numpy and the package in a fresh interpreter."""
    code = ("import time; start = time.perf_counter(); import saddlebounds.cli; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def set_up(workload):
    """Seconds of one set-up: the import in a fresh interpreter plus the
    workload's own set-up."""
    import_s = import_seconds()
    start = time.perf_counter()
    workload.setup()
    return import_s + time.perf_counter() - start


def measure(workload, outcomes, budget):
    """Passes while the next one is predicted to fit in ``budget`` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(outcomes))
        if time.perf_counter() - start + passes[-1].wall > budget:
            return passes


OPS = ("generate", "bound", "sweep", "verify")


def median_times(passes):
    """Median time of each (instance, operation) over the run's passes."""
    samples = {}
    for p in passes:
        for key, secs in p.times.items():
            samples.setdefault(key, []).append(secs)
    return {key: median(values) for key, values in samples.items()}


def end_to_end(passes, setup_s):
    import resource

    import numpy as np

    times = median_times(passes)
    per_op = {op: sum(s for (_, o), s in times.items() if o == op) for op in OPS}
    latency = {}
    for (label, op), secs in times.items():
        if op != "generate":
            latency[label] = latency.get(label, 0.0) + secs
    lat = list(latency.values())
    return {
        "setup_s": (setup_s, "s"),
        **{f"{op}_s": (per_op[op], "s") for op in OPS},
        "problems_per_s": (len(lat) / sum(lat), "1/s"),
        "problem_ms.p50": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "problem_ms.p95": (1e3 * float(np.percentile(lat, 95)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "saddlebounds", "__init__.py")):
        print(f"error: no saddlebounds sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    import saddlebounds
    import workloads

    if not os.path.abspath(saddlebounds.__file__).startswith(SRC + os.sep):
        print(f"error: imported saddlebounds from {saddlebounds.__file__}", file=sys.stderr)
        return 2

    workdir = os.path.join(".bench_build", f"{args.workload}-{os.getpid()}")
    workload = workloads.make_workload(args.workload, args.seed, workdir)
    outcomes = workloads.Outcomes()
    try:
        if args.trace:
            import tracing

            workload.setup()

            probe, probe_s = None, 0.0
            if hasattr(workload, "overcap_probe"):
                probe = tracing.Tracer()
                probe_s = workload.overcap_probe(outcomes, probe)
            plain = measure(workload, outcomes, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install(saddlebounds)
            try:
                traced = measure(workload, outcomes, args.seconds / 2)
            finally:
                tracer.uninstall()
            overhead = median([p.wall for p in traced]) - median([p.wall for p in plain])
            metrics = tracing.layer_metrics(len(traced), tracer, overhead, probe, probe_s)
            note = f"{len(traced)} traced and {len(plain)} untraced passes"
        else:
            setups = [set_up(workload) for _ in range(SETUP_REPEATS)]
            passes = measure(workload, outcomes, args.seconds)
            setups += [set_up(workload) for _ in range(SETUP_REPEATS)]
            metrics = end_to_end(passes, median(setups))
            note = (f"{len(passes)} passes; each time is the median of its "
                    f"(instance, operation) over the passes")
    finally:
        workload.close()

    print(f"environment {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"workload {args.workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"failed_frac = {outcomes.failed}/{outcomes.attempted}"
          f" = {outcomes.failed / outcomes.attempted:.6g}")
    result = {
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
