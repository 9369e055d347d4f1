"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

import glob
import importlib.util
import json
import os
import shutil
import subprocess
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import saddlebounds  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_corpus_matches_conftest():
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("tests_conftest", path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    ours = workloads.build_corpus()
    theirs = conftest.build_corpus()
    assert len(ours) == 214
    assert [label for label, _ in ours] == [label for label, _ in theirs]
    for (label, p), (_, q) in zip(ours, theirs):
        assert np.array_equal(p.A.array, q.A.array), label
        assert np.array_equal(p.B.array, q.B.array), label


def _outputs(workdir):
    out = {}
    for path in sorted(glob.glob(os.path.join(workdir, "*", "*", "*"))):
        if path.endswith((".json", ".csv")):
            with open(path, "rb") as fh:
                out[os.path.relpath(path, workdir)] = fh.read()
    return out


def test_traced_pass_matches_untraced(tmp_path):
    instances = workloads.family_instances((20, 30), seed=3, read_k=True)
    workload = workloads.FilesWorkload(instances, str(tmp_path))
    workload.setup()
    outcomes = workloads.Outcomes()
    workload.run_pass(outcomes)
    one_pass = outcomes.attempted
    plain = _outputs(str(tmp_path))
    problem = saddlebounds.generate_problem(instances[0].spec)
    _, plain_text = workloads.memory_bound(problem.A.array, problem.B.array, {})
    original_eigh = np.linalg.eigh

    tracer = tracing.Tracer()
    tracer.install(saddlebounds)
    try:
        workload.run_pass(outcomes)
        _, traced_text = workloads.memory_bound(problem.A.array, problem.B.array, {})
    finally:
        tracer.uninstall()
    traced = _outputs(str(tmp_path))

    # a repeated operation counts once, so the counts do not follow the pass count
    assert outcomes.attempted == one_pass > 0 and outcomes.failed == 0
    assert any(name.endswith("report.json") for name in plain)
    assert traced == plain
    for name, data in plain.items():
        if name.endswith("report.json"):
            values = [b["value"] for b in json.loads(data)["bounds"]]
            assert values == [b["value"] for b in json.loads(traced[name])["bounds"]]
    assert traced_text == plain_text

    metrics = tracing.layer_metrics(1, tracer, 0.0)
    assert metrics["mmio.read.calls"][0] > 0
    assert metrics["cli.main.s"][0] > 0
    assert metrics["lapack.eigvalsh.calls"][0] > 0
    assert saddlebounds.reporting.read_matrix_market is saddlebounds.mmio.read_matrix_market
    assert np.linalg.eigh is original_eigh


def test_result_line_names_every_metric():
    spec = _benchmark_json()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(["--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", trace])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "bench")
    for path in glob.glob(os.path.join(ROOT, "bench", "*")):
        if os.path.isfile(path):
            shutil.copy(path, tmp_path / "bench")
    proc = _run(["--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
