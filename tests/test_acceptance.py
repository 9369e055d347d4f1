"""End-to-end acceptance checks, one numbered test per criterion.

Each test prints a "[acceptance] <id> <label>: PASS|FAIL" line so the
suite output doubles as a checklist (run with -s to see the lines).

Exact-arithmetic predicates (bound <= actual, monotone columns, tie
location on a plateau) are rendered with an epsilon of 1e-10: roughly
two orders above observed eigensolver rounding on this corpus and two
below the loosest tolerance asserted anywhere else in this file.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from saddlebounds.bounds import (
    SaddleProblem,
    applicable_bounds,
    kernel_angle_bound,
    lowest_rank_bound,
    general_rank_bound,
    wbound,
)
from saddlebounds.harness import (
    augmented_condition,
    certify,
    containment_violations,
    gamma_sweep,
    inverse_identity_residual,
    log_gamma_grid,
    oracle,
    ptp_spectrum_deviation,
)
from saddlebounds.problems import gen_prescribed_angles, gen_remark, gen_toy

ROUNDING_EPS = 1e-10
# the inverse identity is skipped above this condition number of K_gamma
COND_CAP = 1e12


@contextmanager
def criterion(ident, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {ident} {label}: FAIL", flush=True)
        raise
    print(f"[acceptance] {ident} {label}: PASS", flush=True)


def test_01_toy_cubic_agreement():
    # oracle mu_min_plus of the 3x3 toy equals the smaller positive root
    # of x^3 - x^2 - x + b2^2, to 1e-10, for b2 = 0.1 .. 0.9
    with criterion(1, "toy-cubic-agreement"):
        start = time.monotonic()
        for tenths in range(1, 10):
            b2 = tenths / 10.0
            b1 = math.sqrt(1.0 - b2 * b2)
            p = gen_toy(b1, b2)
            roots = np.sort(np.real(np.roots([1.0, -1.0, -1.0, b2 * b2])))
            assert roots[1] > 0
            assert abs(oracle(p).mu_min_plus - roots[1]) <= 1e-10
        assert time.monotonic() - start < 1.0


def test_02_remark_matrix_spectrum():
    # the 5x5 rank-deficient example: positive eigenvalues are exactly
    # {alpha, 1, (1 + sqrt 5)/2}, and the general-rank estimate
    # degenerates to 0 with its zero-angle warning
    with criterion(2, "remark-matrix-spectrum"):
        start = time.monotonic()
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        for alpha in (0.1, 0.5, 0.9):
            p = gen_remark(alpha)
            orc = oracle(p)
            pos = np.sort(orc.all_eigs[orc.all_eigs > 0])
            assert pos.shape == (3,)
            expected = np.sort([alpha, 1.0, golden])
            assert np.max(np.abs(pos - expected)) <= 1e-10
            rep = general_rank_bound(p)
            assert rep.value == 0.0
            assert "zero-angle" in rep.warnings
        assert time.monotonic() - start < 1.0


def test_03_corpus_soundness_containment(corpus):
    # every bound certifies against the dense oracle with
    # slack >= -1e-8, and no eigenvalue escapes the two-sided intervals
    with criterion(3, "corpus-soundness-containment"):
        start = time.monotonic()
        core_count = sum(1 for label, _ in corpus
                         if label.startswith(("random-", "angles-", "ipm-")))
        assert core_count >= 200, core_count
        for label, p in corpus:
            orc = oracle(p)
            assert orc.inertia_ok, label
            for rep in applicable_bounds(p, gamma=1.0):
                out = certify(rep, orc)
                assert out.status != "violated", (label, rep.name, out.slack)
                assert out.slack >= -1e-8, (label, rep.name, out.slack)
                if rep.intervals is not None:
                    assert len(containment_violations(rep, orc)) == 0, label
        assert time.monotonic() - start < 60.0


def test_04_stacked_basis_spectrum(lowest_rank_corpus):
    # eigenvalues of P^T P for P = [range(A) | range(B^T)] match
    # {1} x (n - 2m) plus {1 +/- cos theta_i}, and the smallest singular
    # value squared equals 1 - cos theta_min
    with criterion(4, "stacked-basis-spectrum"):
        start = time.monotonic()
        assert len(lowest_rank_corpus) >= 50
        for label, p in lowest_rank_corpus:
            dev_spectrum, dev_inverse = ptp_spectrum_deviation(p)
            assert dev_spectrum <= 1e-8, (label, dev_spectrum)
            assert dev_inverse <= 1e-8, (label, dev_inverse)
        assert time.monotonic() - start < 10.0


def test_05_kernel_range_equivalence(lowest_rank_corpus):
    # the kernel-side and range-side angle bounds agree to 1e-8 relative
    with criterion(5, "kernel-range-equivalence"):
        for label, p in lowest_rank_corpus:
            a = lowest_rank_bound(p).value
            b = kernel_angle_bound(p).value
            assert abs(a - b) <= 1e-8 * max(1.0, a), (label, a, b)


def test_06_inverse_identity(corpus):
    # the closed-form block inverse reproduces K^{-1} to 1e-8 for
    # gamma in {0.1, 1, 10}, skipping only condition-guarded configs
    with criterion(6, "inverse-identity"):
        total = 0
        skipped = 0
        for label, p in corpus:
            for gamma in (0.1, 1.0, 10.0):
                total += 1
                if augmented_condition(p, gamma) > COND_CAP:
                    skipped += 1
                    continue
                res = inverse_identity_residual(p, gamma)
                assert res <= 1e-8, (label, gamma, res)
        assert total - skipped >= 0.9 * total, (skipped, total)


def test_07_sweep_geometry(corpus):
    # over a 25-point log grid: the predicted curve never exceeds the
    # true smallest positive eigenvalue, mu_min(A_gamma) is nondecreasing,
    # and the curve peaks next to the 1/gamma = mu_min(A_gamma) crossing
    with criterion(7, "sweep-geometry"):
        start = time.monotonic()
        grid = log_gamma_grid(1e-4, 1e4, 25)
        for label, p in corpus:
            res = gamma_sweep(p, grid)
            pred = np.array([row[3] for row in res.rows])
            mu = np.array([row[2] for row in res.rows])
            assert pred.shape == (25,)
            assert np.all(pred <= res.actual_mu_min_plus + ROUNDING_EPS), label
            assert np.all(np.diff(mu) >= -ROUNDING_EPS), label
            c = res.crossing_index
            assert c is not None, label
            peak = float(pred.max())
            near = max(pred[c], pred[c + 1])
            assert near >= peak - ROUNDING_EPS * max(1.0, peak), (label, c)
        assert time.monotonic() - start < 120.0


def test_08_tightness_witnesses():
    # right-angle construction and the boundary toy attain their bounds
    with criterion(8, "tightness-witnesses"):
        p = gen_prescribed_angles(
            10, 3,
            [0.7, 1.1, 1.9, 2.6, 3.4, 4.2, 5.0],
            [0.9, 1.2, 1.6],
            [math.pi / 2] * 3,
            seed=0,
        )
        out = certify(lowest_rank_bound(p), oracle(p))
        assert out.status == "sound"
        assert abs(out.slack) <= 1e-8

        q = SaddleProblem(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]))
        rep = wbound(q, 1.0)
        out = certify(rep, oracle(q))
        assert rep.value == 1.0
        assert out.status == "sound"
        assert abs(out.slack) <= 1e-8


def test_09_byte_identical_outputs(tmp_path):
    # identical configs give byte-identical report and CSV files
    with criterion(9, "byte-identical-outputs"):
        env = dict(os.environ)
        prob = tmp_path / "prob"
        run = [sys.executable, "-m", "saddlebounds"]
        subprocess.run(
            run + ["generate", "--family", "random",
                   "--params", '{"n": 12, "m": 5}', "--seed", "3",
                   "--out", str(prob)],
            check=True, env=env, capture_output=True,
        )
        pa, pb = str(prob / "A.mtx"), str(prob / "B.mtx")

        def files_after(cmd, out_dir):
            subprocess.run(
                run + cmd + ["--out", str(out_dir)],
                check=True, env=env, capture_output=True,
            )
            return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}

        first = files_after(["bound", "--A", pa, "--B", pb, "--gamma", "1.0"],
                            tmp_path / "b1")
        second = files_after(["bound", "--A", pa, "--B", pb, "--gamma", "1.0"],
                             tmp_path / "b2")
        assert set(first) == {"report.json"}
        assert first == second

        sweep_args = ["sweep", "--A", pa, "--B", pb, "--points", "11"]
        first = files_after(sweep_args, tmp_path / "s1")
        second = files_after(sweep_args, tmp_path / "s2")
        assert set(first) == {"report.json", "sweep.csv"}
        assert first == second
        json.loads(first["report.json"])
