"""Shared fixtures: the seeded problem corpus used by the acceptance
suite, built once per session."""

import os

# single-threaded BLAS keeps eigensolve output reproducible across runs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import math

import numpy as np
import pytest
from hypothesis import settings

from saddlebounds import (
    gen_ipm_like,
    gen_prescribed_angles,
    gen_random_lowest_rank,
    gen_remark,
    gen_toy,
    mmio,
)

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

GAMMA_MAX = 1e4

# A corpus member must have its 1/gamma = mu_min(A_gamma) crossing inside
# the default sweep grid, i.e. mu_min at the top end has to clear
# 1/GAMMA_MAX with a factor-2 margin. Members that miss it (possible for
# the larger random draws, where the two subspaces can nearly touch) are
# redrawn deterministically.
_CROSSING_MARGIN = 2.0 / GAMMA_MAX
_RESEED = 104729


def _crossing_inside_grid(problem):
    a = problem.A.array
    b = problem.B.array
    mu_top = float(np.linalg.eigvalsh(a + GAMMA_MAX * (b.T @ b))[0])
    return mu_top > _CROSSING_MARGIN


def _retry(make, seed, tries=8):
    for k in range(tries):
        problem = make(seed + k * _RESEED)
        if _crossing_inside_grid(problem):
            return problem
    raise AssertionError(f"no member with an in-grid crossing after {tries} seeds")


def build_corpus():
    """214 seeded problems across all five generator families."""
    members = []

    for tenths in range(1, 10):
        b2 = tenths / 10.0
        b1 = math.sqrt(1.0 - b2 * b2)
        members.append((f"toy-b2={b2}", gen_toy(b1, b2)))

    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        members.append((f"remark-alpha={alpha}", gen_remark(alpha)))

    dims = [(6, 2), (8, 3), (10, 4), (12, 5), (16, 6),
            (20, 7), (24, 8), (30, 10), (40, 13), (60, 20)]
    for n, m in dims:
        for seed in range(10):
            p = _retry(lambda s: gen_random_lowest_rank(n, m, s), seed * 37 + n)
            members.append((f"random-{n}x{m}-s{seed}", p))

    for i in range(60):
        rng = np.random.default_rng(7000 + i)
        for _ in range(8):
            n = int(rng.integers(6, 25))
            m = int(rng.integers(1, n // 2 + 1))
            a_eigs = rng.uniform(0.2, 8.0, n - m)
            b_sing = rng.uniform(0.5, 2.0, m)
            thetas = np.sort(rng.uniform(0.1, math.pi / 2, m))
            p = gen_prescribed_angles(n, m, a_eigs, b_sing, thetas, seed=i)
            if _crossing_inside_grid(p):
                break
        else:
            raise AssertionError("no prescribed-angles draw with an in-grid crossing")
        members.append((f"angles-{n}x{m}-i{i}", p))

    dims = [(8, 3), (12, 4), (20, 6), (30, 8), (40, 10)]
    for delta in (0.0, 1e-8, 1e-2, 1.0):
        for n, m in dims:
            for seed in (0, 1):
                p = _retry(lambda s: gen_ipm_like(n, m, delta, s), seed * 53 + n + m)
                members.append((f"ipm-{n}x{m}-d{delta}-s{seed}", p))

    return members


def _linalg_called(*args, **kwargs):
    raise AssertionError("numpy.linalg was called")


def _data_parsed(*args, **kwargs):
    raise AssertionError("a Matrix Market data section was parsed")


def forbid_parsing(patch):
    """Make every parse of a Matrix Market data section fail while the
    monkeypatch ``patch`` holds: a refusal checked after it comes from a
    size line."""
    patch.setattr(mmio, "_load_columns", _data_parsed)
    patch.setattr(mmio, "_scan_columns", _data_parsed)


@pytest.fixture
def stub_linalg(monkeypatch):
    """A call that makes every numpy.linalg routine fail, for the rest of
    the test: a refusal checked after it comes before any factorization."""
    def stub():
        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, _linalg_called)
    return stub


@pytest.fixture(scope="session")
def corpus():
    members = build_corpus()
    assert len(members) >= 200
    return members


@pytest.fixture(scope="session")
def lowest_rank_corpus(corpus):
    picked = [(label, p) for label, p in corpus if p.is_lowest_rank]
    assert len(picked) >= 50
    return picked
