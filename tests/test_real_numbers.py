"""One rule for a caller's number, at the entry points that take one.

A value that is not a real number (a boolean anywhere in it, a string, a
complex number or any other object) is refused with
ParameterOutOfRangeError before any factorization: numpy.linalg is
stubbed to fail while the refusals run. The per-gamma entry points and
the gamma grid take the same values in tests/test_bounds.py and
tests/test_harness.py, and ``generate_problem``'s seed in
tests/test_problems.py. A second table pins what is still accepted, bit
for bit.
"""

import warnings

import numpy as np
import pytest

from saddlebounds.bounds import SaddleProblem, applicable_bounds, wbound
from saddlebounds.errors import ParameterOutOfRangeError
from saddlebounds.harness import gamma_sweep
from saddlebounds.linalg import checked_rel_tol
from saddlebounds.mmio import write_matrix_market
from saddlebounds.problems import (
    gen_ipm_like,
    gen_prescribed_angles,
    gen_random_lowest_rank,
    gen_remark,
    gen_toy,
)
from saddlebounds.reporting import RunConfig, read_problem

A = np.diag([2.0, 1.0, 0.0])
B = np.array([[0.0, 0.3, 1.0]])

NOT_REAL = [
    pytest.param(True, id="True"),
    pytest.param(np.True_, id="np.True_"),
    # numpy reads this list as float64, with 1.0 for True
    pytest.param([[1.0, True]], id="list-holding-True"),
    pytest.param("1", id="str"),
    pytest.param(1 + 0j, id="complex"),
    pytest.param(np.complex128(1), id="np.complex128"),
    pytest.param(np.array([[1.0 + 0j]]), id="complex-array"),
    pytest.param(object(), id="object"),
]

ANGLES = {"n": 4, "m": 1, "a_eigs": [1.0, 2.0, 3.0], "b_sing_vals": [1.0], "thetas": [0.5],
          "seed": 0}
IPM = {"n": 8, "m": 3, "delta": 0.01, "seed": 0}
RANDOM = {"n": 6, "m": 2, "seed": 0}


def _with(make, defaults, name):
    return lambda value, path: make(**{**defaults, name: value})


# entry point -> call(value, a path to write to)
ENTRY_POINTS = {
    "SaddleProblem A": lambda v, path: SaddleProblem(v, B),
    "SaddleProblem B": lambda v, path: SaddleProblem(A, v),
    "SaddleProblem rel_tol": lambda v, path: SaddleProblem(A, B, rel_tol=v),
    # the files are never opened: rel_tol is judged first
    "read_problem rel_tol": lambda v, path: read_problem({"A": path, "B": path}, v),
    "RunConfig rel_tol": lambda v, path: RunConfig(rel_tol=v),
    "gen_toy b1": lambda v, path: gen_toy(v, 0.8),
    "gen_toy b2": lambda v, path: gen_toy(0.6, v),
    "gen_remark alpha": lambda v, path: gen_remark(v),
    **{f"gen_prescribed_angles {name}": _with(gen_prescribed_angles, ANGLES, name)
       for name in ANGLES},
    **{f"gen_ipm_like {name}": _with(gen_ipm_like, IPM, name) for name in IPM},
    **{f"gen_random_lowest_rank {name}": _with(gen_random_lowest_rank, RANDOM, name)
       for name in RANDOM},
    "write_matrix_market": lambda v, path: write_matrix_market(path, v),
}


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_value_that_is_not_real_is_refused_first(stub_linalg, tmp_path, entry, value):
    stub_linalg()
    path = str(tmp_path / "x.mtx")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning: nothing is converted
        with pytest.raises(ParameterOutOfRangeError, match="must be a real number, got "):
            ENTRY_POINTS[entry](value, path)
    assert not (tmp_path / "x.mtx").exists()


A_INT = np.array([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
B_INT = np.array([[0, 1, 1]])


def _seeded_reference(seed):
    """The random-lowest-rank recipe at n = 6, m = 2, drawn by hand."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4))
    return SaddleProblem(x @ x.T, rng.standard_normal((2, 6)))


# accepted value -> (the problem it builds, the problem of its float64 or
# plain-int equivalent)
ACCEPTED = {
    "int32 arrays": lambda: (SaddleProblem(A_INT.astype(np.int32), B_INT.astype(np.int32)),
                             SaddleProblem(A_INT.astype(float), B_INT.astype(float))),
    "float32 arrays": lambda: (SaddleProblem(A.astype(np.float32), B.astype(np.float32)),
                               SaddleProblem(A.astype(np.float32).astype(float),
                                             B.astype(np.float32).astype(float))),
    "lists of ints": lambda: (SaddleProblem(A_INT.tolist(), B_INT.tolist()),
                              SaddleProblem(A_INT.astype(float), B_INT.astype(float))),
    "int seed beyond int64": lambda: (gen_random_lowest_rank(6, 2, seed=2**70),
                                      _seeded_reference(2**70)),
    "numpy int scalars": lambda: (gen_random_lowest_rank(np.int32(6), np.int64(2),
                                                         seed=np.uint8(3)),
                                  gen_random_lowest_rank(6, 2, seed=3)),
    "int32 and float32 array parameters": lambda: (
        gen_prescribed_angles(4, 1, np.array([1, 2, 3], dtype=np.int32),
                              np.array([1], dtype=np.int32),
                              np.array([0.5], dtype=np.float32)),
        gen_prescribed_angles(4, 1, [1.0, 2.0, 3.0], [1.0], [float(np.float32(0.5))])),
}


@pytest.mark.parametrize("entry", ACCEPTED)
def test_a_real_number_is_still_accepted_with_the_same_bits(entry):
    got, expected = ACCEPTED[entry]()
    for mine, theirs in ((got.A.array, expected.A.array), (got.B.array, expected.B.array)):
        assert mine.dtype == np.float64
        assert mine.tobytes() == theirs.tobytes()
    values = [r.value for r in applicable_bounds(got, gamma=1.0)]
    assert values == [r.value for r in applicable_bounds(expected, gamma=1.0)]


def test_ints_are_accepted_as_gamma_grid_and_tolerance():
    p = SaddleProblem(A, B)
    assert wbound(p, 2).value == wbound(p, 2.0).value
    assert gamma_sweep(p, [1, 2, 4]).rows == gamma_sweep(p, [1.0, 2.0, 4.0]).rows
    assert checked_rel_tol(2**70) == 2.0**70
    assert RunConfig(rel_tol=2**70).rel_tol == 2**70
