"""One rule for a caller's number, at the entry points that take one.

A value that is not a real number (a boolean anywhere in it, a string, a
complex number or any other object) is refused with
ParameterOutOfRangeError before any factorization: numpy.linalg is
stubbed to fail while the refusals run. The per-gamma entry points and
the gamma grid take the same values in tests/test_bounds.py and
tests/test_harness.py, and ``generate_problem``'s seed in
tests/test_problems.py. A second table pins what is still accepted, bit
for bit. The last tables hold the per-gamma entry points, which take one
number only, and the tolerances (finite, >= 0) and size caps (an integer
>= 1) a library caller may pass.
"""

import warnings

import numpy as np
import pytest

from saddlebounds.bounds import (
    DEFAULT_ANGLE_TOL,
    SaddleProblem,
    agamma_bound,
    applicable_bounds,
    general_rank_bound,
    kernel_angle_bound,
    lowest_rank_bound,
    optimal_gamma,
    wbound,
)
from saddlebounds.errors import ParameterOutOfRangeError, SizeCapError
from saddlebounds.harness import (
    augmented_condition,
    certify,
    check_size_cap,
    containment_violations,
    gamma_sweep,
    inverse_identity_residual,
    log_gamma_grid,
    oracle,
    run_verification,
)
from saddlebounds.linalg import checked_rel_tol, numerical_rank
from saddlebounds.mmio import write_matrix_market
from saddlebounds.problems import (
    gen_ipm_like,
    gen_prescribed_angles,
    gen_random_lowest_rank,
    gen_remark,
    gen_toy,
)
from saddlebounds.reporting import RunConfig, envelope_to_json, read_problem, report_envelope

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
    **{f"RunConfig {name}": _with(RunConfig, {}, name)
       for name in ("rel_tol", "gamma_min", "gamma_max", "gamma_points")},
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


def test_a_checked_number_is_the_number_used():
    # each is computed with the float the check returns, not in float32
    lo, hi, tol = np.float32(1e-4), np.float32(1e4), np.float32(0.1)
    assert (log_gamma_grid(lo, hi, 5).tobytes()
            == log_gamma_grid(float(lo), float(hi), 5).tobytes())
    # float32(0.1) * 3 rounds above 0.30000001 in float32, not in float64
    assert numerical_rank([3.0, 0.30000001], tol) == numerical_rank([3.0, 0.30000001],
                                                                    float(tol)) == 2
    for given in (np.float32(1e-10), np.int64(1)):
        rel_tol = RunConfig(rel_tol=given).rel_tol
        assert type(rel_tol) is float and rel_tol == float(given)


@pytest.mark.parametrize("gamma, rel_tol, same_gamma, same_tol", [
    (np.float32(0.1), np.float32(1e-10), float(np.float32(0.1)), float(np.float32(1e-10))),
    (np.int64(2), np.int64(1), 2.0, 1.0),
], ids=["float32", "int64"])
def test_numpy_scalars_give_a_report_that_serializes(gamma, rel_tol, same_gamma, same_tol):
    p = SaddleProblem(A, B)

    def text(g, tol):
        return envelope_to_json(report_envelope(p, RunConfig(rel_tol=tol),
                                                applicable_bounds(p, gamma=g)))

    assert text(gamma, rel_tol) == text(same_gamma, same_tol)


@pytest.mark.parametrize("name, given, same", [
    ("gamma_min", np.float32(1e-4), float(np.float32(1e-4))),
    ("gamma_max", np.float32(1e4), float(np.float32(1e4))),
    ("gamma_points", np.int64(25), 25),
], ids=["float32-gamma_min", "float32-gamma_max", "int64-gamma_points"])
def test_numpy_scalar_grid_settings_give_a_report_that_serializes(name, given, same):
    # RunConfig keeps the float or int its check returns, as for rel_tol
    p = SaddleProblem(A, B)
    reports = applicable_bounds(p, gamma=1.0)
    cfg = RunConfig(**{name: given})
    assert type(getattr(cfg, name)) is type(same) and getattr(cfg, name) == same
    assert (envelope_to_json(report_envelope(p, cfg, reports))
            == envelope_to_json(report_envelope(p, RunConfig(**{name: same}), reports)))


# per-gamma entry point -> call(problem, gamma); augmented_blocks and
# augmented_extremes alone take an array of gammas
PER_GAMMA = {
    "wbound": wbound,
    "agamma_bound": agamma_bound,
    "augmented_condition": augmented_condition,
    "inverse_identity_residual": inverse_identity_residual,
    "applicable_bounds": lambda p, g: applicable_bounds(p, gamma=g),
}


@pytest.mark.parametrize("gamma", [[2.0], (2.0,), np.array([2.0]), [[2.0]], []])
@pytest.mark.parametrize("entry", PER_GAMMA)
def test_a_gamma_that_is_not_one_number_is_refused_first(stub_linalg, entry, gamma):
    p = SaddleProblem(A, B)
    stub_linalg()
    with pytest.raises(ParameterOutOfRangeError, match=r"^gamma must be one number, got shape "):
        PER_GAMMA[entry](p, gamma)


@pytest.mark.parametrize("gammas", [2.0, np.array(2.0), [[2.0]], np.ones((2, 1))])
def test_augmented_extremes_takes_a_1d_array_only(stub_linalg, gammas):
    p = SaddleProblem(A, B)
    stub_linalg()
    with pytest.raises(ParameterOutOfRangeError, match=r"^gamma must be a 1-D array, got shape "):
        p.augmented_extremes(gammas)


def test_one_gamma_keeps_its_bits():
    p = SaddleProblem(A, B)
    for gamma, same in ((2, 2.0), (np.float64(2.0), 2.0), (np.int64(2), 2.0),
                        (np.array(2.0), 2.0), (np.float32(0.1), float(np.float32(0.1)))):
        assert np.array_equal(p.augmented_extremes([gamma]), p.augmented_extremes([same]))
        for bound in (wbound, agamma_bound):
            got, want = bound(p, gamma), bound(p, same)
            assert type(got.details["gamma"]) is float
            assert (got.value, got.details) == (want.value, want.details)


def _no_line(line):
    raise AssertionError(f"a refused value emitted {line!r}")


def _reports_and_oracle():
    p = SaddleProblem(A, B)
    return p, applicable_bounds(p), oracle(p)


# tolerance -> call(value, problem, reports, oracle result)
TOLERANCES = {
    "applicable_bounds angle_tol": lambda v, p, r, o: applicable_bounds(p, 1.0, angle_tol=v),
    "lowest_rank_bound angle_tol": lambda v, p, r, o: lowest_rank_bound(p, v),
    "kernel_angle_bound angle_tol": lambda v, p, r, o: kernel_angle_bound(p, v),
    "general_rank_bound angle_tol": lambda v, p, r, o: general_rank_bound(p, v),
    "optimal_gamma angle_tol": lambda v, p, r, o: optimal_gamma(p, v),
    "run_verification angle_tol": lambda v, p, r, o: run_verification(p, (1.0,), angle_tol=v,
                                                                     emit=_no_line),
    "run_verification cert_slack": lambda v, p, r, o: run_verification(p, (1.0,), cert_slack=v,
                                                                      emit=_no_line),
    "certify slack_tol": lambda v, p, r, o: certify(r[0], o, v),
    "containment_violations slack": lambda v, p, r, o: containment_violations(r[0], o, v),
}
SIZE_CAPS = {
    "check_size_cap size_cap": lambda v, p: check_size_cap(4, v),
    "oracle size_cap": lambda v, p: oracle(p, v),
    "gamma_sweep size_cap": lambda v, p: gamma_sweep(p, [1.0], v),
    "run_verification size_cap": lambda v, p: run_verification(p, (1.0,), size_cap=v,
                                                                 emit=_no_line),
}


@pytest.mark.parametrize("value, message", [
    (True, "a real number, got bool"), ("1e-10", "a real number, got str"),
    (float("nan"), "finite and >= 0, got nan"), (-1.0, "finite and >= 0, got -1.0"),
    (float("inf"), "finite and >= 0, got inf"), ([1e-10], "one number, got shape"),
])
@pytest.mark.parametrize("entry", TOLERANCES)
def test_a_tolerance_is_one_finite_number_at_least_zero(stub_linalg, entry, value, message):
    p, reports, orc = _reports_and_oracle()
    stub_linalg()
    name = entry.split()[1]
    with pytest.raises(ParameterOutOfRangeError, match=f"^{name} must be {message}"):
        TOLERANCES[entry](value, p, reports, orc)


@pytest.mark.parametrize("value, message", [
    (True, "a real number, got bool"), ("2000", "a real number, got str"),
    (2.5, "an integer, got 2.5"), (float("inf"), "an integer, got inf"),
    (0, "at least 1, got 0"), (-3, "at least 1, got -3"),
])
@pytest.mark.parametrize("entry", SIZE_CAPS)
def test_a_size_cap_is_an_integer_at_least_one(stub_linalg, entry, value, message):
    p = SaddleProblem(A, B)
    stub_linalg()
    with pytest.raises(ParameterOutOfRangeError, match=f"^size_cap must be {message}"):
        SIZE_CAPS[entry](value, p)


def test_tolerances_and_size_caps_keep_their_meaning():
    p, reports, orc = _reports_and_oracle()
    default = [r.value for r in applicable_bounds(p)]
    for tol in (np.float64(DEFAULT_ANGLE_TOL), 0, 0.0):
        assert [r.value for r in applicable_bounds(p, angle_tol=tol)] == default
    assert certify(reports[0], orc, 0).status == certify(reports[0], orc, 0.0).status
    for cap in (4, 4.0, np.int64(4), 2**70):
        assert oracle(p, cap).mu_min_plus == orc.mu_min_plus
    with pytest.raises(SizeCapError, match="above the size cap 3$"):
        oracle(p, 3.0)
