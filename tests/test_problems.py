"""Generator families: closed-form spectra, validation, determinism."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saddlebounds.bounds import SaddleProblem
from saddlebounds.errors import (
    ParameterOutOfRangeError,
    SingularKError,
)
from saddlebounds.harness import oracle
from saddlebounds.linalg import principal_angles
from saddlebounds.problems import (
    FAMILIES,
    GeneratorSpec,
    gen_ipm_like,
    gen_prescribed_angles,
    gen_random_lowest_rank,
    gen_remark,
    gen_toy,
    generate_problem,
)


def cubic_roots(b2):
    """Roots of l^3 - l^2 - l + b2^2, the toy characteristic polynomial."""
    return np.sort(np.real(np.roots([1.0, -1.0, -1.0, b2 * b2])))


class TestToy:
    def test_characteristic_polynomial(self):
        for b2 in (0.3, 0.8):
            p = gen_toy(math.sqrt(1.0 - b2 * b2), b2)
            coeffs = np.poly(np.asarray(p.k_eigs))
            np.testing.assert_allclose(coeffs, [1.0, -1.0, -1.0, b2 * b2], atol=1e-10)

    @given(b2=st.floats(0.05, 0.95))
    def test_spectrum_matches_cubic(self, b2):
        p = gen_toy(math.sqrt(1.0 - b2 * b2), b2)
        np.testing.assert_allclose(np.sort(p.k_eigs), cubic_roots(b2), atol=1e-9)

    def test_rejects_unnormalized_row(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_toy(0.6, 0.7)

    def test_rejects_negative_entries(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_toy(-0.6, 0.8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_toy(float("nan"), 1.0)

    def test_boundary_rows_are_built_directly(self):
        with pytest.raises(ParameterOutOfRangeError, match="strictly positive"):
            gen_toy(0.0, 1.0)
        with pytest.raises(ParameterOutOfRangeError, match="strictly positive"):
            gen_toy(1.0, 0.0)
        p = SaddleProblem(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]))
        assert p.n == 2 and p.m == 1

    def test_degenerate_boundary_fails_validation(self):
        # b = [1 0] makes e2 a null vector of K
        with pytest.raises(SingularKError):
            SaddleProblem(np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]))


class TestRemark:
    def test_full_spectrum(self):
        for alpha in (0.2, 0.5):
            p = gen_remark(alpha)
            golden = (1.0 + math.sqrt(5.0)) / 2.0
            expected = np.sort([alpha, 1.0, golden, 1.0 - golden, -1.0])
            np.testing.assert_allclose(np.sort(p.k_eigs), expected, atol=1e-10)

    def test_rank_is_above_lowest(self):
        p = gen_remark(0.5)
        assert p.summary.rank_a == 2
        assert p.n - p.m == 1

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0, 1.0 - 1e-13, float("inf")])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        with pytest.raises(ParameterOutOfRangeError):
            gen_remark(alpha)


class TestPrescribedAngles:
    def test_round_trip_angles_and_spectra(self):
        thetas = np.array([0.3, 0.7, 1.2])
        a_eigs = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        b_sing = np.array([0.8, 1.1, 1.6])
        p = gen_prescribed_angles(10, 3, a_eigs, b_sing, thetas, seed=0)
        measured = principal_angles(p.range_a, p.row_space_b).angles
        np.testing.assert_allclose(np.sort(measured), thetas, atol=1e-8)
        s = p.summary
        assert abs(s.mu_max - 3.5) <= 1e-12
        assert abs(s.mu_min_plus - 0.5) <= 1e-12
        assert abs(s.sigma_max - 1.6) <= 1e-12
        assert abs(s.sigma_min - 0.8) <= 1e-12
        assert s.rank_a == 7 and p.is_lowest_rank

    def test_right_angles_decouple_spectrum(self):
        # orthogonal subspaces: positive eigenvalues of K are exactly
        # the a_eigs plus the b singular values
        a_eigs = np.array([0.7, 1.3, 2.1, 2.9])
        b_sing = np.array([0.9, 1.7])
        thetas = np.full(2, math.pi / 2)
        p = gen_prescribed_angles(6, 2, a_eigs, b_sing, thetas, seed=1)
        orc = oracle(p)
        pos = np.sort(orc.all_eigs[orc.all_eigs > 0])
        expected = np.sort(np.concatenate([a_eigs, b_sing]))
        np.testing.assert_allclose(pos, expected, atol=1e-8)

    def test_tiny_angle_survives_validation(self):
        thetas = np.array([1e-6, 0.5])
        p = gen_prescribed_angles(8, 2, np.ones(6), np.ones(2), thetas, seed=2)
        measured = principal_angles(p.range_a, p.row_space_b).angles
        assert abs(float(np.min(measured)) - 1e-6) <= 1e-8

    def test_needs_twice_the_rows(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(5, 3, np.ones(2), np.ones(3), np.full(3, 1.0))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.ones(3), np.ones(2), np.full(2, 1.0))
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.ones(4), np.ones(1), np.full(2, 1.0))
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.ones(4), np.ones(2), np.full(3, 1.0))

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.array([1.0, -1.0, 1.0, 1.0]), np.ones(2), np.full(2, 1.0))
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.ones(4), np.zeros(2), np.full(2, 1.0))
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.ones(4), np.ones(2), np.array([0.0, 1.0]))
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.ones(4), np.ones(2), np.array([1.0, 2.0]))
        with pytest.raises(ParameterOutOfRangeError):
            gen_prescribed_angles(6, 2, np.ones(4), np.ones(2), np.array([1.0, 0.5]))


class TestIpmLike:
    def test_zero_delta_is_lowest_rank(self):
        p = gen_ipm_like(12, 4, 0.0, seed=0)
        assert p.is_lowest_rank
        assert p.summary.rank_a == 8

    def test_positive_delta_raises_rank(self):
        p = gen_ipm_like(12, 4, 1e-2, seed=0)
        assert p.summary.rank_a > 8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_ipm_like(4, 4, 0.0)
        with pytest.raises(ParameterOutOfRangeError):
            gen_ipm_like(8, 2, -1e-3)
        with pytest.raises(ParameterOutOfRangeError):
            gen_ipm_like(8, 2, float("nan"))


class TestRandomLowestRank:
    def test_rank_and_shape(self):
        p = gen_random_lowest_rank(10, 3, seed=0)
        assert (p.n, p.m) == (10, 3)
        assert p.is_lowest_rank

    def test_rejects_bad_dims(self):
        with pytest.raises(ParameterOutOfRangeError):
            gen_random_lowest_rank(3, 3)
        with pytest.raises(ParameterOutOfRangeError):
            gen_random_lowest_rank(3, 0)

    def test_seeds_differ(self):
        a0 = gen_random_lowest_rank(8, 2, seed=0).A.array
        a1 = gen_random_lowest_rank(8, 2, seed=1).A.array
        assert not np.array_equal(a0, a1)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ParameterOutOfRangeError, match="^parameter seed = -1 is invalid"):
            gen_random_lowest_rank(5, 2, seed=-1)


SPECS = [
    GeneratorSpec("toy-2x2", {"b1": 0.6, "b2": 0.8}),
    GeneratorSpec("remark-3x3", {"alpha": 0.4}),
    GeneratorSpec(
        "prescribed-angles",
        {"n": 8, "m": 2, "a_eigs": [1.0] * 6, "b_sing_vals": [1.0, 2.0], "thetas": [0.4, 0.9]},
        seed=3,
    ),
    GeneratorSpec("ipm-like", {"n": 9, "m": 3, "delta": 1e-4}, seed=4),
    GeneratorSpec("random-lowest-rank", {"n": 9, "m": 3}, seed=5),
]


class TestGeneratorSpec:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_bit_identical_regeneration(self, spec):
        p1 = generate_problem(spec)
        p2 = generate_problem(spec)
        assert np.array_equal(p1.A.array, p2.A.array)
        assert np.array_equal(p1.B.array, p2.B.array)

    @pytest.mark.parametrize("seed", [
        -1, 1.5, 3.0, True, False, np.True_, [[1.0, True]], "1", 1 + 0j, np.complex128(1),
        np.array([[1.0 + 0j]]), object(),
    ])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_seed_must_be_a_nonnegative_int(self, stub_linalg, spec, seed):
        stub_linalg()  # refused before any work
        with pytest.raises(ParameterOutOfRangeError,
                           match=f"^parameter seed = {re.escape(repr(seed))} is invalid"):
            generate_problem(GeneratorSpec(spec.family, spec.parameters, seed))

    # orders whose n x n matrix fails before any memory is touched
    @pytest.mark.parametrize("n", [100000000, 100000000000000000000])
    @pytest.mark.parametrize("make", [
        lambda n: gen_random_lowest_rank(n, 5),
        lambda n: gen_ipm_like(n, 5, 0.01),
        lambda n: gen_prescribed_angles(n, 1, [1.0], [1.0], [0.5]),
    ], ids=["random-lowest-rank", "ipm-like", "prescribed-angles"])
    def test_unallocatable_order_is_refused_first(self, make, n):
        message = f"^parameter n = {n} is invalid: a {n} x {n} matrix does not fit in memory$"
        with pytest.raises(ParameterOutOfRangeError, match=message):
            make(n)

    def test_json_round_trip(self):
        spec = SPECS[2]
        back = GeneratorSpec(**json.loads(spec.to_json_str()))
        assert back == spec

    def test_to_json_str_is_stable(self):
        assert SPECS[0].to_json_str() == SPECS[0].to_json_str()
        assert SPECS[0].to_json_str().endswith("\n")

    def test_dispatch_checks_parameter_keys(self):
        with pytest.raises(ParameterOutOfRangeError, match="missing"):
            generate_problem(GeneratorSpec("toy-2x2", {"b1": 0.6}))
        with pytest.raises(ParameterOutOfRangeError, match="unknown"):
            generate_problem(GeneratorSpec("remark-3x3", {"alpha": 0.4, "beta": 1.0}))
        with pytest.raises(ParameterOutOfRangeError):
            generate_problem(GeneratorSpec("nowhere", {}))

    def test_family_list_matches_dispatch(self):
        assert len(FAMILIES) == 5
        for spec in SPECS:
            assert spec.family in FAMILIES
