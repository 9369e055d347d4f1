"""Bound computations against hand-worked values on small problems.

The 3x3 toy problem (A = diag(1, 0), B = [b1 b2], b1^2 + b2^2 = 1) has
every quantity in closed form: the angle between range(A) and range(B^T)
satisfies cos t = b1, so rho = 1 - b1, the angle bound is
min{1 - b1, sqrt(1 - b1)} and the matching gamma is its reciprocal.
"""

import math
import re
import types
import warnings

import numpy as np
import pytest

from saddlebounds import bounds
from saddlebounds.bounds import (
    SaddleProblem,
    agamma_bound,
    applicable_bounds,
    general_rank_bound,
    general_rank_optimal_gamma,
    kernel_angle_bound,
    lowest_rank_bound,
    optimal_gamma,
    rho_from_angles,
    rusten_winther,
    saddle_matrix,
    scalar_weight_bounds,
    wbound,
)
from saddlebounds.errors import (
    AugmentedBlockSingularError,
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
    RankAssumptionError,
    RankDeficientError,
    RankTooLowError,
    SingularKError,
    SizeCapError,
    ZeroAngleError,
)
from saddlebounds.harness import (
    augmented_condition,
    certify,
    inverse_identity_residual,
    oracle,
)
from saddlebounds.linalg import SymmetricMatrix, default_rank_tol
from saddlebounds.problems import (
    GeneratorSpec,
    gen_ipm_like,
    gen_random_lowest_rank,
    gen_remark,
    gen_toy,
    generate_problem,
)
from saddlebounds.reporting import bound_entry
from test_harness import general_weight_bound, reference_augmented, weighted_block

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def toy(b1=0.6, b2=0.8):
    return gen_toy(b1, b2)


class TestProblemValidation:
    def test_rejects_block_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SaddleProblem(np.eye(3), np.array([[1.0, 0.0]]))

    def test_rejects_m_not_below_n(self):
        with pytest.raises(DimensionMismatchError):
            SaddleProblem(np.eye(2), np.eye(2))

    def test_rejects_indefinite_leading_block(self):
        a = np.diag([1.0, -1e-6])
        with pytest.raises(NotPositiveSemidefiniteError):
            SaddleProblem(a, np.array([[1.0, 0.0]]))

    def test_clamps_roundoff_negative_tail(self):
        a = np.diag([1.0, -1e-17])
        p = SaddleProblem(a, np.array([[0.0, 1.0]]))
        assert p.a_values[-1] == 0.0
        assert p.summary.mu_min == 0.0

    def test_rejects_rank_deficient_constraint(self):
        b = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankDeficientError):
            SaddleProblem(np.eye(3), b)

    def test_rejects_complex_leading_block(self):
        a, b = np.diag([2.0, 1.0, 0.0]), np.array([[0.0, 0.3, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterOutOfRangeError, match="got dtype complex128$"):
                SaddleProblem(a + 1j * np.eye(3), b)

    def test_rejects_singular_saddle_matrix(self):
        # e3 is in ker(A) and ker(B), so K has a null vector
        a = np.diag([1.0, 0.0, 0.0])
        b = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(SingularKError):
            SaddleProblem(a, b)

    def test_rejects_nonpositive_rel_tol(self):
        with pytest.raises(ParameterOutOfRangeError):
            SaddleProblem(np.eye(2), np.array([[1.0, 0.0]]), rel_tol=0.0)

    def test_rejects_infinite_rel_tol(self, monkeypatch):
        # refused as a tolerance before any decomposition, not blamed on B
        monkeypatch.setattr(np.linalg, "eigh", None)
        with pytest.raises(ParameterOutOfRangeError, match="^rel_tol must be finite, got inf$"):
            SaddleProblem(np.eye(2), np.array([[1.0, 0.0]]), rel_tol=float("inf"))

    def test_summary_of_toy(self):
        s = toy().summary
        assert s.mu_max == 1.0
        assert s.mu_min == 0.0
        assert s.mu_min_plus == 1.0
        assert abs(s.sigma_max - 1.0) <= 1e-14
        assert abs(s.sigma_min - 1.0) <= 1e-14
        assert (s.rank_a, s.nullity_a) == (1, 1)

    def test_lowest_rank_flag(self):
        assert toy().is_lowest_rank
        assert not gen_remark(0.5).is_lowest_rank


def dense_k_check(a, b, rel_tol=None):
    """The dense nonsingularity rule on K: None when K passes, else the
    SingularKError message."""
    k = saddle_matrix(SymmetricMatrix.from_array(a).array, b)
    vals = np.abs(np.linalg.eigvalsh(k))
    tol = rel_tol if rel_tol is not None else default_rank_tol(a.shape[0])
    kmax = float(vals.max())
    kmin = float(vals.min())
    if kmax == 0.0 or kmin <= tol * kmax:
        return (
            f"saddle matrix is numerically singular: min |eig| = {kmin:.6e} "
            f"vs rel_tol * ||K|| = {tol * kmax:.6e}"
        )
    return None


def construction_outcome(a, b, rel_tol=None):
    """(SingularKError message or None, eigensolves of order n + m run)."""
    order = a.shape[0] + b.shape[0]
    original = np.linalg.eigvalsh
    solves = []

    def counting(x, *args, **kwargs):
        solves.append(np.shape(x)[-2:] == (order, order))
        return original(x, *args, **kwargs)

    np.linalg.eigvalsh = counting
    try:
        SaddleProblem(a, b, rel_tol=rel_tol)
        message = None
    except SingularKError as exc:
        message = str(exc)
    finally:
        np.linalg.eigvalsh = original
    return message, sum(solves)


def scale_gap_case(scale):
    return np.diag([scale, scale, 0.0]), np.ones((1, 3)) / math.sqrt(3.0)


def rotated_shared_null_case():
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
    return q @ np.diag([1.0, 0.0, 0.0]) @ q.T, np.array([[1.0, 0.0, 0.0]]) @ q.T


def tiny_negative_case():
    return np.eye(3), np.array([[1.0, 0.0, 0.0], [0.0, 1e-8, 0.0]])


class TestNonsingularityCertificate:
    """Construction proves K nonsingular with an order-n Cholesky and
    falls back to the dense eigensolve of K where the proof cannot
    decide, so every decision and message is the dense rule's."""

    def test_large_scale_gap_falls_back_and_rejects(self):
        a, b = scale_gap_case(1e16)
        expected = dense_k_check(a, b)
        assert expected is not None
        assert construction_outcome(a, b) == (expected, 1)

    def test_moderate_scale_gap_is_accepted(self):
        a, b = scale_gap_case(1e8)
        assert dense_k_check(a, b) is None
        assert construction_outcome(a, b)[0] is None

    def test_rotated_shared_null_vector_is_rejected(self):
        a, b = rotated_shared_null_case()
        message, solves = construction_outcome(a, b)
        assert message is not None
        assert message == dense_k_check(a, b)
        assert solves == 1

    def test_tiny_negative_eigenvalue_is_rejected(self):
        # A + s B^T B is definite, but K has an eigenvalue near -sigma_min^2
        a, b = tiny_negative_case()
        message, solves = construction_outcome(a, b)
        assert message is not None
        assert message == dense_k_check(a, b)
        assert solves == 1

    def test_overflowing_constraint_gram_falls_back(self):
        # B^T B overflows, and the Cholesky passes infinity and NaN through
        a, b = np.diag([1.0, 1.0, 0.0]), 1e160 * np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = dense_k_check(a, b)
            assert expected is not None
            assert construction_outcome(a, b) == (expected, 1)

    def test_overflowing_constraint_gram_is_not_read(self):
        # sigma_max(B)^2 overflows, so the certificate is undecided before it
        # forms B^T B, and the dense check decides without a warning
        a, b = 1e160 * np.diag([2.0, 1.0, 0.0]), 1e160 * np.array([[0.0, 0.3, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = SaddleProblem(a, b)
        assert "bt_b" not in vars(p)
        assert "k_eigs" in vars(p)

    def test_certified_problem_runs_no_dense_check(self):
        p = toy()
        a, b = p.A.array, p.B.array
        assert construction_outcome(a, b) == (None, 0)
        # below n eps the rounding argument does not hold: the dense check decides
        assert construction_outcome(a, b, rel_tol=1e-20) == (None, 1)

    def test_certificate_decides_every_corpus_member(self, corpus):
        # generate, and bound above the size cap, pay for no eigensolve of K
        for label, p in corpus:
            assert construction_outcome(p.A.array, p.B.array, p.rel_tol) == (None, 0), label

    @pytest.mark.parametrize("c", [1e-9, 1e9])
    def test_decision_unchanged_under_scaling(self, c):
        cases = [
            (toy().A.array, toy().B.array),
            (np.diag([1.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]])),
            scale_gap_case(1e16),
            scale_gap_case(1e8),
            rotated_shared_null_case(),
            tiny_negative_case(),
        ]
        for p in (gen_random_lowest_rank(12, 5, seed=3), gen_ipm_like(12, 4, 1e-2, seed=1)):
            cases.append((p.A.array, p.B.array))
        for a, b in cases:
            base = construction_outcome(a, b)[0]
            assert base == dense_k_check(a, b)
            both = construction_outcome(c * a, c * b)[0]
            assert both == dense_k_check(c * a, c * b)
            assert (both is None) == (base is None)
            assert construction_outcome(a, c * b)[0] == dense_k_check(a, c * b)


def undecided_cases():
    """Order-17 problems whose K the Cholesky certificate cannot decide:
    rel_tol below n eps, entries at 1e160, and a row of B scaled to 1e-7."""
    ipm = gen_ipm_like(12, 5, 1.0, seed=3)
    rnd = gen_random_lowest_rank(12, 5, seed=3)
    a, b = rnd.A.array, rnd.B.array.copy()
    b[0] *= 1e-7
    return [
        (ipm.A.array, ipm.B.array, 1e-15),
        (1e160 * rnd.A.array, 1e160 * rnd.B.array, None),
        (a, b, None),
    ]


class TestSizeCapAtConstruction:
    """Above the size cap, construction refuses the K its certificate
    cannot decide instead of eigensolving it."""

    @pytest.mark.parametrize("case", range(3))
    def test_undecided_k_above_the_cap_is_refused(self, monkeypatch, case):
        a, b, rel_tol = undecided_cases()[case]
        monkeypatch.setattr(bounds, "DEFAULT_SIZE_CAP", 16)
        original = np.linalg.eigvalsh
        orders = []

        def recording(x, *args, **kwargs):
            orders.append(np.shape(x)[-1])
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        with pytest.raises(SizeCapError, match=re.escape(
                "K has order 17, above the size cap 16; only its dense eigensolve "
                "could show it nonsingular")):
            SaddleProblem(a, b, rel_tol=rel_tol)
        assert 17 not in orders

    @pytest.mark.parametrize("case", range(3))
    def test_at_the_real_cap_the_dense_check_decides(self, case):
        a, b, rel_tol = undecided_cases()[case]
        assert construction_outcome(a, b, rel_tol) == (None, 1)

    def test_certified_k_above_the_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr(bounds, "DEFAULT_SIZE_CAP", 16)
        p = gen_random_lowest_rank(12, 5, seed=3)
        assert construction_outcome(p.A.array, p.B.array) == (None, 0)


class TestRustenWinther:
    def test_identity_leading_block_closed_form(self):
        # mu_min = mu_max = sigma = 1: both negative endpoints coincide
        p = SaddleProblem(np.eye(2), np.array([[1.0, 0.0]]))
        r = rusten_winther(p.summary)
        (neg_lo, neg_hi), (pos_lo, pos_hi) = r.intervals
        assert abs(neg_lo - (1.0 - math.sqrt(5.0)) / 2.0) <= 1e-14
        assert abs(neg_hi - (1.0 - math.sqrt(5.0)) / 2.0) <= 1e-14
        assert pos_lo == 1.0
        assert abs(pos_hi - GOLDEN) <= 1e-14
        assert r.value == pos_lo
        assert r.warnings == ()

    def test_singular_leading_block_warns_vacuous(self):
        r = rusten_winther(toy().summary)
        assert r.value == 0.0
        assert "vacuous-positive-lower" in r.warnings

    def test_intervals_are_ordered(self):
        r = rusten_winther(gen_random_lowest_rank(10, 3, 0).summary)
        (neg_lo, neg_hi), (pos_lo, pos_hi) = r.intervals
        assert neg_lo <= neg_hi < 0 <= pos_lo <= pos_hi


class TestAugmentedAssembly:
    def test_scalar_weight_term(self):
        p = toy()
        aw = p.augmented_blocks(2.0)
        b = p.B.array
        np.testing.assert_allclose(aw, p.A.array + 2.0 * b.T @ b, atol=1e-15)

    def test_zero_weight_is_identity_on_a(self):
        p = toy()
        assert np.array_equal(p.augmented_blocks(0.0), p.A.array)

    def test_matrix_weight_term(self):
        # the general-W block A + B^T W B at W = [[3]] is the scalar block
        p = toy()
        np.testing.assert_allclose(weighted_block(p, np.array([[3.0]])),
                                   p.augmented_blocks(3.0), atol=1e-15)

    def test_scalar_weight_validates(self, monkeypatch):
        # every per-gamma entry point refuses gamma in the one check, with
        # one message, before any dense work
        p = toy()
        for routine in ("eigvalsh", "inv", "solve"):
            monkeypatch.setattr(np.linalg, routine, None)
        checks = (wbound, augmented_condition, inverse_identity_residual,
                  SaddleProblem.augmented_blocks,
                  SaddleProblem.augmented_eigs, SaddleProblem.augmented_saddle_abs_eigs,
                  lambda q, g: applicable_bounds(q, gamma=g))
        for gamma, text in ((-1.0, "-1.0"), (float("nan"), "nan"), (float("inf"), "inf")):
            for check in checks:
                with pytest.raises(ParameterOutOfRangeError,
                                   match=f"^scalar weight needs a finite gamma >= 0, got {text}$"):
                    check(p, gamma)

    @pytest.mark.parametrize("gamma, name", [
        (True, "bool"), (np.True_, "bool"), (np.False_, "bool"), (1j, "complex"), ("1", "str"),
        ([[1.0, True]], "bool"), (1 + 0j, "complex"), (np.complex128(1), "complex128"),
        (np.array([1.0 + 0j]), "dtype complex128"), (object(), "object"),
    ])
    def test_gamma_must_be_a_real_number(self, stub_linalg, gamma, name):
        # every per-gamma entry point refuses it before any dense work; the
        # values kept for gamma = 1.0 do not answer for True
        p = toy()
        wbound(p, 1.0)
        stub_linalg()
        checks = (wbound, agamma_bound, augmented_condition, inverse_identity_residual,
                  SaddleProblem.augmented_blocks,
                  SaddleProblem.augmented_eigs, SaddleProblem.augmented_saddle_abs_eigs,
                  lambda q, g: applicable_bounds(q, gamma=g))
        for check in checks:
            with pytest.raises(ParameterOutOfRangeError,
                               match=f"^gamma must be a real number, got {name}$"):
                check(p, gamma)
        with pytest.raises(ParameterOutOfRangeError,
                           match="^gamma must be a real number, got dtype bool$"):
            p.augmented_blocks(np.array([False, True]))

    @pytest.mark.parametrize("gamma", [1e308, 1e307])
    def test_overflowing_gamma_is_refused_without_a_warning(self, gamma):
        # sigma_max(B)^2 = 33.7 on this problem: mu_max(A) + gamma
        # sigma_max(B)^2 is not finite, checked in Python floats
        p = gen_random_lowest_rank(12, 5, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (wbound, SaddleProblem.augmented_blocks,
                          SaddleProblem.augmented_saddle_abs_eigs,
                          lambda q, g: q.augmented_blocks(np.array([1.0, g]))):
                with pytest.raises(ParameterOutOfRangeError,
                                   match=re.escape(f"gamma = {gamma} overflows")):
                    check(p, gamma)
        assert p.augmented_blocks(1e306).shape == (p.n, p.n)

    def test_stacked_blocks_are_the_single_blocks(self):
        p = gen_random_lowest_rank(12, 5, seed=3)
        gammas = np.array([0.0, 0.1, 1.0, 10.0])
        stack = p.augmented_blocks(gammas)
        assert stack.shape == (4, p.n, p.n)
        for gamma, block in zip(gammas.tolist(), stack):
            assert np.array_equal(block, p.augmented_blocks(gamma))

    def test_bt_b_is_exactly_symmetric(self, corpus):
        # augmented_blocks does not symmetrize: its blocks are exactly
        # symmetric because A is stored symmetrized and B^T B comes out so
        big = [generate_problem(GeneratorSpec(family, params, seed))
               for family, params in (("random-lowest-rank", {"n": 400, "m": 160}),
                                      ("ipm-like", {"n": 400, "m": 160, "delta": 1e-2}))
               for seed in (1, 3)]
        for label, p in corpus + [(f"n400-{i}", q) for i, q in enumerate(big)]:
            assert np.array_equal(p.bt_b, p.bt_b.T), label
            assert np.array_equal(p.A.array, p.A.array.T), label

    def test_blocks_keep_the_bits_of_the_symmetrized_formation(self, corpus):
        for label, p in corpus:
            for gamma in (0.1, 1.0, 10.0):
                ref = reference_augmented(p, gamma)
                assert np.array_equal(p.augmented_blocks(gamma), ref), label
                assert np.array_equal(p.augmented_eigs(gamma), np.linalg.eigvalsh(ref)), label

    def test_weight_mu_max(self):
        details = wbound(toy(), 2.5).details
        assert details["weight_mu_max"] == details["gamma"] == 2.5

    def test_dense_weight(self):
        # gamma * I written out as a dense weight gives the scalar block and
        # bound up to rounding
        p = gen_random_lowest_rank(10, 3, 0)
        w = 2.5 * np.eye(3)
        np.testing.assert_allclose(weighted_block(p, w), p.augmented_blocks(2.5),
                                   rtol=0, atol=1e-13)
        assert abs(general_weight_bound(p, w) - wbound(p, 2.5).value) <= 1e-13


class TestWBound:
    def test_boundary_toy_attains_one(self):
        # b1 = 0, b2 = 1: A_1 = I, so both branches equal exactly 1
        p = SaddleProblem(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]))
        r = wbound(p, 1.0)
        assert r.value == 1.0
        assert r.details["gamma"] == 1.0
        np.testing.assert_allclose(np.sort(p.k_eigs), [-1.0, 1.0, 1.0], atol=1e-12)

    def test_zero_weight_needs_definite_a(self):
        p = SaddleProblem(np.eye(2), np.array([[1.0, 0.0]]))
        r = wbound(p, 0.0)
        assert r.value == 1.0
        assert r.details["active"] == "leading-block"
        with pytest.raises(AugmentedBlockSingularError):
            wbound(toy(), 0.0)

    def test_matrix_weight_matches_scalar(self):
        p = toy()
        rs = wbound(p, 0.7)
        assert abs(rs.value - general_weight_bound(p, np.array([[0.7]]))) <= 1e-14

    def test_active_branch_switches_with_gamma(self):
        p = toy()
        small = wbound(p, 0.05)
        large = wbound(p, 50.0)
        assert small.details["active"] == "leading-block"
        assert large.details["active"] == "weight-inverse"
        assert abs(large.value - 1.0 / 50.0) <= 1e-15

    # Known defect: A + gamma B^T B is formed explicitly, and at the
    # optimal gamma of these valid problems its rounding swamps
    # mu_min(A_gamma) (oracle mu_min_plus 4.02e-7 and 5.41e-9), so wbound
    # refuses them. Computing the augmented block in factored form fixes
    # it; these then pass and must be unmarked.
    @pytest.mark.xfail(strict=True, raises=AugmentedBlockSingularError)
    @pytest.mark.parametrize("n, m, seed", [(20, 8, 303), (30, 12, 220)])
    def test_optimal_gamma_of_a_valid_problem(self, n, m, seed):
        p = gen_random_lowest_rank(n, m, seed=seed)
        report = wbound(p, optimal_gamma(p))
        assert certify(report, oracle(p)).status == "sound"


class TestAngleBounds:
    def test_rho_equals_one_minus_b1(self):
        rho, theta = rho_from_angles(toy(0.8, 0.6).range_angles)
        assert abs(rho - 0.2) <= 1e-12
        assert abs(math.cos(theta) - 0.8) <= 1e-12

    def test_lowest_rank_closed_form(self):
        r = lowest_rank_bound(toy(0.8, 0.6))
        # min{1 * 0.2, 1 * sqrt(0.2)} = 0.2, the mu branch
        assert abs(r.value - 0.2) <= 1e-12
        assert r.details["active"] == "mu"
        assert abs(r.details["mu_min_plus"] - 1.0) <= 1e-14

    def test_optimal_gamma_is_reciprocal(self):
        g = optimal_gamma(toy(0.8, 0.6))
        assert abs(g - 5.0) <= 1e-10

    def test_estimate_tight_at_symmetric_point(self):
        # b1 = b2 = 1/sqrt(2), gamma = 1: the estimate equals
        # mu_min(A_1) exactly at 1 - 1/sqrt(2)
        c = 1.0 / math.sqrt(2.0)
        p = gen_toy(c, c)
        est = agamma_bound(p, 1.0).details["augmented_estimate"]
        mu_min = float(np.linalg.eigvalsh(reference_augmented(p, 1.0))[0])
        assert abs(est - (1.0 - c)) <= 1e-12
        assert abs(est - mu_min) <= 1e-12

    def test_estimate_never_exceeds_augmented_min(self):
        for p in (toy(), toy(0.8, 0.6), gen_random_lowest_rank(12, 4, 1)):
            for gamma in np.logspace(-3, 3, 13):
                est = agamma_bound(p, float(gamma)).details["augmented_estimate"]
                mu_min = float(np.linalg.eigvalsh(reference_augmented(p, float(gamma)))[0])
                assert est <= mu_min + 1e-10

    def test_agamma_report_branches(self):
        p = toy()
        inner = agamma_bound(p, 1.0)
        assert inner.details["active"] == "augmented-estimate"
        assert abs(inner.value - 0.4) <= 1e-12
        capped = agamma_bound(p, 100.0)
        assert capped.details["active"] == "weight-inverse"
        assert abs(capped.value - 0.01) <= 1e-15

    def test_overflowing_square_is_infinite(self):
        # sigma_min(B)^2 overflows a double on this valid problem; the
        # estimate is then rho * mu_min_plus, and agamma its 1/gamma term
        p = SaddleProblem(1e160 * np.diag([2.0, 1.0, 0.0]),
                          1e160 * np.array([[0.0, 0.3, 1.0]]))
        rho, _ = rho_from_angles(p.range_angles)
        report = agamma_bound(p, 1.0)
        assert report.details["augmented_estimate"] == rho * p.summary.mu_min_plus
        assert report.value == 1.0
        assert report.details["active"] == "weight-inverse"

    def test_finite_estimates_keep_the_bits_of_the_square(self, lowest_rank_corpus):
        for label, p in lowest_rank_corpus:
            rho, _ = rho_from_angles(p.range_angles)
            s = p.summary
            for gamma in (0.1, 1.0, 10.0):
                expected = rho * min(s.mu_min_plus, gamma * s.sigma_min**2)
                estimate = agamma_bound(p, gamma).details["augmented_estimate"]
                assert estimate == expected, label

    def test_gamma_must_be_positive(self):
        with pytest.raises(ParameterOutOfRangeError, match="^gamma must be positive, got 0.0$"):
            agamma_bound(toy(), 0.0)
        with pytest.raises(ParameterOutOfRangeError):
            agamma_bound(toy(), -2.0)

    def test_rank_assumption_enforced(self):
        p = gen_remark(0.5)
        for fn in (lowest_rank_bound, kernel_angle_bound, optimal_gamma):
            with pytest.raises(RankAssumptionError):
                fn(p)
        with pytest.raises(RankAssumptionError,
                           match=r"^requires rank\(A\) = n - m = 1, numerical rank is 2$"):
            agamma_bound(p, 1.0)

    def test_zero_angle_error_via_inflated_tolerance(self):
        # every validated problem has a positive angle, so force the
        # degenerate branch by inflating the tolerance past pi/2
        with pytest.raises(ZeroAngleError):
            optimal_gamma(toy(), angle_tol=2.0)

    def test_kernel_formulation_agrees(self):
        for seed in range(3):
            p = gen_random_lowest_rank(14, 5, seed)
            lr = lowest_rank_bound(p)
            ka = kernel_angle_bound(p)
            assert abs(lr.value - ka.value) <= 1e-8 * max(1.0, lr.value)


class TestGeneralRank:
    def test_remark_bound_vanishes_with_warning(self):
        r = general_rank_bound(gen_remark(0.5))
        assert r.value == 0.0
        assert "zero-angle" in r.warnings
        assert r.details["mu_n_minus_m"] == 1.0
        assert r.details["theta_tilde_min"] == 0.0

    def test_reduces_to_lowest_rank_bitwise(self):
        for seed in range(3):
            p = gen_random_lowest_rank(12, 4, seed)
            assert general_rank_bound(p).value == lowest_rank_bound(p).value

    def test_tied_split_boundary_warns(self):
        # mu_2 = mu_3 = 1 at the boundary of the rank-(n - m) split
        b = np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        p = SaddleProblem(np.diag([2.0, 1.0, 1.0, 0.0]), b)
        assert p.split_quantities[2]
        assert "degenerate-split" in general_rank_bound(p).warnings

    def test_untied_split_boundary_does_not_warn(self):
        b = np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        p = SaddleProblem(np.diag([3.0, 2.0, 1.0, 0.0]), b)
        assert not p.split_quantities[2]
        assert "degenerate-split" not in general_rank_bound(p).warnings

    def test_remark_split_is_untied(self):
        # the split keeps e1 alone, so mu_{n-m} = 1 and the boundary
        # 1 > alpha is no tie
        p = gen_remark(0.5)
        mu_nm, _, degenerate = p.split_quantities
        assert mu_nm == 1.0
        assert not degenerate
        assert general_rank_bound(p).warnings == ("zero-angle",)

    def test_rank_too_low_is_detected(self):
        # unreachable through a validated problem (K would be singular),
        # so drive the split with a minimal stand-in
        stub = types.SimpleNamespace(
            n=4, m=1, rel_tol=1e-12, summary=types.SimpleNamespace(rank_a=2)
        )
        message = r"^rank\(A\) = 2 < n - m = 3; the saddle matrix would be singular$"
        with pytest.raises(RankTooLowError, match=message):
            SaddleProblem.split_quantities.func(stub)

    def test_optimal_gamma_fallback_positive(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 8))
        a = x @ x.T  # full rank
        b = rng.standard_normal((2, 8))
        p = SaddleProblem(a, b)
        assert not p.is_lowest_rank
        g = general_rank_optimal_gamma(p)
        assert g > 0
        with pytest.raises(ZeroAngleError):
            general_rank_optimal_gamma(gen_remark(0.3))


class TestApplicableBounds:
    def test_order_for_lowest_rank_with_gamma(self):
        names = [r.name for r in applicable_bounds(toy(), gamma=1.0)]
        assert names == [
            "rusten-winther",
            "lowest-rank",
            "kernel-angle",
            "general-rank",
            "wbound",
            "agamma",
        ]

    def test_order_for_general_rank(self):
        names = [r.name for r in applicable_bounds(gen_remark(0.5))]
        assert names == ["rusten-winther", "general-rank"]

    def test_scalar_weight_reports_follow_the_rank(self):
        assert [r.name for r in scalar_weight_bounds(toy(), 1.0)] == ["wbound", "agamma"]
        assert [r.name for r in scalar_weight_bounds(gen_remark(0.5), 1.0)] == ["wbound"]
        assert applicable_bounds(toy(), gamma=1.0)[-2:] == scalar_weight_bounds(toy(), 1.0)

    def test_full_weight_appends_wbound(self):
        # the weight is gamma: a full weight is no longer accepted, and the
        # wbound that gamma appends is the full-weight bound at W = gamma * I
        with pytest.raises(TypeError):
            applicable_bounds(toy(), weight=np.array([[2.0]]))
        report = applicable_bounds(toy(), gamma=2.0)[-2]
        assert report.name == "wbound"
        assert report.details["gamma"] == 2.0
        assert abs(report.value - general_weight_bound(toy(), np.array([[2.0]]))) <= 1e-14

    @pytest.mark.parametrize("gamma", [-1.0, 1e308])
    def test_refused_gamma_costs_no_angle_work(self, monkeypatch, gamma):
        # the scalar-weight reports come first, so the check of gamma runs
        # before any principal-angle SVD
        p = gen_random_lowest_rank(12, 5, seed=3)
        monkeypatch.setattr(np.linalg, "svd", None)
        with pytest.raises(ParameterOutOfRangeError, match="gamma"):
            applicable_bounds(p, gamma=gamma)
        assert "range_angles" not in vars(p)

    def test_every_report_claims_assumptions(self):
        # a bound whose assumptions fail raises, so every entry claims them
        for r in applicable_bounds(toy(), gamma=0.5):
            assert bound_entry(r)["assumptions_met"] is True

    def test_saddle_matrix_layout(self):
        p = toy()
        k = saddle_matrix(p.A.array, p.B.array)
        np.testing.assert_allclose(k[:2, :2], p.A.array, atol=0)
        np.testing.assert_allclose(k[:2, 2:], p.B.array.T, atol=0)
        np.testing.assert_allclose(k[2:, 2:], 0.0, atol=0)
