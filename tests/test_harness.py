"""Oracle, certification, the inverse identity and the gamma sweep."""

import tracemalloc
import warnings

import numpy as np
import pytest

from saddlebounds.bounds import (
    STACK_BYTES,
    BoundReport,
    SaddleProblem,
    agamma_bound,
    lowest_rank_bound,
    optimal_gamma,
    rusten_winther,
    saddle_matrix,
    wbound,
)
from saddlebounds.errors import (
    AugmentedBlockSingularError,
    ConvergenceError,
    ParameterOutOfRangeError,
    RankAssumptionError,
    SizeCapError,
)
from saddlebounds.harness import (
    MAX_GAMMA_POINTS,
    SWEEP_CSV_HEADER,
    SweepResult,
    augmented_condition,
    certify,
    containment_violations,
    gamma_sweep,
    inverse_identity_residual,
    log_gamma_grid,
    oracle,
    ptp_spectrum_deviation,
)
from saddlebounds.linalg import SymmetricMatrix, numerically_singular
from saddlebounds.problems import (
    gen_ipm_like,
    gen_prescribed_angles,
    gen_random_lowest_rank,
    gen_remark,
    gen_toy,
)


def toy(b1=0.6, b2=0.8):
    return gen_toy(b1, b2)


def reference_sweep_csv(sweep):
    """The per-value formatter SweepResult.to_csv must match byte for byte."""
    lines = [SWEEP_CSV_HEADER]
    for row in sweep.rows:  # gamma, 1/gamma, mu_min(A_gamma), predicted, mu_min_plus(K)
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


class TestOracle:
    def test_toy_spectrum_against_cubic(self):
        b2 = 0.8
        p = toy()
        orc = oracle(p)
        roots = np.sort(np.real(np.roots([1.0, -1.0, -1.0, b2 * b2])))[::-1]
        np.testing.assert_allclose(orc.all_eigs, roots, atol=1e-10)
        assert abs(orc.mu_min_plus - roots[1]) <= 1e-10

    def test_counts_and_threshold(self):
        p = toy()
        orc = oracle(p)
        assert (orc.pos_count, orc.neg_count) == (2, 1)
        assert orc.pos_count + orc.neg_count == orc.all_eigs.size  # no zero eigenvalue
        assert orc.inertia_ok
        # no eigenvalue is within the rank threshold of zero
        assert np.all(np.abs(orc.all_eigs) > p.rel_tol * float(np.abs(orc.all_eigs).max()))
        assert np.all(np.diff(orc.all_eigs) <= 0)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            oracle(toy(), size_cap=2)


class TestCertify:
    def test_statuses(self):
        orc = oracle(toy())  # mu_min_plus about 0.512
        assert certify(BoundReport("stub", -1.0), orc).status == "vacuous"
        assert certify(BoundReport("stub", 0.0), orc).status == "vacuous"
        sound = certify(BoundReport("stub", 0.4), orc)
        assert sound.status == "sound"
        assert abs(sound.slack - (orc.mu_min_plus - 0.4)) <= 1e-15
        assert certify(BoundReport("stub", 0.6), orc).status == "violated"

    def test_slack_tolerance_absorbs_roundoff(self):
        orc = oracle(toy())
        barely = orc.mu_min_plus + 1e-10
        assert certify(BoundReport("stub", barely), orc).status == "sound"

    def test_containment_empty_for_real_intervals(self):
        p = toy()
        orc = oracle(p)
        rw = rusten_winther(p.summary)
        assert containment_violations(rw, orc).size == 0

    def test_containment_flags_everything_outside(self):
        orc = oracle(toy())
        fake = BoundReport(
            "stub", 0.6, intervals=((-0.5, -0.4), (0.6, 0.7))
        )
        # intervals that miss all three eigenvalues
        assert containment_violations(fake, orc).size == 3

    def test_containment_needs_intervals(self):
        with pytest.raises(ParameterOutOfRangeError):
            containment_violations(BoundReport("stub", 0.0), oracle(toy()))

    def test_assemble_K_layout(self):
        p = toy()
        k = p.k_matrix
        n = p.n
        assert np.array_equal(k[:n, :n], p.A.array)
        assert np.array_equal(k[:n, n:], p.B.array.T)
        assert np.array_equal(k[n:, :n], p.B.array)
        assert not k[n:, n:].any()
        assert np.array_equal(k, k.T)
        assert not k.flags.writeable


def reference_augmented(p, gamma):
    """A + gamma B^T B formed on its own and exactly symmetrized through
    SymmetricMatrix.from_array: the reference whose bits
    SaddleProblem.augmented_blocks must keep."""
    return SymmetricMatrix.from_array(p.A.array + gamma * p.bt_b).array


# The general-W reference. The augmentation argument holds for any
# positive semidefinite m-by-m weight W; the library computes only
# W = gamma * I, so these form A + B^T W B themselves.


def weighted_block(p, w):
    """A + B^T W B for a dense m-by-m weight W."""
    b = p.B.array
    return p.A.array + b.T @ w @ b


def general_weight_bound(p, w):
    """min{mu_min(A + B^T W B), 1/mu_max(W)}, a lower bound on the
    positive eigenvalues of K for every positive semidefinite W (a zero
    W contributes no 1/mu_max term)."""
    mu_min = float(np.linalg.eigvalsh(weighted_block(p, w))[0])
    w_max = float(np.linalg.eigvalsh(w)[-1])
    return mu_min if w_max == 0.0 else min(mu_min, 1.0 / w_max)


def solved_identity_residual(p, w, aw=None):
    """The inverse-identity residual at the dense weight W, written as the
    identity reads, each inverse from a solve against the identity:
    ||K^{-1} - K_W^{-1} - blockdiag(0, W)||_F / max(1, ||K^{-1}||_F), and
    the larger Schur-form residual where A_W is nonsingular. ``aw`` is
    A_W when given, else ``weighted_block(p, w)``."""
    n, m = p.n, p.m
    eye = np.eye(n + m)
    k_inv = np.linalg.solve(p.k_matrix, eye)
    if aw is None:
        aw = weighted_block(p, w)
    kw_inv = np.linalg.solve(saddle_matrix(aw, p.B.array), eye)
    block = np.zeros((n + m, n + m))
    block[n:, n:] = w
    scale = max(1.0, float(np.linalg.norm(k_inv, "fro")))
    residual = float(np.linalg.norm(k_inv - kw_inv - block, "fro")) / scale
    aw_vals = np.linalg.eigvalsh(aw)
    if not numerically_singular(float(aw_vals[0]), float(aw_vals[-1]), p.rel_tol):
        b = p.B.array
        s_w_inv = np.linalg.inv(b @ np.linalg.solve(aw, b.T))
        trailing = k_inv[n:, n:] - (w - s_w_inv)
        residual = max(residual, float(np.linalg.norm(trailing, "fro")) / scale)
    return residual


def random_psd_weight(m, scale, seed):
    """Q diag(lambda) Q^T with Q a random orthogonal matrix and lambda
    uniform in [scale / 2, 2 scale]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (q * rng.uniform(0.5 * scale, 2.0 * scale, m)) @ q.T


class TestInverseIdentity:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("make", [
        toy,
        lambda: gen_random_lowest_rank(12, 5, seed=3),
        lambda: gen_ipm_like(12, 4, 1e-2, seed=1),
    ], ids=["toy", "random", "ipm-like"])
    def test_residual_has_the_bits_of_the_solved_expression(self, make, gamma):
        # the reference at W = gamma * I, on the library's own A_gamma
        p = make()
        expected = solved_identity_residual(p, gamma * np.eye(p.m),
                                            reference_augmented(p, gamma))
        assert inverse_identity_residual(p, gamma) == expected

    def test_residual_holds_at_most_three_order_n_plus_m_squares(self):
        p = gen_random_lowest_rank(80, 32, seed=1)
        # the kept B^T B the residual reads
        p.bt_b
        tracemalloc.start()
        try:
            inverse_identity_residual(p, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # K^{-1}, formed by the call itself, and three squares beyond it
        assert peak <= (1 + 3) * (p.n + p.m) ** 2 * 8

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_toy_residual_tiny(self, gamma):
        assert inverse_identity_residual(toy(), gamma) <= 1e-10

    def test_full_weight_residual(self):
        p = gen_random_lowest_rank(10, 3, seed=0)
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = (q * np.array([0.5, 1.0, 2.0])) @ q.T
        assert solved_identity_residual(p, w) <= 1e-8

    def test_general_weight_bound_and_identity_on_the_corpus(self, corpus):
        # a random positive definite W with 1/mu_max(W) >= mu_min_plus(K) / 2:
        # min{mu_min(A + B^T W B), 1/mu_max(W)} is a sound, nonvacuous bound,
        # and the inverse identity holds at W
        for i, (label, p) in enumerate(corpus[::20]):
            truth = oracle(p)
            w = random_psd_weight(p.m, 1.0 / truth.mu_min_plus, seed=i)
            value = general_weight_bound(p, w)
            assert value > 0.0, label
            outcome = certify(BoundReport("general-weight", value), truth)
            assert outcome.status == "sound", label
            assert solved_identity_residual(p, w) <= 1e-8, label

    def test_zero_weight_on_definite_block(self):
        p = SaddleProblem(np.eye(3), np.array([[1.0, 0.0, 0.0]]))
        assert inverse_identity_residual(p, 0.0) <= 1e-12

    def test_zero_weight_on_singular_block(self):
        # gamma = 0 leaves A_gamma = A, singular here, so only the full
        # identity is checked: K_0 = K is nonsingular
        assert inverse_identity_residual(toy(), 0.0) <= 1e-8

    def test_each_call_factors_anew(self, monkeypatch):
        # each call eigensolves K_gamma and inverts K again
        p = gen_random_lowest_rank(10, 3, seed=4)
        calls = {"eigvalsh": 0, "inv": 0}
        for routine in calls:
            original = getattr(np.linalg, routine)

            def counting(a, *args, _routine=routine, _original=original, **kwargs):
                if a.shape == (p.n + p.m, p.n + p.m):
                    calls[_routine] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, routine, counting)
        first = inverse_identity_residual(p, 1.0)
        augmented_condition(p, 1.0)
        assert inverse_identity_residual(p, 1.0) == first
        # K_gamma three times; K and K_gamma inverted by each residual
        assert calls == {"eigvalsh": 3, "inv": 4}

    def test_detects_singular_augmented_matrix(self):
        with pytest.raises(AugmentedBlockSingularError):
            inverse_identity_residual(toy(), 1e30)

    def test_condition_number_grows_with_gamma(self):
        p = toy()
        mild = augmented_condition(p, 1.0)
        harsh = augmented_condition(p, 1e14)
        assert mild < 1e3
        assert harsh > 1e12


class TestSweep:
    def test_grid_construction(self):
        g = log_gamma_grid(1e-4, 1e4, 25)
        assert g.shape == (25,)
        assert np.all(np.diff(g) > 0)
        np.testing.assert_allclose(g[0], 1e-4, rtol=1e-12)
        np.testing.assert_allclose(g[-1], 1e4, rtol=1e-12)
        with pytest.raises(ParameterOutOfRangeError):
            log_gamma_grid(1.0, 1.0, 5)
        with pytest.raises(ParameterOutOfRangeError):
            log_gamma_grid(1e-2, 1e2, 1)
        assert log_gamma_grid(1e-2, 1e2, MAX_GAMMA_POINTS).shape == (MAX_GAMMA_POINTS,)
        with pytest.raises(ParameterOutOfRangeError, match="at most 10000 gamma grid points"):
            log_gamma_grid(1e-2, 1e2, MAX_GAMMA_POINTS + 1)

    @pytest.mark.parametrize("args, refusal", [
        ((1e-2, 10, 2.5), "^points must be an integer, got 2.5$"),
        ((1e-2, 10, True), "^points must be a real number, got bool$"),
        ((1e-2, 10, "3"), "^points must be a real number, got str$"),
        ((True, 10, 3), "^gamma_min must be a real number, got bool$"),
        ((1e-2, "10", 3), "^gamma_max must be a real number, got str$"),
    ])
    def test_grid_arguments_must_be_numbers(self, args, refusal):
        with pytest.raises(ParameterOutOfRangeError, match=refusal):
            log_gamma_grid(*args)

    @pytest.mark.parametrize("points", [3.0, np.float64(3.0), np.int32(3)])
    def test_integral_point_count_reads_as_an_integer(self, points):
        assert log_gamma_grid(1e-2, 10, points).tolist() == log_gamma_grid(1e-2, 10, 3).tolist()

    @pytest.mark.parametrize("gamma_max", [np.inf, 1.7976931348623157e308])
    def test_non_finite_grid_is_refused_without_a_warning(self, gamma_max):
        # the last point of the second grid overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterOutOfRangeError,
                               match="gamma grid values must be finite and positive"):
                log_gamma_grid(1e-4, gamma_max, 25)

    def test_toy_crossing_and_maximizer(self):
        p = toy()
        s = gamma_sweep(p, log_gamma_grid(1e-4, 1e4, 25))
        assert s.crossing_index == 12
        predicted = [row[3] for row in s.rows]
        assert int(np.argmax(predicted)) == 13
        assert s.actual_mu_min_plus == oracle(p).mu_min_plus
        for gamma, inv_gamma, mu_min_a_gamma, predicted_bound, actual in s.rows:
            assert inv_gamma == 1.0 / gamma
            assert predicted_bound == min(inv_gamma, mu_min_a_gamma)
            assert actual == s.actual_mu_min_plus

    def test_result_keeps_a_read_only_copy_of_the_grid(self):
        grid = log_gamma_grid(1e-2, 1e2, 5)
        s = gamma_sweep(toy(), grid)
        assert grid.flags.writeable
        grid[:] = 7.0
        assert s.gammas.tolist() == log_gamma_grid(1e-2, 1e2, 5).tolist()
        assert not s.gammas.flags.writeable
        assert not s.mu_min_a_gamma.flags.writeable
        assert type(s.crossing_index) is int
        assert len(s.rows) == 5

    def test_rows_match_direct_eigensolve(self, monkeypatch):
        cases = [
            (toy(), np.array([0.5, 1.0, 2.0])),
            # 9 blocks of order 60 per stacked eigensolve, so 5 calls
            (gen_random_lowest_rank(60, 24, seed=5), log_gamma_grid(1e-3, 1e3, 40)),
            # one block of order 200 per call, above the stack budget
            (gen_random_lowest_rank(200, 80, seed=1), log_gamma_grid(1e-2, 1e2, 4)),
        ]
        original = np.linalg.eigvalsh
        operands = []

        def recording(a, *args, **kwargs):
            operands.append((a.shape, a.nbytes))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        for p, grid in cases:
            p.k_eigs  # the oracle's eigensolve of K, kept out of the count
            operands.clear()
            s = gamma_sweep(p, grid)
            block = p.n * p.n * 8
            assert len(operands) == -(-len(grid) // max(1, STACK_BYTES // block))
            for shape, nbytes in operands:
                assert shape[-2:] == (p.n, p.n)
                assert nbytes <= max(STACK_BYTES, block)
            for mu_min_a_gamma, gamma in zip(s.mu_min_a_gamma, grid):
                a_g = p.A.array + gamma * (p.B.array.T @ p.B.array)
                assert mu_min_a_gamma == float(original(a_g)[0])

    def test_rows_keep_the_bits_of_the_symmetrized_formation(self, corpus):
        grid = log_gamma_grid(1e-4, 1e4, 9)
        for label, p in corpus:
            s = gamma_sweep(p, grid)
            for gamma, mu_min_a_gamma in zip(s.gammas, s.mu_min_a_gamma):
                ref = reference_augmented(p, gamma)
                assert mu_min_a_gamma == float(np.linalg.eigvalsh(ref)[0]), label

    def test_derived_columns_match_the_row_loop(self, corpus):
        # the derived columns and crossing_index against the per-row loop
        # that built them before they were derived
        grid = log_gamma_grid(1e-4, 1e4, 9)
        for label, p in corpus:
            s = gamma_sweep(p, grid)
            expected = []
            for gamma, mu_min in zip(grid.tolist(), s.mu_min_a_gamma.tolist()):
                inv = 1.0 / gamma
                expected.append((gamma, inv, mu_min, min(inv, mu_min), s.actual_mu_min_plus))
            assert s.rows == tuple(expected), label
            signs = np.sign(np.array([row[1] - row[2] for row in expected]))
            crossing = next((i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]), None)
            assert s.crossing_index == crossing, label

    def test_overflowing_grid_is_refused_before_any_eigensolve(self, monkeypatch):
        # one block per stack at n = 200; the top of the grid overflows
        p = gen_random_lowest_rank(200, 80, seed=1)
        grid = log_gamma_grid(1.0, 1e308, 3)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterOutOfRangeError,
                               match=r"^gamma = 1e\+308 overflows the augmented block$"):
                gamma_sweep(p, grid)

    def test_size_cap_is_checked_before_the_blocks(self, monkeypatch):
        p = toy()
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        with pytest.raises(SizeCapError):
            gamma_sweep(p, [1.0, 2.0], size_cap=2)

    def test_single_point_grid_at_matched_gamma(self):
        p = toy()
        g = optimal_gamma(p)
        s = gamma_sweep(p, np.array([g]))
        assert s.crossing_index is None
        assert s.rows[0][3] >= lowest_rank_bound(p).value - 1e-10  # predicted

    def test_predicted_dominates_certified_estimate(self):
        p = toy()
        for gamma in (0.3, 1.0, 3.0):
            s = gamma_sweep(p, np.array([gamma]))
            assert s.rows[0][3] + 1e-12 >= agamma_bound(p, gamma).value  # predicted

    def test_repeated_sweep_is_deterministic(self):
        p = gen_random_lowest_rank(12, 4, seed=2)
        grid = log_gamma_grid(1e-3, 1e3, 13)
        first = gamma_sweep(p, grid)
        second = gamma_sweep(p, grid)
        assert first.crossing_index == second.crossing_index
        assert first.rows == second.rows

    def test_grid_validation(self, stub_linalg):
        p = toy()
        stub_linalg()  # every grid is refused before any work
        with pytest.raises(ParameterOutOfRangeError):
            gamma_sweep(p, np.array([2.0, 1.0]))
        with pytest.raises(ParameterOutOfRangeError):
            gamma_sweep(p, np.array([-1.0, 1.0]))
        with pytest.raises(ParameterOutOfRangeError):
            gamma_sweep(p, np.array([]))
        with pytest.raises(ParameterOutOfRangeError):
            gamma_sweep(p, np.ones((2, 2)))
        # refused before any conversion: no ComplexWarning, no 1.0 for True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid, got in (([1.0 + 1j, 2.0], "complex"), ([True], "bool"), (["1"], "str"),
                              ([0.1, True, 10], "bool"), ([[1.0, True]], "bool"),
                              (1 + 0j, "complex"), (np.complex128(1), "complex128"),
                              (np.array([1.0, 2.0], dtype=complex), "dtype complex128"),
                              (object(), "object")):
                refusal = f"^each gamma grid point must be a real number, got {got}$"
                with pytest.raises(ParameterOutOfRangeError, match=refusal):
                    gamma_sweep(p, grid)

    def test_csv_matches_reference_formatter(self):
        p = gen_random_lowest_rank(12, 4, seed=2)
        for grid in (np.array([1.0]), log_gamma_grid(1e-4, 1e4, 25)):
            s = gamma_sweep(p, grid)
            assert s.to_csv() == reference_sweep_csv(s)
        # a subnormal gamma gives 1/gamma = inf; -0.0, nan, -1e-300 and 0.0
        # in the measured column, and 1e300 in the oracle's
        specials = SweepResult(
            np.array([5e-324, 2.5, 4.0, 8.0]), np.array([-0.0, float("nan"), -1e-300, 0.0]), 1e300,
        )
        assert specials.to_csv() == reference_sweep_csv(specials)
        assert specials.to_csv().split("\n")[1:5] == [
            "4.9406564584124654e-324,inf,-0,-0,1.0000000000000001e+300",
            "2.5,0.40000000000000002,nan,nan,1.0000000000000001e+300",
            "4,0.25,-1e-300,-1e-300,1.0000000000000001e+300",
            "8,0.125,0,0,1.0000000000000001e+300",
        ]

    def test_csv_round_trips_floats(self):
        s = gamma_sweep(toy(), log_gamma_grid(1e-2, 1e2, 5))
        text = s.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 6
        for line, row in zip(lines[1:], s.rows):
            parsed = [float(tok) for tok in line.split(",")]
            assert parsed == list(row)


class TestLapackFailures:
    """A LinAlgError from any dense routine of the checks or of a generator
    is a ConvergenceError naming the failed step; a failed Cholesky of the
    nonsingularity certificate leaves K to its dense check."""

    @pytest.mark.parametrize("routine, fails, check, what", [
        ("inv", lambda p, a: True, lambda p: inverse_identity_residual(p, 1.0),
         "inverse of the saddle matrix"),
        # K is inverted before K_W, so only the operand that is not K may fail
        ("inv", lambda p, a: not np.array_equal(a, p.k_matrix),
         lambda p: inverse_identity_residual(p, 1.0), "inverse of the augmented saddle matrix"),
        # and the m-by-m Schur complement after both
        ("inv", lambda p, a: a.shape == (p.m, p.m), lambda p: inverse_identity_residual(p, 1.0),
         "inverse of the Schur complement"),
        ("eigvalsh", lambda p, a: True, lambda p: augmented_condition(p, 1.0),
         "eigensolve of the augmented saddle matrix"),
        ("eigvalsh", lambda p, a: True, ptp_spectrum_deviation,
         "eigensolve of the stacked-basis Gram matrix"),
        ("eigvalsh", lambda p, a: True, lambda p: gamma_sweep(p, [1.0, 2.0]),
         "eigensolve of the augmented blocks"),
        # wbound and the sweep share one eigensolve of the augmented blocks
        ("eigvalsh", lambda p, a: True, lambda p: wbound(p, 1.0),
         "eigensolve of the augmented blocks"),
        # the prescribed-angles generator draws its orthogonal frames by QR
        ("qr", lambda p, a: True,
         lambda p: gen_prescribed_angles(6, 2, [1, 2, 3, 4], [1, 1], [0.5, 1.0], seed=2),
         "QR of the seeded Gaussian matrix"),
    ], ids=["k-inverse", "kw-solve", "schur-inverse", "kw-eigensolve", "gram", "sweep",
            "wbound", "qr"])
    def test_failure_names_the_step(self, monkeypatch, routine, fails, check, what):
        p = gen_random_lowest_rank(12, 5, seed=3)
        # the kept spectrum of K the checks read
        oracle(p)
        original = getattr(np.linalg, routine)

        def failing(a, *args, **kwargs):
            if not fails(p, a):
                return original(a, *args, **kwargs)
            raise np.linalg.LinAlgError("stubbed")

        monkeypatch.setattr(np.linalg, routine, failing)
        with pytest.raises(ConvergenceError, match=f"^{what} failed: stubbed$"):
            check(p)

    def test_failed_cholesky_falls_back_to_one_eigensolve_of_k(self, monkeypatch):
        p = gen_random_lowest_rank(12, 5, seed=3)
        order = p.n + p.m
        eigvalsh = np.linalg.eigvalsh
        factored = []
        solved = []

        def failing(a, *args, **kwargs):
            factored.append(a.shape)
            raise np.linalg.LinAlgError("stubbed")

        def counting(a, *args, **kwargs):
            solved.append(a.shape[-2:] == (order, order))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        q = SaddleProblem(p.A.array, p.B.array)
        # the certificate tried its order-n factor, and K was solved once
        assert factored == [(p.n, p.n)]
        assert sum(solved) == 1
        assert "k_eigs" in vars(q)
        assert np.array_equal(q.k_eigs, eigvalsh(p.k_matrix))


class TestStackedBasisSpectrum:
    def test_toy_gram_matrix_in_closed_form(self):
        b1 = 0.6
        p = toy()
        dev_spec, dev_inv = ptp_spectrum_deviation(p)
        assert dev_spec <= 1e-12
        assert dev_inv <= 1e-12
        # the 2x2 Gram matrix has off-diagonal +/- b1, eigenvalues 1 +/- b1
        stacked = np.hstack([p.range_a, p.row_space_b])
        gram = stacked.T @ stacked
        assert abs(abs(gram[0, 1]) - b1) <= 1e-12
        np.testing.assert_allclose(
            np.linalg.eigvalsh(gram), [1.0 - b1, 1.0 + b1], atol=1e-12
        )

    def test_random_instance_deviations(self):
        dev_spec, dev_inv = ptp_spectrum_deviation(gen_random_lowest_rank(12, 5, seed=3))
        assert dev_spec <= 1e-8
        assert dev_inv <= 1e-8

    def test_requires_lowest_rank(self):
        with pytest.raises(RankAssumptionError, match=r"requires rank\(A\) = n - m = 1, "):
            ptp_spectrum_deviation(gen_remark(0.5))
