"""Derived-quantity caches on SaddleProblem: each eigensolve and each set
of principal angles runs once per problem, the cached values are
read-only and bit-identical to a fresh computation, and nothing is kept
per gamma: each command solves each augmented block once."""

import numpy as np
import pytest

from saddlebounds import bounds, cli, harness, linalg, problems
from saddlebounds.bounds import (
    SaddleProblem,
    applicable_bounds,
    general_rank_optimal_gamma,
    lowest_rank_bound,
    optimal_gamma,
    saddle_matrix,
    wbound,
)
from saddlebounds.errors import SizeCapError
from saddlebounds.harness import log_gamma_grid, oracle
from saddlebounds.linalg import kernel_basis_rect, principal_angles
from saddlebounds.mmio import write_matrix_market
from saddlebounds.problems import (
    GeneratorSpec,
    gen_ipm_like,
    gen_prescribed_angles,
    gen_random_lowest_rank,
    gen_toy,
    generate_problem,
)
from saddlebounds.reporting import read_problem
from test_harness import reference_augmented

GAMMAS = (0.1, 1.0, 10.0)


def lowest_rank_arrays():
    p = gen_random_lowest_rank(12, 5, seed=3)
    return p.A.array, p.B.array


def general_rank_arrays():
    p = gen_ipm_like(12, 4, 1e-2, seed=1)
    return p.A.array, p.B.array


@pytest.fixture(params=["lowest-rank", "general-rank"])
def arrays(request):
    return lowest_rank_arrays() if request.param == "lowest-rank" else general_rank_arrays()


@pytest.fixture
def inverse_calls(monkeypatch):
    """The names of numpy.linalg's inv and solve, once per call while active."""
    seen = []
    for routine in ("inv", "solve"):
        original = getattr(np.linalg, routine)

        def counting(*args, _routine=routine, _original=original, **kwargs):
            seen.append(_routine)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, routine, counting)
    return seen


@pytest.fixture
def eigvalsh_operands(monkeypatch):
    """Copies of every matrix passed to numpy.linalg.eigvalsh while active."""
    seen = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen


def _matrices(operands):
    """Each matrix of each operand: the augmented blocks arrive stacked."""
    return [mat for op in operands for mat in op.reshape(-1, *op.shape[-2:])]


def _classify(problem, operands, gammas=GAMMAS):
    counts = {"K": 0, "A_W": 0, "K_W": 0, "other": 0}
    blocks = []
    for g in gammas:
        aw = reference_augmented(problem, g)
        blocks.append(("A_W", aw))
        blocks.append(("K_W", saddle_matrix(aw, problem.B.array)))
    for op in _matrices(operands):
        if op.shape == problem.k_matrix.shape and np.array_equal(op, problem.k_matrix):
            counts["K"] += 1
            continue
        kind = next((k for k, m in blocks if m.shape == op.shape and np.array_equal(m, op)),
                    "other")
        counts[kind] += 1
    return counts


class TestFactorizationCounts:
    def test_verify_eigensolves_each_block_once_per_gamma(self, arrays, eigvalsh_operands):
        a, b = arrays
        p = SaddleProblem(a, b)
        failures = cli.run_verification(p, GAMMAS, emit=lambda line: None)
        assert failures == []
        counts = _classify(p, list(eigvalsh_operands))
        # K once and each A_W once, on lowest- and general-rank problems
        # alike; K_W and no other matrix are eigensolved
        assert counts == {"K": 1, "A_W": 3, "K_W": 0, "other": 0}

    @pytest.mark.parametrize("case", ["lowest-rank", "general-rank", "toy-1e14"])
    def test_verify_inverts_nothing_and_eigensolves_no_k_gamma(
            self, case, eigvalsh_operands, inverse_calls):
        # the default gammas, and gamma = 1e14, where the toy's K_gamma has
        # condition 1e28
        if case == "toy-1e14":
            p, gammas = gen_toy(0.6, 0.8), (1e14,)
        else:
            p, gammas = SaddleProblem(*(lowest_rank_arrays() if case == "lowest-rank"
                                        else general_rank_arrays())), GAMMAS
        assert cli.run_verification(p, gammas, emit=lambda line: None) == []
        assert inverse_calls == []
        assert _classify(p, list(eigvalsh_operands), gammas)["K_W"] == 0

    def test_principal_angles_run_at_most_three_times(self, arrays, monkeypatch):
        calls = []

        def counting(x, y):
            calls.append((x.shape[1], y.shape[1]))
            return principal_angles(x, y)

        for mod in (bounds, harness, linalg):
            if hasattr(mod, "principal_angles"):
                monkeypatch.setattr(mod, "principal_angles", counting)
        a, b = arrays
        p = SaddleProblem(a, b)
        gamma = optimal_gamma(p) if p.is_lowest_rank else general_rank_optimal_gamma(p)
        applicable_bounds(p, gamma=gamma)
        cli.run_verification(p, GAMMAS, emit=lambda line: None)
        # lowest rank: range(A) and ker(A) angles, the split angles being
        # range(A)'s; general rank: the split angles only
        assert len(calls) == (2 if p.is_lowest_rank else 1)
        if p.is_lowest_rank:
            assert p.split_quantities[1] is p.range_angles

    def test_generated_angles_are_the_cached_range_angles(self, monkeypatch):
        calls = []

        def counting(x, y):
            calls.append((x.shape[1], y.shape[1]))
            return principal_angles(x, y)

        for mod in (bounds, problems):
            if hasattr(mod, "principal_angles"):
                monkeypatch.setattr(mod, "principal_angles", counting)
        p = gen_prescribed_angles(6, 2, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0], [0.3, 1.0], seed=0)
        lowest_rank_bound(p)
        assert calls == [(4, 2)]


def _k_order_solves(problem, operands):
    order = problem.n + problem.m
    return sum(op.shape[-2:] == (order, order) for op in operands)


class TestLazySaddleSpectrum:
    def test_construction_and_generation_run_no_k_eigensolve(self, arrays, eigvalsh_operands):
        a, b = arrays
        p = SaddleProblem(a, b)
        assert _k_order_solves(p, eigvalsh_operands) == 0
        for family, params in (("random-lowest-rank", {"n": 12, "m": 5}),
                               ("ipm-like", {"n": 12, "m": 4, "delta": 1e-2})):
            del eigvalsh_operands[:]
            g = generate_problem(GeneratorSpec(family, params, 3))
            assert _k_order_solves(g, eigvalsh_operands) == 0

    def test_first_oracle_solves_k_once(self, arrays, eigvalsh_operands):
        a, b = arrays
        p = SaddleProblem(a, b)
        first = oracle(p)
        assert _k_order_solves(p, eigvalsh_operands) == 1
        del eigvalsh_operands[:]
        second = oracle(p)
        assert _k_order_solves(p, eigvalsh_operands) == 0
        assert np.array_equal(first.all_eigs, second.all_eigs)
        assert np.array_equal(p.k_eigs, np.linalg.eigvalsh(saddle_matrix(a, b)))

    def test_size_cap_refusal_solves_nothing(self, arrays, eigvalsh_operands):
        a, b = arrays
        p = SaddleProblem(a, b)
        with pytest.raises(SizeCapError):
            oracle(p, size_cap=p.n + p.m - 1)
        assert _k_order_solves(p, eigvalsh_operands) == 0


class TestCachedValues:
    def test_read_only_and_equal_to_a_fresh_computation(self):
        a, b = lowest_rank_arrays()
        p = SaddleProblem(a, b)
        cli.run_verification(p, GAMMAS, emit=lambda line: None)
        k = p.n - p.m
        split_basis = p.a_vectors[:, :k]
        expected = [
            (p.bt_b, p.B.array.T @ p.B.array),
            (p.range_angles, principal_angles(p.range_a, p.row_space_b)),
            (p.kernel_angles,
             principal_angles(p.kernel_a, kernel_basis_rect(p.B, p.rel_tol))),
            (p.split_quantities[1], principal_angles(split_basis, p.row_space_b)),
        ]
        for cached, fresh in expected:
            assert not cached.flags.writeable
            assert np.array_equal(cached, fresh)
            with pytest.raises(ValueError):
                cached[0] = 1.0
        assert p.range_angles is p.range_angles
        # the augmented extremes are computed anew, with the same bits
        fresh = [np.linalg.eigvalsh(reference_augmented(p, g))[[0, -1]] for g in GAMMAS]
        assert np.array_equal(p.augmented_extremes(GAMMAS), fresh)

    def test_caller_arrays_may_change_afterwards(self, arrays):
        # writable C-ordered float arrays, which np.asarray would pass through
        a, b = (np.array(x) for x in arrays)
        p = SaddleProblem(a, b)
        cli.run_verification(p, GAMMAS, emit=lambda line: None)

        def kept():
            values = [p.A.array, p.B.array, p.k_matrix, p.k_eigs, p.bt_b,
                      p.a_values, p.range_a, p.kernel_a, kernel_basis_rect(p.B, p.rel_tol),
                      p.range_angles, p.kernel_angles]
            values.append(p.augmented_extremes(GAMMAS))
            return [np.array(v) for v in values]

        before = kept()
        assert not np.shares_memory(p.A.array, a)
        assert not np.shares_memory(p.B.array, b)
        a[:] = 7.0
        b[:] = -3.0
        for old, new in zip(before, kept()):
            assert np.array_equal(old, new)

    def test_split_angles_are_range_angles_when_lowest_rank(self, lowest_rank_corpus):
        for label, p in lowest_rank_corpus:
            k = p.n - p.m
            split = p.a_vectors[:, :k]
            assert np.array_equal(split, p.range_a), label
            fresh = principal_angles(split, p.row_space_b)
            assert np.array_equal(p.split_quantities[1], fresh), label
            assert np.array_equal(np.arccos(p.split_quantities[1]), np.arccos(fresh)), label

    def test_repeated_verification_emits_identical_lines(self, arrays):
        a, b = arrays
        p = SaddleProblem(a, b)
        first, second, fresh = [], [], []
        cli.run_verification(p, GAMMAS, emit=first.append)
        cli.run_verification(p, GAMMAS, emit=second.append)
        cli.run_verification(SaddleProblem(a, b), GAMMAS, emit=fresh.append)
        assert first == second == fresh
        assert sum(line.startswith("soundness wbound (gamma=") for line in first) == len(GAMMAS)


class TestOneSolvePerGamma:
    """Nothing is kept per gamma: each command eigensolves the augmented
    block of each of its gammas once, and K once."""

    @pytest.mark.parametrize("command, gammas", [
        (["bound", "--gamma", "2.0"], [2.0]),
        (["verify"], list(GAMMAS)),
        (["sweep", "--gamma-min", "1e-2", "--gamma-max", "1e2", "--points", "5"],
         log_gamma_grid(1e-2, 1e2, 5).tolist()),
    ], ids=["bound", "verify", "sweep"])
    def test_each_command_solves_each_gamma_once(self, tmp_path, eigvalsh_operands,
                                                 command, gammas):
        a, b = lowest_rank_arrays()
        source = {"A": str(tmp_path / "A.mtx"), "B": str(tmp_path / "B.mtx")}
        write_matrix_market(source["A"], a, symmetric=True)
        write_matrix_market(source["B"], b)
        argv = command + ["--A", source["A"], "--B", source["B"]]
        if command[0] != "verify":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_OK
        operands = list(eigvalsh_operands)
        p = read_problem(source, None)
        assert _classify(p, operands, gammas) == {
            "K": 1, "A_W": len(gammas), "K_W": 0, "other": 0}
        matrices = _matrices(operands)
        for gamma in gammas:
            block = reference_augmented(p, gamma)
            assert sum(np.array_equal(mat, block) for mat in matrices) == 1, gamma

    def test_repeated_wbound_calls_return_equal_details(self, eigvalsh_operands):
        # each call solves its block again, to the same bits
        p = SaddleProblem(*lowest_rank_arrays())
        del eigvalsh_operands[:]
        for gamma in (2.0, 3.0, 2.0, 3.0):
            first = wbound(p, gamma)
            assert wbound(p, gamma).details == first.details
        assert _classify(p, list(eigvalsh_operands), (2.0, 3.0)) == {
            "K": 0, "A_W": 8, "K_W": 0, "other": 0}
