"""Decomposition layer: validation, ordering, residuals, subspaces."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saddlebounds import linalg
from saddlebounds.errors import ConvergenceError, ParameterOutOfRangeError, StructureError
from saddlebounds.linalg import (
    RectMatrix,
    SymmetricMatrix,
    _frozen,
    checked_rel_tol,
    default_rank_tol,
    kernel_basis_rect,
    lapack,
    numerical_rank,
    numerically_semidefinite,
    numerically_singular,
    principal_angles,
    svd,
    sym_eig,
)
from saddlebounds.problems import GeneratorSpec, generate_problem


# Helpers that only the tests use: subspace bases of a bare matrix and the
# residuals of a decomposition, built from the package's own primitives.
# A basis is an array with one orthonormal column per basis vector.


def basis_from_eig(values, vectors, rel_tol, kind):
    """Read-only basis of the range (``kind == "range"``) or the kernel of
    the matrix with eigenpairs ``values``, ``vectors``: the eigenvectors
    ordered by |eigenvalue| descending (stable, so strictly descending
    positives keep their positions) and split at the numerical rank of
    those |eigenvalues|. The reference behind SaddleProblem.range_a/kernel_a."""
    order = np.argsort(-np.abs(values), kind="stable")
    rank = numerical_rank(np.abs(values)[order], rel_tol)
    keep = order[:rank] if kind == "range" else order[rank:]
    return _frozen(vectors[:, keep])


def range_basis(m):
    """Orthonormal basis of the numerical range of a symmetric matrix."""
    sm = SymmetricMatrix.from_array(m)
    return basis_from_eig(*sym_eig(sm), default_rank_tol(sm.order), "range")


def kernel_basis(m):
    """Orthonormal basis of the numerical null space of a symmetric matrix."""
    sm = SymmetricMatrix.from_array(m)
    return basis_from_eig(*sym_eig(sm), default_rank_tol(sm.order), "kernel")


def row_space_basis(m):
    """Orthonormal basis of the row space (range of the transpose)."""
    sing, right = svd(RectMatrix.from_array(m))
    rank = numerical_rank(sing, default_rank_tol(max(m.shape)))
    return right[:, :rank]


def eig_residuals(m, values, vectors):
    """Frobenius residuals (reconstruction, orthogonality) of an
    eigendecomposition."""
    arr = SymmetricMatrix.from_array(m).array
    recon = np.linalg.norm(arr @ vectors - vectors * values, "fro")
    eye = np.eye(vectors.shape[1])
    orth = np.linalg.norm(vectors.T @ vectors - eye, "fro")
    return float(recon), float(orth)


def svd_residuals(m, sing, right):
    """Frobenius residuals (reconstruction, left orthogonality, right
    orthogonality) of an economy SVD. The decomposition keeps no left
    factor, so U comes from numpy's own SVD of the same matrix."""
    arr = RectMatrix.from_array(m).array
    u = np.linalg.svd(arr, full_matrices=False)[0]
    recon = np.linalg.norm(arr - (u * sing) @ right.T, "fro")
    eye = np.eye(sing.shape[0])
    lorth = np.linalg.norm(u.T @ u - eye, "fro")
    rorth = np.linalg.norm(right.T @ right - eye, "fro")
    return float(recon), float(lorth), float(rorth)


def _random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def _orthonormal_columns(n, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


class TestMatrixWrappers:
    def test_symmetrizes_and_freezes(self):
        m = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
        sm = SymmetricMatrix.from_array(m)
        assert np.array_equal(sm.array, (m + m.T) / 2.0)
        assert not sm.array.flags.writeable
        with pytest.raises(ValueError):
            sm.array[0, 0] = 5.0

    def test_rejects_nonsquare(self):
        with pytest.raises(StructureError,
                           match=r"^expected a nonempty square matrix, got shape \(2, 3\)$"):
            SymmetricMatrix.from_array(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(StructureError):
            SymmetricMatrix.from_array(np.zeros((0, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ParameterOutOfRangeError,
                           match="^matrix contains NaN or Inf entries$"):
            SymmetricMatrix.from_array(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(StructureError):
            SymmetricMatrix.from_array(np.array([[1.0, 1.0], [1.001, 1.0]]))

    def test_rect_rejects_inf(self):
        with pytest.raises(ParameterOutOfRangeError,
                           match="^matrix contains NaN or Inf entries$"):
            RectMatrix.from_array(np.array([[1.0, np.inf]]))

    def test_rect_rejects_empty_dims(self):
        with pytest.raises(StructureError,
                           match=r"^expected a nonempty 2-D matrix, got shape \(0, 3\)$"):
            RectMatrix.from_array(np.zeros((0, 3)))

    @pytest.mark.parametrize("entries, got", [
        ([[1.0 + 1j, 0.0], [0.0, 1.0]], "complex"),
        ([["1", "0"], ["0", "1"]], "str"),
        ([[True, False], [False, True]], "bool"),
        (np.eye(2, dtype=object), "dtype object"),
        # numpy would read this list as float64, with 1.0 for True
        ([[2.0, 0.0], [0.0, True]], "bool"),
        (np.eye(2, dtype=complex), "dtype complex128"),
    ])
    def test_entries_must_be_real_numbers(self, entries, got):
        # refused before any conversion, so a complex matrix warns of nothing
        for wrap in (SymmetricMatrix.from_array, RectMatrix.from_array):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                refusal = f"^each matrix entry must be a real number, got {got}$"
                with pytest.raises(ParameterOutOfRangeError, match=refusal):
                    wrap(entries)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32])
    def test_integer_and_float_entries_are_accepted(self, dtype):
        for wrap in (SymmetricMatrix.from_array, RectMatrix.from_array):
            arr = wrap(np.eye(2, dtype=dtype)).array
            assert arr.dtype == np.float64
            assert np.array_equal(arr, np.eye(2))


class TestDecompositions:
    def test_sym_eig_descending(self):
        values, _ = sym_eig(SymmetricMatrix.from_array(_random_symmetric(12, 0)))
        assert np.all(np.diff(values) <= 0)

    def test_sym_eig_matches_eigvalsh(self):
        m = _random_symmetric(10, 1)
        values, _ = sym_eig(SymmetricMatrix.from_array(m))
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh((m + m.T) / 2.0)[::-1], atol=1e-12
        )

    def test_sym_eig_vectors_are_c_ordered(self, monkeypatch):
        # the reordered eigenvectors come out C-ordered, so keeping them
        # read-only copies nothing, with the bits of the fancy-indexed columns
        kept = []

        def recording(arr):
            kept.append(arr.flags.c_contiguous)
            return frozen(arr)

        sm = SymmetricMatrix.from_array(_random_symmetric(40, 4))
        frozen = linalg._frozen
        monkeypatch.setattr(linalg, "_frozen", recording)
        _, got = sym_eig(sm)
        assert kept == [True, True]
        values, vectors = np.linalg.eigh(sm.array)
        assert np.array_equal(got, vectors[:, np.argsort(-values, kind="stable")])

    def test_eig_residuals_small(self):
        m = _random_symmetric(15, 2)
        recon, orth = eig_residuals(m, *sym_eig(SymmetricMatrix.from_array(m)))
        scale = max(1.0, float(np.linalg.norm(m, "fro")))
        assert recon <= 1e-10 * scale
        assert orth <= 1e-10

    def test_svd_residuals_small(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 9))
        sing, right = svd(RectMatrix.from_array(m))
        recon, lorth, rorth = svd_residuals(m, sing, right)
        scale = max(1.0, float(np.linalg.norm(m, "fro")))
        assert recon <= 1e-10 * scale
        assert lorth <= 1e-10
        assert rorth <= 1e-10
        assert np.all(np.diff(sing) <= 0)


class TestNumericalRank:
    def test_plain_counts(self):
        assert numerical_rank(np.array([3.0, 2.0, 1.0]), 1e-8) == 3
        assert numerical_rank(np.array([1.0, 1e-10, 0.0]), 1e-8) == 1
        assert numerical_rank(np.array([0.0, 0.0]), 1e-8) == 0
        assert numerical_rank(np.array([]), 1e-8) == 0

    def test_threshold_is_strict(self):
        # values exactly at rel_tol * top do not count
        assert numerical_rank(np.array([1.0, 1e-8]), 1e-8) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterOutOfRangeError):
            numerical_rank(np.array([1.0, 2.0]), 1e-8)  # ascending
        with pytest.raises(ParameterOutOfRangeError):
            numerical_rank(np.array([1.0, -1.0]), 1e-8)  # negative
        with pytest.raises(ParameterOutOfRangeError):
            numerical_rank(np.array([1.0]), 0.0)  # tolerance
        with pytest.raises(StructureError):
            numerical_rank(np.ones((2, 2)), 1e-8)
        with pytest.raises(ParameterOutOfRangeError, match="^values contain NaN or Inf$"):
            numerical_rank(np.array([np.nan]), 1e-8)

    def test_one_rel_tol_rule(self):
        # positive and finite; NaN fails the first test
        assert checked_rel_tol(1e-8) == 1e-8
        for bad, message in ((0.0, "rel_tol must be positive, got 0.0"),
                             (-1.0, "rel_tol must be positive, got -1.0"),
                             (float("nan"), "rel_tol must be positive, got nan"),
                             (float("inf"), "rel_tol must be finite, got inf")):
            with pytest.raises(ParameterOutOfRangeError, match=f"^{message}$"):
                checked_rel_tol(bad)
            with pytest.raises(ParameterOutOfRangeError, match=f"^{message}$"):
                numerical_rank(np.array([1.0]), bad)

    @given(
        exps=st.lists(st.integers(-30, 30), min_size=1, max_size=8),
        scale_exp=st.integers(-40, 40),
    )
    def test_scale_invariant(self, exps, scale_exp):
        # powers of two make the scaling exact, so the count cannot move
        vals = np.array(sorted((2.0 ** e for e in exps), reverse=True))
        c = 2.0 ** scale_exp
        assert numerical_rank(vals, 1e-6) == numerical_rank(c * vals, 1e-6)


NAN = float("nan")


class TestNumericallySingular:
    def test_equality_boundary_is_singular(self):
        tol = 2.0 ** -20
        assert numerically_singular(tol, 1.0, tol)
        assert not numerically_singular(np.nextafter(tol, 1.0), 1.0, tol)

    def test_zero_largest_value_is_singular(self):
        assert numerically_singular(0.0, 0.0, 1e-8)
        assert numerically_singular(NAN, 0.0, 1e-8)
        assert numerically_singular(-2.0, -1.0, 1e-8)  # clamped at zero

    def test_nan_compares_false(self):
        assert not numerically_singular(NAN, 1.0, 1e-8)
        assert not numerically_singular(1.0, NAN, 1e-8)
        assert not numerically_singular(NAN, NAN, 1e-8)

    def test_same_decisions_as_the_written_out_rules(self):
        # singular values and |eigenvalues| (largest >= 0 or NaN) used
        # "hi == 0 or lo <= tol * hi"; ascending eigenvalues of an
        # augmented block used "lo <= tol * max(hi, 0)" and its negation
        values = [NAN, -np.inf, -1.0, -0.0, 0.0, 2.0 ** -21, 2.0 ** -20, 0.5, 1.0, np.inf]
        tol = 2.0 ** -20
        for lo in values:
            for hi in values:
                got = numerically_singular(lo, hi, tol)
                if not hi < 0:
                    assert got == (hi == 0.0 or lo <= tol * hi)
                if lo <= hi:
                    assert got == (lo <= tol * max(hi, 0.0))
                    assert got == (not lo > tol * max(hi, 0.0))


    def test_same_decisions_as_the_interval_warning_rule(self):
        # rusten_winther wrote "mu_min <= rel_tol * mu_max" for the clamped,
        # finite, descending eigenvalues of A
        values = [0.0, 2.0 ** -21, 2.0 ** -20, 0.5, 1.0, 3.0]
        tol = 2.0 ** -20
        for lo in values:
            for hi in values:
                if lo <= hi:
                    assert numerically_singular(lo, hi, tol) == (lo <= tol * hi)


class TestNumericallySemidefinite:
    VALUES = [NAN, -np.inf, -1.0, -(2.0 ** -20), -(2.0 ** -21), -0.0, 0.0, 2.0 ** -20,
              0.5, 1.0, np.inf]

    def test_same_decisions_as_the_written_out_rules(self):
        # SaddleProblem wrote "top < 0 or bottom < -tol * top" for A;
        # clamping top at zero decides the same
        tol = 2.0 ** -20
        for lo in self.VALUES:
            for hi in self.VALUES:
                got = numerically_semidefinite(lo, hi, tol)
                assert got == (not (hi < 0 or lo < -tol * hi))
                assert got == (not (hi < 0 or lo < -tol * max(hi, 0.0)))

    def test_equality_boundary_is_semidefinite(self):
        tol = 2.0 ** -20
        assert numerically_semidefinite(-tol, 1.0, tol)
        assert not numerically_semidefinite(np.nextafter(-tol, -1.0), 1.0, tol)

    def test_zeros_are_semidefinite(self):
        assert numerically_semidefinite(0.0, 0.0, 1e-8)
        assert numerically_semidefinite(-0.0, 0.0, 1e-8)
        assert not numerically_semidefinite(-1e-300, 0.0, 1e-8)

    def test_negative_top_is_not_semidefinite(self):
        assert not numerically_semidefinite(-2.0, -1.0, 1e-8)
        assert not numerically_semidefinite(-1e-300, -1e-300, 1e-8)


class TestLapack:
    def test_returns_the_routine_result(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(lapack("eigvalsh", "eigensolve", m), np.linalg.eigvalsh(m))

    def test_failure_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match="^solve with M failed: Singular matrix$"):
            lapack("solve", "solve with M", np.zeros((2, 2)), np.eye(2))

    def test_routine_is_looked_up_on_each_call(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        lapack("eigvalsh", "eigensolve", np.eye(3))
        assert calls == [(3, 3)]


class TestSubspaces:
    def test_range_kernel_split_dims(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, 5))
        a = x @ x.T  # exact rank 5
        r = range_basis(a)
        k = kernel_basis(a)
        assert (r.shape, k.shape) == ((9, 5), (9, 4))
        assert not r.flags.writeable and not k.flags.writeable
        np.testing.assert_allclose(a @ k, 0.0, atol=1e-10)
        # the two bases are mutually orthogonal
        assert np.abs(r.T @ k).max() <= 1e-8

    @staticmethod
    def _bits(cosines):
        """The bits of the cosines and angles of the cosine array
        ``cosines()`` returns, or the message of the StructureError it
        raises."""
        try:
            cos = cosines()
        except StructureError as exc:
            return str(exc)
        return cos.tobytes(), np.arccos(cos).tobytes()

    @classmethod
    def _assert_bases_match_the_reference(cls, label, p):
        range_a = basis_from_eig(p.a_raw_values, p.a_vectors, p.rel_tol, "range")
        kernel_a = basis_from_eig(p.a_raw_values, p.a_vectors, p.rel_tol, "kernel")
        for got, want in ((p.range_a, range_a), (p.kernel_a, kernel_a)):
            assert not got.flags.writeable, label
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), label
        assert (cls._bits(lambda: p.range_angles)
                == cls._bits(lambda: principal_angles(range_a, p.row_space_b))), label
        assert (cls._bits(lambda: p.kernel_angles)
                == cls._bits(lambda: principal_angles(
                    kernel_a, kernel_basis_rect(p.B, p.rel_tol)))), label
        k = p.n - p.m
        split = range_a if p.is_lowest_rank else p.a_vectors[:, :k]
        raw = p.a_raw_values
        mu_nm, cosines, degenerate = p.split_quantities
        assert mu_nm == max(float(raw[k - 1]), 0.0), label
        assert degenerate == (abs(float(raw[k - 1]) - float(raw[k]))
                              <= p.rel_tol * abs(float(raw[0]))), label
        assert (cls._bits(lambda: cosines)
                == cls._bits(lambda: principal_angles(split, p.row_space_b))), label

    def test_problem_bases_are_the_reference_bits(self, corpus):
        # SaddleProblem splits the eigenvectors of A at summary.rank_a; the
        # reference re-sorts by |eigenvalue| and takes its own rank
        for label, p in corpus:
            self._assert_bases_match_the_reference(label, p)

    @pytest.mark.parametrize("family, params", [
        ("random-lowest-rank", {"n": 400, "m": 160}),
        ("ipm-like", {"n": 400, "m": 160, "delta": 1e-2}),
    ])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_large_problem_bases_are_the_reference_bits(self, family, params, seed):
        p = generate_problem(GeneratorSpec(family, params, seed))
        self._assert_bases_match_the_reference(f"{family}-s{seed}", p)

    def test_kernel_basis_rect_annihilates(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 7))
        nb = kernel_basis_rect(RectMatrix.from_array(b), default_rank_tol(7))
        assert nb.shape == (7, 4)
        assert not nb.flags.writeable
        assert np.abs(b @ nb).max() <= 1e-10
        gram = nb.T @ nb
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_row_space_basis_spans_rows(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((4, 8))
        rb = row_space_basis(b)
        assert rb.shape == (8, 4)
        proj = rb @ (rb.T @ b.T)
        np.testing.assert_allclose(proj, b.T, atol=1e-10)

    def test_default_rank_tol(self):
        assert default_rank_tol(8) == 8 * np.finfo(float).eps


class TestPrincipalAngles:
    def test_one_dimensional_matches_inner_product(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        cos = principal_angles(x[:, None], y[:, None])
        assert cos.shape == np.arccos(cos).shape == (1,)
        assert not cos.flags.writeable
        assert abs(float(cos[0]) - abs(float(x @ y))) <= 1e-12

    def test_count_is_smaller_dimension(self):
        q = _orthonormal_columns(8, 5, 8)
        assert principal_angles(q[:, :3], q[:, 3:5]).shape == (2,)

    def test_orthogonal_subspaces_give_right_angles(self):
        q = _orthonormal_columns(7, 4, 9)
        cos = principal_angles(q[:, :2], q[:, 2:4])
        assert np.abs(cos).max() <= 1e-12
        np.testing.assert_allclose(np.arccos(cos), np.pi / 2, atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_self_angles_are_zero(self, seed):
        rng = np.random.default_rng(seed)
        q = _orthonormal_columns(6, 2, seed)
        # mix the columns by a rotation: same subspace, different basis
        r, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        cos = principal_angles(q, q @ r)
        assert np.min(cos) >= 1.0 - 1e-12
        assert np.max(np.arccos(cos)) <= 1e-5

    def test_cosines_clipped_to_unit_interval(self):
        q = _orthonormal_columns(5, 2, 10)
        cos = principal_angles(q, q)
        assert np.all(cos <= 1.0) and np.all(cos >= 0.0)

    def test_rejects_mismatched_ambient(self):
        with pytest.raises(StructureError,
                           match="^subspaces live in different ambient spaces: 5 vs 6$"):
            principal_angles(np.eye(5)[:, :1], np.eye(6)[:, :1])

    def test_rejects_empty_subspace(self):
        with pytest.raises(StructureError):
            principal_angles(np.zeros((5, 0)), np.eye(5)[:, :1])
