"""Dense symmetric eigendecompositions, SVD, numerical rank, the
orthonormal null-space basis of a rectangular matrix, principal angles,
and the rules for a caller's number: ``_real``, the one test of a real
number, and ``_integer``, the one test of an integer.

The decompositions take the validated SymmetricMatrix and RectMatrix
wrappers, whose backing arrays are read-only. A subspace basis is a
read-only array with one orthonormal column per basis vector. Every
function here is a pure map from immutable values to immutable values,
so results can be shared across threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteError,
    ParameterOutOfRangeError,
    StructureError,
)

EPS = float(np.finfo(float).eps)

DEFAULT_SYM_TOL = 1e-12


def default_rank_tol(dim):
    """Relative tolerance separating numerically nonzero values: dim * eps."""
    return dim * EPS


def checked_rel_tol(rel_tol):
    """``rel_tol`` as a float, refused unless it is one positive, finite
    real number: the one rule for a relative tolerance given by a caller."""
    tol = _scalar(rel_tol, "rel_tol")
    if not tol > 0:
        raise ParameterOutOfRangeError(f"rel_tol must be positive, got {rel_tol}")
    if tol == math.inf:
        raise ParameterOutOfRangeError(f"rel_tol must be finite, got {rel_tol}")
    return tol


def _unreal(value):
    """What in ``value`` is not a real number, for a message, or None. Lists
    and tuples are looked inside; an array must have an integer or float
    dtype; anything else must be an int of any size or a float, not a bool."""
    if isinstance(value, (list, tuple)):
        return next(filter(None, map(_unreal, value)), None)
    if isinstance(value, np.ndarray):
        return None if value.dtype.kind in "iuf" else f"dtype {value.dtype}"
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return None
    return type(value).__name__


def _real(value, what):
    """``value`` as a float64 array (0-d for one number): the one test of a
    real number. What ``_unreal`` faults, or an int beyond the float range,
    is refused with ParameterOutOfRangeError naming ``what``."""
    got = _unreal(value)
    if got is None:
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:
            got = "an int beyond the float range"
    raise ParameterOutOfRangeError(f"{what} must be a real number, got {got}")


def _scalar(value, what):
    """``value`` as a float: one real number, as ``_real`` judges it."""
    out = _real(value, what)
    if out.ndim:
        raise ParameterOutOfRangeError(f"{what} must be one number, got shape {out.shape}")
    return float(out)


def _integer(value, what):
    """``value`` as an int: an int of any size, or an integral float (3.0
    reads as 3); refused as ``_scalar`` refuses it, or when not integral."""
    if _unreal(value) is None and isinstance(value, (int, np.integer)):
        return int(value)
    out = _scalar(value, what)
    if not out.is_integer():
        raise ParameterOutOfRangeError(f"{what} must be an integer, got {value!r}")
    return int(out)


def _frozen(arr):
    """``arr`` made read-only in place: callers pass a fresh array that
    nothing else writes to. Only an array that is not C-ordered float is
    copied first, so every kept array has the same layout."""
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Square real matrix stored exactly symmetrized as (M + M^T) / 2."""

    array: np.ndarray

    @classmethod
    def from_array(cls, m):
        arr = _real(m, "each matrix entry")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DimensionMismatchError(
                f"expected a nonempty square matrix, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteError("matrix contains NaN or Inf entries")
        # one work array serves |M|, |M - M^T| and the stored (M + M^T) / 2
        work = np.abs(arr, out=np.empty(arr.shape))
        scale = float(work.max())
        skew = float(np.abs(np.subtract(arr, arr.T, out=work), out=work).max())
        if skew > DEFAULT_SYM_TOL * scale:
            raise StructureError(
                f"matrix is not symmetric: max |M - M^T| = {skew:.3e} exceeds "
                f"{DEFAULT_SYM_TOL:g} * max|M| = {DEFAULT_SYM_TOL * scale:.3e}"
            )
        np.add(arr, arr.T, out=work)
        work /= 2.0
        return cls(_frozen(work))

    @property
    def order(self):
        return self.array.shape[0]


@dataclass(frozen=True, eq=False)
class RectMatrix:
    """Real m-by-n matrix with finite entries."""

    array: np.ndarray

    @classmethod
    def from_array(cls, m):
        # a copy: the caller keeps m
        arr = np.array(_real(m, "each matrix entry"), order="C")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise DimensionMismatchError(
                f"expected a nonempty 2-D matrix, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteError("matrix contains NaN or Inf entries")
        return cls(_frozen(arr))


@dataclass(frozen=True, eq=False)
class EigDecomposition:
    """Eigenpairs of a symmetric matrix, values sorted descending.

    Column i of ``vectors`` belongs to ``values[i]``. Ties keep the order
    in which the solver produced them.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SvdDecomposition:
    """Economy-size SVD: singular values descending; column i of
    ``right_vectors`` belongs to ``singular_values[i]``."""

    singular_values: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    """Cosines descending in [0, 1] and the matching angles ascending."""

    cosines: np.ndarray
    angles: np.ndarray


def lapack(routine, what, *args, **kwargs):
    """``np.linalg.<routine>(*args, **kwargs)``; a LinAlgError is raised
    as ConvergenceError("<what> failed: ..."). The routine is looked up
    on each call, so a rebound numpy.linalg function is the one called."""
    try:
        return getattr(np.linalg, routine)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} failed: {exc}") from exc


def sym_eig(m):
    """Full eigendecomposition of a SymmetricMatrix, values descending."""
    values, vectors = lapack("eigh", "symmetric eigensolve", m.array)
    order = np.argsort(-values, kind="stable")
    # take writes a C-ordered array, which _frozen keeps without a copy
    return EigDecomposition(_frozen(values[order]), _frozen(vectors.take(order, axis=1)))


def svd(m):
    """Economy-size singular value decomposition of a RectMatrix."""
    _, s, vh = lapack("svd", "singular value decomposition", m.array, full_matrices=False)
    return SvdDecomposition(_frozen(s), _frozen(vh.T))


def numerical_rank(values, rel_tol):
    """Count the values strictly above rel_tol times the largest one.

    ``values`` must be sorted descending and nonnegative. An all-zero
    array has rank zero regardless of the tolerance.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DimensionMismatchError("numerical_rank expects a 1-D value array")
    checked_rel_tol(rel_tol)
    if vals.size == 0:
        return 0
    if not np.isfinite(vals).all():
        raise NonFiniteError("values contain NaN or Inf")
    if np.any(np.diff(vals) > 0):
        raise ParameterOutOfRangeError("values must be sorted descending")
    if vals[-1] < 0:
        raise ParameterOutOfRangeError("values must be nonnegative")
    top = float(vals[0])
    if top == 0.0:
        return 0
    return int(np.count_nonzero(vals > rel_tol * top))


def numerically_singular(smallest, largest, rel_tol):
    """The rule by which a matrix with these extreme eigenvalues (or
    singular values) counts as numerically singular: ``smallest`` is at
    most rel_tol times ``largest`` clamped at zero, and a zero largest
    value always counts. A NaN operand compares false, so it counts only
    beside a zero largest value.
    """
    top = max(largest, 0.0)
    return top == 0.0 or smallest <= rel_tol * top


def numerically_semidefinite(smallest, largest, rel_tol):
    """The rule by which a symmetric matrix with these extreme eigenvalues
    counts as positive semidefinite: ``largest`` is at least zero and
    ``smallest`` at least -rel_tol times ``largest``. A NaN operand
    compares false, so it never counts against semidefiniteness.
    """
    return not (largest < 0 or smallest < -rel_tol * largest)


def kernel_basis_rect(m, rel_tol):
    """Read-only orthonormal basis of the null space of a RectMatrix:
    the right singular vectors past its numerical rank at rel_tol."""
    _, s, vh = lapack("svd", "singular value decomposition", m.array, full_matrices=True)
    rank = numerical_rank(s, rel_tol)
    return _frozen(vh[rank:].T)


def principal_angles(x, y):
    """Principal angles between two subspaces given by orthonormal bases,
    arrays with one column per basis vector.

    The cosines are the singular values of X^T Y clamped into [0, 1];
    their count is the smaller of the two subspace dimensions. Bases of
    different ambient dimensions, or an empty basis, raise
    DimensionMismatchError.
    """
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"subspaces live in different ambient spaces: {x.shape[0]} vs {y.shape[0]}"
        )
    if x.shape[1] == 0 or y.shape[1] == 0:
        raise DimensionMismatchError("principal angles need both subspaces nonempty")
    s = lapack("svd", "singular value decomposition", x.T @ y, compute_uv=False)
    cos = np.clip(s, 0.0, 1.0)
    return PrincipalAngles(_frozen(cos), _frozen(np.arccos(cos)))
