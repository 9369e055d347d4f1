"""Seeded generators for saddle problems with known structure.

Five families:

* ``toy-2x2``: A = diag(1, 0) with a unit-norm row B = [b1 b2]. The
  3x3 saddle matrix has characteristic polynomial
  l^3 - l^2 - l + b2^2, which makes it the standard closed-form check.
* ``remark-3x3``: A = diag(1, alpha, 0) with B = [[0, 0, 1], [1, 0, 0]].
  Positive eigenvalues are alpha, 1 and the golden ratio, yet the
  split-based bound collapses to zero because the top eigenvector of A
  lies inside range(B^T).
* ``prescribed-angles``: builds (A, B) whose principal angles between
  range(A) and range(B^T) equal a requested list exactly, up to
  orthogonal mixing. Needs n >= 2m.
* ``ipm-like``: A = H + D with H a seeded PSD matrix of rank n - m and D
  a diagonal perturbation of size delta on a seeded index subset, the
  shape that barrier methods produce as they converge.
* ``random-lowest-rank``: ``ipm-like`` at delta = 0, A = X X^T of exact
  rank n - m with a random full-row-rank B, redrawn with the next seed
  when validation fails, up to 16 times.

Identical specs (family, parameters, seed) yield bit-identical matrices.
Parameters and seeds meet linalg's number rules before any work.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bounds import SaddleProblem
from .errors import GenerationFailedError, ParameterOutOfRangeError, ProblemValidationError
from .linalg import _integer, _real, _scalar, lapack

_NORM_TOL = 1e-12
_ALPHA_MARGIN = 1e-12
_ANGLE_ROUNDTRIP_TOL = 1e-8
_MAX_RETRIES = 16


@dataclass(frozen=True)
class GeneratorSpec:
    """JSON-serializable recipe: family name, parameter dict, seed."""

    family: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def to_json(self):
        return {"family": self.family, "parameters": dict(self.parameters), "seed": self.seed}


def _converted(name, convert, value):
    """``convert(value, name)``, a refusal by linalg's rules or by the
    converter's own check restated as one of the parameter ``name``."""
    try:
        return convert(value, name)
    except (ParameterOutOfRangeError, TypeError, ValueError) as exc:
        raise ParameterOutOfRangeError(f"parameter {name} = {value!r} is invalid: {exc}") from exc


def _order(value, what):
    """``value`` as an integer order n, refused when numpy cannot allocate
    its n x n matrix (np.empty reserves the memory without touching it)."""
    n = _integer(value, what)
    if n > 0:
        try:
            np.empty((n, n))
        except (MemoryError, ValueError):
            raise ValueError(f"a {n} x {n} matrix does not fit in memory") from None
    return n


def _seed(value, what):
    """A numpy seed: an int >= 0; a float, even 3.0, is refused as numpy refuses it."""
    out = _integer(value, what)
    operator.index(value)
    if out < 0:
        raise ValueError("a seed must be >= 0")
    return out


def _orthogonal(rng, dim):
    """Seeded Haar-like orthogonal factor: QR of a Gaussian matrix with
    the sign of R's diagonal fixed, so the result is deterministic."""
    g = rng.standard_normal((dim, dim))
    q, r = lapack("qr", "QR of the seeded Gaussian matrix", g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def gen_toy(b1, b2):
    """The 3x3 closed-form problem: A = diag(1, 0), B = [b1 b2].

    Requires b1^2 + b2^2 = 1 with both entries strictly positive.
    """
    b1 = _converted("b1", _scalar, b1)
    b2 = _converted("b2", _scalar, b2)
    if not (math.isfinite(b1) and math.isfinite(b2)):
        raise ParameterOutOfRangeError("b1 and b2 must be finite")
    if abs(b1 * b1 + b2 * b2 - 1.0) > _NORM_TOL:
        raise ParameterOutOfRangeError(
            f"need b1^2 + b2^2 = 1 within {_NORM_TOL:g}, got {b1 * b1 + b2 * b2!r}"
        )
    if b1 <= 0 or b2 <= 0:
        raise ParameterOutOfRangeError("b1 and b2 must be strictly positive")
    a = np.diag([1.0, 0.0])
    b = np.array([[b1, b2]])
    return SaddleProblem(a, b)


def gen_remark(alpha):
    """The 5x5 counterexample shape: A = diag(1, alpha, 0) with
    B = [[0, 0, 1], [1, 0, 0]] and 0 < alpha < 1.

    Its positive eigenvalues are alpha, 1, (1 + sqrt(5))/2, but the
    split-based bound is zero: range(B^T) contains the top eigenvector
    of A. The upper end is enforced strictly at 1 - 1e-12 so the split
    boundary stays unambiguous.
    """
    alpha = _converted("alpha", _scalar, alpha)
    if not math.isfinite(alpha) or alpha <= 0 or alpha >= 1.0 - _ALPHA_MARGIN:
        raise ParameterOutOfRangeError(
            f"alpha must lie in (0, 1 - {_ALPHA_MARGIN:g}), got {alpha!r}"
        )
    a = np.diag([1.0, alpha, 0.0])
    b = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return SaddleProblem(a, b)


def gen_prescribed_angles(n, m, a_eigs, b_sing_vals, thetas, seed=0):
    """Problem whose principal angles between range(A) and range(B^T)
    equal ``thetas`` (ascending, in (0, pi/2]) up to roundoff.

    The construction takes mutually orthonormal seeded frames E (n x m),
    F (n x m), G (n x (n - 2m)), sets V = E,
    U = [E diag(cos) + F diag(sin) | G], A = U diag(a_eigs) U^T and
    B = L diag(b_sing_vals) V^T with a seeded orthogonal L. Since U has
    orthonormal columns, a_eigs are exactly the nonzero eigenvalues of A
    and rank(A) = n - m. The measured angles are checked against the
    request before returning.
    """
    n = _converted("n", _order, n)
    m = _converted("m", _integer, m)
    if m < 1 or n < 2 * m:
        raise ParameterOutOfRangeError(f"need n >= 2m with m >= 1, got n = {n}, m = {m}")
    a_eigs = _converted("a_eigs", _real, a_eigs)
    b_sing_vals = _converted("b_sing_vals", _real, b_sing_vals)
    thetas = _converted("thetas", _real, thetas)
    if a_eigs.shape != (n - m,):
        raise ParameterOutOfRangeError(
            f"a_eigs must have length n - m = {n - m}, got {a_eigs.shape}"
        )
    if b_sing_vals.shape != (m,):
        raise ParameterOutOfRangeError(
            f"b_sing_vals must have length m = {m}, got {b_sing_vals.shape}"
        )
    if thetas.shape != (m,):
        raise ParameterOutOfRangeError(f"thetas must have length m = {m}, got {thetas.shape}")
    if not np.isfinite(a_eigs).all() or np.any(a_eigs <= 0):
        raise ParameterOutOfRangeError("a_eigs must be finite and strictly positive")
    if not np.isfinite(b_sing_vals).all() or np.any(b_sing_vals <= 0):
        raise ParameterOutOfRangeError("b_sing_vals must be finite and strictly positive")
    if not np.isfinite(thetas).all() or np.any(thetas <= 0) or np.any(thetas > np.pi / 2):
        raise ParameterOutOfRangeError("thetas must lie in (0, pi/2]")
    if np.any(np.diff(thetas) < 0):
        raise ParameterOutOfRangeError("thetas must be sorted ascending")
    seed = _converted("seed", _seed, seed)

    rng = np.random.default_rng(seed)
    q = _orthogonal(rng, n)
    e = q[:, :m]
    f = q[:, m : 2 * m]
    g = q[:, 2 * m :]
    u = np.hstack([e * np.cos(thetas) + f * np.sin(thetas), g])
    a = (u * a_eigs) @ u.T
    left = _orthogonal(rng, m)
    b = left @ (b_sing_vals[:, None] * e.T)
    problem = SaddleProblem(a, b)

    measured = np.arccos(problem.range_angles)
    # measured ascending vs requested ascending
    err = float(np.max(np.abs(np.sort(measured) - thetas)))
    if err > _ANGLE_ROUNDTRIP_TOL:
        raise GenerationFailedError(
            f"constructed angles deviate from the request by {err:.3e} "
            f"(tolerance {_ANGLE_ROUNDTRIP_TOL:g})"
        )
    return problem


def gen_ipm_like(n, m, delta, seed=0):
    """A = H + D with H = X X^T of rank n - m for a seeded Gaussian X, and
    D diagonal with a seeded subset of entries equal to delta; B is a
    seeded Gaussian, full-row-rank matrix. delta = 0 gives an exactly
    lowest-rank problem, small positive delta the nearly-rank-deficient
    shape that interior-point iterations approach."""
    n = _converted("n", _order, n)
    m = _converted("m", _integer, m)
    if m < 1 or m >= n:
        raise ParameterOutOfRangeError(f"need 1 <= m < n, got n = {n}, m = {m}")
    delta = _converted("delta", _scalar, delta)
    if not math.isfinite(delta) or delta < 0:
        raise ParameterOutOfRangeError(f"delta must be finite and >= 0, got {delta!r}")
    seed = _converted("seed", _seed, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n - m))
    a = x @ x.T
    if delta > 0:
        count = int(rng.integers(1, m + 1))
        idx = rng.choice(n, size=count, replace=False)
        a[idx, idx] += delta
    b = rng.standard_normal((m, n))
    return SaddleProblem(a, b)


def gen_random_lowest_rank(n, m, seed=0):
    """``gen_ipm_like(n, m, 0, seed)``: A = X X^T of exact rank n - m; if
    validation fails the seed is incremented, up to 16 attempts."""
    for attempt in range(_MAX_RETRIES):
        try:
            # the caller's seed as given first, so that its checks judge it
            return gen_ipm_like(n, m, 0.0, operator.index(seed) + attempt if attempt else seed)
        except ProblemValidationError as exc:
            last = exc
    raise GenerationFailedError(
        f"no valid problem after {_MAX_RETRIES} seeds starting at {seed}"
    ) from last


def _params(spec, required):
    given = set(spec.parameters)
    missing = set(required) - given
    extra = given - set(required)
    if missing:
        raise ParameterOutOfRangeError(
            f"family {spec.family!r} is missing parameters: {', '.join(sorted(missing))}"
        )
    if extra:
        raise ParameterOutOfRangeError(
            f"family {spec.family!r} got unknown parameters: {', '.join(sorted(extra))}"
        )
    return spec.parameters


# family -> (generator, its parameters in call order, whether it takes
# the spec's seed)
_GENERATORS = {
    "toy-2x2": (gen_toy, ("b1", "b2"), False),
    "remark-3x3": (gen_remark, ("alpha",), False),
    "prescribed-angles": (
        gen_prescribed_angles, ("n", "m", "a_eigs", "b_sing_vals", "thetas"), True,
    ),
    "ipm-like": (gen_ipm_like, ("n", "m", "delta"), True),
    "random-lowest-rank": (gen_random_lowest_rank, ("n", "m"), True),
}
FAMILIES = tuple(_GENERATORS)


def generate_problem(spec):
    """Build the SaddleProblem a GeneratorSpec describes."""
    if spec.family not in _GENERATORS:
        raise ParameterOutOfRangeError(
            f"unknown family {spec.family!r}; expected one of {', '.join(FAMILIES)}"
        )
    seed = _converted("seed", _seed, spec.seed)
    generator, names, seeded = _GENERATORS[spec.family]
    p = _params(spec, names)
    args = [p[name] for name in names] + ([seed] if seeded else [])
    return generator(*args)
