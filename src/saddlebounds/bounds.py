"""Guaranteed eigenvalue bounds for symmetric saddle matrices
K = [[A, B^T], [B, 0]] with a positive semidefinite leading block A.

The bounds come in three flavors:

* classical inclusion intervals from the extreme eigenvalues of A and the
  extreme singular values of B ("rusten-winther");
* the augmented-block bound min{mu_min(A + gamma B^T B), 1/gamma} of the
  scalar weight W = gamma * I. The argument holds for any positive
  semidefinite W, giving min{mu_min(A + B^T W B), 1/mu_max(W)}; the
  library computes the scalar case, the one every command uses, and the
  tests check the general-W identity against a reference of their own;
* principal-angle bounds that need no augmented eigensolve at all. In the
  lowest-rank case rank(A) = n - m the positive eigenvalues of K are at
  least min{mu_min_plus(A) * (1 - cos t), sigma_min(B) * sqrt(1 - cos t)}
  where t is the minimal angle between range(A) and range(B^T); for
  general rank the same shape holds with A replaced by its best
  rank-(n - m) spectral approximation.

A SaddleProblem decides the numerical rank of A once, in its summary;
the bases of range(A) and ker(A) and every rank check read that number.
``augmented_blocks`` alone forms A + gamma B^T B and ``augmented_extremes``
alone eigensolves it; one function builds the three angle bounds and,
from them, the two optimal gammas.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AugmentedBlockSingularError,
    ConvergenceError,
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
    RankAssumptionError,
    RankDeficientError,
    RankTooLowError,
    SingularKError,
    SizeCapError,
    StructureError,
    ZeroAngleError,
)
from .linalg import (
    RectMatrix,
    SymmetricMatrix,
    _frozen,
    _real,
    _scalar,
    _tolerance,
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

DEFAULT_ANGLE_TOL = 1e-10
# largest order of K that is eigensolved densely
DEFAULT_SIZE_CAP = 2000
# bytes of one stacked eigvalsh operand in augmented_extremes; an n-by-n
# block larger than this is still solved on its own
STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme spectral data of a saddle problem.

    ``mu`` values describe the (clamped) eigenvalues of A, ``sigma``
    values the singular values of B. ``mu_min_plus`` is the smallest
    eigenvalue above the rank threshold ``rel_tol * mu_max``.
    """

    mu_max: float
    mu_min: float
    mu_min_plus: float
    sigma_max: float
    sigma_min: float
    rank_a: int
    nullity_a: int
    rel_tol: float


@dataclass(frozen=True)
class BoundReport:
    """One computed bound: its name, the certified value, and the
    quantities that produced it.

    ``value`` is a lower bound on the positive eigenvalues of K: a bound
    whose assumptions the problem fails raises instead of reporting. For
    the interval report ``intervals`` holds ((neg_lo, neg_hi), (pos_lo,
    pos_hi)) and ``value`` is the lower endpoint of the positive interval.
    """

    name: str
    value: float
    details: dict = field(default_factory=dict)
    warnings: tuple = ()
    intervals: tuple = None


def saddle_matrix(a, b):
    """Assemble the dense block matrix [[A, B^T], [B, 0]]."""
    n = a.shape[0]
    m = b.shape[0]
    k = np.zeros((n + m, n + m))
    k[:n, :n] = a
    k[:n, n:] = b.T
    k[n:, :n] = b
    return k


class SaddleProblem:
    """Validated pair (A, B) with cached decompositions.

    ``rel_tol`` (default n * eps) is the one tolerance of the problem:
    it sets the numerical rank of A, the full-row-rank test of B, the
    nonsingularity test of K and the ties at the split boundary.
    Construction enforces every structural invariant: A symmetric within
    ``DEFAULT_SYM_TOL`` and positive semidefinite (eigenvalues in
    [-rel_tol * mu_max, 0) are clamped to zero), B full row rank with
    m < n, and the assembled saddle matrix nonsingular. The eigensolve of
    A and the SVD of B are computed once here and reused by every bound.
    Nonsingularity of K is proved by one Cholesky factorization of order
    n; only where that proof cannot decide does construction eigensolve K,
    and above ``DEFAULT_SIZE_CAP`` it raises SizeCapError instead.

    A and B are kept as copies, so the caller's arrays may change later.
    Every quantity that several bounds and checks share is computed on
    first use and then kept, read-only, so its factorization runs once
    per problem: the eigenvalues of K (read by the oracle), B^T B, the
    principal angles of (range(A), range(B^T)), of (ker(A), ker(B)) and
    of the split basis. ker(B), which only the kernel angles read, is
    formed there and not kept. Nothing is kept per gamma: each command
    solves each A + gamma B^T B once, through ``augmented_extremes``, so
    memory stays flat however many gammas are checked. The weight is
    always the scalar gamma * I, checked by ``augmented_blocks`` before
    any work; the general-W identity is checked by the tests. K itself is
    not kept: ``k_matrix`` assembles it on each read.
    """

    def __init__(self, a, b, rel_tol=None):
        self.A = SymmetricMatrix.from_array(a)
        self.B = RectMatrix.from_array(b)
        n = self.A.order
        m, nb = self.B.array.shape
        if nb != n:
            raise StructureError(
                f"constraint block is {m}x{nb} but the leading block has order {n}"
            )
        if m >= n:
            raise StructureError(f"need m < n for a saddle problem, got m = {m}, n = {n}")
        self.n = n
        self.m = m
        self.rel_tol = checked_rel_tol(rel_tol) if rel_tol is not None else default_rank_tol(n)

        raw, vectors = sym_eig(self.A)
        top = float(raw[0])
        bottom = float(raw[-1])
        if not numerically_semidefinite(bottom, top, self.rel_tol):
            raise NotPositiveSemidefiniteError(
                f"leading block has eigenvalue {bottom:.6e} below "
                f"-rel_tol * mu_max = {-self.rel_tol * max(top, 0.0):.6e}"
            )
        # A's eigenpairs, values descending; a_values clamps the
        # roundoff-negative tail so downstream summaries see >= 0
        self.a_raw_values = raw
        self.a_vectors = vectors
        self.a_values = _frozen(np.maximum(raw, 0.0))

        sing, right = svd(self.B)
        smax = float(sing[0])
        smin = float(sing[-1])
        if numerically_singular(smin, smax, self.rel_tol):
            raise RankDeficientError(
                f"constraint block is not full row rank: sigma_min = {smin:.6e}, "
                f"sigma_max = {smax:.6e}, rel_tol = {self.rel_tol:g}"
            )
        self.b_singular_values = sing
        # B is full row rank, so all m right singular vectors span range(B^T)
        self.row_space_b = right

        if not self._k_certified_nonsingular():
            if n + m > DEFAULT_SIZE_CAP:
                raise SizeCapError(
                    f"K has order {n + m}, above the size cap {DEFAULT_SIZE_CAP}; "
                    "only its dense eigensolve could show it nonsingular"
                )
            self.k_eigs  # the dense check: raises SingularKError when K is singular

    def _k_certified_nonsingular(self):
        """True when an order-n Cholesky proves that K passes the check in
        ``k_eigs``; False means undecided, never singular.

        With W = sI every positive eigenvalue of K is at least
        min{mu_min(A + s B^T B), 1/s}, and every negative one is at most
        -nu, nu = 2 sigma_min^2 / (mu_max + sqrt(mu_max^2 + 4 sigma_min^2))
        (the Rusten-Winther upper end of the negative interval), and every
        |eigenvalue| at most R = (mu_max + sqrt(mu_max^2 + 4 sigma_max^2)) / 2,
        the upper end of the positive interval. So
        min |eig K| > beta = 4 rel_tol R follows from nu > beta and
        A + s B^T B - beta I positive definite: with s = mu_max / sigma_max^2,
        1/s >= sigma_min^2 / mu_max >= nu, so nu > beta gives 1/s > beta.

        The margin of 4: ||A + s B^T B|| <= 2 mu_max, so the Cholesky's
        backward error, about n eps ||A + s B^T B||, is at most
        2 rel_tol mu_max <= 2 rel_tol R whenever rel_tol >= n eps (the
        default; a smaller rel_tol leaves the certificate undecided). A pass
        then proves mu_min(A + s B^T B) > 2 rel_tol R, hence
        min |eig K| > 2 rel_tol ||K||. The remaining factor of 2 over the
        threshold rel_tol ||K|| of ``k_eigs`` absorbs that eigensolve's own
        rounding, so a pass is never contradicted by the dense check.

        nu and R are formed here with ``math.hypot``, not read from
        ``rusten_winther``: its sqrt of squares underflows below about
        1e-154, and an R that falls short of ||K||_2 would let a singular K
        pass.
        """
        s = self.summary
        mu = s.mu_max
        # 0 where it underflows, inf where B^T B would overflow
        smax2 = s.sigma_max * s.sigma_max
        if mu == 0.0 or not 0.0 < smax2 < math.inf or self.rel_tol < default_rank_tol(self.n):
            return False
        # nu in its cancellation-free form, formed without sigma_min^2, which
        # may underflow where nu does not
        nu = 2.0 * s.sigma_min * (s.sigma_min / (mu + math.hypot(mu, 2.0 * s.sigma_min)))
        r = 0.5 * (mu + math.hypot(mu, 2.0 * s.sigma_max))
        beta = 4.0 * self.rel_tol * r
        if not nu > beta:
            return False
        # its gamma check passes: nu > beta needs a finite R and sigma_min^2 > 0
        shifted = self.augmented_blocks(mu / smax2)
        shifted.flat[:: self.n + 1] -= beta  # the diagonal
        try:
            factor = lapack("cholesky", "Cholesky of the shifted augmented blocks", shifted)
        except ConvergenceError:
            return False
        # LAPACK passes NaN and infinity through
        return bool(np.isfinite(factor).all())

    @property
    def k_matrix(self):
        """The saddle matrix K, read-only, assembled anew on each read:
        only its eigensolve, once, and the inverse-identity check read it."""
        return _frozen(saddle_matrix(self.A.array, self.B.array))

    @cached_property
    def k_eigs(self):
        """Eigenvalues of K, ascending, read-only, from one dense
        eigensolve of order n + m; raises SingularKError when K is
        numerically singular."""
        k_vals = lapack("eigvalsh", "eigensolve of the saddle matrix", self.k_matrix)
        kmax = float(np.abs(k_vals).max())
        kmin = float(np.abs(k_vals).min())
        if numerically_singular(kmin, kmax, self.rel_tol):
            raise SingularKError(
                f"saddle matrix is numerically singular: min |eig| = {kmin:.6e} "
                f"vs rel_tol * ||K|| = {self.rel_tol * kmax:.6e}"
            )
        return _frozen(k_vals)

    @cached_property
    def summary(self):
        vals = self.a_values
        rank = numerical_rank(vals, self.rel_tol)
        mu_min_plus = float(vals[rank - 1]) if rank > 0 else 0.0
        s = self.b_singular_values
        return SpectralSummary(
            mu_max=float(vals[0]),
            mu_min=float(vals[-1]),
            mu_min_plus=mu_min_plus,
            sigma_max=float(s[0]),
            sigma_min=float(s[-1]),
            rank_a=rank,
            nullity_a=self.n - rank,
            rel_tol=self.rel_tol,
        )

    # subspace bases: read-only arrays, one orthonormal column per vector;
    # construction keeps every negative eigenvalue within rel_tol * mu_max,
    # so the first rank_a columns are those of the largest |eigenvalues|
    @cached_property
    def range_a(self):
        return _frozen(self.a_vectors[:, : self.summary.rank_a])

    @cached_property
    def kernel_a(self):
        """The columns past rank_a, by |eigenvalue| descending (stable)."""
        rank = self.summary.rank_a
        order = np.argsort(-np.abs(self.a_raw_values[rank:]), kind="stable")
        return _frozen(self.a_vectors[:, rank + order])

    @cached_property
    def bt_b(self):
        """B^T B, read-only and exactly symmetric, so the augmented blocks are."""
        b = self.B.array
        return _frozen(b.T @ b)

    @cached_property
    def range_angles(self):
        """Cosines of the principal angles between range(A) and range(B^T),
        descending, as ``principal_angles`` returns them."""
        return principal_angles(self.range_a, self.row_space_b)

    @cached_property
    def kernel_angles(self):
        """Cosines of the principal angles between ker(A) and ker(B),
        descending; ker(B) is formed here and not kept."""
        return principal_angles(self.kernel_a, kernel_basis_rect(self.B, self.rel_tol))

    @cached_property
    def split_quantities(self):
        """(mu_{n-m}, angle cosines, degenerate) of the split at the top-(n - m)
        eigenspace of A; RankTooLowError when rank(A) < n - m (K singular).

        In the lowest-rank case the split basis holds exactly the columns
        of ``range_a``, so the split angles are ``range_angles``."""
        k = self.n - self.m
        rank = self.summary.rank_a
        if rank < k:
            raise RankTooLowError(
                f"rank(A) = {rank} < n - m = {k}; the saddle matrix would be singular"
            )
        raw = self.a_raw_values
        mu_nm = float(self.a_values[k - 1])
        degenerate = abs(float(raw[k - 1]) - float(raw[k])) <= self.rel_tol * abs(float(raw[0]))
        if self.is_lowest_rank:
            return mu_nm, self.range_angles, degenerate
        return mu_nm, principal_angles(self.a_vectors[:, :k], self.row_space_b), degenerate

    def augmented_blocks(self, gammas):
        """A + gamma B^T B, stacked when ``gammas`` is an array: the one place
        it is formed and the one check of gamma, before any work. Each gamma
        must be a real number, finite and >= 0, and so must mu_max(A) +
        gamma sigma_max(B)^2 + sigma_max(B), a bound on every |eigenvalue| of
        A_gamma and K_gamma (in Python floats: no overflow in numpy)."""
        s = self.summary
        g = _real(gammas, "gamma")
        for gamma in g.ravel().tolist():
            if not math.isfinite(gamma) or gamma < 0:
                raise ParameterOutOfRangeError(
                    f"scalar weight needs a finite gamma >= 0, got {gamma}")
            if not math.isfinite(s.mu_max + gamma * (s.sigma_max * s.sigma_max) + s.sigma_max):
                raise ParameterOutOfRangeError(f"gamma = {gamma} overflows the augmented block")
        blocks = np.multiply.outer(g, self.bt_b)
        blocks += self.A.array  # a + gamma * bt_b: IEEE addition commutes
        return blocks

    def augmented_extremes(self, gammas):
        """(mu_min, mu_max) of A + gamma B^T B, one row per gamma of the 1-D
        array ``gammas``: the one eigensolve of the augmented blocks. They
        are solved in stacks of at most STACK_BYTES (at least one block per
        call), the last gammas first, so a grid whose top overflows is
        refused before any eigensolve; a block solved in a stack has the
        same bits as one solved alone. Nothing is kept."""
        g = _real(gammas, "gamma")
        if g.ndim != 1:
            raise ParameterOutOfRangeError(f"gamma must be a 1-D array, got shape {g.shape}")
        # A's bytes, not B^T B's: the same size, but read before gamma is checked
        per_call = max(1, STACK_BYTES // self.A.array.nbytes)
        out = np.empty((g.size, 2))
        for start in reversed(range(0, g.size, per_call)):
            vals = lapack("eigvalsh", "eigensolve of the augmented blocks",
                          self.augmented_blocks(g[start:start + per_call]))
            out[start:start + per_call] = vals[:, [0, -1]]
        return out

    @property
    def is_lowest_rank(self):
        return self.summary.rank_a == self.n - self.m


def _square(x):
    """x**2, or inf where float ** raises OverflowError (float * returns
    inf, but x * x differs from x**2 in the last bit for some x)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _rw_root(x, y):
    """sqrt(x^2 + 4 y^2). Where the squares overflow, math.hypot gives the
    finite value, so every finite result keeps the bits of the direct
    expression."""
    root = math.sqrt(_square(x) + 4.0 * _square(y))
    return root if math.isfinite(root) else math.hypot(x, 2.0 * y)


def rusten_winther(summary):
    """Classical inclusion intervals for the spectrum of K.

    The negative eigenvalues lie in
    [ (mu_min - sqrt(mu_min^2 + 4 sigma_max^2)) / 2,
      (mu_max - sqrt(mu_max^2 + 4 sigma_min^2)) / 2 ]
    and the positive ones in
    [ mu_min, (mu_max + sqrt(mu_max^2 + 4 sigma_max^2)) / 2 ].
    With a singular A (the summary's ``nullity_a`` > 0) the positive lower
    endpoint degenerates to zero and the report carries a
    vacuous-positive-lower warning.
    """
    s = summary
    neg_lo = 0.5 * (s.mu_min - _rw_root(s.mu_min, s.sigma_max))
    neg_hi = 0.5 * (s.mu_max - _rw_root(s.mu_max, s.sigma_min))
    pos_lo = s.mu_min
    pos_hi = 0.5 * (s.mu_max + _rw_root(s.mu_max, s.sigma_max))
    warns = ("vacuous-positive-lower",) if s.nullity_a else ()
    return BoundReport(
        name="rusten-winther",
        value=pos_lo,
        details={
            "mu_max": s.mu_max,
            "mu_min": s.mu_min,
            "sigma_max": s.sigma_max,
            "sigma_min": s.sigma_min,
            "rel_tol": s.rel_tol,
        },
        warnings=warns,
        intervals=((neg_lo, neg_hi), (pos_lo, pos_hi)),
    )


def wbound(problem, gamma):
    """Augmented-block lower bound min{mu_min(A_gamma), 1/gamma} of the
    scalar weight gamma * I.

    gamma = 0 contributes no 1/gamma term (the convention is +infinity),
    leaving mu_min(A) alone; that case needs A itself to be positive
    definite.
    """
    gamma = _scalar(gamma, "gamma")
    mu_min_aw, mu_max_aw = problem.augmented_extremes([gamma])[0].tolist()
    if numerically_singular(mu_min_aw, mu_max_aw, problem.rel_tol):
        raise AugmentedBlockSingularError(
            f"augmented block is not positive definite: mu_min = {mu_min_aw:.6e} "
            f"vs rel_tol * mu_max = {problem.rel_tol * max(mu_max_aw, 0.0):.6e}"
        )
    details = {
        "mu_min_augmented": mu_min_aw,
        "mu_max_augmented": mu_max_aw,
        "weight_mu_max": gamma,
        "rel_tol": problem.rel_tol,
        "gamma": gamma,
    }
    inv = math.inf if gamma == 0.0 else 1.0 / gamma
    value = min(mu_min_aw, inv)
    details["active"] = "leading-block" if mu_min_aw <= inv else "weight-inverse"
    return BoundReport("wbound", value, details)


def _require_lowest_rank(problem):
    if not problem.is_lowest_rank:
        raise RankAssumptionError(
            f"requires rank(A) = n - m = {problem.n - problem.m}, "
            f"numerical rank is {problem.summary.rank_a}"
        )


def rho_from_angles(cosines):
    """(1 - cos(theta_min), theta_min) of the descending cosines of the
    principal angles, theta_min the smallest angle: the angle data every
    angle bound reads."""
    return 1.0 - float(cosines[0]), float(np.arccos(cosines)[0])


# subspace pair of an angle bound -> (report name, details key of its angle)
_ANGLE_BOUNDS = {
    "range": ("lowest-rank", "theta_min"),
    "kernel": ("kernel-angle", "psi_min"),
    "split": ("general-rank", "theta_tilde_min"),
}


def _angle_bound(problem, pair, angle_tol):
    """The report of the angle bound min{mu * rho, sigma_min * sqrt(rho)} of
    the subspace pair ``pair``, warning of a zero angle at or below
    ``angle_tol``. "range" (range(A), range(B^T)) and "kernel" (ker(A),
    ker(B)) take mu_min_plus and need rank(A) = n - m; "split" takes
    mu_{n-m} and the split angles, for any rank(A) >= n - m. ``angle_tol``
    is judged before any angle is computed."""
    angle_tol = _tolerance(angle_tol, "angle_tol")
    s = problem.summary
    if pair == "split":
        mu, cosines, degenerate = problem.split_quantities
        details = {"mu_n_minus_m": mu, "rank_a": s.rank_a}
        warns = ("degenerate-split",) if degenerate else ()
    else:
        _require_lowest_rank(problem)
        mu = s.mu_min_plus
        cosines = problem.range_angles if pair == "range" else problem.kernel_angles
        details, warns = {"mu_min_plus": mu}, ()
    name, angle_key = _ANGLE_BOUNDS[pair]
    rho, theta_min = rho_from_angles(cosines)
    arg_mu, arg_sigma = mu * rho, s.sigma_min * math.sqrt(rho)
    value, active = (arg_mu, "mu") if arg_mu <= arg_sigma else (arg_sigma, "sigma")
    if theta_min <= angle_tol:
        warns = ("zero-angle",) + warns
    details.update({angle_key: theta_min, "rho": rho, "sigma_min": s.sigma_min,
                    "active": active, "angle_tol": angle_tol, "rel_tol": s.rel_tol})
    return BoundReport(name, value, details, warns)


def _optimal_gamma(problem, pair, angle_tol):
    """1 / the angle bound of ``pair``; ZeroAngleError where that bound
    warns of a zero angle, since no finite gamma matches it."""
    report = _angle_bound(problem, pair, angle_tol)
    if "zero-angle" in report.warnings:
        what = "split" if pair == "split" else "principal"
        theta_min = report.details[_ANGLE_BOUNDS[pair][1]]
        raise ZeroAngleError(
            f"minimal {what} angle {theta_min:.6e} is at or below "
            f"angle_tol = {angle_tol:g}; no finite optimal gamma"
        )
    return 1.0 / report.value


def optimal_gamma(problem, angle_tol=DEFAULT_ANGLE_TOL):
    """The gamma whose augmented bound matches the best angle bound:
    1/gamma = min{mu_min_plus * (1 - cos t), sigma_min * sqrt(1 - cos t)}."""
    return _optimal_gamma(problem, "range", angle_tol)


def lowest_rank_bound(problem, angle_tol=DEFAULT_ANGLE_TOL):
    """Angle bound for rank(A) = n - m:
    min{mu_min_plus * (1 - cos t), sigma_min * sqrt(1 - cos t)} with t the
    minimal angle between range(A) and range(B^T)."""
    return _angle_bound(problem, "range", angle_tol)


def kernel_angle_bound(problem, angle_tol=DEFAULT_ANGLE_TOL):
    """Same bound expressed through the minimal angle between ker(A) and
    ker(B); in the lowest-rank case the two formulations agree."""
    return _angle_bound(problem, "kernel", angle_tol)


def general_rank_bound(problem, angle_tol=DEFAULT_ANGLE_TOL):
    """Split-based angle bound valid for any rank(A) >= n - m:
    min{mu_{n-m} * (1 - cos t), sigma_min * sqrt(1 - cos t)} with t the
    minimal angle between the top-(n - m) eigenspace of A and range(B^T).

    When that angle is numerically zero the bound degenerates to zero and
    the report carries a zero-angle warning; the value is still a valid
    (vacuous) lower bound.
    """
    return _angle_bound(problem, "split", angle_tol)


def general_rank_optimal_gamma(problem, angle_tol=DEFAULT_ANGLE_TOL):
    """Optimal gamma computed from the split quantities; this is the
    fallback when rank(A) > n - m rules out the lowest-rank formula."""
    return _optimal_gamma(problem, "split", angle_tol)


def agamma_bound(problem, gamma):
    """K-level bound at a given gamma > 0 that avoids the augmented
    eigensolve: min{1/gamma, rho * min{mu_min_plus, gamma * sigma_min^2}}.

    The inner term, details["augmented_estimate"], underestimates
    mu_min(A_gamma) when rank(A) = n - m, so this is never tighter than
    wbound at the same gamma, but it is certified from the angle data."""
    gamma = _scalar(gamma, "gamma")
    if not 0 < gamma < math.inf:
        raise ParameterOutOfRangeError(f"gamma must be positive, got {gamma}")
    _require_lowest_rank(problem)
    rho, theta_min = rho_from_angles(problem.range_angles)
    s = problem.summary
    inner = rho * min(s.mu_min_plus, gamma * _square(s.sigma_min))
    inv = 1.0 / gamma
    if inner <= inv:
        value, active = inner, "augmented-estimate"
    else:
        value, active = inv, "weight-inverse"
    return BoundReport(
        "agamma",
        value,
        {
            "gamma": gamma,
            "rho": rho,
            "theta_min": theta_min,
            "augmented_estimate": inner,
            "active": active,
            "rel_tol": problem.rel_tol,
        },
    )


def scalar_weight_bounds(problem, gamma):
    """The reports of the scalar weight gamma * I: ``wbound``, then
    ``agamma_bound`` when rank(A) = n - m."""
    reports = [wbound(problem, gamma)]
    if problem.is_lowest_rank:
        reports.append(agamma_bound(problem, gamma))
    return reports


def applicable_bounds(problem, gamma=None, angle_tol=DEFAULT_ANGLE_TOL):
    """Every bound whose assumptions the problem satisfies, in a fixed
    deterministic order. ``gamma`` adds the scalar-weight reports, computed
    first, after ``angle_tol`` is judged."""
    angle_tol = _tolerance(angle_tol, "angle_tol")
    weighted = scalar_weight_bounds(problem, gamma) if gamma is not None else []
    reports = [rusten_winther(problem.summary)]
    if problem.is_lowest_rank:
        reports.append(lowest_rank_bound(problem, angle_tol))
        reports.append(kernel_angle_bound(problem, angle_tol))
    reports.append(general_rank_bound(problem, angle_tol))
    return reports + weighted
