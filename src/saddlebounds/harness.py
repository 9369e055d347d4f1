"""Certification harness: dense eigenvalue oracle, soundness checks for
bound reports, the sweep of the scalar-weight bound over a gamma grid,
and the ``verify`` suite, ``run_verification``, with every tolerance and
default its checks use.

The oracle is the ground truth every bound is checked against: a full
dense eigensolve of K, capped by default at order 2000. It is the only
reader of K's spectrum, which is eigensolved on the first oracle call
and then kept on the problem; a refusal above the cap solves nothing.

``verify`` checks the bounds against the oracle and nothing else:
inertia, interval containment and soundness. The augmented saddle
matrix K_gamma = [[A + gamma B^T B, B^T], [B, 0]] is never formed there.
``augmented_condition``, ``inverse_identity_residual`` and
``ptp_spectrum_deviation`` measure LAPACK, not a bound: the condition
of K_gamma, and two identities that hold by algebra. Only the tests
call them, and the package does not export them. The first two
eigensolve K_gamma, and the residual inverts K, on every call; neither
keeps K_gamma's values or K^{-1} on the problem.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import (
    DEFAULT_ANGLE_TOL,
    DEFAULT_SIZE_CAP,
    _require_lowest_rank,
    applicable_bounds,
    rho_from_angles,
    saddle_matrix,
    scalar_weight_bounds,
)
from .errors import AugmentedBlockSingularError, ParameterOutOfRangeError, SizeCapError
from .linalg import (
    _frozen,
    _integer,
    _real,
    _scalar,
    _tolerance,
    lapack,
    numerically_singular,
)

DEFAULT_CERT_SLACK = 1e-8
DEFAULT_VERIFY_GAMMAS = (0.1, 1.0, 10.0)

SWEEP_CSV_HEADER = "gamma,inv_gamma,mu_min_A_gamma,predicted_bound,actual_min_pos_eig"
_SWEEP_CSV_ROW = ",".join(["%.17g"] * 5) + "\n"

# most points log_gamma_grid builds: 400 times the CLI's default of 25,
# about 1 MB of sweep.csv
MAX_GAMMA_POINTS = 10_000


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Dense spectrum of K split by sign.

    ``mu_min_plus`` is the smallest positive eigenvalue; no eigenvalue is
    zero, since ``SaddleProblem.k_eigs`` refuses a numerically singular
    K. A valid problem has exactly n positive and m negative eigenvalues;
    ``inertia_ok`` records whether the counts came out that way rather
    than asserting it silently.
    """

    all_eigs: np.ndarray  # descending
    mu_min_plus: float
    pos_count: int
    neg_count: int
    inertia_ok: bool


@dataclass(frozen=True)
class CertificationOutcome:
    """How a bound fared against the oracle.

    ``slack`` is oracle minus bound; ``status`` is "vacuous" when the
    bound is nonpositive, "sound" when it sits below the oracle within
    tolerance, "violated" otherwise.
    """

    status: str
    slack: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Scalar-weight bound over a gamma grid: the grid and the
    mu_min(A_gamma) measured at each point, both read-only, and the
    oracle's mu_min_plus(K). ``rows`` derives one tuple per point, in the
    columns of SWEEP_CSV_HEADER."""

    gammas: np.ndarray
    mu_min_a_gamma: np.ndarray
    actual_mu_min_plus: float

    def _table(self):
        with np.errstate(over="ignore"):  # inf for a subnormal gamma, as Python gives
            inv = 1.0 / self.gammas
        mu = self.mu_min_a_gamma
        return np.column_stack((self.gammas, inv, mu, np.minimum(inv, mu),
                                np.full(mu.shape, self.actual_mu_min_plus)))

    @property
    def rows(self):
        return tuple(map(tuple, self._table().tolist()))

    @property
    def crossing_index(self):
        """The first grid index i where 1/gamma - mu_min(A_gamma) changes
        sign between i and i + 1, or None when the grid never brackets it."""
        table = self._table()
        signs = np.sign(table[:, 1] - table[:, 2])
        changes = np.flatnonzero(signs[:-1] != signs[1:])
        return int(changes[0]) if changes.size else None

    def to_csv(self):
        table = self._table()
        return SWEEP_CSV_HEADER + "\n" + _SWEEP_CSV_ROW * len(table) % tuple(table.flat)


def check_size_cap(order, size_cap=DEFAULT_SIZE_CAP):
    """Raise SizeCapError when K's order is above the size cap, an integer
    >= 1 (else ParameterOutOfRangeError)."""
    size_cap = _integer(size_cap, "size_cap")
    if size_cap < 1:
        raise ParameterOutOfRangeError(f"size_cap must be at least 1, got {size_cap}")
    if order > size_cap:
        raise SizeCapError(f"K has order {order}, above the size cap {size_cap}")


def oracle(problem, size_cap=DEFAULT_SIZE_CAP):
    """Full spectrum of K from a dense eigensolve, refusing problems
    above the size cap before any work of order n + m. The eigensolve
    runs on the first call and is kept on the problem for later calls.
    ``k_eigs`` has already refused an eigenvalue near zero, so the
    spectrum is split by sign."""
    check_size_cap(problem.n + problem.m, size_cap)
    vals = problem.k_eigs
    pos_count = int(np.count_nonzero(vals > 0.0))
    return OracleResult(
        all_eigs=_frozen(vals[::-1]),
        mu_min_plus=float(vals[-pos_count]),  # vals ascend
        pos_count=pos_count,
        neg_count=vals.size - pos_count,
        inertia_ok=pos_count == problem.n,
    )


def certify(report, oracle_result, slack_tol=DEFAULT_CERT_SLACK):
    """Check one bound report against the oracle, within ``slack_tol``, a
    finite tolerance >= 0."""
    slack_tol = _tolerance(slack_tol, "slack_tol")
    value = report.value
    slack = oracle_result.mu_min_plus - value
    if value <= 0.0:
        status = "vacuous"
    elif value <= oracle_result.mu_min_plus + slack_tol * max(1.0, oracle_result.mu_min_plus):
        status = "sound"
    else:
        status = "violated"
    return CertificationOutcome(status, slack)


def containment_violations(report, oracle_result, slack=DEFAULT_CERT_SLACK):
    """Eigenvalues of K outside the inclusion intervals of an interval
    report, allowing absolute slack at the endpoints. Empty means the
    containment holds. ``slack`` is a finite tolerance >= 0."""
    slack = _tolerance(slack, "slack")
    if report.intervals is None:
        raise ParameterOutOfRangeError(f"report {report.name!r} carries no intervals")
    (neg_lo, neg_hi), (pos_lo, pos_hi) = report.intervals
    eigs = oracle_result.all_eigs
    in_neg = (eigs >= neg_lo - slack) & (eigs <= neg_hi + slack)
    in_pos = (eigs >= pos_lo - slack) & (eigs <= pos_hi + slack)
    return eigs[~(in_neg | in_pos)]


def _k_gamma_abs_eigs(problem, gamma):
    """|eigenvalues| of the augmented saddle matrix K_gamma at a gamma
    already judged one real number, from one eigensolve."""
    return np.abs(lapack("eigvalsh", "eigensolve of the augmented saddle matrix",
                         saddle_matrix(problem.augmented_blocks(gamma), problem.B.array)))


def augmented_condition(problem, gamma):
    """Spectral condition number of the augmented saddle matrix K_gamma;
    +inf when it is exactly singular."""
    vals = _k_gamma_abs_eigs(problem, _scalar(gamma, "gamma"))
    lo = float(vals.min())
    hi = float(vals.max())
    if lo == 0.0:
        return float("inf")
    return hi / lo


def inverse_identity_residual(problem, gamma):
    """Residual of the augmented-inverse identity at W = gamma * I,
    normalized by max(1, ||K^{-1}||_F).

    The identity says K^{-1} equals the inverse of the augmented saddle
    matrix K_W plus blockdiag(0, W). When the augmented leading block A_W
    is numerically nonsingular the Schur-form consequence is checked too:
    the trailing block of K^{-1} must equal W - (B A_W^{-1} B^T)^{-1}.
    The returned value is the larger of the residuals checked.

    A numerically singular K_W raises AugmentedBlockSingularError. Each
    call eigensolves K_W and inverts K and K_W, in that order.
    """
    gamma = _scalar(gamma, "gamma")
    n = problem.n
    m = problem.m
    kw_vals = _k_gamma_abs_eigs(problem, gamma)
    if numerically_singular(float(kw_vals.min()), float(kw_vals.max()), problem.rel_tol):
        raise AugmentedBlockSingularError(
            f"augmented saddle matrix is numerically singular: min |eig| = "
            f"{kw_vals.min():.6e} vs rel_tol * max = {problem.rel_tol * kw_vals.max():.6e}"
        )
    b = problem.B.array
    k_inv = lapack("inv", "inverse of the saddle matrix", problem.k_matrix)
    # K^{-1} - K_W^{-1} - blockdiag(0, W), built in the one array inv returns
    diff = lapack("inv", "inverse of the augmented saddle matrix",
                  saddle_matrix(problem.augmented_blocks(gamma), b))
    np.subtract(k_inv, diff, out=diff)
    w_dense = gamma * np.eye(m)
    diff[n:, n:] -= w_dense
    scale = max(1.0, float(np.linalg.norm(k_inv, "fro")))
    residual = float(np.linalg.norm(diff, "fro")) / scale
    del diff

    aw_lo, aw_hi = problem.augmented_extremes([gamma])[0].tolist()
    if not numerically_singular(aw_lo, aw_hi, problem.rel_tol):
        aw = problem.augmented_blocks(gamma)
        s_w = b @ lapack("solve", "solve with the augmented block", aw, b.T)
        s_w_inv = lapack("inv", "inverse of the Schur complement", s_w)
        trailing = k_inv[n:, n:]
        schur_residual = float(np.linalg.norm(trailing - (w_dense - s_w_inv), "fro")) / scale
        residual = max(residual, schur_residual)
    return residual


def log_gamma_grid(gamma_min, gamma_max, points):
    """Logarithmically spaced gamma grid between two real numbers, endpoints
    included, of an integer 2 to MAX_GAMMA_POINTS points; refused, as
    ``gamma_sweep`` would refuse it, when a point is not finite."""
    gamma_min = _scalar(gamma_min, "gamma_min")
    gamma_max = _scalar(gamma_max, "gamma_max")
    points = _integer(points, "points")
    if not 0 < gamma_min < gamma_max:
        raise ParameterOutOfRangeError(
            f"need 0 < gamma_min < gamma_max, got {gamma_min}, {gamma_max}"
        )
    if points < 2:
        raise ParameterOutOfRangeError(f"need at least 2 gamma grid points, got {points}")
    if points > MAX_GAMMA_POINTS:
        raise ParameterOutOfRangeError(
            f"need at most {MAX_GAMMA_POINTS} gamma grid points, got {points}"
        )
    # an infinite or overflowing endpoint is refused by the grid check
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.logspace(np.log10(gamma_min), np.log10(gamma_max), points)
    return _checked_grid(grid)


def _checked_grid(grid):
    """``grid`` as a new float array, refused unless it is a nonempty 1-D
    array of finite, positive, strictly increasing real numbers."""
    g = np.array(_real(grid, "each gamma grid point"))
    if g.ndim != 1 or g.size == 0:
        raise ParameterOutOfRangeError("gamma grid must be a nonempty 1-D array")
    if not np.isfinite(g).all() or np.any(g <= 0):
        raise ParameterOutOfRangeError("gamma grid values must be finite and positive")
    if np.any(np.diff(g) <= 0):
        raise ParameterOutOfRangeError("gamma grid must be strictly increasing")
    return g


def gamma_sweep(problem, grid, size_cap=DEFAULT_SIZE_CAP):
    """Evaluate min{1/gamma, mu_min(A_gamma)} over a gamma grid.

    The result keeps a read-only copy of the grid, so the caller's array
    stays as it was. The measured column is the first of
    ``SaddleProblem.augmented_extremes``, which solves the largest gammas
    first: an overflowing grid is refused before any eigensolve.
    """
    g = _frozen(_checked_grid(grid))
    check_size_cap(problem.n + problem.m, size_cap)
    mu_mins = problem.augmented_extremes(g)[:, 0]
    return SweepResult(g, _frozen(mu_mins), oracle(problem, size_cap).mu_min_plus)


def ptp_spectrum_deviation(problem):
    """Deviations of the stacked-basis Gram spectrum from its closed form.

    For a lowest-rank problem let P = [U V] stack orthonormal bases of
    range(A) and range(B^T). The eigenvalues of P^T P are 1 (with
    multiplicity n - 2k, k = min(m, n - m)) and 1 +/- cos(theta_i) for
    each principal angle, and the squared reciprocal of ||P^{-1}|| equals
    1 - cos(theta_min). Returns (max eigenvalue deviation, deviation of
    the inverse-norm identity).
    """
    _require_lowest_rank(problem)
    p = np.hstack([problem.range_a, problem.row_space_b])
    # eigvalsh returns the eigenvalues ascending, as expected is sorted
    gram_eigs = lapack("eigvalsh", "eigensolve of the stacked-basis Gram matrix", p.T @ p)
    cos = problem.range_angles
    k = cos.shape[0]
    expected = np.sort(
        np.concatenate([np.ones(problem.n - 2 * k), 1.0 - cos, 1.0 + cos])
    )
    dev_spectrum = float(np.max(np.abs(gram_eigs - expected)))
    # sigma_min(P)^2 is the smallest eigenvalue of P^T P
    dev_inverse = abs(float(gram_eigs[0]) - rho_from_angles(cos)[0])
    return dev_spectrum, dev_inverse


def run_verification(problem, gammas, cert_slack=DEFAULT_CERT_SLACK,
                     angle_tol=DEFAULT_ANGLE_TOL, size_cap=DEFAULT_SIZE_CAP, emit=print):
    """Invariant suite shared by the verify subcommand and tests.

    Returns a list of failure descriptions; empty means everything held.
    A refused gamma or tolerance emits nothing: every report is built
    before the oracle. The checks are inertia, interval containment and
    the soundness of every report, each against the oracle; none factors
    K_gamma or inverts anything.
    """
    failures = []
    cert_slack = _tolerance(cert_slack, "cert_slack")
    check_size_cap(problem.n + problem.m, size_cap)
    reports = applicable_bounds(problem, angle_tol=angle_tol)
    for gamma in gammas:
        reports += scalar_weight_bounds(problem, gamma)
    oracle_result = oracle(problem, size_cap)

    if not oracle_result.inertia_ok:
        failures.append(
            f"inertia: expected {problem.n} positive / {problem.m} negative, got "
            f"{oracle_result.pos_count} / {oracle_result.neg_count}"
        )
    emit(f"inertia counts: {'ok' if oracle_result.inertia_ok else 'FAIL'}")

    intervals = next(report for report in reports if report.intervals is not None)
    outside = containment_violations(intervals, oracle_result, cert_slack)
    if outside.size:
        failures.append(f"containment: {outside.size} eigenvalues outside the intervals")
    emit(f"interval containment: {'ok' if not outside.size else 'FAIL'}")

    for report in reports:
        outcome = certify(report, oracle_result, cert_slack)
        if outcome.status == "violated":
            failures.append(
                f"soundness: {report.name} = {report.value:.6e} exceeds "
                f"mu_min_plus(K) = {oracle_result.mu_min_plus:.6e}"
            )
        tag = report.name
        if "gamma" in report.details:
            tag = f"{report.name} (gamma={report.details['gamma']:g})"
        emit(f"soundness {tag}: {outcome.status} (slack {outcome.slack:.3e})")
    return failures
