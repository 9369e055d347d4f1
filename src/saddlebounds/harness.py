"""Certification harness: dense eigenvalue oracle, soundness checks for
bound reports, the augmented-inverse identity residual, the sweep of
the scalar-weight bound over a gamma grid, and the ``verify`` suite,
``run_verification``, with every tolerance and default its checks use.

The oracle is the ground truth every bound is checked against: a full
dense eigensolve of K, capped by default at order 2000. It is the only
reader of K's spectrum, which is eigensolved on the first oracle call
and then kept on the problem; a refusal above the cap solves nothing.
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
from .linalg import _frozen, _integer, _real, _scalar, lapack, numerically_singular

DEFAULT_CERT_SLACK = 1e-8
DEFAULT_COND_CAP = 1e12
# the verify suite: its gammas, and the absolute tolerances of the
# inverse-identity residual and of the stacked-basis deviations
DEFAULT_VERIFY_GAMMAS = (0.1, 1.0, 10.0)
_INVERSE_IDENTITY_TOL = 1e-8
_PTP_TOL = 1e-8

SWEEP_CSV_HEADER = "gamma,inv_gamma,mu_min_A_gamma,predicted_bound,actual_min_pos_eig"
_SWEEP_CSV_ROW = ",".join(["%.17g"] * 5) + "\n"

# bytes of one stacked eigvalsh operand in gamma_sweep; an n-by-n block
# larger than this is still solved on its own
SWEEP_STACK_BYTES = 256 * 1024
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
    """Raise SizeCapError when K's order is above the size cap."""
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
    """Check one bound report against the oracle."""
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
    containment holds."""
    if report.intervals is None:
        raise ParameterOutOfRangeError(f"report {report.name!r} carries no intervals")
    (neg_lo, neg_hi), (pos_lo, pos_hi) = report.intervals
    eigs = oracle_result.all_eigs
    in_neg = (eigs >= neg_lo - slack) & (eigs <= neg_hi + slack)
    in_pos = (eigs >= pos_lo - slack) & (eigs <= pos_hi + slack)
    return eigs[~(in_neg | in_pos)]


def augmented_condition(problem, gamma):
    """Spectral condition number of the augmented saddle matrix K_gamma;
    +inf when it is exactly singular."""
    vals = problem.augmented_saddle_abs_eigs(gamma)
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
    """
    n = problem.n
    m = problem.m
    kw_vals = problem.augmented_saddle_abs_eigs(gamma)
    if numerically_singular(float(kw_vals.min()), float(kw_vals.max()), problem.rel_tol):
        raise AugmentedBlockSingularError(
            f"augmented saddle matrix is numerically singular: min |eig| = "
            f"{kw_vals.min():.6e} vs rel_tol * max = {problem.rel_tol * kw_vals.max():.6e}"
        )
    aw = problem.augmented_blocks(gamma)
    k_inv = problem.k_inverse
    # K^{-1} - K_W^{-1} - blockdiag(0, W), built in the one array inv returns
    diff = lapack("inv", "inverse of the augmented saddle matrix",
                  saddle_matrix(aw, problem.B.array))
    np.subtract(k_inv, diff, out=diff)
    w_dense = gamma * np.eye(m)
    diff[n:, n:] -= w_dense
    scale = max(1.0, float(np.linalg.norm(k_inv, "fro")))
    residual = float(np.linalg.norm(diff, "fro")) / scale
    del diff

    aw_vals = problem.augmented_eigs(gamma)
    if not numerically_singular(float(aw_vals[0]), float(aw_vals[-1]), problem.rel_tol):
        b = problem.B.array
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
    _scalar(gamma_min, "gamma_min")
    _scalar(gamma_max, "gamma_max")
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
    stays as it was. The augmented blocks A + gamma B^T B are eigensolved
    in stacks of at most SWEEP_STACK_BYTES (at least one block per call);
    each block in a stack has the same bits as when it is formed on its
    own, so the measured column does too.
    """
    g = _frozen(_checked_grid(grid))
    check_size_cap(problem.n + problem.m, size_cap)
    per_call = max(1, SWEEP_STACK_BYTES // problem.bt_b.nbytes)
    mu_mins = np.empty(g.size)
    # largest gammas first: an overflowing grid is refused before any eigensolve
    for start in reversed(range(0, g.size, per_call)):
        stack = problem.augmented_blocks(g[start:start + per_call])
        vals = lapack("eigvalsh", "eigensolve of the augmented blocks", stack)
        mu_mins[start:start + per_call] = vals[:, 0]
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
    cos = problem.range_angles.cosines
    k = cos.shape[0]
    expected = np.sort(
        np.concatenate([np.ones(problem.n - 2 * k), 1.0 - cos, 1.0 + cos])
    )
    dev_spectrum = float(np.max(np.abs(gram_eigs - expected)))
    # sigma_min(P)^2 is the smallest eigenvalue of P^T P
    dev_inverse = abs(float(gram_eigs[0]) - rho_from_angles(problem.range_angles)[0])
    return dev_spectrum, dev_inverse


def run_verification(problem, gammas, cert_slack=DEFAULT_CERT_SLACK,
                     angle_tol=DEFAULT_ANGLE_TOL, size_cap=DEFAULT_SIZE_CAP, emit=print):
    """Invariant suite shared by the verify subcommand and tests.

    Returns a list of failure descriptions; empty means everything held.
    A refused gamma emits nothing: every report is built before the oracle.
    """
    failures = []
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

    outside = containment_violations(reports[0], oracle_result, cert_slack)  # rusten-winther
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

    for gamma in gammas:
        cond = augmented_condition(problem, gamma)
        if cond > DEFAULT_COND_CAP:
            emit(f"inverse identity gamma={gamma:g}: skipped (condition {cond:.3e})")
            continue
        residual = inverse_identity_residual(problem, gamma)
        ok = residual <= _INVERSE_IDENTITY_TOL
        if not ok:
            failures.append(
                f"inverse identity at gamma={gamma:g}: residual {residual:.3e}"
            )
        emit(f"inverse identity gamma={gamma:g}: {'ok' if ok else 'FAIL'} "
             f"(residual {residual:.3e})")

    if problem.is_lowest_rank:
        dev_spec, dev_inv = ptp_spectrum_deviation(problem)
        ok = dev_spec <= _PTP_TOL and dev_inv <= _PTP_TOL
        if not ok:
            failures.append(
                f"stacked-basis spectrum: deviations {dev_spec:.3e}, {dev_inv:.3e}"
            )
        emit(f"stacked-basis spectrum: {'ok' if ok else 'FAIL'}")
    return failures
