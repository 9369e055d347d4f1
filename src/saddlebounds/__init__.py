"""Guaranteed eigenvalue bounds for symmetric saddle-point matrices
[[A, B^T], [B, 0]] with singular positive semidefinite leading blocks.

The package computes certified lower bounds on the positive eigenvalues
through augmentation (A + gamma B^T B) and through the principal angles
between range(A) and range(B^T), and checks every bound against a dense
eigenvalue oracle.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    SaddleProblem,
    SpectralSummary,
    agamma_bound,
    applicable_bounds,
    general_rank_bound,
    general_rank_optimal_gamma,
    kernel_angle_bound,
    lowest_rank_bound,
    optimal_gamma,
    rusten_winther,
    wbound,
)
from .errors import (
    AugmentedBlockSingularError,
    ConvergenceError,
    GenerationFailedError,
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
    ParseError,
    ProblemValidationError,
    RankAssumptionError,
    RankDeficientError,
    RankTooLowError,
    SaddleBoundsError,
    SingularKError,
    SizeCapError,
    StructureError,
    ZeroAngleError,
)
from .harness import (
    CertificationOutcome,
    OracleResult,
    SweepResult,
    certify,
    containment_violations,
    gamma_sweep,
    log_gamma_grid,
    oracle,
)
from .linalg import RectMatrix, SymmetricMatrix, kernel_basis_rect, numerical_rank
from .mmio import read_matrix_market, write_matrix_market
from .problems import (
    FAMILIES,
    GeneratorSpec,
    gen_ipm_like,
    gen_prescribed_angles,
    gen_random_lowest_rank,
    gen_remark,
    gen_toy,
    generate_problem,
)
from .reporting import RunConfig, read_problem, report_envelope, write_report
