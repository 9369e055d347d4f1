"""Hard problems for the tier-1 suite: named members built from the
generators and their seeds, each checked by ``test_hard.py`` or
``test_exact.py`` for the outcome a correct system gives.

The members are kept apart from ``conftest.build_corpus``, so the
acceptance corpus and its bytes stay as they are. A member that fails
today is a strict xfail naming the error its check raises: a fix that
makes it pass fails the run until its mark is removed.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from saddlebounds.errors import AugmentedBlockSingularError, ParameterOutOfRangeError
from saddlebounds.problems import gen_ipm_like, gen_prescribed_angles, gen_random_lowest_rank


@dataclass(frozen=True)
class Member:
    """One hard problem. ``build()`` returns its (A, B); ``today`` is the
    error its check raises on this code, None when the check passes;
    ``theta_min`` is the smallest prescribed angle, where there is one."""

    label: str
    build: Callable
    today: type = None
    why: str = ""
    theta_min: float = None

    def param(self, why=None):
        """The member as a pytest parameter; ``why``, where given, is the
        xfail reason of a check that fails on it for another cause."""
        marks = ()
        if self.today is not None:
            marks = pytest.mark.xfail(raises=self.today, strict=True, reason=why or self.why)
        return pytest.param(self, id=self.label, marks=marks)


def _arrays(problem, scale=1.0):
    return scale * problem.A.array, scale * problem.B.array


def random_member(n, m, seed, scale_exp=0, **kwargs):
    """random-lowest-rank (n, m, seed), scaled by 10**scale_exp."""
    label = f"random-{n}x{m}-s{seed}" + (f"-1e{scale_exp}" if scale_exp else "")
    return Member(label, lambda: _arrays(gen_random_lowest_rank(n, m, seed), 10.0**scale_exp),
                  **kwargs)


def angle_ladder_member(k, **kwargs):
    """prescribed-angles, n = 12, m = 4, unit spectra, theta_min = 10**-k."""
    thetas = np.array([10.0**-k, 0.6, 0.9, 1.2])
    return Member(f"angles-theta=1e-{k}",
                  lambda: _arrays(gen_prescribed_angles(12, 4, np.ones(8), np.ones(4), thetas, 1)),
                  theta_min=thetas[0], **kwargs)


_AUTO_GAMMA_REFUSED = dict(
    today=AugmentedBlockSingularError,
    why="mu_min(A_gamma) <= rel_tol * mu_max(A_gamma) at the auto-gamma gamma",
)

# wbound at the auto-gamma gamma returns and certifies sound
AUTO_GAMMA = [
    *(random_member(n, m, seed, **_AUTO_GAMMA_REFUSED)
      for n, m, seed in [(20, 8, 303), (30, 12, 13), (30, 12, 220), (30, 12, 346),
                         (400, 160, 3), (400, 160, 14), (400, 160, 17), (400, 160, 23)]),
    Member("ipm-400x160-d0.01-s14", lambda: _arrays(gen_ipm_like(400, 160, 1e-2, 14)),
           **_AUTO_GAMMA_REFUSED),
    *(angle_ladder_member(k) for k in range(1, 4)),
    *(angle_ladder_member(k, **_AUTO_GAMMA_REFUSED) for k in range(4, 8)),
]

# rho of the smallest range angle is within 1e-8 relative of 2 sin^2(theta/2)
ANGLE_LADDER = [
    *(angle_ladder_member(k) for k in range(1, 5)),
    *(angle_ladder_member(k, today=AssertionError, why="1 - cos(theta) cancels")
      for k in range(5, 8)),
]


def _extreme_member(scale_exp, **kwargs):
    """A = 1e±160 diag(2, 1, 0), B = 1e±160 [0 0.3 1]."""
    s = 10.0**scale_exp
    return Member(f"diag-1e{scale_exp}",
                  lambda: (s * np.diag([2.0, 1.0, 0.0]), s * np.array([[0.0, 0.3, 1.0]])),
                  **kwargs)


_ABSOLUTE_GAMMAS = dict(today=AugmentedBlockSingularError,
                        why="verify's default gammas are absolute, not in problem units")
_OVERFLOW = dict(today=ParameterOutOfRangeError,
                 why="gamma = 0.1 overflows the augmented block")

# verify on written files exits 0 with every check ok
SCALE_LADDER = [
    *(random_member(30, 12, 1, k, **_ABSOLUTE_GAMMAS) for k in (-160, -12, -10, 10, 60)),
    random_member(30, 12, 1, 160, **_OVERFLOW),
    _extreme_member(160, **_OVERFLOW),
    _extreme_member(-160, **_ABSOLUTE_GAMMAS),
]

# the inverse-identity residual at verify's gammas 0.1, 1 and 10 is at
# most 1e-8
INVERSE_IDENTITY = [
    random_member(400, 160, seed, today=AssertionError,
                  why="the residual exceeds the absolute 1e-8 tolerance")
    for seed in (3, 14, 17)
]


def wide_range_draw(index):
    """(A, B) of draw ``index`` of the wide-range prescribed-angles stream:
    rng seed 12345, and per draw n in [3, 10], m in [1, n // 2], A's
    eigenvalues 10^U(-4, 4), B's singular values 10^U(-3, 3) and the sorted
    angles 10^U(-4, log10(pi / 2)); the generator seed is the draw index."""
    rng = np.random.default_rng(12345)
    for _ in range(index + 1):
        n = rng.integers(3, 11)
        m = rng.integers(1, n // 2 + 1)
        a_eigs = 10 ** rng.uniform(-4, 4, n - m)
        b_sing = 10 ** rng.uniform(-3, 3, m)
        thetas = np.sort(10 ** rng.uniform(-4, math.log10(math.pi / 2), m))
    return _arrays(gen_prescribed_angles(n, m, a_eigs, b_sing, thetas, seed=index))


# wbound at gamma = 1, its leading-block term active, is proven by the
# exact referee. Exact bisection puts mu_min_plus(K) below the reported
# value by 6.9e-14 relative on draw 0 (an eigenvector of A lies in ker B,
# so mu_min_plus(K) is an eigenvalue of A), and by 2.3e-4, 8.5e-4 and
# 4.2e-5 on draws 23, 46 and 96
FIXED_GAMMA_WBOUND = [
    Member(f"wide-range-draw-{i}", lambda i=i: wide_range_draw(i), today=AssertionError,
           why="the leading-block value is a floating eigenvalue of A_gamma, "
               "above mu_min_plus(K) by rounding")
    for i in (0, 23, 46, 96)
]


# the default 25-point sweep reports mu_min(A_gamma) >= 0, A_gamma being
# positive semidefinite. Rows 23 and 24 are negative: -5.9e-12 and -5.8e-11
# on draw 23, -1.7e-9 and -8.1e-10 on draw 46, among the rows where wbound
# would refuse A_gamma as numerically singular (18-24 and 16-24)
SWEEP_SEMIDEFINITE = [
    Member(f"wide-range-draw-{i}", lambda i=i: wide_range_draw(i), today=AssertionError,
           why="a floating eigenvalue of a numerically singular A_gamma rounds below zero")
    for i in (23, 46)
]

# the default sweep grid [1e-4, 1e4] brackets the crossing of 1/gamma and
# mu_min(A_gamma). Here mu_min_plus(K) = 1.7e-6, and the leading-block term
# is active at all 25 points
DEFAULT_GRID_CROSSING = [
    random_member(400, 160, 3, today=AssertionError,
                  why="mu_min_plus(K) < 1e-4 puts the crossing past the grid's top"),
]


def _right_angle_member(label, a_eigs, theta_min):
    """prescribed-angles, m = 1, B's singular value 1, seed 2."""
    return Member(label, lambda: _arrays(gen_prescribed_angles(
        len(a_eigs) + 1, 1, np.array(a_eigs), np.ones(1), np.array([theta_min]), 2)),
        today=AssertionError, theta_min=theta_min,
        why="near a right angle the angle bounds come within rounding of mu_min_plus(K)")


# the largest bound at the auto-gamma gamma is proven by the exact referee.
# At theta_min = pi/2 the angle bound equals mu_min_plus(K) in exact
# arithmetic, and the floating sigma_min(B) rounds one ulp above it; at
# pi/2 - 1e-8 the bound's slack, about 1e-8 relative, is below the error of
# the angle between range(A) and range(B^T) that A's spread spectrum
# allows, and the bound exceeds mu_min_plus(K) by 7.8e-9 relative
RIGHT_ANGLE = [
    _right_angle_member("right-angle-5x1", [1.0, 1.0, 1.0, 10.0], math.pi / 2),
    _right_angle_member("near-right-angle-4x1", [1e-4, 1e4, 1e4], math.pi / 2 - 1e-8),
]


def members(labels):
    """The members named ``labels``, in that order, from the lists above."""
    every = {m.label: m for m in AUTO_GAMMA + ANGLE_LADDER + SCALE_LADDER + INVERSE_IDENTITY}
    return [every[label] for label in labels]
