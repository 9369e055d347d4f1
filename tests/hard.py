"""Hard problems for the tier-1 suite: named members built from the
generators and their seeds, each checked by ``test_hard.py`` for the
outcome a correct system gives.

The members are kept apart from ``conftest.build_corpus``, so the
acceptance corpus and its bytes stay as they are. A member that fails
today is a strict xfail naming the error its check raises: a fix that
makes it pass fails the run until its mark is removed.
"""

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

    def param(self):
        marks = ()
        if self.today is not None:
            marks = pytest.mark.xfail(raises=self.today, strict=True, reason=self.why)
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
