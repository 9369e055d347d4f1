"""The exact soundness referee of ``exact.py``: the bounds ``bound``
reports on the small corpus members are proven in integers, with no
floating-point oracle, and the referee's own edges."""

import numpy as np
import pytest

import exact
from saddlebounds.bounds import applicable_bounds, general_rank_optimal_gamma, optimal_gamma
from saddlebounds.errors import AugmentedBlockSingularError, ZeroAngleError
from saddlebounds.harness import oracle

# largest order n + m refereed here; the 28 larger corpus members take
# about ten times as long as the 186 smaller ones together
MAX_ORDER = 40


def largest_reported_bound(problem):
    """The largest positive bound ``bound`` reports: with --auto-gamma,
    or at gamma = 1 where there is no finite auto-gamma gamma or wbound
    refuses it."""
    try:
        if problem.is_lowest_rank:
            gamma = optimal_gamma(problem)
        else:
            gamma = general_rank_optimal_gamma(problem)
        reports = applicable_bounds(problem, gamma=gamma)
    except (ZeroAngleError, AugmentedBlockSingularError):
        reports = applicable_bounds(problem, gamma=1.0)
    return max(r.value for r in reports if r.value > 0.0)


def proven(problem, v):
    return exact.proves_lower_bound(problem.A.array, problem.B.array, v)


def test_the_largest_reported_bound_is_proven(corpus):
    # proving the largest bound proves every smaller one
    small = [(label, p) for label, p in corpus if p.n + p.m <= MAX_ORDER]
    assert len(small) == 186
    assert [label for label, p in small if not proven(p, largest_reported_bound(p))] == []


def test_a_bound_equal_to_the_smallest_positive_eigenvalue(corpus):
    # each remark member's bound is mu_min_plus(K) to the last bit: it is
    # proven, and the next float above it is not
    remarks = [(label, p) for label, p in corpus if label.startswith("remark")]
    assert len(remarks) == 5
    for label, p in remarks:
        v = largest_reported_bound(p)
        assert v == oracle(p).mu_min_plus, label
        assert proven(p, v), label
        assert not proven(p, float(np.nextafter(v, np.inf))), label


def test_dependent_rows_of_b_are_refused():
    a = np.diag([1.0, 1.0, 0.0])
    b = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    # with the first row alone, K's spectrum is {1, 1, 1, -1}
    assert exact.proves_lower_bound(a, b[:1], 0.5)
    # S_v = diag(0.25, 0.25, 4.75) is definite at v = 0.5; B B^T is singular
    with pytest.raises(ValueError, match="linearly dependent"):
        exact.proves_lower_bound(a, b, 0.5)
