"""The exact soundness referee of ``exact.py``: the bounds ``bound``
reports on the small corpus members, on the small hard members and on
random wide-range problems are proven in integers, with no
floating-point oracle, and the referee's own edges. The larger corpus
members and the two large-scale hard members are refereed in
``exact_large.py``, which the tier-1 run does not collect."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact
import hard
from saddlebounds.bounds import (
    SaddleProblem,
    applicable_bounds,
    general_rank_optimal_gamma,
    optimal_gamma,
)
from saddlebounds.errors import (
    AugmentedBlockSingularError,
    ParameterOutOfRangeError,
    SaddleBoundsError,
    ZeroAngleError,
)
from saddlebounds.harness import oracle
from saddlebounds.problems import gen_prescribed_angles

# largest order n + m refereed here; the 28 larger corpus members take
# about ten times as long as the 186 smaller ones together
MAX_ORDER = 40

# the tests/hard.py members with n <= 30; the scale ladder's members at
# 1e60 and 1e160 take seconds each, and are refereed in exact_large.py
SMALL_HARD = (
    "random-20x8-s303", "random-30x12-s13", "random-30x12-s220", "random-30x12-s346",
    *(f"angles-theta=1e-{k}" for k in range(1, 8)),
    *(f"random-30x12-s1-1e{k}" for k in (-160, -12, -10, 10)),
    "diag-1e160", "diag-1e-160",
)

# what wbound raises where it refuses a gamma: a singular augmented block,
# or a gamma whose block would overflow
WBOUND_REFUSALS = (AugmentedBlockSingularError, ParameterOutOfRangeError)


def auto_gamma(problem):
    """The gamma ``bound --auto-gamma`` picks."""
    if problem.is_lowest_rank:
        return optimal_gamma(problem)
    return general_rank_optimal_gamma(problem)


def largest_bound(problem, gamma=None):
    """The largest positive bound ``bound`` reports at ``gamma``, or of
    the bounds without gamma."""
    return max(r.value for r in applicable_bounds(problem, gamma=gamma) if r.value > 0.0)


def largest_reported_bound(problem):
    """The largest positive bound ``bound`` reports: with --auto-gamma,
    or at gamma = 1 where there is no finite auto-gamma gamma or wbound
    refuses it."""
    try:
        return largest_bound(problem, auto_gamma(problem))
    except (ZeroAngleError, AugmentedBlockSingularError):
        return largest_bound(problem, 1.0)


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


def largest_auto_gamma_bound(problem):
    """The largest positive bound at the auto-gamma gamma. Where wbound
    refuses that gamma, its angle bound 1/gamma joins the bounds without
    gamma: the value a proof that mu_min(A_gamma) > 1/gamma would report
    (ROADMAP item 2)."""
    gamma = auto_gamma(problem)
    try:
        return largest_bound(problem, gamma)
    except WBOUND_REFUSALS:
        return max(largest_bound(problem), 1.0 / gamma)


def prove_hard_member(member):
    """Prove the largest positive bound at gamma = 1, of the bounds without
    gamma where wbound refuses it, and the largest at the auto-gamma gamma."""
    p = SaddleProblem(*member.build())
    try:
        at_one = largest_bound(p, 1.0)
    except WBOUND_REFUSALS:
        at_one = largest_bound(p)
    assert proven(p, at_one), "gamma = 1"
    assert proven(p, largest_auto_gamma_bound(p)), "auto-gamma"


@pytest.mark.parametrize("member", hard.members(SMALL_HARD), ids=lambda m: m.label)
def test_the_hard_members_bounds_are_proven(member):
    prove_hard_member(member)


@pytest.mark.parametrize("member", [m.param() for m in hard.RIGHT_ANGLE])
def test_the_auto_gamma_bound_near_a_right_angle_is_proven(member):
    p = SaddleProblem(*member.build())
    assert proven(p, largest_auto_gamma_bound(p))


@settings(max_examples=100)
@given(st.data())
def test_every_auto_gamma_bound_is_proven(data):
    # the wide-range draw of ROADMAP item 2's finding; wbound at a fixed
    # gamma is left out, as hard.FIXED_GAMMA_WBOUND pins its defect
    n = data.draw(st.integers(3, 10), label="n")
    m = data.draw(st.integers(1, n // 2), label="m")
    a_eigs = 10.0 ** np.array(data.draw(st.lists(st.floats(-4, 4), min_size=n - m,
                                                 max_size=n - m), label="log10 a_eigs"))
    b_sing = 10.0 ** np.array(data.draw(st.lists(st.floats(-3, 3), min_size=m, max_size=m),
                                        label="log10 b_sing_vals"))
    thetas = np.sort(10.0 ** np.array(data.draw(
        st.lists(st.floats(-4, math.log10(math.pi / 2)), min_size=m, max_size=m),
        label="log10 thetas")))
    seed = data.draw(st.integers(0, 2**16), label="seed")
    # within 1e-6 of a right angle the angle bounds come within rounding of
    # mu_min_plus(K): hard.RIGHT_ANGLE pins that, as strict xfails
    assume(thetas[0] < math.pi / 2 - 1e-6)
    try:
        p = gen_prescribed_angles(n, m, a_eigs, b_sing, thetas, seed)
    except SaddleBoundsError:
        assume(False)
    # Rusten-Winther, the angle bounds, and wbound and agamma at the
    # auto-gamma gamma; where wbound refuses it, 1/gamma, which is at
    # least agamma there
    assert proven(p, largest_auto_gamma_bound(p))


def test_dependent_rows_of_b_are_refused():
    a = np.diag([1.0, 1.0, 0.0])
    b = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    # with the first row alone, K's spectrum is {1, 1, 1, -1}
    assert exact.proves_lower_bound(a, b[:1], 0.5)
    # S_v = diag(0.25, 0.25, 4.75) is definite at v = 0.5; B B^T is singular
    with pytest.raises(ValueError, match="linearly dependent"):
        exact.proves_lower_bound(a, b, 0.5)
