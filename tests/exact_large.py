"""The exact referee on the members ``test_exact.py`` leaves out for time:
the 28 corpus members of order n + m above its MAX_ORDER, and the scale
ladder's members at 1e60 and 1e160. Its name does not match test_*.py,
so the tier-1 run does not collect it; CI runs it as its own step:

    PYTHONPATH=src:tests python -m pytest -q tests/exact_large.py
"""

import pytest

import hard
from test_exact import MAX_ORDER, largest_reported_bound, prove_hard_member, proven

LARGE_SCALE_HARD = ("random-30x12-s1-1e60", "random-30x12-s1-1e160")


def test_the_largest_reported_bound_is_proven_on_the_large_members(corpus):
    large = [(label, p) for label, p in corpus if p.n + p.m > MAX_ORDER]
    assert len(large) == 28
    assert [label for label, p in large if not proven(p, largest_reported_bound(p))] == []


@pytest.mark.parametrize("member", hard.members(LARGE_SCALE_HARD), ids=lambda m: m.label)
def test_the_large_scale_hard_members_bounds_are_proven(member):
    prove_hard_member(member)
