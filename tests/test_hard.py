"""The hard-problem fixture of ``hard.py``: each member is checked for the
outcome a correct system gives; the ones that fail today are strict xfails."""

import math
import warnings

import numpy as np
import pytest

import exact
import hard
from saddlebounds import cli
from saddlebounds.bounds import (
    BoundReport,
    SaddleProblem,
    general_rank_optimal_gamma,
    optimal_gamma,
    rho_from_angles,
    wbound,
)
from saddlebounds.errors import ParameterOutOfRangeError
from saddlebounds.harness import (
    DEFAULT_VERIFY_GAMMAS,
    certify,
    gamma_sweep,
    inverse_identity_residual,
    log_gamma_grid,
    oracle,
    run_verification,
)
from saddlebounds.mmio import write_matrix_market
from saddlebounds.reporting import RunConfig

# absolute tolerance of the inverse-identity residual
INVERSE_IDENTITY_TOL = 1e-8
# the sweep command's default grid
DEFAULT_GRID = log_gamma_grid(RunConfig.gamma_min, RunConfig.gamma_max, RunConfig.gamma_points)


def problem_of(member):
    return SaddleProblem(*member.build())


@pytest.mark.parametrize("member", [m.param() for m in hard.AUTO_GAMMA])
def test_auto_gamma_wbound_is_sound(member):
    p = problem_of(member)
    gamma = optimal_gamma(p) if p.is_lowest_rank else general_rank_optimal_gamma(p)
    assert certify(wbound(p, gamma), oracle(p)).status == "sound"


@pytest.mark.parametrize("member", [m.param() for m in hard.ANGLE_LADDER])
def test_small_angle_rho_is_accurate(member):
    rho = rho_from_angles(problem_of(member).range_angles)[0]
    exact = 2.0 * math.sin(member.theta_min / 2.0) ** 2
    assert abs(rho - exact) <= 1e-8 * exact


@pytest.mark.parametrize("member", [m.param() for m in hard.SCALE_LADDER])
def test_verify_holds_at_every_scale(member, tmp_path, capsys):
    a, b = member.build()
    pa, pb = tmp_path / "A.mtx", tmp_path / "B.mtx"
    write_matrix_market(pa, a, symmetric=True)
    write_matrix_market(pb, b)
    argv = ["verify", "--A", str(pa), "--B", str(pb)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the subcommand itself, so that an error escapes with its type
        args = cli.build_parser().parse_args(argv)
        assert args.func(args) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.endswith("all invariants hold\n")
        assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("member", hard.members(["random-30x12-s1-1e160", "diag-1e160"]),
                         ids=lambda m: m.label)
def test_an_overflowing_gamma_is_refused_without_a_warning(member):
    # B^T B overflows at this scale; the gamma check refuses before it is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = problem_of(member)
        for refused in (lambda: wbound(p, 1.0), lambda: p.augmented_extremes([1.0]),
                        lambda: gamma_sweep(p, log_gamma_grid(1e-4, 1e4, 25))):
            with pytest.raises(ParameterOutOfRangeError, match="overflows the augmented block"):
                refused()


@pytest.mark.parametrize("member", [m.param() for m in hard.INVERSE_IDENTITY])
def test_inverse_identity_holds(member):
    p = problem_of(member)
    for gamma in DEFAULT_VERIFY_GAMMAS:
        assert inverse_identity_residual(p, gamma) <= INVERSE_IDENTITY_TOL, gamma


@pytest.mark.parametrize("member", [pytest.param(m, id=m.label) for m in hard.INVERSE_IDENTITY])
def test_verify_holds_where_only_the_inverse_identity_fails(member):
    # verify checks the bounds against the oracle, not the identity
    p = problem_of(member)
    assert run_verification(p, DEFAULT_VERIFY_GAMMAS, emit=lambda line: None) == []


@pytest.mark.parametrize("member", [m.param() for m in hard.FIXED_GAMMA_WBOUND])
def test_fixed_gamma_wbound_is_proven(member):
    a, b = member.build()
    assert exact.proves_lower_bound(a, b, wbound(SaddleProblem(a, b), 1.0).value)


@pytest.mark.parametrize("member", [m.param() for m in hard.FIXED_GAMMA_WBOUND])
def test_sweep_predicted_bound_is_proven(member):
    a, b = member.build()
    sweep = gamma_sweep(SaddleProblem(a, b), log_gamma_grid(1e-4, 1e4, 25))
    # the predicted_bound column; a nonpositive value bounds nothing, and
    # the referee refuses it
    refuted = [i for i, row in enumerate(sweep.rows)
               if row[3] > 0 and not exact.proves_lower_bound(a, b, row[3])]
    assert refuted == []


@pytest.mark.parametrize("member", [
    m.param(why="certify's slack is an absolute 1e-8, so it calls a refuted value sound")
    for m in hard.FIXED_GAMMA_WBOUND])
def test_certify_calls_no_refuted_value_sound(member):
    # wbound's values at verify's gammas, formed here from A + gamma B^T B,
    # so that only a change to certify flips this test
    a, b = member.build()
    p = SaddleProblem(a, b)
    orc = oracle(p)
    gammas = np.array(DEFAULT_VERIFY_GAMMAS)
    values = np.minimum(p.augmented_extremes(gammas)[:, 0], 1.0 / gammas).tolist()
    refuted = [g for g, v in zip(DEFAULT_VERIFY_GAMMAS, values)
               if certify(BoundReport("wbound", v), orc).status == "sound"
               and not exact.proves_lower_bound(a, b, v)]
    assert refuted == []


@pytest.mark.parametrize("member", [m.param() for m in hard.SWEEP_SEMIDEFINITE])
def test_default_sweep_reports_no_negative_mu_min(member):
    sweep = gamma_sweep(problem_of(member), DEFAULT_GRID)
    negative = [i for i, mu in enumerate(sweep.mu_min_a_gamma.tolist()) if mu < 0]
    assert negative == []


@pytest.mark.parametrize("member", [m.param() for m in hard.DEFAULT_GRID_CROSSING])
def test_default_sweep_brackets_the_crossing(member):
    assert gamma_sweep(problem_of(member), DEFAULT_GRID).crossing_index is not None
