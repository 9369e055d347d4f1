"""Command-line interface.

Subcommands: bound (compute and certify bounds for one problem), sweep
(tabulate the scalar-weight bound over a gamma grid), generate (write a
seeded family instance to Matrix Market files), verify (run the invariant
suite and fail on any violation). This module parses arguments and prints;
the checks, the verify suite and their tolerances live in ``harness``.

Exit codes: 0 success, 1 invariant violation, 2 input error, 3 size cap.
"""

import argparse
import json
import os
import sys

from . import __version__
from .bounds import applicable_bounds, general_rank_optimal_gamma, optimal_gamma
from .errors import ParameterOutOfRangeError, SaddleBoundsError, SizeCapError
from .harness import (
    DEFAULT_VERIFY_GAMMAS,
    certify,
    gamma_sweep,
    log_gamma_grid,
    oracle,
    run_verification,
)
from .mmio import write_matrix_market
from .problems import FAMILIES, GeneratorSpec, generate_problem
from .reporting import (
    RunConfig,
    bounds_to_csv,
    envelope_to_json,
    read_problem,
    report_envelope,
    write_report,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_SIZE_CAP = 3

_FAMILY_ALIASES = {
    "toy": "toy-2x2",
    "remark": "remark-3x3",
    "angles": "prescribed-angles",
    "ipm": "ipm-like",
    "random": "random-lowest-rank",
}


def _add_problem_args(parser):
    parser.add_argument("--A", metavar="FILE", help="Matrix Market file for the leading block")
    parser.add_argument("--B", metavar="FILE", help="Matrix Market file for the constraint block")
    parser.add_argument("--K", metavar="FILE", help="Matrix Market file for the whole matrix")
    parser.add_argument("--n", type=int, help="leading block order when reading --K")
    parser.add_argument("--relTol", type=float, default=None,
                        help="relative rank tolerance (default: n * machine epsilon)")


def _source(args):
    """The problem's files as report.json's ``source`` records them and
    ``read_problem`` reads them: --A and --B, or --K with --n, never both."""
    if args.K is not None:
        if args.n is None:
            raise ParameterOutOfRangeError("--K needs --n for the leading block order")
        if args.A is not None or args.B is not None:
            raise ParameterOutOfRangeError("give --A and --B, or --K with --n, not both")
        return {"K": args.K, "n": args.n}
    if args.A is None or args.B is None:
        raise ParameterOutOfRangeError("need --A and --B, or --K with --n")
    if args.n is not None:
        raise ParameterOutOfRangeError("--n applies only with --K")
    return {"A": args.A, "B": args.B}


def _certified_envelope(problem, cfg, source, gamma=None, sweep=None, notes=()):
    """The report envelope of the bounds at ``gamma``, each certified against
    the oracle, or with a note saying why not when K is above the size cap."""
    reports = applicable_bounds(problem, gamma=gamma, angle_tol=cfg.angle_tol)
    try:
        oracle_result = oracle(problem, cfg.size_cap)
    except SizeCapError:
        oracle_result = certifications = None
        notes = [*notes, "certification skipped: problem exceeds the oracle size cap"]
    else:
        certifications = [certify(r, oracle_result, cfg.cert_slack) for r in reports]
    return report_envelope(
        problem, cfg, reports, certifications, sweep=sweep,
        oracle_result=oracle_result, source=source, notes=notes,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saddlebounds",
        description="Guaranteed eigenvalue bounds for saddle-point matrices "
        "with singular leading blocks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute and certify bounds for one problem")
    _add_problem_args(p_bound)
    group = p_bound.add_mutually_exclusive_group()
    group.add_argument("--gamma", type=float, help="scalar weight for the augmented bound")
    group.add_argument("--auto-gamma", action="store_true",
                       help="use the gamma that equalizes the angle bound")
    p_bound.add_argument("--csv", action="store_true", help="CSV output instead of JSON")
    p_bound.add_argument("--out", metavar="DIR", help="directory for report files")
    p_bound.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="tabulate the scalar-weight bound over a gamma grid")
    _add_problem_args(p_sweep)
    p_sweep.add_argument("--gamma-min", type=float, default=RunConfig.gamma_min)
    p_sweep.add_argument("--gamma-max", type=float, default=RunConfig.gamma_max)
    p_sweep.add_argument("--points", type=int, default=RunConfig.gamma_points)
    p_sweep.add_argument("--out", metavar="DIR", required=True,
                         help="directory for report files")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("generate", help="write a seeded family instance to files")
    p_gen.add_argument("--family", required=True,
                       choices=sorted(set(_FAMILY_ALIASES) | set(FAMILIES)))
    p_gen.add_argument("--params", default="{}",
                       help="family parameters as a JSON object")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", metavar="DIR", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="run the invariant suite on one problem")
    _add_problem_args(p_verify)
    p_verify.add_argument("--gamma", type=float, default=None,
                          help="check this gamma instead of the default set")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def cmd_bound(args):
    cfg = RunConfig(rel_tol=args.relTol)
    fmt = "csv" if args.csv else "json"
    source = _source(args)
    problem = read_problem(source, cfg.rel_tol)
    notes = []
    gamma = args.gamma
    if args.auto_gamma:
        if problem.is_lowest_rank:
            gamma = optimal_gamma(problem, cfg.angle_tol)
        else:
            gamma = general_rank_optimal_gamma(problem, cfg.angle_tol)
            notes.append(
                "auto-gamma fell back to the split-based formula because "
                f"rank(A) = {problem.summary.rank_a} exceeds n - m = {problem.n - problem.m}"
            )
            print(f"warning: {notes[-1]}", file=sys.stderr)
    envelope = _certified_envelope(problem, cfg, source, gamma=gamma, notes=notes)
    if args.out:
        for path in write_report(args.out, envelope, output_format=fmt):
            print(path)
    elif fmt == "csv":
        sys.stdout.write(bounds_to_csv(envelope))
    else:
        sys.stdout.write(envelope_to_json(envelope))
    return EXIT_OK


def cmd_sweep(args):
    cfg = RunConfig(rel_tol=args.relTol,
                    gamma_min=args.gamma_min, gamma_max=args.gamma_max,
                    gamma_points=args.points)
    # the grid is checked before the problem arguments and files
    grid = log_gamma_grid(cfg.gamma_min, cfg.gamma_max, cfg.gamma_points)
    source = _source(args)
    problem = read_problem(source, cfg.rel_tol, cfg.size_cap)
    sweep = gamma_sweep(problem, grid, size_cap=cfg.size_cap)
    envelope = _certified_envelope(problem, cfg, source, sweep=sweep)
    for path in write_report(args.out, envelope, sweep=sweep):
        print(path)
    return EXIT_OK


def cmd_generate(args):
    family = _FAMILY_ALIASES.get(args.family, args.family)
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ParameterOutOfRangeError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ParameterOutOfRangeError("--params must be a JSON object")
    spec = GeneratorSpec(family, params, args.seed)
    problem = generate_problem(spec)
    os.makedirs(args.out, exist_ok=True)
    path_a = os.path.join(args.out, "A.mtx")
    path_b = os.path.join(args.out, "B.mtx")
    path_spec = os.path.join(args.out, "spec.json")
    write_matrix_market(path_a, problem.A.array, symmetric=True)
    write_matrix_market(path_b, problem.B.array)
    with open(path_spec, "w", encoding="ascii") as fh:
        fh.write(spec.to_json_str())
    for path in (path_a, path_b, path_spec):
        print(path)
    return EXIT_OK


def cmd_verify(args):
    cfg = RunConfig(rel_tol=args.relTol)
    problem = read_problem(_source(args), cfg.rel_tol, cfg.size_cap)
    gammas = (args.gamma,) if args.gamma is not None else DEFAULT_VERIFY_GAMMAS
    failures = run_verification(
        problem, gammas, cfg.cert_slack, cfg.angle_tol, cfg.size_cap
    )
    if failures:
        for failure in failures:
            print(f"violation: {failure}", file=sys.stderr)
        return EXIT_VIOLATION
    print("all invariants hold")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (SaddleBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
