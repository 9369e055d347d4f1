"""Command-line interface: subcommand flows and exit codes."""

import contextlib
import json
import os
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import forbid_parsing
from saddlebounds import bounds, cli, harness
from saddlebounds.bounds import saddle_matrix
from saddlebounds.errors import (
    ConvergenceError,
    ParameterOutOfRangeError,
    ParseError,
    RankAssumptionError,
    SizeCapError,
    StructureError,
    ZeroAngleError,
)
from saddlebounds.harness import MAX_GAMMA_POINTS, SWEEP_CSV_HEADER
from saddlebounds.mmio import read_matrix_market, write_matrix_market
from saddlebounds.problems import gen_ipm_like, gen_toy
from saddlebounds.reporting import BOUNDS_CSV_HEADER, RunConfig, read_problem


def generate_toy(tmp_path):
    out = tmp_path / "prob"
    rc = cli.main([
        "generate", "--family", "toy",
        "--params", '{"b1": 0.6, "b2": 0.8}',
        "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    return str(out / "A.mtx"), str(out / "B.mtx"), out


class TestGenerate:
    def test_writes_matrices_and_spec(self, tmp_path, capsys):
        pa, pb, out = generate_toy(tmp_path)
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed == [str(out / "A.mtx"), str(out / "B.mtx"), str(out / "spec.json")]
        spec = json.loads((out / "spec.json").read_text())
        assert spec == {"family": "toy-2x2",
                        "parameters": {"b1": 0.6, "b2": 0.8}, "seed": 0}

    def test_full_family_name_accepted(self, tmp_path):
        rc = cli.main([
            "generate", "--family", "remark-3x3",
            "--params", '{"alpha": 0.5}', "--out", str(tmp_path / "r"),
        ])
        assert rc == cli.EXIT_OK

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        pa1, _, _ = generate_toy(tmp_path / "one")
        pa2, _, _ = generate_toy(tmp_path / "two")
        with open(pa1, "rb") as one, open(pa2, "rb") as two:
            assert one.read() == two.read()

    @pytest.mark.parametrize("params, refusal", [
        ("{", "error: --params is not valid JSON: "),
        ("[1, 2]", "error: --params must be a JSON object\n"),
    ], ids=["not-json", "not-an-object"])
    def test_bad_params_json(self, tmp_path, capsys, params, refusal):
        out = tmp_path / "x"
        rc = cli.main(["generate", "--family", "toy", "--params", params, "--out", str(out)])
        assert rc == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(refusal)
        assert not out.exists()

    def test_failed_qr_is_an_input_error_naming_the_step(self, tmp_path, capsys, monkeypatch):
        # the prescribed-angles family draws its orthogonal frames by QR
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("stubbed")

        monkeypatch.setattr(np.linalg, "qr", failing)
        out = tmp_path / "x"
        rc = cli.main(["generate", "--family", "angles", "--params",
                       json.dumps({"n": 6, "m": 2, "a_eigs": [1, 2, 3, 4], "b_sing_vals": [1, 1],
                                   "thetas": [0.5, 1.0]}),
                       "--seed", "2", "--out", str(out)])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", "error: QR of the seeded Gaussian matrix failed: "
                                           "stubbed\n")
        assert not out.exists()

    def test_missing_parameter(self, tmp_path, capsys):
        rc = cli.main(["generate", "--family", "toy", "--params", '{"b1": 0.6}',
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INPUT
        assert "missing parameters: b2" in capsys.readouterr().err

    def test_out_names_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        rc = cli.main(["generate", "--family", "toy", "--params", '{"b1": 0.6, "b2": 0.8}',
                       "--out", str(target)])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("family, params, name", [
        ("toy", {"b1": "q", "b2": 0.8}, "b1"),
        ("remark", {"alpha": [0.5]}, "alpha"),
        ("angles", {"n": 4, "m": 1, "a_eigs": [1, 2, 3], "b_sing_vals": [1],
                    "thetas": ["a"]}, "thetas"),
        ("ipm", {"n": 8, "m": 3, "delta": "a"}, "delta"),
        ("random", {"n": "x", "m": 2}, "n"),
        # numbers given as strings, which int(), float() and numpy would parse
        ("random", {"n": "12", "m": 5}, "n"),
        ("ipm", {"n": 8, "m": 3, "delta": "0.01"}, "delta"),
        ("angles", {"n": 4, "m": 1, "a_eigs": [1, 2, 3], "b_sing_vals": [1],
                    "thetas": ["0.5"]}, "thetas"),
        # booleans, which int(), float() and numpy would take for 0 and 1,
        # inside lists too, where numpy turns [1, true] into floats
        ("random", {"n": 12, "m": True}, "m"),
        ("ipm", {"n": 8, "m": 3, "delta": False}, "delta"),
        ("angles", {"n": 4, "m": 2, "a_eigs": [1, 2], "b_sing_vals": [1, True],
                    "thetas": [0.5, True]}, "b_sing_vals"),
        ("angles", {"n": 4, "m": 2, "a_eigs": [1, 2], "b_sing_vals": [1, 1],
                    "thetas": [0.5, True]}, "thetas"),
        ("toy", {"b1": True, "b2": 0.0}, "b1"),
        ("remark", {"alpha": True}, "alpha"),
    ])
    def test_mistyped_parameter_is_an_input_error(self, tmp_path, capsys, family, params, name):
        out = tmp_path / "x"
        rc = cli.main(["generate", "--family", family, "--params", json.dumps(params),
                       "--out", str(out)])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: parameter {name} = ")
        assert not out.exists()

    # sizes whose n x n matrix fails before any memory is touched; never
    # test a size that numpy could really allocate
    @pytest.mark.parametrize("n", [100000000, 100000000000000000000])
    def test_unallocatable_size_is_an_input_error(self, tmp_path, capsys, n):
        out = tmp_path / "x"
        rc = cli.main(["generate", "--family", "random", "--params",
                       json.dumps({"n": n, "m": 5}), "--seed", "1", "--out", str(out)])
        assert rc == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: parameter n = {n} is invalid: "
                                f"a {n} x {n} matrix does not fit in memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, params, name", [
        ("random", {"n": 12.9, "m": 5}, "n"),
        ("ipm", {"n": 8, "m": 3.5, "delta": 0.01}, "m"),
        ("angles", {"n": 4.5, "m": 1, "a_eigs": [1, 2, 3], "b_sing_vals": [1],
                    "thetas": [0.5]}, "n"),
    ])
    def test_non_integral_size_is_an_input_error(self, tmp_path, capsys, family, params, name):
        out = tmp_path / "x"
        rc = cli.main(["generate", "--family", family, "--params", json.dumps(params),
                       "--out", str(out)])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: parameter {name} = ")
        assert not out.exists()

    @pytest.mark.parametrize("family, params", [
        ("random", {"n": 12, "m": 5}),
        ("ipm", {"n": 8, "m": 3, "delta": 0.01}),
        ("angles", {"n": 4, "m": 1, "a_eigs": [1, 2, 3], "b_sing_vals": [1], "thetas": [0.5]}),
        ("toy", {"b1": 0.6, "b2": 0.8}),
        ("remark", {"alpha": 0.4}),
    ])
    def test_negative_seed_is_an_input_error(self, tmp_path, capsys, family, params):
        out = tmp_path / "x"
        rc = cli.main(["generate", "--family", family, "--params", json.dumps(params),
                       "--seed", "-1", "--out", str(out)])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr() == (
            "", "error: parameter seed = -1 is invalid: a seed must be >= 0\n"
        )
        assert not out.exists()

    def test_integral_float_size_is_accepted(self, tmp_path):
        out = tmp_path / "x"
        rc = cli.main(["generate", "--family", "random", "--params", '{"n": 12.0, "m": 5.0}',
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "A.mtx").read_text().split("\n")[1].startswith("12 12 ")

    def test_unknown_family_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main(["generate", "--family", "nope", "--out", str(tmp_path / "x")])
        assert info.value.code == 2


class TestBound:
    def test_report_to_directory(self, tmp_path):
        pa, pb, _ = generate_toy(tmp_path)
        out = tmp_path / "rep"
        rc = cli.main(["bound", "--A", pa, "--B", pb, "--gamma", "1.0",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        env = json.loads((out / "report.json").read_text())
        names = [b["name"] for b in env["bounds"]]
        assert names == ["rusten-winther", "lowest-rank", "kernel-angle",
                         "general-rank", "wbound", "agamma"]
        assert env["certification"]["all_sound"]
        assert env["problem"]["source"] == {"A": pa, "B": pb}

    def test_stdout_json_by_default(self, tmp_path, capsys):
        pa, pb, _ = generate_toy(tmp_path)
        capsys.readouterr()
        rc = cli.main(["bound", "--A", pa, "--B", pb])
        assert rc == cli.EXIT_OK
        env = json.loads(capsys.readouterr().out)
        assert env["problem"]["n"] == 2
        assert env["sweep"] is None

    def test_stdout_csv(self, tmp_path, capsys):
        pa, pb, _ = generate_toy(tmp_path)
        capsys.readouterr()
        rc = cli.main(["bound", "--A", pa, "--B", pb, "--csv"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(BOUNDS_CSV_HEADER + "\n")

    def test_csv_to_directory_writes_bounds_csv_beside_report(self, tmp_path, capsys):
        pa, pb, _ = generate_toy(tmp_path)
        capsys.readouterr()
        assert cli.main(["bound", "--A", pa, "--B", pb, "--csv"]) == cli.EXIT_OK
        stdout_csv = capsys.readouterr().out
        out = tmp_path / "rep"
        rc = cli.main(["bound", "--A", pa, "--B", pb, "--csv", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().out.split() == [str(out / "report.json"),
                                                    str(out / "bounds.csv")]
        assert (out / "bounds.csv").read_text() == stdout_csv
        assert json.loads((out / "report.json").read_text())["problem"]["n"] == 2

    def test_csv_to_directory_records_the_csv_format(self, tmp_path):
        pa, pb = tmp_path / "A.mtx", tmp_path / "B.mtx"
        write_matrix_market(pa, np.diag([2.0, 1.0, 0.0]), symmetric=True)
        write_matrix_market(pb, np.array([[0.0, 0.3, 1.0]]))
        out = tmp_path / "rep"
        argv = ["bound", "--A", str(pa), "--B", str(pb), "--gamma", "1", "--csv", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())["config"]["output_format"] == "csv"
        # without --csv the report records json and no bounds.csv is written
        out = tmp_path / "rep-json"
        assert cli.main(argv[:-3] + ["--out", str(out)]) == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())["config"]["output_format"] == "json"
        assert sorted(os.listdir(out)) == ["report.json"]

    def test_over_the_size_cap_certification_is_skipped(self, tmp_path, capsys, monkeypatch):
        pa, pb, _ = generate_toy(tmp_path)
        monkeypatch.setattr(RunConfig, "size_cap", 2)  # the toy K has order 3
        capsys.readouterr()
        assert cli.main(["bound", "--A", pa, "--B", pb, "--gamma", "1"]) == cli.EXIT_OK
        env = json.loads(capsys.readouterr().out)
        assert env["certification"] == {"performed": False}
        assert env["notes"] == ["certification skipped: problem exceeds the oracle size cap"]
        assert all("certification" not in b for b in env["bounds"])
        assert cli.main(["bound", "--A", pa, "--B", pb, "--csv"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.split(",")[3:5] == ["", ""] for row in rows)

    def test_whole_matrix_route(self, tmp_path):
        p = gen_toy(0.6, 0.8)
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, saddle_matrix(p.A.array, p.B.array), symmetric=True)
        rc = cli.main(["bound", "--K", str(pk), "--n", "2"])
        assert rc == cli.EXIT_OK

    def test_k_route_needs_n(self, tmp_path, capsys):
        p = gen_toy(0.6, 0.8)
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, p.k_matrix, symmetric=True)
        rc = cli.main(["bound", "--K", str(pk)])
        assert rc == cli.EXIT_INPUT
        assert "--n" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["bound", "--A", str(tmp_path / "no.mtx"),
                       "--B", str(tmp_path / "nope.mtx")])
        assert rc == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_directory_as_input_file(self, tmp_path, capsys):
        _, pb, out = generate_toy(tmp_path)
        rc = cli.main(["bound", "--A", str(out), "--B", pb])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_oversized_size_line(self, tmp_path, capsys):
        _, pb, _ = generate_toy(tmp_path)
        pa = tmp_path / "huge.mtx"
        pa.write_text("%%MatrixMarket matrix coordinate real general\n"
                      "10000000 10000000 1\n1 1 1.0\n")
        rc = cli.main(["bound", "--A", str(pa), "--B", pb])
        assert rc == cli.EXIT_INPUT
        assert "does not fit in memory (line 2)" in capsys.readouterr().err

    def test_auto_gamma_on_lowest_rank(self, tmp_path):
        pa, pb, _ = generate_toy(tmp_path)
        out = tmp_path / "rep"
        rc = cli.main(["bound", "--A", pa, "--B", pb, "--auto-gamma",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        env = json.loads((out / "report.json").read_text())
        wb = [b for b in env["bounds"] if b["name"] == "wbound"][0]
        assert abs(wb["details"]["gamma"] - 2.5) <= 1e-9
        assert env["notes"] == []

    def test_auto_gamma_fallback_warns(self, tmp_path, capsys):
        out = tmp_path / "prob"
        rc = cli.main(["generate", "--family", "ipm",
                       "--params", '{"n": 8, "m": 3, "delta": 0.01}',
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        rep = tmp_path / "rep"
        rc = cli.main(["bound", "--A", str(out / "A.mtx"), "--B", str(out / "B.mtx"),
                       "--auto-gamma", "--out", str(rep)])
        assert rc == cli.EXIT_OK
        assert "auto-gamma fell back" in capsys.readouterr().err
        env = json.loads((rep / "report.json").read_text())
        assert any("fell back" in note for note in env["notes"])

    def test_json_flag_is_gone(self, tmp_path):
        pa, pb, _ = generate_toy(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(["bound", "--A", pa, "--B", pb, "--json"])
        assert info.value.code == 2

    def test_huge_entries_give_finite_intervals(self, tmp_path, capsys):
        # squaring 2e160 overflows a double; the intervals stay finite
        pa, pb = huge_problem(tmp_path)
        rc = cli.main(["bound", "--A", pa, "--B", pb, "--out", str(tmp_path / "rep")])
        assert rc == cli.EXIT_OK
        env = json.loads((tmp_path / "rep" / "report.json").read_text())
        rw = env["bounds"][0]
        ends = rw["intervals"]["negative"] + rw["intervals"]["positive"]
        assert np.isfinite(ends).all()
        assert env["certification"]["all_sound"]

    def test_huge_entries_raise_no_runtime_warning(self, tmp_path, capsys):
        # sigma_max(B)^2 overflows a double: B^T B is neither formed by the
        # nonsingularity certificate nor, at a refused gamma, by verify
        pa, pb = huge_problem(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["bound", "--A", pa, "--B", pb]) == cli.EXIT_OK
            assert capsys.readouterr().err == ""
            assert cli.main(["verify", "--A", pa, "--B", pb]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: gamma = 0.1 overflows the augmented block\n"

    def test_gamma_flags_are_exclusive(self, tmp_path):
        pa, pb, _ = generate_toy(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(["bound", "--A", pa, "--B", pb, "--gamma", "1", "--auto-gamma"])
        assert info.value.code == 2


def problem_routes(tmp_path):
    """The toy problem as {"ab": --A/--B arguments, "k": --K/--n arguments}."""
    pa, pb, _ = generate_toy(tmp_path)
    p = gen_toy(0.6, 0.8)
    pk = tmp_path / "K.mtx"
    write_matrix_market(pk, saddle_matrix(p.A.array, p.B.array), symmetric=True)
    return {"ab": ["--A", pa, "--B", pb], "k": ["--K", str(pk), "--n", "2"]}


COMMAND_ARGS = {"bound": [], "sweep": ["--out", "sw"], "verify": []}


class TestProblemRoute:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    @pytest.mark.parametrize("pick, message", [
        (lambda r: r["ab"] + r["k"], "not both"),
        (lambda r: r["ab"][:2] + r["k"], "not both"),
        (lambda r: r["ab"] + ["--n", "2"], "--n applies only with --K"),
        (lambda r: ["--n", "2"], "need --A and --B"),
    ], ids=["ab-and-k", "a-and-k", "ab-and-n", "n-alone"])
    def test_mixed_or_incomplete_route_exits_2(self, tmp_path, capsys, monkeypatch,
                                               command, pick, message):
        routes = problem_routes(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        rc = cli.main([command, *pick(routes), *COMMAND_ARGS[command]])
        assert rc == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    @pytest.mark.parametrize("route", ["ab", "k"])
    def test_report_source_is_the_dict_read(self, tmp_path, monkeypatch, command, route):
        args = problem_routes(tmp_path)[route]
        read = []

        def recording(source, rel_tol=None, size_cap=None):
            read.append(source)
            return read_problem(source, rel_tol, size_cap)

        monkeypatch.setattr(cli, "read_problem", recording)
        out = tmp_path / "rep"
        assert cli.main([command, *args, "--out", str(out)]) == cli.EXIT_OK
        source = json.loads((out / "report.json").read_text())["problem"]["source"]
        assert read == [source]
        expected = {"A": args[1], "B": args[3]} if route == "ab" else {"K": args[1], "n": 2}
        assert source == expected


class TestSweep:
    def test_writes_csv_and_envelope(self, tmp_path):
        pa, pb, _ = generate_toy(tmp_path)
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--A", pa, "--B", pb, "--gamma-min", "1e-2",
                       "--gamma-max", "1e2", "--points", "9", "--out", str(out)])
        assert rc == cli.EXIT_OK
        text = (out / "sweep.csv").read_text()
        assert text.startswith(SWEEP_CSV_HEADER + "\n")
        assert len(text.strip().split("\n")) == 10
        env = json.loads((out / "report.json").read_text())
        assert env["sweep"]["crossing_index"] is not None
        assert len(env["sweep"]["rows"]) == 9

    def test_bad_grid(self, tmp_path, capsys):
        pa, pb, _ = generate_toy(tmp_path)
        rc = cli.main(["sweep", "--A", pa, "--B", pb, "--gamma-min", "10",
                       "--gamma-max", "1", "--out", str(tmp_path / "sw")])
        assert rc == cli.EXIT_INPUT
        assert "gamma" in capsys.readouterr().err

    def test_failed_stacked_eigensolve_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        pa, pb, _ = generate_toy(tmp_path)
        original = np.linalg.eigvalsh

        def failing_on_stacks(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_stacks)
        capsys.readouterr()
        rc = cli.main(["sweep", "--A", pa, "--B", pb, "--out", str(tmp_path / "sw")])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: eigensolve of the augmented blocks failed: Eigenvalues did not converge\n"
        )


class TestRunSettings:
    """Bad run settings exit 2 with one error line, before any file is read."""

    @pytest.mark.parametrize("command, args, err", [
        ("sweep", ["--points", "1"], "need at least 2 gamma grid points, got 1"),
        ("sweep", ["--gamma-min", "10", "--gamma-max", "1"],
         "need 0 < gamma_min < gamma_max, got 10.0, 1.0"),
        ("sweep", ["--gamma-min", "nan"], "need 0 < gamma_min < gamma_max, got nan, 10000.0"),
        ("bound", ["--relTol", "-1"], "rel_tol must be positive, got -1.0"),
        ("sweep", ["--relTol", "-1"], "rel_tol must be positive, got -1.0"),
        ("verify", ["--relTol", "-1"], "rel_tol must be positive, got -1.0"),
        ("bound", ["--relTol", "inf"], "rel_tol must be finite, got inf"),
        ("sweep", ["--relTol", "inf"], "rel_tol must be finite, got inf"),
        ("verify", ["--relTol", "inf"], "rel_tol must be finite, got inf"),
    ])
    @pytest.mark.parametrize("route", ["ab", "k"])
    def test_rejected_with_the_same_message(self, tmp_path, capsys, monkeypatch,
                                            command, args, err, route):
        routes = problem_routes(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        rc = cli.main([command, *routes[route], *args, *COMMAND_ARGS[command]])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not (tmp_path / "sw").exists()

    def test_grid_is_checked_before_the_files(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.mtx")
        rc = cli.main(["sweep", "--A", missing, "--B", missing, "--points", "1",
                       "--out", str(tmp_path / "sw")])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: need at least 2 gamma grid points, got 1\n"

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_rel_tol_is_checked_before_the_files(self, tmp_path, capsys, monkeypatch, command):
        missing = str(tmp_path / "missing.mtx")
        monkeypatch.chdir(tmp_path)
        rc = cli.main([command, "--A", missing, "--B", missing, "--relTol", "inf",
                       *COMMAND_ARGS[command]])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", "error: rel_tol must be finite, got inf\n")

    @pytest.mark.parametrize("gamma_max", ["inf", "1.7976931348623157e308"])
    def test_non_finite_grid_is_checked_before_the_files(self, tmp_path, capsys, gamma_max):
        # the last point of the second grid overflows to inf
        missing = str(tmp_path / "missing.mtx")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["sweep", "--A", missing, "--B", missing, "--gamma-max", gamma_max,
                           "--out", str(tmp_path / "sw")])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", "error: gamma grid values must be finite and positive\n")

    def test_too_many_points_are_refused_at_once(self, tmp_path, capsys):
        pa, pb, _ = generate_toy(tmp_path)
        capsys.readouterr()
        start = time.perf_counter()
        rc = cli.main(["sweep", "--A", pa, "--B", pb, "--points", "100000000",
                       "--out", str(tmp_path / "big")])
        assert time.perf_counter() - start < 5.0
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"error: need at most {MAX_GAMMA_POINTS} gamma grid points, got 100000000\n"
        )
        assert not (tmp_path / "big").exists()

    def test_largest_grid_is_accepted(self, tmp_path):
        pa, pb, _ = generate_toy(tmp_path)
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--A", pa, "--B", pb, "--points", str(MAX_GAMMA_POINTS),
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert len((out / "sweep.csv").read_text().splitlines()) == MAX_GAMMA_POINTS + 1


def huge_problem(tmp_path):
    pa = tmp_path / "A.mtx"
    pb = tmp_path / "B.mtx"
    write_matrix_market(pa, 1e160 * np.diag([2.0, 1.0, 0.0]), symmetric=True)
    write_matrix_market(pb, 1e160 * np.array([[0.0, 0.3, 1.0]]))
    return str(pa), str(pb)


class TestVerify:
    def test_toy_passes(self, tmp_path, capsys):
        # the toy is lowest-rank: every line at the default gammas, and no
        # stacked-basis line
        pa, pb, _ = generate_toy(tmp_path)
        capsys.readouterr()
        rc = cli.main(["verify", "--A", pa, "--B", pb])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines() == [
            *self.TOY_HEAD,
            "soundness wbound (gamma=0.1): sound (slack 4.504e-01)",
            "soundness agamma (gamma=0.1): sound (slack 4.721e-01)",
            "soundness wbound (gamma=1): sound (slack 1.121e-01)",
            "soundness agamma (gamma=1): sound (slack 1.121e-01)",
            "soundness wbound (gamma=10): sound (slack 4.121e-01)",
            "soundness agamma (gamma=10): sound (slack 4.121e-01)",
            "all invariants hold",
        ]
        assert not any(line.startswith("stacked-basis") for line in out.splitlines())
        assert out.endswith("(slack 4.121e-01)\nall invariants hold\n")

    def test_single_gamma(self, tmp_path, capsys):
        pa, pb, _ = generate_toy(tmp_path)
        capsys.readouterr()
        rc = cli.main(["verify", "--A", pa, "--B", pb, "--gamma", "2.5"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "gamma=2.5" in out

    def test_violations_set_exit_code(self, tmp_path, capsys, monkeypatch):
        pa, pb, _ = generate_toy(tmp_path)
        monkeypatch.setattr(cli, "run_verification", lambda *a, **k: ["fabricated"])
        rc = cli.main(["verify", "--A", pa, "--B", pb])
        assert rc == cli.EXIT_VIOLATION
        assert "violation: fabricated" in capsys.readouterr().err

    def test_huge_entries_are_an_input_error(self, tmp_path, capsys):
        # the intervals hold; B^T B overflows in the augmented block, whose
        # gamma is refused before any line is printed instead of ending in
        # a traceback
        pa, pb = huge_problem(tmp_path)
        capsys.readouterr()
        rc = cli.main(["verify", "--A", pa, "--B", pb])
        assert rc == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma = 0.1 overflows the augmented block\n"

    def test_one_slack_per_run(self, monkeypatch):
        # containment and soundness both read the run's cert_slack
        seen = []

        def recording(check):
            def wrapped(*args):
                seen.append((check.__name__, args[2:]))
                return check(*args)
            return wrapped

        for name in ("containment_violations", "certify"):
            monkeypatch.setattr(harness, name, recording(getattr(harness, name)))
        cli.run_verification(gen_toy(0.6, 0.8), (1.0,), cert_slack=1e-6, emit=lambda line: None)
        assert {name for name, _ in seen} == {"containment_violations", "certify"}
        assert all(slack == (1e-6,) for _, slack in seen)

    # the lines verify prints on the toy before those of its gammas
    TOY_HEAD = [
        "inertia counts: ok",
        "interval containment: ok",
        "soundness rusten-winther: vacuous (slack 5.121e-01)",
        "soundness lowest-rank: sound (slack 1.121e-01)",
        "soundness kernel-angle: sound (slack 1.121e-01)",
        "soundness general-rank: sound (slack 1.121e-01)",
    ]

    @classmethod
    def toy_lines(cls, gamma_tag, weighted_slack):
        """Every line verify prints on the toy at one gamma, in order; the
        toy is lowest-rank, and no line is the stacked-basis check's."""
        return [
            *cls.TOY_HEAD,
            f"soundness wbound (gamma={gamma_tag}): sound (slack {weighted_slack})",
            f"soundness agamma (gamma={gamma_tag}): sound (slack {weighted_slack})",
        ]

    def test_run_verification_reports_each_check(self, tmp_path):
        # the checks of the bounds against the oracle, and no line of a
        # check of LAPACK: neither the inverse identity nor the stacked basis
        p = gen_toy(0.6, 0.8)
        lines = []
        failures = cli.run_verification(p, (1.0,), emit=lines.append)
        assert failures == []
        assert lines == self.toy_lines("1", "1.121e-01")
        assert not any(line.startswith("stacked-basis") for line in lines)

    # the toy's oracle result doctored into each failure verify reports:
    # the failures, and the line of the check that found them
    DOCTORED = {
        "inertia": (lambda o: replace(o, pos_count=1, neg_count=2, inertia_ok=False),
                    ["inertia: expected 2 positive / 1 negative, got 1 / 2"],
                    "inertia counts: FAIL"),
        # 2 lies above the top 1.618 of the Rusten-Winther positive interval
        "containment": (lambda o: replace(o, all_eigs=np.concatenate(([2.0], o.all_eigs[1:]))),
                        ["containment: 1 eigenvalues outside the intervals"],
                        "interval containment: FAIL"),
        # every angle bound and both weighted bounds at gamma = 1 read 0.4
        "soundness": (lambda o: replace(o, mu_min_plus=0.3),
                      [f"soundness: {name} = 4.000000e-01 exceeds mu_min_plus(K) = 3.000000e-01"
                       for name in ("lowest-rank", "kernel-angle", "general-rank", "wbound",
                                    "agamma")],
                      "soundness lowest-rank: violated (slack -1.000e-01)"),
    }

    @classmethod
    def doctor(cls, monkeypatch, check):
        """Make ``harness.oracle`` return its result doctored to fail ``check``."""
        real = harness.oracle
        monkeypatch.setattr(harness, "oracle",
                            lambda *args: cls.DOCTORED[check][0](real(*args)))

    @pytest.mark.parametrize("check", DOCTORED)
    def test_each_failed_check_is_a_violation(self, tmp_path, capsys, monkeypatch, check):
        _, failures, line = self.DOCTORED[check]
        pa, pb, _ = generate_toy(tmp_path)
        self.doctor(monkeypatch, check)
        lines = []
        assert cli.run_verification(gen_toy(0.6, 0.8), (1.0,), emit=lines.append) == failures
        assert line in lines
        capsys.readouterr()
        # at the default gammas too, the failures are the same
        rc = cli.main(["verify", "--A", pa, "--B", pb])
        assert rc == cli.EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.err == "".join(f"violation: {failure}\n" for failure in failures)
        assert line in captured.out.splitlines()
        assert "all invariants hold" not in captured.out

    def test_containment_reads_the_report_that_carries_intervals(self, monkeypatch):
        # not the first report: with applicable_bounds' list reversed, the
        # Rusten-Winther intervals are still the ones checked
        listed = harness.applicable_bounds
        monkeypatch.setattr(harness, "applicable_bounds",
                            lambda *args, **kwargs: listed(*args, **kwargs)[::-1])
        p = gen_toy(0.6, 0.8)
        lines = []
        assert cli.run_verification(p, (1.0,), emit=lines.append) == []
        assert "interval containment: ok" in lines
        self.doctor(monkeypatch, "containment")
        _, failures, line = self.DOCTORED["containment"]
        lines = []
        assert cli.run_verification(p, (1.0,), emit=lines.append) == failures
        assert line in lines

    def test_holds_where_the_augmented_condition_explodes(self):
        # at gamma = 1e14 the toy's K_gamma has condition 1e28; verify
        # reads only A_gamma there, and every check holds
        p = gen_toy(0.6, 0.8)
        lines = []
        failures = cli.run_verification(p, (1e14,), emit=lines.append)
        assert failures == []
        assert lines == self.toy_lines("1e+14", "5.121e-01")
        assert not any(line.startswith("stacked-basis") for line in lines)

    def test_ill_conditioned_gamma_on_the_readme_problem(self, tmp_path, capsys):
        # the console smoke test's call: K_gamma is ill-conditioned at 1e10
        files = readme_problem(tmp_path)
        capsys.readouterr()
        assert cli.main(["verify", *files, "--gamma", "1e10"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        # the problem is lowest-rank, and verify prints no stacked-basis line
        assert out.splitlines() == [
            "inertia counts: ok",
            "interval containment: ok",
            "soundness rusten-winther: vacuous (slack 3.106e-01)",
            "soundness lowest-rank: sound (slack 2.244e-01)",
            "soundness kernel-angle: sound (slack 2.244e-01)",
            "soundness general-rank: sound (slack 2.244e-01)",
            "soundness wbound (gamma=1e+10): sound (slack 3.106e-01)",
            "soundness agamma (gamma=1e+10): sound (slack 3.106e-01)",
            "all invariants hold",
        ]
        assert not any(line.startswith("stacked-basis") for line in out.splitlines())
        assert out.endswith("(slack 3.106e-01)\nall invariants hold\n")

    def test_exits_0_where_only_the_inverse_identity_failed(self, tmp_path, capsys):
        # a valid problem whose inverse-identity residual, 4.8e-8 at
        # gamma = 10, is above 1e-8: verify checks the bounds, not LAPACK's
        # inverses
        out = tmp_path / "prob"
        assert cli.main(["generate", "--family", "random", "--params",
                         '{"n": 200, "m": 80}', "--seed", "103", "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["verify", "--A", str(out / "A.mtx"), "--B", str(out / "B.mtx")]) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("all invariants hold\n")


def readme_problem(tmp_path):
    """The README's generated instance: random-lowest-rank, n = 12, m = 5,
    seed 3, with sigma_max(B)^2 = 33.7."""
    out = tmp_path / "prob"
    rc = cli.main(["generate", "--family", "random", "--params", '{"n": 12, "m": 5}',
                   "--seed", "3", "--out", str(out)])
    assert rc == cli.EXIT_OK
    return ["--A", str(out / "A.mtx"), "--B", str(out / "B.mtx")]


class TestIntegerFile:
    def test_real_values_under_an_integer_banner_are_an_input_error(self, tmp_path, capsys):
        files = readme_problem(tmp_path)
        pa = tmp_path / "prob" / "A.mtx"
        pa.write_text(pa.read_text().replace(" real ", " integer ", 1))
        capsys.readouterr()
        assert cli.main(["verify"] + files) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expected an integer, got ")
        assert captured.err.count("\n") == 1


class TestGammaRefusal:
    """A gamma is refused once, by the augmented block's check, before a
    command prints anything or writes a file."""

    @pytest.mark.parametrize("argv, gamma", [
        (["bound", "--gamma", "1e308"], "1e+308"),
        (["verify", "--gamma", "1e307"], "1e+307"),
        (["sweep", "--gamma-min", "1", "--gamma-max", "1e308", "--points", "3"], "1e+308"),
    ], ids=["bound", "verify", "sweep"])
    def test_overflowing_gamma_is_an_input_error(self, tmp_path, capsys, argv, gamma):
        args = readme_problem(tmp_path) + ["--out", str(tmp_path / "out")] * (argv[0] == "sweep")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv + args)
        assert rc == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gamma = {gamma} overflows the augmented block\n"
        assert not (tmp_path / "out").exists()

    def test_verify_zero_gamma_on_singular_a_prints_nothing(self, tmp_path, capsys):
        args = readme_problem(tmp_path)
        capsys.readouterr()
        rc = cli.main(["verify", "--gamma", "0"] + args)
        assert rc == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: augmented block is not positive definite: ")
        assert captured.err.count("\n") == 1


def over_cap_files(tmp_path):
    """A 1500-by-1500 A and a 600-by-1500 B (K of order 2100, above the
    default cap of 2000) whose data sections are cut short, and the same
    K as one file: only the size lines are whole."""
    pa = tmp_path / "A.mtx"
    pb = tmp_path / "B.mtx"
    pk = tmp_path / "K.mtx"
    pa.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                  "1500 1500 1125750\n1 1 1.0\n2 1 0.")
    pb.write_text("%%MatrixMarket matrix coordinate real general\n"
                  "600 1500 900000\n1 1 0.5\n1 2")
    pk.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                  "2100 2100 2025750\n1 1 1.0\n2 1")
    return {"A/B": ["--A", str(pa), "--B", str(pb)], "K": ["--K", str(pk), "--n", "1500"]}


class TestSizeLines:
    """sweep and verify need the oracle, so an order above the size cap is
    refused from the size line of B (or K) before any data is read."""

    @pytest.mark.parametrize("route", ["A/B", "K"])
    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_over_cap_is_refused_before_the_data(self, tmp_path, capsys, command, route):
        argv = [command] + over_cap_files(tmp_path)[route]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "sw")]
        start = time.perf_counter()
        rc = cli.main(argv)
        assert time.perf_counter() - start < 5.0
        assert rc == cli.EXIT_SIZE_CAP
        assert capsys.readouterr().err == "error: K has order 2100, above the size cap 2000\n"
        assert not (tmp_path / "sw").exists()

    def test_bound_still_reads_the_data(self, tmp_path, capsys):
        # bound reports bounds above the cap, so the cut data is a parse error
        rc = cli.main(["bound"] + over_cap_files(tmp_path)["A/B"])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("size_line", [
        "600 1400",  # K of order 2000, at the cap: B's cut data is read
        "1600 1500",  # more rows than columns: no saddle problem
    ])
    def test_size_lines_of_no_saddle_problem_are_left_to_the_read(self, tmp_path, capsys,
                                                                  size_line):
        files = over_cap_files(tmp_path)
        (tmp_path / "B.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                        f"{size_line} 1\n1 1 0.5\n1 2")
        rc = cli.main(["verify"] + files["A/B"])
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")


@contextlib.contextmanager
def piped(path):
    """``/dev/fd/N`` of a pipe that a thread feeds with the bytes of
    ``path``, as bash passes ``<(cat path)``."""
    r, w = os.pipe()
    data = path.read_bytes()

    def feed():
        # a stream that is never read (A behind a refused B) breaks the
        # pipe, as it ends bash's cat
        with contextlib.suppress(BrokenPipeError), os.fdopen(w, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)  # a writer left blocked gets a broken pipe, not a hang
        feeder.join(timeout=10)
    assert not feeder.is_alive()


class TestStreams:
    """A stream is read once, by the read of the problem: sweep and verify
    give what the regular file gives."""

    @pytest.fixture
    def prob(self, tmp_path):
        out = tmp_path / "prob"
        assert cli.main(["generate", "--family", "random", "--params", '{"n": 30, "m": 12}',
                         "--seed", "3", "--out", str(out)]) == cli.EXIT_OK
        return out

    def test_verify(self, prob, capsys):
        capsys.readouterr()
        assert cli.main(["verify", "--A", str(prob / "A.mtx"), "--B", str(prob / "B.mtx")]) == 0
        want = capsys.readouterr()
        with piped(prob / "A.mtx") as pa:
            assert cli.main(["verify", "--A", pa, "--B", str(prob / "B.mtx")]) == cli.EXIT_OK
        assert capsys.readouterr() == want

    def test_sweep(self, prob, tmp_path, capsys):
        file_out, pipe_out = tmp_path / "file", tmp_path / "pipe"
        assert cli.main(["sweep", "--A", str(prob / "A.mtx"), "--B", str(prob / "B.mtx"),
                         "--out", str(file_out)]) == cli.EXIT_OK
        with piped(prob / "A.mtx") as pa:
            assert cli.main(["sweep", "--A", pa, "--B", str(prob / "B.mtx"),
                             "--out", str(pipe_out)]) == cli.EXIT_OK
        assert (pipe_out / "sweep.csv").read_bytes() == (file_out / "sweep.csv").read_bytes()
        file_env, pipe_env = (json.loads((d / "report.json").read_text())
                              for d in (file_out, pipe_out))
        assert pipe_env["problem"].pop("source") == {"A": pa, "B": str(prob / "B.mtx")}
        file_env["problem"].pop("source")
        assert pipe_env == file_env

    @pytest.mark.parametrize("route", ["A/B", "K"])
    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_over_cap_stream_is_refused_from_its_size_line(self, prob, tmp_path, capsys,
                                                           monkeypatch, stub_linalg,
                                                           command, route):
        # B (or K) is read first, so the stream is refused before any of its
        # data is parsed, and before any eigensolve or SVD
        write_matrix_market(prob / "K.mtx", saddle_matrix(read_matrix_market(prob / "A.mtx"),
                                                          read_matrix_market(prob / "B.mtx")),
                            symmetric=True)
        monkeypatch.setattr(RunConfig, "size_cap", 40)
        stub_linalg()
        forbid_parsing(monkeypatch)
        capsys.readouterr()
        out = tmp_path / "sw"
        out_args = ["--out", str(out)] if command == "sweep" else []
        with piped(prob / {"A/B": "B.mtx", "K": "K.mtx"}[route]) as stream:
            files = {"A/B": ["--A", str(prob / "A.mtx"), "--B", stream],
                     "K": ["--K", stream, "--n", "30"]}[route]
            rc = cli.main([command, *files, *out_args])
        assert rc == cli.EXIT_SIZE_CAP
        assert capsys.readouterr() == ("", "error: K has order 42, above the size cap 40\n")
        assert not out.exists()

    @pytest.mark.parametrize("route", ["A/B", "K"])
    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_header_only_over_cap_stream_is_refused(self, tmp_path, capsys, monkeypatch,
                                                    stub_linalg, command, route):
        # banner and size line only, every file on a pipe
        headers = {"A": "coordinate real symmetric\n1500 1500 1125750",
                   "B": "coordinate real general\n600 1500 900000",
                   "K": "coordinate real symmetric\n2100 2100 5"}
        for name, header in headers.items():
            (tmp_path / f"{name}.mtx").write_text(f"%%MatrixMarket matrix {header}\n")
        stub_linalg()
        forbid_parsing(monkeypatch)
        out = tmp_path / "sw"
        out_args = ["--out", str(out)] if command == "sweep" else []
        with contextlib.ExitStack() as stack:
            stream = {name: stack.enter_context(piped(tmp_path / f"{name}.mtx"))
                      for name in headers}
            files = {"A/B": ["--A", stream["A"], "--B", stream["B"]],
                     "K": ["--K", stream["K"], "--n", "1500"]}[route]
            rc = cli.main([command, *files, *out_args])
        assert rc == cli.EXIT_SIZE_CAP
        assert capsys.readouterr() == ("", "error: K has order 2100, above the size cap 2000\n")
        assert not out.exists()


class TestUndecidedKAboveTheCap:
    """bound reads the whole problem above the cap, but construction never
    eigensolves a K there: where the certificate cannot decide, it exits 3."""

    def bound_argv(self, tmp_path):
        p = gen_ipm_like(12, 5, 1.0, seed=3)
        pa, pb = tmp_path / "A.mtx", tmp_path / "B.mtx"
        write_matrix_market(pa, p.A.array, symmetric=True)
        write_matrix_market(pb, p.B.array)
        # 1e-15 is below n eps, where the certificate declines
        return ["bound", "--A", str(pa), "--B", str(pb), "--relTol", "1e-15"]

    def test_exits_three_above_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "DEFAULT_SIZE_CAP", 16)
        assert cli.main(self.bound_argv(tmp_path)) == cli.EXIT_SIZE_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: K has order 17, above the size cap 16; only its dense "
                                "eigensolve could show it nonsingular\n")

    def test_bounds_at_the_real_cap(self, tmp_path, capsys):
        assert cli.main(self.bound_argv(tmp_path)) == cli.EXIT_OK
        env = json.loads(capsys.readouterr().out)
        assert env["certification"]["performed"]


class TestExitCodes:
    def test_size_cap_maps_to_three(self, tmp_path, monkeypatch):
        pa, pb, _ = generate_toy(tmp_path)

        def boom(*a, **k):
            raise SizeCapError("too big")

        monkeypatch.setattr(cli, "gamma_sweep", boom)
        rc = cli.main(["sweep", "--A", pa, "--B", pb, "--out", str(tmp_path / "sw")])
        assert rc == cli.EXIT_SIZE_CAP

    @pytest.mark.parametrize("error, code", [
        (SizeCapError, cli.EXIT_SIZE_CAP),
        (ParseError, cli.EXIT_INPUT),
        (StructureError, cli.EXIT_INPUT),
        (ParameterOutOfRangeError, cli.EXIT_INPUT),
        (ZeroAngleError, cli.EXIT_INPUT),
        (RankAssumptionError, cli.EXIT_INPUT),
        (ConvergenceError, cli.EXIT_INPUT),
        (OSError, cli.EXIT_INPUT),
    ])
    def test_error_type_maps_to_exit_code(self, monkeypatch, capsys, error, code):
        def raising(args):
            raise error("stubbed failure")

        monkeypatch.setattr(cli, "cmd_verify", raising)
        rc = cli.main(["verify", "--A", "a.mtx", "--B", "b.mtx"])
        assert rc == code
        assert capsys.readouterr().err == "error: stubbed failure\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert "saddlebounds" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["bound", "--gamma", "1"],
        ["bound", "--gamma", "1", "--out", "rep"],
        ["verify"],
    ], ids=["bound", "bound-out", "verify"])
    def test_nan_entry_is_an_input_error(self, tmp_path, capsys, argv):
        pa = tmp_path / "A.mtx"
        pa.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                      "3 3 2\n1 1 1.0\n2 2 nan\n")
        pb = tmp_path / "B.mtx"
        write_matrix_market(pb, np.array([[0.0, 0.3, 1.0]]))
        out = tmp_path / "rep"
        argv = [str(out) if arg == "rep" else arg for arg in argv]
        rc = cli.main([*argv, "--A", str(pa), "--B", str(pb)])
        assert rc == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix contains NaN or Inf entries\n"
        assert not out.exists()

    def test_structure_error_maps_to_two(self, tmp_path, capsys):
        pa = tmp_path / "A.mtx"
        pb = tmp_path / "B.mtx"
        write_matrix_market(pa, np.diag([1.0, 0.0, 0.0]), symmetric=True)
        write_matrix_market(pb, np.array([[1.0, 0.0, 0.0]]))
        rc = cli.main(["bound", "--A", str(pa), "--B", str(pb)])
        assert rc == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: saddle matrix is numerically singular: ")
        assert "invalid saddle problem" not in err
