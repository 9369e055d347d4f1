"""Config validation, problem ingestion, and report serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebounds import cli
from saddlebounds.bounds import applicable_bounds, general_rank_optimal_gamma, optimal_gamma
from saddlebounds.errors import ParameterOutOfRangeError, StructureError, ZeroAngleError
from saddlebounds.harness import certify, gamma_sweep, log_gamma_grid, oracle
from saddlebounds.mmio import format_matrix_market, write_matrix_market
from saddlebounds.problems import gen_remark, gen_toy
from saddlebounds.reporting import (
    BOUNDS_CSV_HEADER,
    RunConfig,
    bounds_to_csv,
    envelope_to_json,
    read_problem,
    report_envelope,
    size_line_order,
    write_report,
)


def toy_files(tmp_path):
    p = gen_toy(0.6, 0.8)
    pa = tmp_path / "A.mtx"
    pb = tmp_path / "B.mtx"
    write_matrix_market(pa, p.A.array, symmetric=True)
    write_matrix_market(pb, p.B.array)
    return p, str(pa), str(pb)


def toy_envelope(sweep=False):
    p = gen_toy(0.6, 0.8)
    cfg = RunConfig()
    reports = applicable_bounds(p, gamma=1.0)
    orc = oracle(p)
    certs = [certify(r, orc) for r in reports]
    sw = gamma_sweep(p, log_gamma_grid(1e-2, 1e2, 5)) if sweep else None
    env = report_envelope(p, cfg, reports, certs, sweep=sw, oracle_result=orc,
                          source={"A": "A.mtx", "B": "B.mtx"})
    return env, reports, certs, sw


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.rel_tol is None
        assert cfg.gamma_points == 25

    def test_fixed_values_are_recorded_not_settable(self):
        recorded = toy_envelope()[0]["config"]
        for name in ("angle_tol", "cert_slack", "output_format", "seed", "size_cap"):
            assert recorded[name] == getattr(RunConfig(), name)
            with pytest.raises(TypeError):
                RunConfig(**{name: getattr(RunConfig, name)})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"gamma_min": 2.0, "gamma_max": 1.0},
            {"gamma_min": 0.0},
            {"gamma_points": 1},
            # NaN reaches these from the command line (--relTol nan)
            {"rel_tol": float("nan")},
            {"gamma_max": float("nan")},
            {"rel_tol": float("inf")},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        # RunConfig checks rel_tol, log_gamma_grid the grid: the two checks
        # the CLI runs before it reads a file
        with pytest.raises(ParameterOutOfRangeError):
            cfg = RunConfig(**kwargs)
            log_gamma_grid(cfg.gamma_min, cfg.gamma_max, cfg.gamma_points)


class TestReadProblem:
    def test_separate_files(self, tmp_path):
        p, pa, pb = toy_files(tmp_path)
        q = read_problem({"A": pa, "B": pb})
        assert (q.n, q.m) == (2, 1)
        assert np.array_equal(q.A.array, p.A.array)
        assert np.array_equal(q.B.array, p.B.array)

    def test_whole_matrix_with_split(self, tmp_path):
        p = gen_toy(0.6, 0.8)
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, p.k_matrix, symmetric=True)
        q = read_problem({"K": str(pk), "n": 2})
        assert (q.n, q.m) == (2, 1)
        np.testing.assert_allclose(q.A.array, p.A.array, atol=0)
        np.testing.assert_allclose(q.B.array, p.B.array, atol=0)

    def test_rejects_nonzero_trailing_block(self, tmp_path):
        p = gen_toy(0.6, 0.8)
        k = np.array(p.k_matrix)
        k[2, 2] = 1e-3
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, k, symmetric=True)
        with pytest.raises(StructureError, match="trailing"):
            read_problem({"K": str(pk), "n": 2})

    def test_rejects_asymmetric_off_diagonal(self, tmp_path):
        p = gen_toy(0.6, 0.8)
        k = np.array(p.k_matrix)
        k[0, 2] += 1e-3  # only the upper copy
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, k)
        with pytest.raises(StructureError, match="transpose"):
            read_problem({"K": str(pk), "n": 2})

    def test_rejects_split_out_of_range(self, tmp_path):
        p = gen_toy(0.6, 0.8)
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, p.k_matrix, symmetric=True)
        with pytest.raises(StructureError, match="split index"):
            read_problem({"K": str(pk), "n": 3})

    def test_rejects_non_square_k(self, tmp_path):
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, np.ones((3, 4)))
        with pytest.raises(StructureError, match=r"^K file must be square, got shape \(3, 4\)$"):
            read_problem({"K": str(pk), "n": 2})
        assert size_line_order({"K": str(pk), "n": 2}) is None

    @pytest.mark.parametrize("missing", ["K", "A", "B"])
    def test_size_line_order_of_a_missing_file_is_none(self, tmp_path, missing):
        # read_problem then reports the missing file
        _, pa, pb = toy_files(tmp_path)
        gone = str(tmp_path / "missing.mtx")
        source = {"K": gone, "n": 2} if missing == "K" else {"A": pa, "B": pb, missing: gone}
        assert size_line_order(source) is None
        with pytest.raises(FileNotFoundError):
            read_problem(source)

    @pytest.mark.parametrize("n, refusal", [
        (3.7, "must be an integer, got 3.7"),
        ("3", "must be a real number, got str"),
        (True, "must be a real number, got bool"),
    ])
    def test_split_index_must_be_an_integer(self, tmp_path, n, refusal):
        # judged before the file is opened: it does not exist
        source = {"K": str(tmp_path / "missing.mtx"), "n": n}
        for judge in (read_problem, size_line_order):
            with pytest.raises(ParameterOutOfRangeError, match=f"^split index n {refusal}$"):
                judge(source)

    @pytest.mark.parametrize("n", [3.0, np.float64(3.0), np.int32(3)])
    def test_integral_split_index_reads_as_an_integer(self, tmp_path, n):
        p = gen_remark(0.5)
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, p.k_matrix, symmetric=True)
        q = read_problem({"K": str(pk), "n": n})
        assert (q.n, q.m) == (3, 2)
        assert np.array_equal(q.A.array, read_problem({"K": str(pk), "n": 3}).A.array)
        assert size_line_order({"K": str(pk), "n": n}) == 5

    def test_blank_lines_before_the_size_line_are_skipped(self, tmp_path):
        p = gen_remark(0.5)
        banner, rest = format_matrix_market(p.k_matrix, symmetric=True).split("\n", 1)
        pk = tmp_path / "K.mtx"
        pk.write_text(f"{banner}\n% c\n\n  \t\n{rest}")
        assert size_line_order({"K": str(pk), "n": 3}) == 5
        assert np.array_equal(read_problem({"K": str(pk), "n": 3}).A.array, p.A.array)

    @pytest.mark.parametrize("rel_tol", [-1.0, 0.0, float("inf"), float("nan")])
    def test_rel_tol_is_checked_before_the_structure(self, tmp_path, rel_tol):
        p = gen_remark(0.5)
        pk = tmp_path / "K.mtx"
        write_matrix_market(pk, p.k_matrix, symmetric=True)
        _, pa, pb = toy_files(tmp_path)
        for source in ({"K": str(pk), "n": p.n}, {"A": pa, "B": pb}):
            with pytest.raises(ParameterOutOfRangeError, match="^rel_tol must be"):
                read_problem(source, rel_tol=rel_tol)

    def test_wraps_validation_failures(self, tmp_path):
        pa = tmp_path / "A.mtx"
        pb = tmp_path / "B.mtx"
        write_matrix_market(pa, np.diag([1.0, 0.0, 0.0]), symmetric=True)
        write_matrix_market(pb, np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(StructureError, match="invalid saddle problem"):
            read_problem({"A": str(pa), "B": str(pb)})


class TestEnvelope:
    def test_structure_and_stability(self):
        env, *_ = toy_envelope()
        text = envelope_to_json(env)
        assert text == envelope_to_json(env)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["problem"]["n"] == 2
        assert parsed["certification"]["performed"]
        assert parsed["certification"]["all_sound"]
        names = [b["name"] for b in parsed["bounds"]]
        assert names[0] == "rusten-winther"
        assert "wbound" in names and "agamma" in names
        assert parsed["bounds"][0]["intervals"]["positive"][0] == 0.0
        assert parsed["sweep"] is None

    def test_json_types_are_plain(self):
        env, *_ = toy_envelope(sweep=True)
        # a stray numpy scalar anywhere would make dumps raise
        json.dumps(env)
        rows = env["sweep"]["rows"]
        assert len(rows) == 5
        assert set(rows[0]) == {
            "gamma", "inv_gamma", "mu_min_A_gamma",
            "predicted_bound", "actual_min_pos_eig",
        }

    def test_flags_serialize_as_json_booleans(self):
        env, *_ = toy_envelope()
        text = json.dumps(env)
        assert env["certification"]["all_sound"] is True
        assert env["certification"]["inertia_ok"] is True
        assert all(b["assumptions_met"] in (True, False) for b in env["bounds"])
        assert '"all_sound": true' in text

    def test_vacuous_counts_as_sound_overall(self):
        env, _, certs, _ = toy_envelope()
        statuses = {c.status for c in certs}
        assert "vacuous" in statuses  # the interval report on singular A
        assert env["certification"]["all_sound"]

    def test_zero_angle_warning_travels_to_envelope(self):
        p = gen_remark(0.5)
        cfg = RunConfig()
        reports = applicable_bounds(p)
        orc = oracle(p)
        certs = [certify(r, orc) for r in reports]
        env = report_envelope(p, cfg, reports, certs, oracle_result=orc)
        general = [b for b in env["bounds"] if b["name"] == "general-rank"]
        assert general and "zero-angle" in general[0]["warnings"]


class TestCsvAndFiles:
    def test_bounds_csv_shape(self):
        env, reports, _, _ = toy_envelope()
        text = bounds_to_csv(env)
        lines = text.strip().split("\n")
        assert lines[0] == BOUNDS_CSV_HEADER
        assert len(lines) == len(reports) + 1
        first = lines[1].split(",")
        assert first[0] == "rusten-winther"
        assert first[5] == "vacuous-positive-lower"

    def test_write_report_files_and_determinism(self, tmp_path):
        env, _, _, sw = toy_envelope(sweep=True)
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        w1 = write_report(str(d1), env, sweep=sw, output_format="csv")
        w2 = write_report(str(d2), env, sweep=sw, output_format="csv")
        assert [p.rsplit("/", 1)[1] for p in w1] == ["report.json", "sweep.csv", "bounds.csv"]
        for a, b in zip(w1, w2):
            with open(a, "rb") as one, open(b, "rb") as two:
                assert one.read() == two.read()

    def test_write_report_json_only(self, tmp_path):
        env, _, _, _ = toy_envelope()
        written = write_report(str(tmp_path / "r"), env)
        assert len(written) == 1
        assert written[0].endswith("report.json")


def reference_json(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def corpus_envelopes(corpus):
    """The bound (auto-gamma) and sweep envelopes of every corpus member."""
    cfg = RunConfig()
    grid = log_gamma_grid(cfg.gamma_min, cfg.gamma_max, cfg.gamma_points)
    for label, p in corpus:
        try:
            gamma = optimal_gamma(p) if p.is_lowest_rank else general_rank_optimal_gamma(p)
        except ZeroAngleError:
            gamma = None
        reports = applicable_bounds(p, gamma=gamma)
        orc = oracle(p)
        certs = [certify(r, orc) for r in reports]
        source = {"instance": label}
        yield report_envelope(p, cfg, reports, certs, oracle_result=orc, source=source)
        yield report_envelope(p, cfg, reports, certs, sweep=gamma_sweep(p, grid),
                              oracle_result=orc, source=source)


# keys with quotes, backslashes, control and non-ASCII characters
json_keys = st.text(alphabet=st.sampled_from('ab"\\\x00\x1f\n\t\x7f\xe9\u2028\U0001f600'),
                    max_size=4) | st.text(max_size=4)
json_floats = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300,
                       -1e300])
    | st.floats(allow_nan=True).map(np.float64)
)
json_leaves = (
    st.none() | st.booleans() | st.text(max_size=6) | json_floats
    | st.integers() | st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=20,
)


class LoudInt(int):
    def __repr__(self):
        return "loud"


class LoudFloat(float):
    def __repr__(self):
        return "loud"


class TestJsonWriter:
    @settings(max_examples=300)
    @given(value=json_values)
    def test_matches_json_dumps(self, value):
        assert envelope_to_json(value) == reference_json(value)

    # the explicit ids are the ones these cases had when the non-str-key
    # cases (value7, value8, value15) still sat in this list
    @pytest.mark.parametrize("value", [
        {}, [], {"a": {}}, {"a": []}, [[]], ("x", 1), {"t": (1.5, None)},
        np.float64(-0.0), pytest.param({"f": np.float64(1e-310)}, id="value10"),
        2**100, True, "\u00e9\x00\"",
        pytest.param([LoudInt(7), LoudFloat(0.5), LoudFloat("nan")], id="value14"),
    ])
    def test_edge_cases_match_json_dumps(self, value):
        assert envelope_to_json(value) == reference_json(value)

    def test_numpy_gamma_in_details_matches_json_dumps(self):
        # the bounds report the float they checked gamma as, so a numpy
        # gamma leaves no numpy value in the envelope
        p = gen_toy(0.6, 0.8)
        env = report_envelope(p, RunConfig(), applicable_bounds(p, gamma=np.float64(1.0)))
        assert type(env["bounds"][5]["details"]["gamma"]) is float  # wbound's gamma
        assert non_json_values(env) == []
        assert envelope_to_json(env) == reference_json(env)

    # json.dumps writes these keys as text; no envelope holds one, and the
    # writer refuses them, naming the type of the first key in sorted order
    @pytest.mark.parametrize("value, key_type", [
        ({2: "int key", 1.5: "float key", True: "bool", float("nan"): "nan"}, "bool"),
        ({None: "none"}, "NoneType"),
        ({LoudInt(3): 1, LoudFloat(2.5): 2}, "LoudFloat"),
    ])
    def test_rejects_non_string_keys(self, value, key_type):
        with pytest.raises(TypeError, match=f"^keys must be str, not {key_type}$"):
            envelope_to_json(value)

    @pytest.mark.parametrize("value", [
        np.float32(1.5), {"a": [np.float32(1.5)]}, {1, 2}, object(), np.int64(3),
        {"a": {(1, 2): 3}}, {1: "a", "b": 2},
    ])
    def test_rejects_what_json_dumps_rejects(self, value):
        with pytest.raises(TypeError):
            reference_json(value)
        with pytest.raises(TypeError):
            envelope_to_json(value)

    def test_every_corpus_envelope_matches_json_dumps(self, corpus):
        count = 0
        for env in corpus_envelopes(corpus):
            assert envelope_to_json(env) == reference_json(env)
            count += 1
        assert count == 2 * len(corpus)


JSON_SCALARS = (str, int, float, bool, type(None))


def non_json_values(value, path="$"):
    """Paths under ``value`` that hold anything but a dict with str keys,
    a list, or a scalar of an exact JSON type."""
    if type(value) is dict:
        bad = [f"{path}: key {key!r}" for key in value if type(key) is not str]
        for key, item in value.items():
            bad += non_json_values(item, f"{path}.{key}")
        return bad
    if type(value) is list:
        return [p for i, item in enumerate(value) for p in non_json_values(item, f"{path}[{i}]")]
    return [] if type(value) in JSON_SCALARS else [f"{path}: {type(value).__name__}"]


class TestEnvelopeValues:
    """Envelopes are written as built, with no conversion pass; what goes
    in must already be a plain JSON value."""

    def test_walk_flags_numpy_values_and_tuples(self):
        env = {"a": [1, np.float64(2.0)], "b": (1,), 3: None, "c": {"d": np.int64(1)}}
        assert non_json_values(env) == [
            "$: key 3", "$.a[1]: float64", "$.b: tuple", "$.c.d: int64",
        ]

    def test_every_corpus_envelope_holds_only_json_types(self, corpus):
        count = 0
        for env in corpus_envelopes(corpus):
            assert non_json_values(env) == [], env["problem"]["source"]
            count += 1
        assert count == 2 * len(corpus)

    @pytest.mark.parametrize("command, extra", [
        ("bound", ["--A", "A.mtx", "--B", "B.mtx", "--auto-gamma"]),
        ("sweep", ["--A", "A.mtx", "--B", "B.mtx", "--points", "9"]),
        ("bound", ["--K", "K.mtx", "--n", "2"]),
        ("bound", ["--A", "A.mtx", "--B", "B.mtx", "--csv"]),
    ])
    def test_cli_report_holds_only_json_types(self, tmp_path, monkeypatch, command, extra):
        p, _, _ = toy_files(tmp_path)
        write_matrix_market(tmp_path / "K.mtx", p.k_matrix, symmetric=True)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "rep"
        rc = cli.main([command, *extra, "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert non_json_values(json.loads((out / "report.json").read_text())) == []
