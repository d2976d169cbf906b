import hashlib
import json
import math
import re

import pytest

from swipesim import cli
from swipesim.cli import _load_trace_dir, default_behavior, main
from swipesim.retention import build_model, model_from_dict, model_to_json
from swipesim.trace_io import (
    generate_scenario,
    parse_throughput_trace,
    serialize_behavior_traces,
    serialize_throughput_trace,
)


def run_cli(*argv):
    return main(list(argv))


class TestModelBuild:
    def test_builds_one_model_per_category(self, tmp_path):
        csv = tmp_path / "behavior.csv"
        csv.write_text("trace_id,category,total_chunks,swipe_chunk\n"
                       "t1,cat_a,10,5\nt2,cat_a,10,10\nt3,cat_b,8,8\n")
        out = tmp_path / "models"
        assert run_cli("model", "build", str(csv), "--out", str(out)) == 0
        files = sorted(p.name for p in out.glob("*.json"))
        assert files == ["retention_cat_a.json", "retention_cat_b.json"]
        model = model_from_dict(
            json.loads((out / "retention_cat_a.json").read_text()))
        assert model.mass[40] == pytest.approx(0.05)

    def test_default_population_files_are_pinned(self, tmp_path):
        csv = tmp_path / "behavior.csv"
        csv.write_text(serialize_behavior_traces(default_behavior(0)))
        out = tmp_path / "models"
        assert run_cli("model", "build", str(csv), "--out", str(out)) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == {
            "retention_drama.json":
                "806b1fae61fc88f71dba29fd6991311e681a465b1dcfad81a3e2fda434a7d13f",
            "retention_quick.json":
                "740a685a1e6d8aeae435c555d6cd68972b1efc74c1718321286bbc2951485922",
        }

    def test_empty_csv_is_input_error(self, tmp_path):
        csv = tmp_path / "behavior.csv"
        csv.write_text("")
        assert run_cli("model", "build", str(csv), "--out", str(tmp_path / "m")) == 1

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("model", "build", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path)) == 1


class TestGen:
    def test_generates_count_files(self, tmp_path):
        out = tmp_path / "traces"
        assert run_cli("gen", "--scenario", "high", "--seed", "7",
                       "--duration", "60", "--count", "20",
                       "--out", str(out)) == 0
        files = sorted(out.glob("*.csv"))
        assert len(files) == 20
        assert all("high" in f.name and "s" in f.name for f in files)
        trace = parse_throughput_trace(files[0].read_text())
        assert len(trace.samples) == 60

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("gen", "--scenario", "mixed", "--seed", "3",
                    "--duration", "30", "--count", "2", "--out", str(out))
        for fa, fb in zip(sorted(a.glob("*.csv")), sorted(b.glob("*.csv"))):
            assert fa.read_bytes() == fb.read_bytes()

    def test_zero_duration_is_input_error(self, tmp_path, capsys):
        # run and compare generate their traces as gen does
        for argv in (["gen", "--count", "1"], ["run"],
                     ["compare", "--n-scripts", "1", "--n-traces", "1"]):
            for duration in ("0", "nan", "inf"):
                assert run_cli(*argv, "--scenario", "low", "--seed", "3",
                               "--duration", duration,
                               "--out", str(tmp_path)) == 1
                assert ("error: duration must be finite and positive"
                        in capsys.readouterr().err)

    def test_unknown_kind_is_input_error(self, tmp_path):
        assert run_cli("gen", "--scenario", "wild", "--out", str(tmp_path)) == 1


class TestRun:
    def test_single_model_covers_every_category(self, tmp_path):
        # the default catalog has two categories; --model supplies one
        model = tmp_path / "retention_quick.json"
        model.write_text(model_to_json(build_model(default_behavior(0), "quick")))
        assert run_cli("run", "--seed", "5", "--duration", "60",
                       "--model", str(model), "--out", str(tmp_path / "run")) == 0
        out = tmp_path / "cmp"
        assert run_cli("compare", "--strategy", "dtaap", "--scenario", "high",
                       "--seed", "5", "--n-scripts", "2", "--n-traces", "1",
                       "--duration", "60", "--model", str(model),
                       "--out", str(out)) == 0
        assert len((out / "sessions.csv").read_text().splitlines()) == 1 + 2

    def test_emits_session_json(self, tmp_path, capsys):
        assert run_cli("run", "--strategy", "dtaap", "--scenario", "high",
                       "--seed", "5", "--duration", "120") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "dtaap"
        assert payload["videos"]
        assert payload["utility"] == pytest.approx(
            payload["qoe"] - 0.5 * payload["cost_mbit"])

    def test_traces_dir_follows_scenario(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        for name, kind, seed in (("high_00", "high", 1), ("low_00", "low", 2),
                                 ("mixed_00", "mixed", 3)):
            (traces / f"{name}.csv").write_text(serialize_throughput_trace(
                generate_scenario(kind, seed, 120.0)))
        capsys.readouterr()
        for kind in ("low", "mixed", "high"):
            assert run_cli("run", "--seed", "5", "--scenario", kind,
                           "--traces", str(traces)) == 0
            payload = json.loads(capsys.readouterr().out)
            assert (payload["scenario"], payload["trace_id"]) == (
                kind, f"{kind}_00")
        # no trace of the asked-for scenario: exit 1 naming both
        assert run_cli("run", "--seed", "5", "--scenario", "medium",
                       "--traces", str(traces)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"traces {traces}: no trace labelled with scenario 'medium'" in (
            captured.err)
        # a file whose name holds no scenario kind is `custom`, and `run
        # --scenario custom` selects it
        own = tmp_path / "own"
        own.mkdir()
        (own / "trace_highway.csv").write_text(serialize_throughput_trace(
            generate_scenario("high", 4, 120.0)))
        assert run_cli("run", "--seed", "5", "--scenario", "custom",
                       "--traces", str(own)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["scenario"], payload["trace_id"]) == (
            "custom", "trace_highway")
        assert run_cli("run", "--seed", "5", "--traces", str(own)) == 1
        assert f"traces {own}: no trace labelled with scenario 'high'" in (
            capsys.readouterr().err)
        # without --traces there is no custom trace to generate
        assert run_cli("run", "--seed", "5", "--scenario", "custom") == 1
        assert "scenario 'custom' needs --traces" in capsys.readouterr().err

    def test_golden_output(self, capsys):
        # pins one session's per-video results, the only output that prints
        # each video's cost_mbit and waste_mbit
        assert run_cli("run", "--seed", "7", "--strategy", "dtaap",
                       "--scenario", "mixed") == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == (
            "72f7df890cae83df73f8ff6bae66a36143e424d91c128c2e6b1b17d2bc397e0d")


class TestCompare:
    def test_matrix_shape(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("compare", "--strategy", "dtaap,fixb",
                       "--scenario", "high", "--seed", "7",
                       "--n-scripts", "4", "--n-traces", "2",
                       "--duration", "60", "--out", str(out)) == 0
        sessions = (out / "sessions.csv").read_text().strip().splitlines()
        aggregates = (out / "aggregates.csv").read_text().strip().splitlines()
        assert len(sessions) == 1 + 16
        assert len(aggregates) == 1 + 2
        report = json.loads((out / "report.json").read_text())
        assert "manifest_hash" in report and len(report["manifest_hash"]) == 64

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert run_cli("compare", "--strategy", "dtaap,nextone",
                           "--scenario", "low,mixed", "--seed", "13",
                           "--n-scripts", "3", "--n-traces", "2",
                           "--duration", "60", "--out", str(out)) == 0
            outs.append(out)
        for fname in ("sessions.csv", "aggregates.csv", "report.json",
                      "scripts.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_unknown_strategy_lists_valid_names(self, tmp_path, capsys):
        rc = run_cli("compare", "--strategy", "foo", "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert "foo" in err and "dtaap" in err

    def test_scripts_roundtrip(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                       "--seed", "3", "--n-scripts", "2", "--n-traces", "1",
                       "--duration", "60", "--out", str(first)) == 0
        second = tmp_path / "second"
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                       "--seed", "3", "--n-scripts", "2", "--n-traces", "1",
                       "--duration", "60", "--scripts", str(first / "scripts.json"),
                       "--out", str(second)) == 0
        assert ((first / "sessions.csv").read_bytes()
                == (second / "sessions.csv").read_bytes())

    def test_respects_trace_dir(self, tmp_path):
        traces = tmp_path / "traces"
        run_cli("gen", "--scenario", "medium", "--seed", "9",
                "--duration", "60", "--count", "2", "--out", str(traces))
        out = tmp_path / "cmp"
        assert run_cli("compare", "--strategy", "dtaap", "--scenario", "medium",
                       "--seed", "9", "--n-scripts", "2",
                       "--traces", str(traces), "--out", str(out)) == 0
        sessions = (out / "sessions.csv").read_text().strip().splitlines()
        assert len(sessions) == 1 + 2 * 2

    def test_traces_dir_follows_scenario(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        for name, kind, seed in (("high_00", "high", 1), ("low_00", "low", 2),
                                 ("trace_highway", "high", 3)):
            (traces / f"{name}.csv").write_text(serialize_throughput_trace(
                generate_scenario(kind, seed, 60.0)))

        def compare(scenario, out):
            return run_cli("compare", "--strategy", "fixb", "--scenario", scenario,
                           "--seed", "5", "--n-scripts", "1",
                           "--traces", str(traces), "--out", str(out))

        # only the traces labelled with an asked-for kind are simulated, and
        # the manifest lists the same kinds
        for scenario, kinds, rows in (
                ("low", ["low"], [("low", "low_00")]),
                ("custom", ["custom"], [("custom", "trace_highway")]),
                ("custom,high", ["high", "custom"],
                 [("high", "high_00"), ("custom", "trace_highway")])):
            out = tmp_path / scenario
            assert compare(scenario, out) == 0
            report = json.loads((out / "report.json").read_text())
            assert [(r["scenario"], r["trace_id"])
                    for r in report["sessions"]] == rows
            assert report["manifest"]["scenarios"] == kinds
            assert [r["scenario"] for r in report["aggregates"]] == kinds
        capsys.readouterr()
        # no trace of an asked-for kind: exit 1 naming the directory and kinds
        assert compare("medium,mixed", tmp_path / "none") == 1
        assert (f"traces {traces}: no trace labelled with scenario "
                f"'medium' or 'mixed'") in capsys.readouterr().err
        assert not (tmp_path / "none").exists()
        # some asked-for kinds have traces and others none: exit 1 naming
        # only the missing kinds
        assert compare("high,medium", tmp_path / "some") == 1
        assert (f"traces {traces}: no trace labelled with scenario "
                f"'medium'\n") in capsys.readouterr().err
        assert not (tmp_path / "some").exists()
        # without --traces there is no custom trace to generate
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "custom",
                       "--out", str(tmp_path / "gen")) == 1
        assert "scenario 'custom' needs --traces" in capsys.readouterr().err

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w4": 0.0}))
        out = tmp_path / "out"
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                       "--seed", "3", "--n-scripts", "2", "--n-traces", "1",
                       "--duration", "60", "--config", str(cfg),
                       "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["config"]["w4"] == 0.0
        for row in report["sessions"]:
            assert row["utility"] == pytest.approx(row["qoe"])

    def test_bad_config_is_input_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma1": 0.9, "gamma2": 0.2}))
        assert run_cli("compare", "--strategy", "fixb", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 1

    def test_golden_output(self, tmp_path):
        # pins the simulated output: any change to a decision or a score
        # of any strategy changes these digests
        out = tmp_path / "out"
        assert run_cli("compare", "--seed", "11", "--n-scripts", "6",
                       "--n-traces", "4", "--out", str(out)) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("sessions.csv", "aggregates.csv")}
        assert digests == {
            "sessions.csv":
                "650eae1418cfb692a72c8e9ca8d08863cb2c495765822e6577c273b0cf3f9e71",
            "aggregates.csv":
                "bcb650d3a6f60ea8f875ae9ed38f74ed70995d13a815138a067c5832fc2d9ccf",
        }

    @pytest.mark.parametrize("option", ["--catalog", "--scripts"])
    def test_missing_video_field_names_file_entry_and_field(
            self, tmp_path, capsys, option):
        entry = {"id": "v0", "chunk_count": 10, "chunk_duration_s": 1.0,
                 "ladder_kbps": [750, 1200]}
        data = [entry] if option == "--catalog" else {
            "catalog": [entry],
            "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]}]}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                       "--n-scripts", "1", "--n-traces", "1", "--duration", "60",
                       option, str(path), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "entry 0" in err and "'category'" in err

    @pytest.mark.parametrize("option", ["--catalog", "--scripts"])
    @pytest.mark.parametrize("entry, detail", [
        (["v0"], "expected a JSON object"),
        ({"id": "v0", "category": "quick", "chunk_count": 10,
          "chunk_duration_s": 1.0, "ladder_kbps": []},
         "ladder must not be empty"),
    ], ids=["not-an-object", "empty-ladder"])
    def test_bad_video_entry_names_file_and_entry(
            self, tmp_path, capsys, option, entry, detail):
        data = [entry] if option == "--catalog" else {
            "catalog": [entry],
            "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]}]}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                       "--n-scripts", "1", "--n-traces", "1", "--duration", "60",
                       option, str(path), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "entry 0" in err and detail in err

    def test_catalog_that_is_not_a_list_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"a": {"id": "v0"}}))
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                       "--n-scripts", "1", "--n-traces", "1", "--duration", "60",
                       "--catalog", str(path), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert f"catalog {path}: expected a JSON list" in err

    def test_script_with_unknown_video_names_file_script_and_id(
            self, tmp_path, capsys):
        entry = {"id": "v0", "category": "quick", "chunk_count": 10,
                 "chunk_duration_s": 1.0, "ladder_kbps": [750, 1200]}
        path = tmp_path / "scripts.json"
        path.write_text(json.dumps({
            "catalog": [entry],
            "scripts": [
                {"id": "s0", "videos": ["v0"], "swipe_points": [3]},
                {"id": "s1", "videos": ["v0", "v9"], "swipe_points": [3, 3]}]}))
        assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                       "--n-traces", "1", "--duration", "60",
                       "--scripts", str(path), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "script 1" in err and "'v9'" in err


def test_trace_dir_labels_scenario_by_whole_token(tmp_path):
    text = serialize_throughput_trace(generate_scenario("high", 1, 10))
    for stem in ("trace_highway_lowband", "trace_low_s9_000", "medium_03"):
        (tmp_path / f"{stem}.csv").write_text(text)
    labels = {ref.trace_id: ref.scenario for ref in _load_trace_dir(tmp_path)}
    assert labels == {"trace_highway_lowband": "custom",
                      "trace_low_s9_000": "low", "medium_03": "medium"}


@pytest.mark.parametrize("argv, message", [
    (["compare", "--n-scripts", "0"], "--n-scripts must be >= 1"),
    (["compare", "--n-scripts", "-1"], "--n-scripts must be >= 1"),
    (["compare", "--n-traces", "0"], "--n-traces must be >= 1"),
    (["compare", "--scenario", "high,custom"], "scenario 'custom' needs --traces"),
    (["run", "--scenario", "custom"], "scenario 'custom' needs --traces"),
], ids=["n-scripts-0", "n-scripts-negative", "n-traces-0", "compare-custom",
        "run-custom"])
def test_generated_input_option_is_checked(tmp_path, capsys, argv, message):
    # the message names the option, not the empty batch it would make
    out = tmp_path / "out"
    assert run_cli(*argv, "--duration", "10", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_counts_are_not_checked_where_files_replace_them(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / "high_00.csv").write_text(serialize_throughput_trace(
        generate_scenario("high", 1, 60.0)))
    assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                   "--n-scripts", "1", "--n-traces", "0", "--traces", str(traces),
                   "--out", str(tmp_path / "out")) == 0
    assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                   "--n-scripts", "0", "--n-traces", "1", "--duration", "10",
                   "--scripts", str(tmp_path / "out" / "scripts.json"),
                   "--out", str(tmp_path / "again")) == 0


@pytest.mark.parametrize("argv, name", [
    (["compare", "--strategy", "dtaap,fixb,dtaap", "--scenario", "high",
      "--n-scripts", "1", "--n-traces", "1"], "'dtaap'"),
    (["compare", "--strategy", "dtaap", "--scenario", "high, low,high",
      "--n-scripts", "1", "--n-traces", "1"], "'high'"),
    (["gen", "--scenario", "low,low", "--count", "1"], "'low'"),
], ids=["compare-strategy", "compare-scenario", "gen-scenario"])
def test_repeated_name_is_input_error(tmp_path, capsys, argv, name):
    # a repeated name would run, write and count its rows twice
    out = tmp_path / "out"
    assert run_cli(*argv, "--duration", "10", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "repeated" in err and name in err
    assert not out.exists()


VIDEO = {"id": "v0", "category": "quick", "chunk_count": 10,
         "chunk_duration_s": 1.0, "ladder_kbps": [750, 1200]}


def _model_json(**fields):
    return json.dumps({"category": "quick", "mass": [0.01] * 100,
                       "trace_count": 1, **fields})


def _scripts_json(**script):
    entry = {"id": "s0", "videos": ["v0"], "swipe_points": [3], **script}
    return json.dumps({"catalog": [VIDEO],
                       "scripts": [{k: v for k, v in entry.items() if v is not None}]})


@pytest.mark.parametrize("option, name, text, where", [
    ("--scripts", "scripts.json", json.dumps({"catalog": [VIDEO]}),
     "missing field 'scripts'"),
    ("--scripts", "scripts.json", _scripts_json(swipe_points=None),
     "script 0: missing field 'swipe_points'"),
    ("--scripts", "scripts.json", json.dumps([VIDEO]),
     "expected a JSON object"),
    ("--scripts", "scripts.json", _scripts_json(swipe_points=["x"]),
     "script 0: field 'swipe_points': expected an integer, got \"x\""),
    ("--scripts", "scripts.json", _scripts_json(swipe_points=[11]),
     "script 0: swipe point 11 out of range"),
    ("--model", "model.json", json.dumps({"category": "quick", "trace_count": 1}),
     "missing field 'mass'"),
    ("--catalog", "catalog.json", "[{", "Expecting"),
    ("--config", "config.json", '{"w4": }', "Expecting"),
    ("--scripts", "scripts.json", '{"catalog"', "Expecting"),
    ("--model", "model.json", "", "Expecting"),
    ("--traces", "traces/high_00.csv", "0,2000\n1,1500\n2,abc\n",
     "line 3: non-numeric field"),
    ("--behavior", "behavior.csv", "t1,quick,10,5\nt2,quick,10,11\n",
     "line 2: trace t2: swipe_chunk 11 out of range"),
    ("model build", "behavior.csv", "t1,quick,10,5\nt2,quick,ten,1\n",
     "line 2: non-integer chunk count"),
    ("--catalog", "catalog.json", json.dumps([{**VIDEO, "chunk_count": 10.7}]),
     "entry 0: field 'chunk_count': expected an integer, got 10.7"),
    ("--catalog", "catalog.json", json.dumps([{**VIDEO, "chunk_count": True}]),
     "entry 0: field 'chunk_count': expected an integer, got true"),
    ("--scripts", "scripts.json", json.dumps({
        "catalog": [{**VIDEO, "chunk_count": 9.5}],
        "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]}]}),
     "catalog entry 0: field 'chunk_count': expected an integer, got 9.5"),
    ("--scripts", "scripts.json", _scripts_json(swipe_points=[3.5]),
     "script 0: field 'swipe_points': expected an integer, got 3.5"),
    ("--scripts", "scripts.json", _scripts_json(swipe_points=[True]),
     "script 0: field 'swipe_points': expected an integer, got true"),
    ("--model", "model.json", _model_json(trace_count=1.5),
     "field 'trace_count': expected an integer, got 1.5"),
    ("--model", "model.json", _model_json(trace_count=True),
     "field 'trace_count': expected an integer, got true"),
    ("--model", "model.json", _model_json(mass=5),
     "field 'mass': expected a JSON list, got 5"),
    ("--model", "model.json", _model_json(mass=["x"] * 100),
     "field 'mass': expected a number, got \"x\""),
    ("--config", "config.json", json.dumps({"w1": "a"}),
     "field 'w1': expected a number, got \"a\""),
    ("--catalog", "catalog.json", json.dumps([{**VIDEO, "chunk_duration_s": "x"}]),
     "entry 0: field 'chunk_duration_s': expected a number, got \"x\""),
    ("--catalog", "catalog.json", json.dumps([{**VIDEO, "ladder_kbps": "abc"}]),
     "entry 0: field 'ladder_kbps': expected a JSON list, got \"abc\""),
    # Python's json reads NaN and Infinity; they used to fail later in the
    # run, with a message that named neither the file nor the field
    ("--catalog", "catalog.json",
     json.dumps([{**VIDEO, "chunk_duration_s": math.nan}]),
     "entry 0: field 'chunk_duration_s': expected a number, got NaN"),
    ("--scripts", "scripts.json", json.dumps({
        "catalog": [{**VIDEO, "chunk_duration_s": math.inf}],
        "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]}]}),
     "catalog entry 0: field 'chunk_duration_s': expected a number, got "
     "Infinity"),
    ("--catalog", "catalog.json",
     json.dumps([{**VIDEO, "ladder_kbps": [750, math.inf]}]),
     "entry 0: field 'ladder_kbps': expected a number, got Infinity"),
    ("--model", "model.json", _model_json(mass=[math.nan] + [0.01] * 99),
     "field 'mass': expected a number, got NaN"),
    # a JSON true is an int and a Real to isinstance, and float() reads it
    # as 1.0, yet it is no number
    ("--catalog", "catalog.json", json.dumps([{**VIDEO, "ladder_kbps": [True, 1200]}]),
     "entry 0: field 'ladder_kbps': expected a number, got true"),
    ("--catalog", "catalog.json", json.dumps([{**VIDEO, "chunk_duration_s": True}]),
     "entry 0: field 'chunk_duration_s': expected a number, got true"),
    ("--config", "config.json", json.dumps({"w1": True}),
     "field 'w1': expected a number, got true"),
    ("--model", "model.json", _model_json(mass=[True] + [0] * 99),
     "field 'mass': expected a number, got true"),
    ("--scripts", "scripts.json", _scripts_json(videos=[["v0"]]),
     "script 0: field 'videos': expected a string, got [\"v0\"]"),
    ("--scripts", "scripts.json", _scripts_json(videos="v0"),
     "script 0: field 'videos': expected a JSON list, got \"v0\""),
    # a string would be read character by character, "35" as (3, 5)
    ("--scripts", "scripts.json",
     _scripts_json(videos=["v0", "v0"], swipe_points="35"),
     "script 0: field 'swipe_points': expected a JSON list, got \"35\""),
    ("--scripts", "scripts.json", _scripts_json(swipe_points=3),
     "script 0: field 'swipe_points': expected a JSON list, got 3"),
], ids=["scripts-no-scripts", "script-no-swipe-points", "scripts-list",
        "swipe-point-not-int", "swipe-point-out-of-range", "model-no-mass",
        "catalog-json", "config-json", "scripts-json", "model-json",
        "trace-row", "behavior-row", "model-build-behavior-row",
        "chunk-count-fraction", "chunk-count-bool",
        "scripts-chunk-count-fraction", "swipe-point-fraction",
        "swipe-point-bool", "trace-count-fraction", "trace-count-bool",
        "mass-not-a-list", "mass-entry-type", "config-field-type", "chunk-duration-type",
        "ladder-type", "chunk-duration-nan", "chunk-duration-inf", "ladder-inf",
        "mass-entry-nan", "ladder-bool", "chunk-duration-bool", "config-field-bool",
        "mass-entry-bool", "script-videos-nested", "script-videos-string",
        "script-swipe-points-string", "script-swipe-points-number"])
def test_input_error_names_file_and_place(tmp_path, capsys, option, name,
                                          text, where):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    out = str(tmp_path / "out")
    if option == "model build":
        argv = ["model", "build", str(path), "--out", out]
    else:
        given = path.parent if option == "--traces" else path
        argv = ["compare", "--strategy", "fixb", "--scenario", "high",
                "--n-scripts", "1", "--n-traces", "1", "--duration", "60",
                option, str(given), "--out", out]
    assert run_cli(*argv) == 1
    assert f"{path}: {where}" in capsys.readouterr().err


# every field of every JSON input, by kind: "text", "number", "count",
# "choice" (a config string with fixed values), and "list:<kind>" for a
# list of that kind of item or of JSON objects ("list:object")
CATALOG_FIELDS = {"id": "text", "category": "text", "chunk_count": "count",
                  "chunk_duration_s": "number", "ladder_kbps": "list:number"}
SCRIPT_FIELDS = {"id": "text", "videos": "list:text",
                 "swipe_points": "list:count"}
MODEL_FIELDS = {"category": "text", "mass": "list:number",
                "trace_count": "count"}
CONFIG_FIELDS = {**{name: "number" for name in (
    "w1", "w2", "w3", "w4", "alpha1", "alpha2", "gamma1", "gamma2",
    "p_th_early", "p_th_long", "t_sleep_s")}, **{name: "count" for name in (
        "b0_startup_chunks", "n_pred", "window_chunks")},
    "quality_metric": "choice"}
# an int too large for a float is a bad number, but a good count
BAD_VALUES = {"string": "12", "true": True, "null": None, "nan": math.nan,
              "inf": math.inf, "list": [1], "negative": -1, "fraction": 10.7,
              "huge": 10 ** 400}


def _tried(kind, case):
    """Whether the BAD_VALUES ``case`` is a bad value for ``kind``."""
    if kind.startswith("list:"):
        return case != "list"
    return not (case == "string" and kind == "text"
                or case == "fraction" and kind != "count"
                or case == "huge" and kind != "number")


def _bad_values(kind):
    """(case, value) pairs that a field of ``kind`` must reject: each bad
    value as the field's value and, in a list of numbers or strings, as its
    item. A negative item is left out: it meets the constructor's range
    check, whose message names the item's value, not its field."""
    item = kind.partition(":")[2]
    for case, value in BAD_VALUES.items():
        if _tried(kind, case):
            yield case, value
        if item not in ("", "object") and case != "negative" and _tried(
                item, case):
            yield f"item-{case}", [value]


def _bad_input_cases():
    """(option, label, field, case, data) for every bad, missing or unknown
    field of every input; the bad field sits in the second entry or script,
    which the error names."""
    video = {**VIDEO, "id": "v1"}
    script = {"id": "s1", "videos": ["v0"], "swipe_points": [3]}
    model = json.loads(_model_json())

    def catalog(entry):
        return [VIDEO, entry]

    def scripts(entry=script, top=None, catalog_entry=None):
        return {"catalog": [VIDEO] + ([catalog_entry] if catalog_entry else []),
                "scripts": [{**script, "id": "s0"}, entry], **(top or {})}

    def with_field(obj, field, value):
        if field == "mass" and isinstance(value, list) and len(value) == 1:
            value = value + [0.01] * 99
        return {**obj, field: value}

    for field, kind in CATALOG_FIELDS.items():
        for case, value in _bad_values(kind):
            bad = with_field(video, field, value)
            yield "--catalog", "entry 1", field, case, catalog(bad)
            yield ("--scripts", "catalog entry 1", field, case,
                   scripts(catalog_entry=bad))
    for field, kind in SCRIPT_FIELDS.items():
        for case, value in _bad_values(kind):
            yield ("--scripts", "script 1", field, case,
                   scripts(with_field(script, field, value)))
    for field in ("catalog", "scripts"):
        for case, value in _bad_values("list:object"):
            yield "--scripts", None, field, case, scripts(top={field: value})
    for field, kind in MODEL_FIELDS.items():
        for case, value in _bad_values(kind):
            yield "--model", None, field, case, with_field(model, field, value)
    for field, kind in CONFIG_FIELDS.items():
        for case, value in _bad_values(kind):
            yield "--config", None, field, case, {field: value}
    for field in CATALOG_FIELDS:
        yield "--catalog", "entry 1", field, "missing", catalog(
            {k: v for k, v in video.items() if k != field})
    for field in SCRIPT_FIELDS:
        yield "--scripts", "script 1", field, "missing", scripts(
            {k: v for k, v in script.items() if k != field})
    for field in ("catalog", "scripts"):
        yield "--scripts", None, field, "missing", {
            k: v for k, v in scripts().items() if k != field}
    for field in MODEL_FIELDS:
        yield "--model", None, field, "missing", {
            k: v for k, v in model.items() if k != field}
    for option, label, data in (
            ("--catalog", "entry 1", catalog({**video, "bogus": 1})),
            ("--scripts", "catalog entry 1",
             scripts(catalog_entry={**video, "bogus": 1})),
            ("--scripts", "script 1", scripts({**script, "bogus": 1})),
            ("--scripts", None, scripts(top={"bogus": 1})),
            ("--model", None, {**model, "bogus": 1}),
            ("--config", None, {"bogus": 1})):
        yield option, label, "bogus", "unknown", data


BAD_INPUT_CASES = list(_bad_input_cases())


@pytest.mark.parametrize(
    "option, label, field, case, data", BAD_INPUT_CASES,
    ids=[f"{option[2:]}-{label or 'top'}-{field}-{case}".replace(" ", "-")
         for option, label, field, case, _ in BAD_INPUT_CASES])
def test_every_bad_json_field_names_file_entry_and_field(
        tmp_path, capsys, option, label, field, case, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                   "--n-scripts", "1", "--n-traces", "1", "--duration", "10",
                   option, str(path), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option[2:]} {path}: ")
    assert err.count("\n") == 1
    if label:
        assert f": {label}: " in err
    assert re.search(rf"\b{field}\b", err)


def test_bad_input_table_covers_every_field():
    covered = {(option, field) for option, _, field, _, _ in BAD_INPUT_CASES}
    for option, names in (("--catalog", CATALOG_FIELDS),
                          ("--scripts", {**CATALOG_FIELDS, **SCRIPT_FIELDS,
                                         "catalog": 0, "scripts": 0}),
                          ("--model", MODEL_FIELDS),
                          ("--config", CONFIG_FIELDS)):
        assert {(option, name) for name in names} <= covered
    # the rejected probes that the unified readers replaced: numeric
    # strings, non-string ids and categories, nulls and unknown fields
    cases = {(field, case) for _, _, field, case, _ in BAD_INPUT_CASES}
    for probe in (("chunk_count", "string"), ("chunk_duration_s", "string"),
                  ("swipe_points", "item-string"), ("trace_count", "string"),
                  ("id", "list"), ("id", "null"), ("category", "true"),
                  ("category", "list"), ("chunk_count", "null"),
                  ("swipe_points", "item-list"), ("bogus", "unknown")):
        assert probe in cases


@pytest.mark.parametrize("option", ["--catalog", "--scripts"])
def test_repeated_video_id_names_file_entry_and_id(tmp_path, capsys, option):
    # only the last of two v0 entries used to load, so a replay of the
    # written scripts.json ran other videos than the run it came from
    entries = [{**VIDEO, "chunk_count": 10}, {**VIDEO, "id": "v1"},
               {**VIDEO, "chunk_count": 30}]
    data = entries if option == "--catalog" else {
        "catalog": entries,
        "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                   "--n-scripts", "1", "--n-traces", "1", "--duration", "10",
                   option, str(path), "--out", str(tmp_path / "out")) == 1
    label = "entry" if option == "--catalog" else "catalog entry"
    assert capsys.readouterr().err == (
        f"error: {option[2:]} {path}: {label} 2: repeated video id 'v0'\n")


def test_repeated_script_id_names_file_script_and_id(tmp_path, capsys):
    # two s0 scripts used to give two sessions.csv rows with the same keys
    path = tmp_path / "scripts.json"
    path.write_text(json.dumps({
        "catalog": [VIDEO],
        "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]},
                    {"id": "s0", "videos": ["v0"], "swipe_points": [9]}]}))
    assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                   "--n-traces", "1", "--duration", "10", "--scripts",
                   str(path), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"error: scripts {path}: script 1: repeated script id 's0'\n")


@pytest.mark.parametrize("option, message", [
    ("--catalog", "entry 1: no behavior traces for category 'zzz'"),
    ("--scripts", "script 1: no retention model for category 'zzz'"),
], ids=["catalog", "scripts"])
def test_category_without_behavior_names_file_and_item(
        tmp_path, capsys, option, message):
    entries = [VIDEO, {**VIDEO, "id": "v1", "category": "zzz"}]
    data = entries if option == "--catalog" else {
        "catalog": entries,
        "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]},
                    {"id": "s1", "videos": ["v0", "v1"],
                     "swipe_points": [3, 3]}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    for cmd in ("run", "compare"):
        assert run_cli(cmd, "--strategy", "fixb", "--scenario", "high",
                       "--duration", "10", option, str(path),
                       "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {option[2:]} {path}: {message}\n")


def test_one_model_serves_every_scripted_category(tmp_path):
    # a --model covers every category, so no behavior is needed for zzz
    scripts = tmp_path / "scripts.json"
    scripts.write_text(json.dumps({
        "catalog": [{**VIDEO, "category": "zzz"}],
        "scripts": [{"id": "s0", "videos": ["v0"], "swipe_points": [3]}]}))
    model = tmp_path / "model.json"
    model.write_text(_model_json())
    assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                   "--n-traces", "1", "--duration", "10", "--scripts",
                   str(scripts), "--model", str(model),
                   "--out", str(tmp_path / "out")) == 0


def test_integral_counts_still_load(tmp_path):
    # 12 and 12.0 are the same JSON number; so are the swipe points
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{**VIDEO, "chunk_count": 12},
                                   {**VIDEO, "id": "v1", "chunk_count": 12.0}]))
    assert [v.chunk_count for v in cli._read_input(
        "catalog", catalog, cli._catalog, list)] == [12, 12]
    scripts = tmp_path / "scripts.json"
    scripts.write_text(_scripts_json(swipe_points=[3.0]))
    [script] = cli._read_input("scripts", scripts, cli._scripts, dict)
    assert script.swipe_points == (3,) and type(script.swipe_points[0]) is int
    model = tmp_path / "model.json"
    model.write_text(_model_json(trace_count=2.0))
    assert cli._read_input("model", model, model_from_dict,
                           dict).trace_count == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"b0_startup_chunks": 2.0}))
    b0 = cli._load_config(config).b0_startup_chunks
    assert b0 == 2 and type(b0) is int
    assert run_cli("compare", "--strategy", "fixb", "--scenario", "high",
                   "--n-traces", "1", "--duration", "60", "--scripts",
                   str(scripts), "--out", str(tmp_path / "out")) == 0


def test_key_error_that_escapes_is_internal(tmp_path, capsys, monkeypatch):
    def broken(text):
        raise KeyError("x")
    monkeypatch.setattr(cli, "parse_behavior_traces", broken)
    csv = tmp_path / "behavior.csv"
    csv.write_text("t1,quick,10,5\n")
    assert run_cli("model", "build", str(csv), "--out", str(tmp_path / "m")) == 2
    assert "internal error: KeyError: 'x'" in capsys.readouterr().err
