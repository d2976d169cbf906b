import hashlib
import json

import pytest

from swipesim.cli import _load_trace_dir, default_behavior, main
from swipesim.retention import build_model, model_from_json, model_to_json
from swipesim.trace_io import (
    generate_scenario,
    parse_throughput_trace,
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
        model = model_from_json((out / "retention_cat_a.json").read_text())
        assert model.mass[40] == pytest.approx(0.05)

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

    def test_zero_duration_is_input_error(self, tmp_path):
        assert run_cli("gen", "--scenario", "low", "--seed", "3",
                       "--duration", "0", "--count", "1",
                       "--out", str(tmp_path)) == 1

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
