"""YAML configuration parsing and the command line, end to end."""

import collections
import json
import math
import os
import subprocess
import sys

import pytest
import yaml

import bayesdedupe
from bayesdedupe import cli, gibbs
from bayesdedupe.candidates import connected_components
from bayesdedupe.cli import main
from bayesdedupe.config import load_config
from bayesdedupe.errors import ConfigError
from bayesdedupe.synthgen import data_path

from oracles import enumerate_valid_partitions

BASE_CONFIG = {
    "input": {"path": "records.csv", "missing_token": "NA"},
    "fields": [
        {"name": "name", "kind": "string"},
        {"name": "year", "kind": "integer"},
        {"name": "city", "kind": "categorical"},
    ],
    "comparators": [
        {"field": "name", "kind": "levenshtein",
         "cut_points": [0, 0.25, 0.5, 1.0]},
        {"field": "year", "kind": "absolute_difference",
         "cut_points": [0, 1, "inf"]},
        {"field": "city", "kind": "binary"},
    ],
    "fix_rules": [{"conditions": [{"field": "name", "min_level": 3}]}],
    "prior": {"lambdas": {"name": [0.9, 0.9, 0.9], "year": [0.8, 0.8]}},
    "sampler": {"iterations": 50, "burn_in": 10, "seed": 3},
    "output": {"directory": "out", "interval": 0.8},
}

RECORDS = ("name,year,city\n"
           "ANA,2001,SUR\n"
           "ANA,2001,SUR\n"
           "LUIS,1999,NORTE\n"
           "MARTA,NA,SUR\n")

# a records file, labelings, ground truth and a neighbour list that the
# commands accept together
INPUT_FILES = {
    "records.csv": RECORDS,
    "lab.txt": "0 0 1 2\n",
    "truth.csv": "record_id,entity_id\n0,0\n1,0\n2,1\n3,2\n",
    "nb.tsv": "SUR\tNORTE\n",
}


# an override value written as YAML null; None deletes the key
NULL = object()


def write_config(tmp_path, overrides=None, records=RECORDS):
    cfg = json.loads(json.dumps(BASE_CONFIG))  # deep copy
    for path, value in (overrides or {}).items():
        node = cfg
        keys = [int(k) if k.isdigit() else k for k in path.split(".")]
        for k in keys[:-1]:
            node = node[k]
        if value is None:
            del node[keys[-1]]
        else:
            node[keys[-1]] = None if value is NULL else value
    p = tmp_path / "pipeline.yaml"
    p.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    if records is not None:
        (tmp_path / "records.csv").write_text(records, encoding="utf-8")
    return p


class TestLoadConfig:
    def test_happy_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.input.path == str(tmp_path / "records.csv")
        assert [f.name for f in cfg.schema] == ["name", "year", "city"]
        assert [s.kind for s in cfg.level_specs] == [
            "levenshtein", "absolute_difference", "binary"]
        assert cfg.level_specs[1].cut_points[-1] == math.inf
        assert cfg.fix_rules[0].conditions == (("name", 3),)
        assert cfg.prior.lam[0].tolist() == [0.9, 0.9, 0.9]
        assert cfg.prior.lam[2].tolist() == [0.0]  # defaulted
        assert cfg.sampler.iterations == 50
        assert cfg.output.interval == 0.8
        assert cfg.output.directory == str(tmp_path / "out")

    def test_filters_parse(self, tmp_path):
        p = write_config(tmp_path, {
            "filters": [
                {"kind": "categorical_block", "field": "city"},
                {"kind": "integer_gap_exceeds", "field": "year", "gap": 2},
            ]})
        cfg = load_config(p)
        assert [r.kind for r in cfg.filter_rules] == [
            "categorical_block", "integer_gap_exceeds"]
        assert cfg.filter_rules[1].gap == 2

    def test_integers_read_as_text(self, tmp_path):
        """Where text is expected an integer is read as its digits, a
        prior.lambdas key too."""
        cfg = load_config(write_config(tmp_path, {
            "input.missing_token": 99, "fields.0.name": 7,
            "comparators.0.field": 7, "fix_rules": None,
            "prior.lambdas.name": None, "prior.lambdas.7": [0.7, 0.6, 0.5]}))
        assert cfg.input.missing_token == "99"
        assert cfg.schema[0].name == cfg.level_specs[0].field == "7"
        assert cfg.prior.lam[0].tolist() == [0.7, 0.6, 0.5]

    @pytest.mark.parametrize("overrides", [
        {"input": None},
        {"comparators": None},
        {"fields": None},
        {"comparators.2": {"field": "city", "kind": "binary",
                           "cut_points": [0, 1]}},
        {"comparators.0": {"field": "nope", "kind": "binary"}},
        {"fix_rules.0": {"conditions": [{"field": "zip", "min_level": 3}]}},
        {"prior.lambdas": {"zip": [0.5]}},
        {"sampler.iterations": "many"},
        {"output.interval": 1.5},
        {"input.on_invalid": "explode"},
    ])
    def test_validation_errors(self, tmp_path, overrides):
        p = write_config(tmp_path, overrides)
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_yaml(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("input: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_defaults(self, tmp_path):
        p = write_config(tmp_path, {"sampler": None, "output": None,
                                    "prior": None, "fix_rules": None})
        cfg = load_config(p)
        assert cfg.sampler.iterations == 1000
        assert cfg.output.interval == 0.9
        assert cfg.fix_rules == []
        assert all(v.min() == 0.0 for v in cfg.prior.lam)


def synth_config_text(records_path, out_dir, iterations=300, burn_in=50):
    """The bundled seven-field pipeline, pointed at explicit paths."""
    raw = yaml.safe_load(data_path("configs/synth.yaml").read_text())
    raw["input"]["path"] = str(records_path)
    raw["output"]["directory"] = str(out_dir)
    raw["sampler"]["iterations"] = iterations
    raw["sampler"]["burn_in"] = burn_in
    return yaml.safe_dump(raw)


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """One small generated file shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--output-dir", str(d / "data"), "--seed", "5",
               "--originals", "30", "--duplicates", "8"])
    assert rc == 0
    return d


class TestCliSynth:
    def test_outputs(self, synth_run):
        d = synth_run / "data"
        assert (d / "records.csv").is_file()
        assert (d / "truth.csv").is_file()
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["records"] == 38
        assert manifest["originals"] == 30
        assert "version" in manifest
        truth_lines = (d / "truth.csv").read_text().strip().split("\n")
        assert len(truth_lines) == 39

    def test_command_is_the_parsed_arguments(self, synth_run):
        """An in-process run records its own arguments, not the host's."""
        d = synth_run / "data"
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["command"] == (f"synth --output-dir {d} --seed 5 "
                                       "--originals 30 --duplicates 8")


class TestCliDedupe:
    def test_end_to_end(self, synth_run):
        cfg_path = synth_run / "run.yaml"
        cfg_text = synth_config_text(synth_run / "data" / "records.csv",
                                     synth_run / "out")
        cfg_path.write_text(cfg_text, encoding="utf-8")
        rc = main(["dedupe", "--config", str(cfg_path), "--threads", "1",
                   "--seed", "9"])
        assert rc == 0
        out = synth_run / "out"
        for name in ("comparisons.csv", "candidate_edges.csv",
                     "posterior_labelings.txt", "phi_trace.csv",
                     "duplicates.json", "pairwise_probabilities.csv",
                     "partition_frequencies.csv", "manifest.json"):
            assert (out / name).is_file(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["records"] == 38
        assert manifest["seed"] == 9  # override took effect
        assert manifest["config_echo"] == cfg_text
        dup = json.loads((out / "duplicates.json").read_text())
        assert dup["records"] == 38
        first = (out / "posterior_labelings.txt").read_text().split("\n")[0]
        assert len(first.split()) == 38

    def test_evaluate_after_dedupe(self, synth_run):
        metrics_path = synth_run / "metrics.json"
        rc = main(["evaluate",
                   "--labelings", str(synth_run / "out" / "posterior_labelings.txt"),
                   "--truth", str(synth_run / "data" / "truth.csv"),
                   "--output", str(metrics_path)])
        assert rc == 0
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) >= {"precision", "recall", "records",
                                "truth_duplicates", "truth_percent"}
        assert metrics["truth_duplicates"] == 8
        assert 0.0 <= metrics["recall"]["median"] <= 1.0

    def test_compare_subcommand(self, synth_run):
        cfg_path = synth_run / "cmp.yaml"
        cfg_path.write_text(
            synth_config_text(synth_run / "data" / "records.csv",
                              synth_run / "cmp_out"), encoding="utf-8")
        rc = main(["compare", "--config", str(cfg_path)])
        assert rc == 0
        out = synth_run / "cmp_out"
        assert (out / "comparisons.csv").is_file()
        assert (out / "candidate_edges.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["compared_pairs"] == 38 * 37 // 2

    def test_baseline_subcommand(self, synth_run):
        cfg_path = synth_run / "base.yaml"
        cfg_path.write_text(
            synth_config_text(synth_run / "data" / "records.csv",
                              synth_run / "base_out", iterations=150,
                              burn_in=30), encoding="utf-8")
        rc = main(["baseline", "--config", str(cfg_path)])
        assert rc == 0
        out = synth_run / "base_out"
        for name in ("pairwise_probabilities.csv", "p_trace.csv",
                     "nontransitive.csv", "manifest.json"):
            assert (out / name).is_file(), name
        p_lines = (out / "p_trace.csv").read_text().strip().split("\n")
        assert p_lines[0] == "iteration,p"
        assert len(p_lines) == 121
        manifest = json.loads((out / "manifest.json").read_text())
        assert "nontransitive_share" in manifest


class TestRunRecord:
    """The prologue that compare, dedupe and baseline share, and the
    manifest of every command that writes an output directory."""

    SHARED_KEYS = ("records", "dropped", "compared_pairs", "candidate_pairs",
                   "fixed_pairs")
    OUTPUTS = {
        "synth": ["records.csv", "truth.csv"],
        "compare": ["comparisons.csv", "candidate_edges.csv"],
        "dedupe": ["comparisons.csv", "candidate_edges.csv",
                   "posterior_labelings.txt", "phi_trace.csv",
                   "duplicates.json", "pairwise_probabilities.csv",
                   "partition_frequencies.csv"],
        "baseline": ["comparisons.csv", "candidate_edges.csv",
                     "pairwise_probabilities.csv", "p_trace.csv",
                     "nontransitive.csv"],
    }

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Each file-writing command's output directory, the three
        config-reading ones run on one config."""
        d = tmp_path_factory.mktemp("run_record")
        dirs = {command: d / command for command in self.OUTPUTS}
        assert main(["synth", "--output-dir", str(dirs["synth"]), "--seed",
                     "2", "--originals", "30", "--duplicates", "6"]) == 0
        cfg = d / "run.yaml"
        cfg.write_text(synth_config_text(dirs["synth"] / "records.csv",
                                         d / "unused", iterations=60,
                                         burn_in=10), encoding="utf-8")
        for command in ("compare", "dedupe", "baseline"):
            threads = ["--threads", "1"] if command == "dedupe" else []
            assert main([command, "--config", str(cfg), "--output-dir",
                         str(dirs[command]), *threads]) == 0
        return dirs

    def test_comparison_outputs_agree(self, runs):
        for name in ("comparisons.csv", "candidate_edges.csv"):
            texts = {(runs[c] / name).read_bytes()
                     for c in ("compare", "dedupe", "baseline")}
            assert len(texts) == 1, name

    def test_shared_manifest_keys_agree(self, runs):
        manifests = [json.loads((runs[c] / "manifest.json").read_text())
                     for c in ("compare", "dedupe", "baseline")]
        shared = [{k: m[k] for k in self.SHARED_KEYS} for m in manifests]
        assert shared[0]["records"] == 36
        assert shared[0]["compared_pairs"] == 36 * 35 // 2
        assert shared[1] == shared[0] and shared[2] == shared[0]
        assert all("runtime_s" in m and "config_echo" in m for m in manifests)

    def test_outputs_are_the_files_in_write_order(self, runs):
        for command, d in runs.items():
            manifest = json.loads((d / "manifest.json").read_text())
            outputs = manifest["outputs"]
            assert outputs == self.OUTPUTS[command], command
            assert sorted(outputs) == sorted(
                p.name for p in d.iterdir() if p.name != "manifest.json")
            written = [(d / name).stat().st_mtime_ns for name in outputs]
            assert written == sorted(written), command
        synth = json.loads((runs["synth"] / "manifest.json").read_text())
        assert set(synth) == {
            "version", "command", "finished_at", "records", "originals",
            "duplicates", "errors_per_duplicate", "seed", "edit_fallbacks",
            "outputs"}


class TestCliErrors:
    def test_missing_config_is_config_error(self, tmp_path):
        rc = main(["dedupe", "--config", str(tmp_path / "nope.yaml"),
                   "--threads", "1"])
        assert rc == 2

    def test_missing_data_is_data_error(self, tmp_path):
        p = write_config(tmp_path, records=None)
        rc = main(["dedupe", "--config", str(p), "--threads", "1"])
        assert rc == 3

    def test_bad_threads(self, tmp_path):
        p = write_config(tmp_path)
        rc = main(["dedupe", "--config", str(p), "--threads", "0"])
        assert rc == 2

    def test_bad_override_combination(self, tmp_path):
        p = write_config(tmp_path)
        rc = main(["dedupe", "--config", str(p), "--threads", "1",
                   "--iterations", "5", "--burn-in", "10"])
        assert rc == 2

    def test_synth_capacity_error(self, tmp_path):
        rc = main(["synth", "--output-dir", str(tmp_path / "d"),
                   "--originals", "1", "--duplicates", "10"])
        assert rc == 2

    def test_evaluate_bad_truth(self, tmp_path):
        lab = tmp_path / "lab.txt"
        lab.write_text("0 0 1\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("record_id,entity_id\n0,0\n", encoding="utf-8")
        rc = main(["evaluate", "--labelings", str(lab),
                   "--truth", str(truth), "--output",
                   str(tmp_path / "m.json")])
        assert rc == 3

    def test_too_many_levels(self, tmp_path, capsys):
        p = write_config(tmp_path, {
            "comparators.1": {"field": "year", "kind": "absolute_difference",
                              "cut_points": list(range(200))},
            "prior.lambdas.year": None})
        rc = main(["dedupe", "--config", str(p), "--threads", "1"])
        assert rc == 2
        assert "200 levels" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas", [
        [0.9, 0.9],                  # too short
        [0.9, 0.9, 0.9, 0.9],        # too long
        ["abc", 0.9, 0.9],
        [None, 0.9, 0.9],
        [False, 0.9, 0.9],
    ], ids=["short", "long", "string", "null", "boolean"])
    def test_malformed_lambdas(self, tmp_path, capsys, lambdas):
        p = write_config(tmp_path, {"prior.lambdas.name": lambdas})
        rc = main(["dedupe", "--config", str(p), "--threads", "1"])
        assert rc == 2
        assert "prior.lambdas.name" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", [
        ({"comparators.1": {"field": "year", "kind": "levenshtein",
                            "cut_points": [0, 0.5, 1]}}, "comparators[1]"),
        ({"comparators.1": {"field": "year", "kind": "token_levenshtein",
                            "cut_points": [0, 0.5, 1]}}, "comparators[1]"),
        ({"comparators.0": {"field": "name", "kind": "absolute_difference",
                            "cut_points": [0, 1, "inf"]}}, "comparators[0]"),
        ({"filters": [{"kind": "integer_gap_exceeds", "field": "city",
                       "gap": 1}]}, "filters[0]"),
        ({"filters": [{"kind": "custom_overlap", "field": "year"}]},
         "filters[0]"),
        ({"input.delimiter": ";;"}, "input.delimiter"),
        ({"input.delimiter": ""}, "input.delimiter"),
        ({"output.pairwise": "false"}, "output.pairwise"),
        ({"output.frequencies": 0}, "output.frequencies"),
        ({"comparators.0.field": [1]}, "comparators[0].field"),
        ({"filters": [{"kind": "categorical_block", "field": [1]}]},
         "filters[0].field"),
        ({"input.required": NULL}, "input.required"),
        ({"output.directory": [1]}, "output.directory"),
        ({"input.path": ["records.csv"]}, "input.path"),
        ({"input.missing_token": NULL}, "input.missing_token"),
        ({"fields.0.name": ["name"]}, "fields[0].name"),
        ({"filters": [{"kind": "custom_overlap", "field": "city",
                       "stop_tokens": [1, None]}]},
         "filters[0].stop_tokens[1]"),
        ({"input.required": "name"}, "input.required: expected a list"),
        ({"sampler.seed": -1}, "sampler: seed"),
        ({"prior.alpha1": 10**400}, "prior.alpha1"),
        ({"fields.0.name": 7, "comparators.0.field": 7, "fix_rules": None,
          "prior.lambdas": {7: [0.9] * 3, "7": [0.9] * 3}},
         "prior.lambdas: field '7' given twice"),
        # a key that its mapping does not define, which would otherwise
        # leave its setting at the default
        ({"sampler.iteratons": 5}, "sampler: unknown key 'iteratons'"),
        ({"filter": [{"kind": "categorical_block", "field": "city"}]},
         "config: unknown key 'filter'"),
        ({"output.pairwse": False}, "output: unknown key 'pairwse'"),
        ({"fix_rules.0.conditions.0.min_levl": 2},
         "fix_rules[0].conditions[0]: unknown key 'min_levl'"),
        ({"input.delimeter": ";"}, "input: unknown key 'delimeter'"),
        ({"fields.1.knd": "string"}, "fields[1]: unknown key 'knd'"),
        ({"comparators.2.cut_point": [0, 1]},
         "comparators[2]: unknown key 'cut_point'"),
        ({"filters": [{"kind": "categorical_block", "feld": "city"}]},
         "filters[0]: unknown key 'feld'"),
        ({"fix_rules.0.condition": []}, "fix_rules[0]: unknown key 'condition'"),
        ({"prior.alpha": 2}, "prior: unknown key 'alpha'"),
    ], ids=["levenshtein-integer", "token-levenshtein-integer",
            "difference-string", "gap-categorical", "overlap-integer",
            "long-delimiter", "empty-delimiter", "pairwise-string",
            "frequencies-integer", "comparator-field-list",
            "filter-field-list", "required-null", "directory-list",
            "path-list", "missing-token-null", "field-name-list",
            "stop-token-null", "required-string", "seed-negative",
            "beyond-float", "lambda-key-twice", "sampler-key",
            "top-level-key", "output-key", "condition-key", "input-key",
            "field-key", "comparator-key", "filter-key", "fix-rule-key",
            "prior-key"])
    def test_config_boundary(self, tmp_path, capsys, overrides, key):
        p = write_config(tmp_path, overrides)
        assert main(["compare", "--config", str(p)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_draw_store_beyond_memory(self, tmp_path, capsys, threads):
        """A retained-draw store that cannot be allocated exits 2, naming
        the key, also from a pool worker. numpy refuses the allocation
        without touching memory."""
        p = write_config(tmp_path, {"sampler.iterations": 10**13,
                                    "sampler.chains": 2})
        assert main(["dedupe", "--config", str(p), "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert "sampler.iterations" in err and "retained draws" in err

    def test_config_not_utf8(self, tmp_path, capsys):
        p = write_config(tmp_path)
        p.write_bytes(p.read_bytes() + b"# caf\xe9\n")
        assert main(["compare", "--config", str(p)]) == 2
        assert "pipeline.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("name", list(INPUT_FILES))
    def test_bad_input_file(self, tmp_path, capsys, name, fault):
        """Every input file a command reads exits 3, naming the file."""
        p = write_config(tmp_path, {"filters": [
            {"kind": "custom_overlap", "field": "city", "neighbors": "nb.tsv"}]})
        for good, text in INPUT_FILES.items():
            (tmp_path / good).write_text(text, encoding="utf-8")
        bad = tmp_path / name
        if fault == "not-utf8":
            bad.write_bytes(INPUT_FILES[name].encode() + b"\xc1\n")
        else:
            bad.unlink()
            if fault == "directory":
                bad.mkdir()
        if name in ("lab.txt", "truth.csv"):
            argv = ["evaluate", "--labelings", str(tmp_path / "lab.txt"),
                    "--truth", str(tmp_path / "truth.csv"),
                    "--output", str(tmp_path / "m.json")]
        else:
            argv = ["compare", "--config", str(p)]
        assert main(argv) == 3
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "evaluate", "synth", "compare", "dedupe", "baseline"])
    def test_unwritable_output(self, tmp_path, capsys, command):
        """An output path that cannot be written (a directory for
        evaluate's file, a file for an output directory, a directory for
        an output file of dedupe, compare or baseline) exits 3, naming
        the path."""
        p = write_config(tmp_path)
        for name, text in INPUT_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        taken = tmp_path / "taken"
        if command == "evaluate":
            taken.mkdir()
            argv = ["evaluate", "--labelings", str(tmp_path / "lab.txt"),
                    "--truth", str(tmp_path / "truth.csv"),
                    "--output", str(taken)]
        else:
            taken.write_text("", encoding="utf-8")
            argv = [command, "--output-dir", str(taken)]
            if command != "synth":
                argv += ["--config", str(p)]
        assert main(argv) == 3
        assert f"{taken}: cannot" in capsys.readouterr().err
        if command in ("evaluate", "synth"):
            return
        # an output file inside a usable output directory that is itself
        # an existing directory
        name = {"dedupe": "posterior_labelings.txt",
                "compare": "comparisons.csv", "baseline": "p_trace.csv"}[command]
        blocked = tmp_path / "out2" / name
        blocked.mkdir(parents=True)
        argv = [command, "--output-dir", str(blocked.parent), "--config", str(p)]
        assert main(argv) == 3
        assert f"{blocked}: cannot write" in capsys.readouterr().err

    def test_internal_error_prints_traceback(self, monkeypatch, capsys):
        """An internal failure exits 4 with its traceback, with or without
        --verbose."""
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_evaluate", fail)
        argv = ["evaluate", "--labelings", "l.txt", "--truth", "t.csv"]
        for flags in ([], ["--verbose"]):
            assert main([*flags, *argv]) == 4
            err = capsys.readouterr().err
            assert "internal error: RuntimeError: boom" in err
            assert "Traceback" in err

    def test_no_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestTinyPipeline:
    def test_four_record_file(self, tmp_path, capsys):
        """The minimal config end to end, duplicates found."""
        p = write_config(tmp_path, {"sampler.iterations": 400,
                                    "sampler.burn_in": 100})
        rc = main(["dedupe", "--config", str(p), "--threads", "1"])
        assert rc == 0
        out = tmp_path / "out"
        labelings = (out / "posterior_labelings.txt").read_text()
        rows = [line.split() for line in labelings.strip().split("\n")]
        assert all(len(row) == 4 for row in rows)
        # records 0 and 1 are identical; they should co-refer most of the time
        together = sum(row[0] == row[1] for row in rows) / len(rows)
        assert together > 0.5


class TestOutputContract:
    """dedupe and evaluate outputs, read back by the README's formats."""

    def test_documented_formats(self, tmp_path):
        p = write_config(tmp_path, {"sampler.iterations": 200,
                                    "sampler.burn_in": 50})
        assert main(["dedupe", "--config", str(p), "--threads", "1"]) == 0
        out = tmp_path / "out"

        def lines(name):
            text = (out / name).read_text(encoding="utf-8")
            assert text.endswith("\n"), name
            return text.split("\n")[:-1]

        manifest = json.loads((out / "manifest.json").read_text())
        draws = manifest["chains"] * manifest["retained_per_chain"]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

        comparisons = lines("comparisons.csv")
        assert comparisons[0] == "i,j,name,year,city"
        rows = [line.split(",") for line in comparisons[1:]]
        assert [(int(row[0]), int(row[1])) for row in rows] == pairs
        for (i, j), row in zip(pairs, rows):
            assert (row[3] == "NA") == (3 in (i, j))  # record 3 lacks a year
            assert all(v.isdigit() for v in row[2:] if v != "NA")
        assert rows[0][2:] == ["0", "0", "0"]  # records 0 and 1 agree

        edges = lines("candidate_edges.csv")
        assert edges[0] == "i,j,fixed"
        edges = [tuple(map(int, line.split(","))) for line in edges[1:]]
        assert [e[:2] for e in edges] == pairs
        assert {e[2] for e in edges} <= {0, 1}
        candidates = [e[:2] for e in edges if e[2] == 0]
        # four records: every active record's component is block-drawn
        active = {i for pair in candidates for i in pair}
        sizes = manifest["component_sizes"]
        assert sum(int(s) * n for s, n in sizes.items()) == len(active)
        assert manifest["block_records"] == len(active)
        assert manifest["single_site_records"] == 0
        assert manifest["single_site_passes"] == 0
        # the m candidates rejected in all parameter draws, as many as the
        # same chain run in process rejects
        cfg = load_config(p)
        _, comps, graph, _ = cli._prepare(cfg)
        chains = gibbs.run_chains(comps, graph, cfg.prior, cfg.sampler)
        assert manifest["tbeta_rejections"] == sum(
            c.tbeta_rejections for c in chains)
        # the valid partitions of every component, enumerated on its own
        assert manifest["block_partitions"] == sum(
            len(enumerate_valid_partitions(len(comp), {
                (comp.index(i), comp.index(j)) for i, j in candidates
                if i in comp}))
            for comp in connected_components(4, candidates) if len(comp) > 1)

        labelings = [list(map(int, line.split(" ")))
                     for line in lines("posterior_labelings.txt")]
        assert len(labelings) == draws
        for row in labelings:  # canonical first-appearance labels
            assert all(v <= max(row[:k], default=-1) + 1
                       for k, v in enumerate(row))
            assert len(row) == 4

        probabilities = lines("pairwise_probabilities.csv")
        assert probabilities[0] == "i,j,probability"
        probabilities = [line.split(",") for line in probabilities[1:]]
        assert [(int(i), int(j)) for i, j, _ in probabilities] == candidates
        for i, j, prob in probabilities:
            share = sum(row[int(i)] == row[int(j)] for row in labelings) / draws
            assert prob == f"{share:.6f}"

        frequencies = lines("partition_frequencies.csv")
        assert frequencies[0] == "partition,count,frequency"
        seen = collections.Counter(tuple(row) for row in labelings)
        keys = []
        for line in frequencies[1:]:
            partition, count, freq = line.rsplit(",", 2)
            cells = [list(map(int, c.split(","))) for c in partition.split("/")]
            assert [c[0] for c in cells] == sorted(c[0] for c in cells)
            labels = [None] * 4
            for k, cell in enumerate(cells):
                for i in cell:
                    labels[i] = k
            assert seen[tuple(labels)] == int(count)
            assert freq == f"{int(count) / draws:.6f}"
            keys.append((-int(count), labels))
        assert keys == sorted(keys)  # most frequent first, ties by labels
        assert len(keys) == len(seen)

        truth = tmp_path / "truth.csv"
        truth.write_text("record_id,entity_id\n0,0\n1,0\n2,1\n3,2\n",
                         encoding="utf-8")
        metrics_path = tmp_path / "metrics.json"
        assert main(["evaluate", "--labelings",
                     str(out / "posterior_labelings.txt"), "--truth",
                     str(truth), "--output", str(metrics_path)]) == 0
        metrics = json.loads(metrics_path.read_text())
        duplicates = json.loads((out / "duplicates.json").read_text())
        for key in ("records", "mean", "median", "min", "max"):
            assert metrics[key] == duplicates[key]
        assert metrics["truth_duplicates"] == 1
        for name in ("precision", "recall"):
            assert set(metrics[name]) == {"median", "p01", "p99"}
            assert all(0.0 <= v <= 1.0 for v in metrics[name].values())
        # a line's terminator is not part of it: a CRLF copy with blank
        # lines between the draws scores the same, byte for byte
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(b"".join(
            line + b"\r\n \r\n" for line in
            (out / "posterior_labelings.txt").read_bytes().splitlines()))
        assert main(["evaluate", "--labelings", str(crlf), "--truth",
                     str(truth), "--output", str(tmp_path / "crlf.json")]) == 0
        assert (tmp_path / "crlf.json").read_bytes() == metrics_path.read_bytes()
        # cell ids only name the cells: a copy with every line's ids
        # rotated and offset, so equal draws are written differently,
        # scores the same, byte for byte
        relabelled = tmp_path / "relabelled.txt"
        relabelled.write_text("".join(
            " ".join(str(5 + (int(v) + k) % 4) for v in line.split()) + "\n"
            for k, line in enumerate(lines("posterior_labelings.txt"))))
        assert main(["evaluate", "--labelings", str(relabelled), "--truth",
                     str(truth), "--output", str(tmp_path / "rel.json")]) == 0
        assert (tmp_path / "rel.json").read_bytes() == metrics_path.read_bytes()

    def test_dedupe_never_builds_full_width_labelings(self, tmp_path,
                                                      monkeypatch):
        """Every dedupe output comes from the labels of the active
        records; the full-width matrix is never built."""
        def refuse(sample):
            raise AssertionError("full-width labelings built")

        monkeypatch.setattr(gibbs.PosteriorSample, "labelings",
                            property(refuse))
        p = write_config(tmp_path, {"sampler.chains": 2})
        assert main(["dedupe", "--config", str(p), "--threads", "1"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 0 < manifest["block_records"] < 4
        for name in manifest["outputs"]:
            assert (tmp_path / "out" / name).is_file()

    def test_single_site_passes(self, tmp_path, monkeypatch):
        """With the four-record file's component updated one record at a
        time, every sweep of every chain takes at least one pass."""
        monkeypatch.setattr(gibbs, "P_MAX", 1)
        p = write_config(tmp_path, {"sampler.iterations": 50,
                                    "sampler.burn_in": 10,
                                    "sampler.chains": 2})
        assert main(["dedupe", "--config", str(p), "--threads", "1"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["block_records"] == 0
        assert manifest["single_site_records"] > 0
        assert manifest["single_site_passes"] >= 2 * 50


LOADED_MODULES = """
import json, sys
from bayesdedupe.cli import main
d = sys.argv[1]
codes = [
    main(["synth", "--output-dir", d + "/data", "--originals", "6",
          "--duplicates", "2"]),
    main(["compare", "--config", d + "/cmp.yaml"]),
    main(["evaluate", "--labelings", d + "/lab.txt", "--truth",
          d + "/data/truth.csv", "--output", d + "/m.json"]),
]
print(json.dumps({"codes": codes, "loaded": [
    m for m in ("scipy", "bayesdedupe.gibbs", "bayesdedupe.mixture",
                "concurrent.futures.process")
    if m in sys.modules]}))
"""


def test_scipy_loads_only_for_sampling_commands(tmp_path):
    """synth, compare and evaluate never import the sampler, scipy or
    the process pool. No subcommand loads scipy: dedupe and baseline,
    which import the sampler, run without it too (next test)."""
    (tmp_path / "cmp.yaml").write_text(synth_config_text(
        tmp_path / "data" / "records.csv", tmp_path / "out"), encoding="utf-8")
    (tmp_path / "lab.txt").write_text("0 1 2 3 4 5 6 7\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(bayesdedupe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", LOADED_MODULES, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "loaded": []}


SAMPLING_MODULES = """
import json, sys
mode, d = sys.argv[1], sys.argv[2]
if mode == "blocked":  # importing either now raises ImportError
    sys.modules["scipy"] = sys.modules["mpmath"] = None
from bayesdedupe.cli import main
codes = [
    main(["dedupe", "--config", d + "/run.yaml", "--output-dir",
          d + "/dedupe-" + mode, "--iterations", "30", "--burn-in", "5",
          "--threads", "1"]),
    main(["baseline", "--config", d + "/run.yaml", "--output-dir",
          d + "/baseline-" + mode, "--iterations", "30", "--burn-in", "5"]),
]
print(json.dumps({"codes": codes, "loaded": [
    m for m in ("scipy", "mpmath") if sys.modules.get(m) is not None]}))
"""


def test_sampling_commands_run_without_scipy(synth_run, tmp_path):
    """dedupe and baseline run with scipy and mpmath impossible to import,
    and a normal run loads neither: they are test-only dependencies."""
    (tmp_path / "run.yaml").write_text(synth_config_text(
        synth_run / "data" / "records.csv", tmp_path / "out"),
        encoding="utf-8")
    src = os.path.dirname(os.path.dirname(bayesdedupe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    for mode in ("blocked", "normal"):
        run = subprocess.run(
            [sys.executable, "-c", SAMPLING_MODULES, mode, str(tmp_path)],
            capture_output=True, text=True, env=env, check=True)
        report = json.loads(run.stdout.strip().splitlines()[-1])
        assert report == {"codes": [0, 0], "loaded": []}, mode
    # the bundled prior's lambda of 0.95 binds, and candidates are rejected
    manifest = json.loads((tmp_path / "dedupe-normal" / "manifest.json")
                          .read_text())
    assert manifest["tbeta_rejections"] > 0


EVALUATE_MODULES = """
import json, sys
from bayesdedupe.cli import main
d = sys.argv[1]
code = main(["evaluate", "--labelings", d + "/lab.txt", "--truth",
             d + "/truth.csv", "--output", d + "/m.json"])
print(json.dumps({"code": code, "loaded": [
    m for m in ("yaml", "scipy", "bayesdedupe.config",
                "bayesdedupe.comparison", "bayesdedupe.candidates",
                "bayesdedupe.synthgen") if m in sys.modules]}))
"""


def test_evaluate_imports_neither_yaml_nor_scipy(tmp_path):
    """evaluate reads no pipeline config: PyYAML, scipy and the
    comparison and generator layers stay unloaded."""
    (tmp_path / "lab.txt").write_text("0 0 1\n0 1 2\n", encoding="utf-8")
    (tmp_path / "truth.csv").write_text(
        "record_id,entity_id\n0,0\n1,0\n2,1\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(bayesdedupe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", EVALUATE_MODULES,
                          str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report == {"code": 0, "loaded": []}


def test_blas_threads_leave_outputs_unchanged(tmp_path):
    """Block scores and log ratios are matrix products, which OpenBLAS
    may split across threads: dedupe on a file with block and single-site
    records writes the same labelings and parameter trace with one BLAS
    thread as with two."""
    assert main(["synth", "--output-dir", str(tmp_path / "data"), "--seed",
                 "3", "--originals", "300", "--duplicates", "30"]) == 0
    cfg = tmp_path / "run.yaml"
    cfg.write_text(synth_config_text(tmp_path / "data" / "records.csv",
                                     tmp_path / "out"), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(bayesdedupe.__file__))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "bayesdedupe.cli", "dedupe",
                        "--config", str(cfg), "--output-dir",
                        str(tmp_path / f"blas{threads}"), "--threads", "1",
                        "--seed", "7"],
                       capture_output=True, env=env, check=True)
    manifest = json.loads((tmp_path / "blas1" / "manifest.json").read_text())
    assert manifest["block_records"] > 0
    assert manifest["single_site_records"] > 0
    for name in ("posterior_labelings.txt", "phi_trace.csv"):
        assert ((tmp_path / "blas1" / name).read_bytes()
                == (tmp_path / "blas2" / name).read_bytes())
