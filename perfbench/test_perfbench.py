"""Smoke-size self-test of the benchmark harness.

Runs every workload's code path, untraced and traced, on tiny files, and
checks that the output checks catch bad outputs. It asserts nothing about
time, so it is no timing gate; it only keeps the harness from rotting.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run as bench  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_smoke(name, tmp_path):
    wl = dataclasses.replace(bench.WORKLOADS[name], originals=40,
                             duplicates=8, iterations=60, burn_in=10)
    record = bench.run_workload(wl, seed=3, seconds=0, trace=1, data_seed=5,
                                work=tmp_path)
    assert record["failed"] == 0, (record["repetitions"],
                                   record["trace_problems"])
    assert record["attempted"] == 2
    e2e = record["end_to_end"]
    assert set(e2e) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(v is not None for v in e2e.values()), e2e
    assert min(e2e["setup_s"], e2e["dedupe_s"], e2e["evaluate_s"],
               e2e["peak_rss_mb"], e2e["dup_ess_per_s"]) > 0, e2e
    assert set(record["per_layer"]) == {m["name"] for m in DECLARED["per_layer"]}
    props = record["properties"]
    assert props["records"] == 48
    assert sum(s * n for s, n in props["component_size_histogram"].items()) == 48


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    assert list(bench.END_TO_END) == [m["name"] for m in DECLARED["end_to_end"]]


def _write_run(out_dir: Path, rows: list, outputs: list) -> None:
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text(json.dumps(
        {"chains": 1, "retained_per_chain": 2, "outputs": outputs}))
    (out_dir / "posterior_labelings.txt").write_text(
        "".join(" ".join(map(str, r)) + "\n" for r in rows))
    (out_dir / "candidate_edges.csv").write_text(
        "i,j,fixed\n0,1,0\n0,2,1\n1,2,1\n")


def test_check_dedupe_accepts_valid_and_flags_bad_outputs(tmp_path):
    outputs = ["posterior_labelings.txt", "candidate_edges.csv"]
    _write_run(tmp_path / "good", [[0, 0, 1], [0, 1, 2]], outputs)
    assert checks.check_dedupe(tmp_path / "good", 3)[0] == []
    # the second draw merges 0 and 2, a fixed pair; a listed file is missing
    _write_run(tmp_path / "bad", [[0, 0, 1], [0, 1, 0]],
               outputs + ["phi_trace.csv"])
    problems, _ = checks.check_dedupe(tmp_path / "bad", 3)
    assert len(problems) == 2, problems
    assert checks.check_dedupe(tmp_path / "good", 4)[0]  # wrong width
    # unreadable outputs are problems, not exceptions
    (tmp_path / "good" / "candidate_edges.csv").unlink()
    problems, facts = checks.check_dedupe(tmp_path / "good", 3)
    assert len(problems) == 2 and facts is None, problems
    (tmp_path / "good" / "manifest.json").write_text('{"outputs": []}')
    problems, facts = checks.check_dedupe(tmp_path / "good", 3)
    assert len(problems) == 1 and facts is None, problems


def test_invalid_draws_counts_merges_outside_candidates():
    labelings = np.array([[0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 1, 2]])
    assert checks.invalid_draws(labelings, np.array([[0, 1]])) == 2


def test_bulk_ess():
    rng = np.random.default_rng(0)
    ess, constant = checks.bulk_ess(rng.normal(size=(2, 2000)))
    assert not constant and 3000 < ess < 5000
    assert checks.bulk_ess(np.cumsum(rng.normal(size=(1, 2000)), axis=1))[0] < 100
    assert checks.bulk_ess(np.full((2, 50), 7)) == (100.0, True)


def test_check_metrics_flags_out_of_range(tmp_path):
    path = tmp_path / "m.json"
    ok = {"median": 0.9, "p01": 0.5, "p99": 1.0}
    path.write_text(json.dumps({"precision": ok, "recall": ok}))
    assert checks.check_metrics(path)[0] == []
    path.write_text(json.dumps({"precision": ok,
                                "recall": dict(ok, p99=1.5)}))
    assert len(checks.check_metrics(path)[0]) == 1
    path.write_text(json.dumps({"precision": ok}))
    problems, summary = checks.check_metrics(path)
    assert len(problems) == 1 and summary is None
