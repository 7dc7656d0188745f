#!/usr/bin/env python3
"""Benchmark of the bayesdedupe command line on synthetic files.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, never
from an installed copy. Each workload's file comes from the `synth`
subcommand (set-up, timed several times). Each repetition then runs
`dedupe` and `evaluate` as child processes with a sampler seed derived
from --seed, and checks what they wrote. Repetitions continue while the
next one is expected to finish within --seconds.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 runs untraced repetitions, then perfbench/traced.py on the first
one's seed, which calls the same layer functions in-process in the order
the CLI does and records one span per call; it reports the per-layer
metrics.

Human-readable lines come first; the last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics. Work
files go to perfbench/work/ and are removed at the end of a run, except
one JSON record per run under perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / "work"

# The synthetic file of every workload is generated from this seed.
# Mixing, and so ESS, differs between files drawn from the same generator
# by 20-40 %, more than any bound allows, so --seed varies the sampler
# seeds and the file stays put.
DATA_SEED = 991
SETUP_REPEATS = 5
# evaluate takes 1-3 s and varies by up to 30 % from call to call; the
# median of a few calls per repetition keeps evaluate_s steady
EVALUATE_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    originals: int
    duplicates: int
    iterations: int
    burn_in: int
    threads: int

    @property
    def records(self) -> int:
        return self.originals + self.duplicates


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("a7_r500", 450, 50, iterations=3000, burn_in=300, threads=1),
    Workload("grid_r1000", 900, 100, iterations=6000, burn_in=600, threads=1),
)}

END_TO_END = {  # name -> unit
    "setup_s": "s", "dedupe_s": "s", "evaluate_s": "s", "peak_rss_mb": "MB",
    "dup_ess_per_s": "1/s", "precision_median": "ratio",
    "recall_median": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, log_path: Path) -> dict:
    """Run `python3 ARGV...` to completion through launch.py; returns its
    wall seconds, exit code and peak RSS in MB."""
    done = subprocess.run(
        [sys.executable, HERE / "launch.py", log_path, sys.executable,
         *map(str, argv)], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, check=True)
    return json.loads(done.stdout)


def cli(*args) -> list:
    return ["-m", "bayesdedupe.cli", *args]


def chain_seed(seed: int, rep: int) -> int:
    """Sampler seed of one repetition; repetition 0 uses --seed itself."""
    import numpy as np
    if rep == 0:
        return seed
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def write_config(data_dir: Path) -> Path:
    """The bundled synth.yaml, next to the generated records.csv."""
    path = data_dir / "workload.yaml"
    shutil.copyfile(SRC / "bayesdedupe/data/configs/synth.yaml", path)
    return path


def setup(wl: Workload, data_seed: int, run_dir: Path, repeats: int):
    """Generate the workload's file `repeats` times; returns the data
    directory, the synth wall times and any problems."""
    from checks import sha256
    data_dir = run_dir / "data"
    times, digests, problems = [], set(), []
    for k in range(repeats):
        out = run_dir / f"synth{k}"
        res = run_child(cli("synth", "--output-dir", out, "--seed", data_seed,
                            "--originals", wl.originals, "--duplicates",
                            wl.duplicates, "--errors", 1),
                        run_dir / f"synth{k}.log")
        times.append(res["wall_s"])
        if res["exit"] != 0:
            problems.append(f"synth exited {res['exit']}")
            continue
        digests.add((sha256(out / "records.csv"), sha256(out / "truth.csv")))
        if k == 0:
            out.rename(data_dir)
        else:
            shutil.rmtree(out)
    if len(digests) > 1:
        problems.append("synth wrote different files for the same seed")
    if not problems:
        write_config(data_dir)
    return data_dir, times, problems


def run_rep(wl: Workload, data_dir: Path, out_dir: Path, seed: int):
    """One dedupe + evaluate repetition and its output checks; returns the
    repetition's record and, when every check passed, the checked facts."""
    import checks
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    rep = {"chain_seed": seed, "problems": []}
    ded = run_child(cli("dedupe", "--config", data_dir / "workload.yaml",
                        "--output-dir", out_dir, "--seed", seed,
                        "--iterations", wl.iterations, "--burn-in", wl.burn_in,
                        "--threads", wl.threads), out_dir / "dedupe.log")
    rep.update(dedupe_s=ded["wall_s"], peak_rss_mb=ded["maxrss_mb"])
    if ded["exit"] != 0:
        rep["problems"].append(f"dedupe exited {ded['exit']}")
        return rep, None
    labelings = out_dir / "posterior_labelings.txt"
    evaluate_s = []
    for _ in range(EVALUATE_REPEATS):
        ev = run_child(cli("evaluate", "--labelings", labelings, "--truth",
                           data_dir / "truth.csv", "--output",
                           out_dir / "metrics.json"), out_dir / "evaluate.log")
        evaluate_s.append(ev["wall_s"])
        if ev["exit"] != 0:
            rep["problems"].append(f"evaluate exited {ev['exit']}")
            return rep, None
    rep.update(evaluate_runs_s=evaluate_s,
               evaluate_s=statistics.median(evaluate_s))
    problems, facts = checks.check_dedupe(out_dir, wl.records)
    metric_problems, summary = checks.check_metrics(out_dir / "metrics.json")
    rep["problems"] += problems + metric_problems
    if summary is not None:
        rep["precision_median"] = summary["precision"]["median"]
        rep["recall_median"] = summary["recall"]["median"]
    if labelings.is_file():
        rep["labelings_sha256"] = checks.sha256(labelings)
    if rep["problems"]:
        return rep, None
    ess, constant = checks.bulk_ess(
        checks.duplicate_trace(facts["labelings"], facts["chains"]))
    rep.update(dup_ess=ess, dup_trace_constant=constant,
               dup_ess_per_s=ess / rep["dedupe_s"],
               distinct_partitions=checks.distinct_rows(facts["labelings"]))
    return rep, facts


def data_properties(wl: Workload, data_dir: Path, facts: dict) -> dict:
    """Input properties that claims about a layer must cite."""
    import checks
    from bayesdedupe import config as config_mod, records
    cfg = config_mod.load_config(data_dir / "workload.yaml")
    df = records.load_delimited(cfg.input.path, cfg.schema,
                                delimiter=cfg.input.delimiter,
                                missing_token=cfg.input.missing_token)
    return {
        "records": df.r,
        "compared_pairs": len(facts["pairs"]),
        "candidate_pairs": len(facts["cand"]),
        "component_size_histogram": checks.component_histogram(
            df.r, facts["cand"]),
        "distinct_value_pair_share": checks.distinct_value_pair_share(
            df, facts["pairs"], cfg.level_specs),
    }


def median(values):
    return statistics.median(values) if values else None


def samples(name: str, setup_times: list, reps: list) -> list:
    """Every measured value of one end-to-end metric in a run."""
    if name == "setup_s":
        return list(setup_times)
    return [r[name] for r in reps if name in r]


def end_to_end(setup_times: list, reps: list) -> dict:
    """Medians over the run's repetitions, except dup_ess_per_s: the ESS
    of every checked repetition, summed, over their summed dedupe_s. One
    repetition's ESS estimate varies by about 15 % between sampler
    seeds; a sum averages that out, where a median of few keeps most of
    it."""
    out = {name: median(samples(name, setup_times, reps))
           for name in END_TO_END}
    checked = [r for r in reps if "dup_ess" in r]
    out["dup_ess_per_s"] = (sum(r["dup_ess"] for r in checked)
                            / sum(r["dedupe_s"] for r in checked)
                            if checked else None)
    return out


def traced_run(wl: Workload, data_seed: int, data_dir: Path, run_dir: Path,
               untraced: list):
    """Run traced.py on the first untraced repetition's file and seed;
    returns (per-layer metrics, problems, trace record)."""
    import checks
    out_dir = run_dir / "traced"
    spec = {"workload": asdict(wl), "data_dir": str(data_dir),
            "out_dir": str(out_dir), "seed": untraced[0]["chain_seed"],
            "synth_dir": str(run_dir / "traced_synth"), "data_seed": data_seed}
    spec_path = run_dir / "traced.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    res = run_child([HERE / "traced.py", spec_path], run_dir / "traced.log")
    if res["exit"] != 0:
        return {}, [f"traced run exited {res['exit']}"], {}
    with open(out_dir / "trace.json", encoding="utf-8") as fh:
        trace = json.load(fh)
    problems, _ = checks.check_dedupe(out_dir, wl.records)
    problems += checks.check_metrics(out_dir / "metrics.json")[0]
    digest = checks.sha256(out_dir / "posterior_labelings.txt")
    if digest != untraced[0].get("labelings_sha256"):
        problems.append("traced posterior_labelings.txt differs from the "
                        "untraced run's")
    for name in ("records.csv", "truth.csv"):
        if checks.sha256(run_dir / "traced_synth" / name) != checks.sha256(
                data_dir / name):
            problems.append(f"in-process synth wrote a different {name}")
    metrics = dict(trace["metrics"])
    # both figures run from the moment launch.py started the child
    metrics["trace.overhead_s"] = trace["dedupe_wall_s"] - median(
        [r["dedupe_s"] for r in untraced])
    trace["labelings_sha256"] = digest
    return metrics, problems, trace


def run_workload(wl: Workload, seed: int, seconds: float, trace: int,
                 data_seed: int = DATA_SEED, work: Path = WORK) -> dict:
    """Set up, measure and check one workload; returns the run record.

    Set-up counts against `seconds`. Repetitions continue while the next
    one, and with --trace 1 the traced run after it (about one more
    repetition), would end within `seconds` if each took as long as the
    longest repetition so far; there is always one.
    """
    start = time.perf_counter()
    run_dir = work / f"{wl.name}-seed{seed}-trace{trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    data_dir, setup_times, problems = setup(
        wl, data_seed, run_dir, SETUP_REPEATS if trace == 0 else 1)
    if problems:
        raise RuntimeError(f"{wl.name}: set-up failed: {problems}")
    reps, props, longest = [], None, 0.0
    while True:
        rep_start = time.perf_counter()
        rep, facts = run_rep(wl, data_dir, run_dir / "out",
                             chain_seed(seed, len(reps)))
        if props is None and facts is not None:
            props = data_properties(wl, data_dir, facts)
        reps.append(rep)
        now = time.perf_counter()
        longest = max(longest, now - rep_start)
        if now - start + longest * (1 + trace) > seconds:
            break
    record = {"workload": asdict(wl), "seed": seed, "data_seed": data_seed,
              "trace": trace, "seconds": seconds, "setup_s": setup_times,
              "repetitions": reps, "properties": props,
              "end_to_end": end_to_end(setup_times, reps)}
    failed = sum(1 for r in reps if r["problems"])
    attempted = len(reps)
    if trace:
        layer, trace_problems, trace_rec = traced_run(
            wl, data_seed, data_dir, run_dir, reps)
        record.update(per_layer=layer, trace_problems=trace_problems,
                      trace_record=trace_rec)
        attempted += 1
        failed += bool(trace_problems)
    record.update(attempted=attempted, failed=failed)
    shutil.rmtree(run_dir)
    return record


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "peak_rss": "ru_maxrss of the dedupe process tree from os.wait4 "
                        "(largest single process); nothing system-wide is "
                        "measured"}


def report(record: dict) -> dict:
    """Print a run's metrics by name; return the metrics as
    {name: {value, unit}} for the JSON line."""
    name, reps = record["workload"]["name"], record["repetitions"]
    print(f"== {name}: seed {record['seed']}, data seed {record['data_seed']}, "
          f"{record['failed']}/{record['attempted']} runs failed")
    for rep in reps:
        ess = (f"dup ESS {rep['dup_ess']:.1f}"
               + (" (constant trace)" if rep["dup_trace_constant"] else "")
               if "dup_ess" in rep else "")
        print(f"   rep seed {rep['chain_seed']}: labelings sha256 "
              f"{rep.get('labelings_sha256', '-')} {ess}"
              + ("" if not rep["problems"] else f"  FAILED: {rep['problems']}"))
    props = record["properties"]
    if props:
        print(f"   properties: {json.dumps(props, sort_keys=True)}")
    if record["trace"]:
        trace = record["trace_record"]
        if record["trace_problems"]:
            print(f"   traced run FAILED: {record['trace_problems']}")
        print(f"   traced labelings sha256 {trace.get('labelings_sha256', '-')}")
        metrics = record["per_layer"]
        units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
        for key in sorted(metrics):
            print(f"   {key:48s} {metrics[key]:>14.6g} {units.get(key, '')}")
        return {k: {"value": v, "unit": units.get(k, "")}
                for k, v in metrics.items()}
    out = {}
    print(f"   {'metric':18s} {'unit':6s} {'n':>3s} {'median':>12s} "
          f"{'min':>12s} {'max':>12s}")
    for metric, unit in END_TO_END.items():
        values = samples(metric, record["setup_s"], reps)
        value = record["end_to_end"][metric]
        if value is None:
            continue
        print(f"   {metric:18s} {unit:6s} {len(values):3d} {value:12.6g} "
              f"{min(values):12.6g} {max(values):12.6g}")
        out[metric] = {"value": value, "unit": unit}
    return out


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bayesdedupe" / "cli.py").is_file():
        print(f"no bayesdedupe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bayesdedupe
    if Path(bayesdedupe.__file__).resolve().parent != SRC / "bayesdedupe":
        print(f"bayesdedupe imported from {bayesdedupe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records, metrics = [], {}
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              args.trace)
        record["machine"] = machine()
        records.append(record)
        for key, value in report(record).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        with open(results / f"{name}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True, default=str)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
