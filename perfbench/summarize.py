#!/usr/bin/env python3
"""Summarize the run records that run.py kept in perfbench/work/results/.

    python3 perfbench/summarize.py [RESULTS_DIR] > summary.json

For every workload and end-to-end metric: the number of runs, their
median, first and third quartile, and the spread (q3 - q1) / median, the
figure the benchmark's bounds are checked against. Traced runs add the
median of every per-layer metric and the sha256 of each run's labelings.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def quartiles(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv: list) -> int:
    results = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent / "work" / "results")
    runs = defaultdict(list)
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"]["name"], record["trace"])].append(record)
    out = {"workloads": {}}
    for (name, trace), records in sorted(runs.items()):
        entry = out["workloads"].setdefault(name, {})
        out["machine"] = records[-1]["machine"]
        counts = {"runs": len(records),
                  "seeds": sorted(r["seed"] for r in records),
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records)}
        if trace:
            layer = defaultdict(list)
            for r in records:
                for key, value in r["per_layer"].items():
                    layer[key].append(value)
            entry["traced"] = dict(counts, labelings_sha256={
                str(r["seed"]): r["trace_record"].get("labelings_sha256")
                for r in records},
                per_layer_median={k: statistics.median(v)
                                  for k, v in sorted(layer.items())})
        else:
            metrics = defaultdict(list)
            for r in records:
                for key, value in r["end_to_end"].items():
                    if value is not None:
                        metrics[key].append(value)
            entry["end_to_end"] = dict(counts, properties=records[0]["properties"],
                                       metrics={k: quartiles(v)
                                                for k, v in metrics.items()})
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
