"""Traced in-process run of one benchmark repetition.

    python3 perfbench/launch.py LOG python3 perfbench/traced.py SPEC.json

Started by run.py through launch.py, with src/ on PYTHONPATH. It calls
the layer functions in the order cli.cmd_dedupe and then cli.cmd_evaluate
call them, on the same file and sampler seed as an untraced repetition,
and records one span (name, start, end, parent) and its counts per call.
After the pipeline it times a few probes on their own: the sampler
context, the parameter block, canonicalization and the synthetic
generator. Spans stay in memory and go to OUT_DIR/trace.json at the end,
together with the per-layer metrics derived from them.

Times are time.monotonic() seconds since PERFBENCH_SPAWN_MONOTONIC, the
moment launch.py started this process and the moment the wall time of an
untraced `dedupe` child starts from, so the first span covers interpreter
start and imports as that child's time does.
"""

import json
import os
import resource
import sys
import time
import types

import numpy as np

from bayesdedupe import (candidates, comparison, config as config_mod, gibbs,
                         model, partition, posterior, records, synthgen)


PARAM_LOOPS = 200


class Tracer:
    """Spans and counts in memory; one span per traced call."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans = []
        self.stack = []

    def open(self, name: str, start: float | None = None) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "start": (time.monotonic() if start is None else start)
                - self.origin, "end": None, "counts": {}}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> dict:
        span["end"] = time.monotonic() - self.origin
        self.stack.pop()
        return span

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def dump(self) -> list:
        for s in self.spans:
            inner = sum(c["end"] - c["start"] for c in self.spans
                        if c["parent"] == s["id"])
            s["self_s"] = s["end"] - s["start"] - inner
        return self.spans


def high_water_mb() -> float:
    """Peak RSS so far of this process or any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main(spec_path: str, spawn: float) -> None:
    tracer = Tracer(spawn)
    root = tracer.open("dedupe", start=spawn)
    tracer.close(tracer.open("imports", start=spawn))

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = spec["workload"]
    out_dir = spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def out(name: str) -> str:
        path = os.path.join(out_dir, name)
        written.append(path)
        return path

    # --- cli.cmd_dedupe ------------------------------------------------------

    span = tracer.open("config.load")
    cfg = config_mod.load_config(os.path.join(spec["data_dir"], "workload.yaml"))
    sc = cfg.sampler
    cfg.sampler = gibbs.SamplerConfig(
        iterations=wl["iterations"], burn_in=wl["burn_in"], thinning=sc.thinning,
        seed=spec["seed"], chains=sc.chains, random_scan=sc.random_scan)
    tracer.close(span)
    threads = wl["threads"]

    df = tracer.call("records.load", records.load_delimited, cfg.input.path,
                     cfg.schema, delimiter=cfg.input.delimiter,
                     missing_token=cfg.input.missing_token)
    if cfg.input.required:
        df, _ = tracer.call("records.filter_required", records.filter_required,
                            df, list(cfg.input.required))
    hw0 = high_water_mb()
    span = tracer.open("candidates.build_pairs")
    pairs = candidates.build_pairs(df, cfg.filter_rules)
    span["counts"]["compared_pairs"] = len(pairs)
    tracer.close(span)
    hw1 = high_water_mb()
    span = tracer.open("comparison.compare_pairs")
    comps = comparison.compare_pairs(df, pairs, cfg.level_specs, n_workers=threads)
    span["counts"]["compared_pairs"] = len(comps)
    tracer.close(span)
    hw2 = high_water_mb()
    span = tracer.open("candidates.fix_noncoreferent")
    graph = candidates.fix_noncoreferent(comps, cfg.fix_rules)
    span["counts"]["candidate_pairs"] = graph.n_candidates
    tracer.close(span)

    tracer.call("output.comparisons_csv", comps.write_csv, out("comparisons.csv"))
    tracer.call("output.edges_csv", graph.write_edges, out("candidate_edges.csv"))

    span = tracer.open("gibbs.run_chains")
    chains = gibbs.run_chains(comps, graph, cfg.prior, cfg.sampler,
                              n_workers=threads)
    span["counts"].update(chains=len(chains), sweeps=cfg.sampler.iterations,
                          retained=sum(c.n_kept for c in chains))
    tracer.close(span)
    pooled = tracer.call("posterior.pool_samples", posterior.pool_samples, chains)
    tracer.call("output.labelings", posterior.save_labelings,
                out("posterior_labelings.txt"), pooled)
    if len(chains) == 1:
        tracer.call("output.phi_trace", posterior.save_phi_trace,
                    out("phi_trace.csv"), chains[0])
    else:
        for k, ch in enumerate(chains):
            tracer.call("output.phi_trace", posterior.save_phi_trace,
                        out(f"phi_trace_chain{k}.csv"), ch)
    dups = tracer.call("posterior.duplicate_distribution",
                       posterior.duplicate_distribution, pooled,
                       interval=cfg.output.interval)
    tracer.call("output.duplicates_json", posterior.write_json,
                out("duplicates.json"), dups)
    if cfg.output.pairwise:
        probs = tracer.call("posterior.pairwise_probabilities",
                            posterior.pairwise_probabilities, pooled, graph)
        tracer.call("output.pairwise_csv", posterior.write_pairwise_csv,
                    out("pairwise_probabilities.csv"), graph, probs)
    if cfg.output.frequencies:
        table = tracer.call("posterior.partition_frequency_table",
                            posterior.partition_frequency_table, pooled)
        tracer.call("output.frequency_csv", posterior.write_frequency_csv,
                    out("partition_frequencies.csv"), table)
    manifest = {
        "records": df.r, "compared_pairs": graph.n_pairs,
        "candidate_pairs": graph.n_candidates, "fixed_pairs": graph.n_fixed,
        "chains": len(chains), "retained_per_chain": chains[0].n_kept,
        "seed": cfg.sampler.seed,
        "outputs": [os.path.basename(p) for p in written],
    }
    tracer.call("output.manifest", posterior.write_json,
                os.path.join(out_dir, "manifest.json"), manifest)
    tracer.close(root)
    dedupe_wall = root["end"] - root["start"]

    # the benchmark's own helpers load after the part timed against dedupe
    import checks

    # --- cli.cmd_evaluate ----------------------------------------------------

    root = tracer.open("evaluate")
    labelings = tracer.call("posterior.load_labelings", posterior.load_labelings,
                            os.path.join(out_dir, "posterior_labelings.txt"))
    truth = tracer.call("posterior.load_truth", posterior.load_truth,
                        os.path.join(spec["data_dir"], "truth.csv"),
                        r=labelings.shape[1])
    view = types.SimpleNamespace(
        labelings=labelings, r=labelings.shape[1], n_kept=labelings.shape[0],
        n_cells_per_sample=lambda: labelings.max(axis=1) + 1)
    summary = tracer.call("posterior.metric_summary", posterior.metric_summary,
                          view, truth)
    summary.update(tracer.call("posterior.duplicate_distribution",
                               posterior.duplicate_distribution, view))
    tracer.call("output.metrics_json", posterior.write_json,
                os.path.join(out_dir, "metrics.json"), summary)
    tracer.close(root)

    # --- probes, each timed on its own ---------------------------------------

    root = tracer.open("probes")
    ctx = tracer.call("gibbs.SamplerContext", gibbs.SamplerContext, comps, graph)

    # parameter block on the final state of the first chain: the last retained
    # draw is the state after the last sweep
    final = model.sufficient_stats(chains[0].labelings[-1], graph, comps)
    stats = model.SufficientStats(a1=[v.tolist() for v in final.a1],
                                  a0=[v.tolist() for v in final.a0])
    flat = gibbs.flatten_prior(cfg.prior)
    rng = np.random.default_rng(spec["seed"])
    span = tracer.open("gibbs.param_block")
    for _ in range(PARAM_LOOPS):
        m_list, u_list, _, _ = gibbs.draw_params(rng, flat, stats)
        ctx.log_ratios(model.ModelParams(m=m_list, u=u_list))
    span["counts"]["loops"] = PARAM_LOOPS
    tracer.close(span)

    for ch in chains:
        tracer.call("partition.canonicalize_label_rows",
                    partition.canonicalize_label_rows, ch.labelings)

    gen_cfg = synthgen.GeneratorConfig(
        n_originals=wl["originals"], n_duplicates=wl["duplicates"],
        errors_per_duplicate=1, seed=spec["data_seed"],
        fields=synthgen.default_fields(),
        misspellings_table="family_misspellings.csv")
    generated = tracer.call("synthgen.generate", synthgen.generate, gen_cfg)
    os.makedirs(spec["synth_dir"], exist_ok=True)
    tracer.call("records.write_delimited", records.write_delimited, generated.data,
                os.path.join(spec["synth_dir"], "records.csv"))
    tracer.call("synthgen.write_truth", synthgen.write_truth,
                os.path.join(spec["synth_dir"], "truth.csv"), generated.truth)
    tracer.close(root)

    # --- per-layer metrics ---------------------------------------------------

    s = tracer.seconds
    n_pairs = len(comps)
    sizes = checks.component_sizes(df.r, graph.candidate_pairs())
    active = sizes > 1
    dup_trace = checks.duplicate_trace(pooled.labelings, len(chains))
    dup_ess, _ = checks.bulk_ess(dup_trace)
    sweep_ms = (1e3 * float(np.median([c.runtime_s for c in chains]))
                / wl["iterations"])
    param_ms = 1e3 * s("gibbs.param_block") / PARAM_LOOPS
    canon_s = s("partition.canonicalize_label_rows") / len(chains)
    output_spans = ("output.phi_trace", "output.duplicates_json",
                    "output.pairwise_csv", "output.frequency_csv",
                    "output.manifest")
    metrics = {
        "records.load_s": s("records.load"),
        "candidates.build_pairs_s": s("candidates.build_pairs"),
        "candidates.build_pairs_rss_mb": hw1 - hw0,
        "candidates.compared_pairs": n_pairs,
        "candidates.fix_s": s("candidates.fix_noncoreferent"),
        "candidates.candidate_pairs": graph.n_candidates,
        "candidates.candidate_share": graph.n_candidates / n_pairs,
        "candidates.active_records": int(active.sum()),
        "candidates.largest_component": int(sizes.max()),
        "candidates.records_in_components_le4": int((active & (sizes <= 4)).sum()),
        "comparison.compare_s": s("comparison.compare_pairs"),
        "comparison.us_per_pair": 1e6 * s("comparison.compare_pairs") / n_pairs,
        "comparison.rss_mb": hw2 - hw1,
        "gibbs.chains_s": s("gibbs.run_chains"),
        "gibbs.context_s": s("gibbs.SamplerContext"),
        "gibbs.sweep_ms": sweep_ms,
        "gibbs.param_block_ms": param_ms,
        # derived: what is left of a sweep after the parameter block and the
        # per-sweep share of context build and canonicalization
        "gibbs.label_block_ms": sweep_ms - param_ms - 1e3 * (
            s("gibbs.SamplerContext") + canon_s) / wl["iterations"],
        "gibbs.dup_ess": dup_ess,
        "gibbs.n_cells_mean": float((pooled.r - dup_trace).mean()),
        "partition.canonicalize_s": canon_s,
        "posterior.pool_s": s("posterior.pool_samples"),
        "posterior.pairwise_s": s("posterior.pairwise_probabilities"),
        "posterior.duplicate_distribution_s": s("posterior.duplicate_distribution"),
        "posterior.frequency_table_s": s("posterior.partition_frequency_table"),
        "posterior.distinct_partitions": checks.distinct_rows(pooled.labelings),
        "posterior.load_labelings_s": s("posterior.load_labelings"),
        "posterior.metric_summary_s": s("posterior.metric_summary"),
        "output.comparisons_csv_s": s("output.comparisons_csv"),
        "output.edges_csv_s": s("output.edges_csv"),
        "output.labelings_s": s("output.labelings"),
        "output.other_s": sum(s(name) for name in output_spans),
        "output.bytes": sum(os.path.getsize(p) for p in written)
        + os.path.getsize(os.path.join(out_dir, "manifest.json")),
        "synthgen.generate_s": s("synthgen.generate"),
    }
    for field, share in checks.distinct_value_pair_share(
            df, pairs, cfg.level_specs).items():
        metrics[f"comparison.distinct_value_pair_share.{field}"] = share

    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"dedupe_wall_s": dedupe_wall, "metrics": metrics,
                   "component_size_histogram": checks.component_histogram(
                       df.r, graph.candidate_pairs()),
                   "spans": tracer.dump()}, fh, indent=1)


if __name__ == "__main__":
    main(sys.argv[1], float(os.environ["PERFBENCH_SPAWN_MONOTONIC"]))
