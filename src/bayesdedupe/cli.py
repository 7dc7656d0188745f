"""Command line entry points.

Subcommands: dedupe (full pipeline), compare (comparison data only),
synth (generate a benchmark file), evaluate (score saved labelings
against ground truth), baseline (independent-pairs mixture run).
Every command but evaluate writes into one output directory, whose
manifest.json lists the files written there in write order
(outputs) beside version, command and finished_at. The commands that
read a config (dedupe, compare, baseline) also record config_echo,
runtime_s, records, dropped, compared_pairs, candidate_pairs and
fixed_pairs. Exit codes: 0 success, 2 configuration problems, 3 data
problems, 4 internal failure (with a traceback on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time
import traceback

from . import __version__, posterior, records
from .errors import ConfigError, DataError
from .textio import open_output, write_int_rows

log = logging.getLogger("bayesdedupe")


class RunRecord:
    """One command's output directory, created here (a path that cannot
    be one is a data error), and its manifest.json. path() names each
    output file and records it, in write order, as the manifest's
    outputs; a command that reads a config also gets config_echo and
    runtime_s, the seconds since the directory was created."""

    def __init__(self, directory):
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as e:
            raise DataError(f"{directory}: cannot create output directory "
                            f"({e.strerror})") from None
        self.directory = directory
        self.outputs = []
        self.start = time.perf_counter()

    def path(self, name: str) -> str:
        self.outputs.append(name)
        return os.path.join(self.directory, name)

    def write_manifest(self, args, keys: dict) -> None:
        manifest = {"version": __version__, "command": " ".join(args.argv),
                    "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    **keys, "outputs": self.outputs}
        if getattr(args, "config", None):
            manifest["runtime_s"] = round(time.perf_counter() - self.start, 3)
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    manifest["config_echo"] = fh.read()
            except OSError:
                pass
        posterior.write_json(os.path.join(self.directory, "manifest.json"),
                             manifest)


def _load_config(args):
    """The pipeline config with the command line's overrides applied."""
    # PyYAML and the comparison layer load only for the commands that
    # read a pipeline config
    from .config import load_config
    cfg = load_config(args.config)
    updates = {key: getattr(args, key) for key in ("seed", "iterations", "burn_in")
               if getattr(args, key, None) is not None}
    # replace() re-runs SamplerConfig's validation
    cfg.sampler = dataclasses.replace(cfg.sampler, **updates)
    if args.output_dir is not None:
        cfg.output.directory = args.output_dir
    return cfg


def _prepare(cfg):
    """The first half of every config-reading command: its run record,
    the compared pairs and the candidate graph, written to
    comparisons.csv and candidate_edges.csv, and the manifest keys that
    every such command records."""
    from . import candidates, comparison

    run = RunRecord(cfg.output.directory)
    df = records.load_delimited(
        cfg.input.path, cfg.schema, delimiter=cfg.input.delimiter,
        missing_token=cfg.input.missing_token)
    dropped = 0
    if cfg.input.required:
        df, dropped = records.filter_required(df, list(cfg.input.required))
        if dropped and cfg.input.on_invalid == "error":
            raise DataError(
                f"{dropped} records are missing required fields")
        if dropped:
            log.info("dropped %d records missing required fields", dropped)
    pairs = candidates.build_pairs(df, cfg.filter_rules)
    comps = comparison.compare_pairs(df, pairs, cfg.level_specs)
    graph = candidates.fix_noncoreferent(comps, cfg.fix_rules)
    comps.write_csv(run.path("comparisons.csv"))
    graph.write_edges(run.path("candidate_edges.csv"))
    shared = {"records": df.r, "dropped": dropped,
              "compared_pairs": graph.n_pairs,
              "candidate_pairs": graph.n_candidates,
              "fixed_pairs": graph.n_fixed}
    return run, comps, graph, shared


def _resolve_threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return args.threads
    return os.cpu_count() or 1


def cmd_dedupe(args) -> int:
    from . import gibbs  # the sampler, which only the sampling commands need

    cfg = _load_config(args)
    threads = _resolve_threads(args)
    run, comps, graph, shared = _prepare(cfg)
    ctx = gibbs.SamplerContext(comps, graph)
    # the context holds what the chains read, and the summaries read only
    # the candidate pairs: dropping the comparisons and the compared pairs
    # frees their level table and pair arrays through the chains
    del comps
    graph = graph.candidates_only()
    chains = gibbs.run_chains(None, None, cfg.prior, cfg.sampler,
                              n_workers=threads, ctx=ctx)
    pooled = posterior.pool_samples(chains)

    posterior.save_labelings(run.path("posterior_labelings.txt"), pooled)
    if len(chains) == 1:
        posterior.save_phi_trace(run.path("phi_trace.csv"), chains[0])
    else:
        for k, ch in enumerate(chains):
            posterior.save_phi_trace(run.path(f"phi_trace_chain{k}.csv"), ch)
    posterior.write_json(run.path("duplicates.json"),
                         posterior.duplicate_distribution(
                             pooled, interval=cfg.output.interval))
    if cfg.output.pairwise:
        posterior.write_pairwise_csv(
            run.path("pairwise_probabilities.csv"), graph,
            posterior.pairwise_probabilities(pooled, graph))
    if cfg.output.frequencies:
        posterior.write_frequency_csv(
            run.path("partition_frequencies.csv"),
            posterior.partition_frequency_table(pooled))

    run.write_manifest(args, {
        **shared, "chains": len(chains),
        "retained_per_chain": chains[0].n_kept, "seed": cfg.sampler.seed,
        **gibbs.component_summary(ctx),
        "single_site_passes": pooled.single_site_passes,
        "tbeta_rejections": pooled.tbeta_rejections,
    })
    print(f"dedupe: {shared['records']} records, {graph.n_candidates} "
          f"candidate pairs, {pooled.n_kept} retained draws -> {run.directory}")
    return 0


def cmd_compare(args) -> int:
    run, _, graph, shared = _prepare(_load_config(args))
    run.write_manifest(args, shared)
    print(f"compare: {shared['records']} records, {graph.n_pairs} compared "
          f"pairs ({graph.n_candidates} candidates) -> {run.directory}")
    return 0


def cmd_synth(args) -> int:
    from . import synthgen

    run = RunRecord(args.output_dir)
    gen_cfg = synthgen.GeneratorConfig(
        n_originals=args.originals, n_duplicates=args.duplicates,
        errors_per_duplicate=args.errors, seed=args.seed,
        fields=synthgen.default_fields(),
        misspellings_table="family_misspellings.csv")
    result = synthgen.generate(gen_cfg)
    records.write_delimited(result.data, run.path("records.csv"))
    synthgen.write_truth(run.path("truth.csv"), result.truth)
    run.write_manifest(args, {
        "records": result.data.r, "originals": args.originals,
        "duplicates": args.duplicates, "errors_per_duplicate": args.errors,
        "seed": args.seed, "edit_fallbacks": result.fallbacks,
    })
    print(f"synth: {result.data.r} records "
          f"({args.originals} entities) -> {args.output_dir}")
    return 0


def cmd_evaluate(args) -> int:
    # every summary is computed once per distinct row and gathered by index
    rows, index = posterior.load_distinct_labelings(args.labelings)
    truth = posterior.load_truth(args.truth, r=rows.shape[1])
    summary = posterior.metric_summary(rows, truth, index=index)
    summary.update(posterior.duplicate_distribution(rows, index=index))
    truth_dups = len(truth) - len(set(truth.tolist()))
    summary["truth_duplicates"] = truth_dups
    summary["truth_percent"] = posterior.duplicate_percentage(
        len(truth), len(set(truth.tolist())))
    posterior.write_json(args.output, summary)
    print(f"evaluate: recall median {summary['recall']['median']:.4f}, "
          f"precision median {summary['precision']['median']:.4f} "
          f"-> {args.output}")
    return 0


def cmd_baseline(args) -> int:
    from . import mixture  # the sampler, which only the sampling commands need

    cfg = _load_config(args)
    run, comps, graph, shared = _prepare(cfg)
    sample = mixture.run_mixture(comps, graph, cfg.prior, cfg.sampler)
    posterior.write_pairwise_csv(run.path("pairwise_probabilities.csv"),
                                 graph, sample.delta_mean)
    with open_output(run.path("p_trace.csv")) as fh:
        fh.write("iteration,p\n")
        for it, p in zip(sample.kept_iterations, sample.p_trace):
            fh.write(f"{int(it)},{p:.8f}\n")
    write_int_rows(run.path("nontransitive.csv"),
                   (sample.kept_iterations, sample.nontransitive),
                   header="iteration,count")

    nt = sample.nontransitive
    share = float((nt > 0).mean()) if len(nt) else 0.0
    run.write_manifest(args, {
        **shared, "retained": sample.n_kept, "seed": cfg.sampler.seed,
        "nontransitive_mean": float(nt.mean()) if len(nt) else 0.0,
        "nontransitive_share": share,
    })
    print(f"baseline: {sample.n_kept} retained draws, nontransitive in "
          f"{share:.1%} of draws -> {run.directory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesdedupe",
        description="Bayesian duplicate detection over record partitions")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def sampling_flags(p):
        p.add_argument("--config", required=True, help="pipeline YAML")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
        p.add_argument("--output-dir", default=None)

    p = sub.add_parser("dedupe", help="run the full partition sampler")
    sampling_flags(p)
    p.add_argument("--threads", type=int, default=None,
                   help="chain worker cap (default: available cores)")
    p.set_defaults(func=cmd_dedupe)

    p = sub.add_parser("compare", help="comparison data and candidate pairs only")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a benchmark file with truth")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--originals", type=int, default=450)
    p.add_argument("--duplicates", type=int, default=50)
    p.add_argument("--errors", type=int, default=1,
                   help="corrupted fields per duplicate")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="score labelings against ground truth")
    p.add_argument("--labelings", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--output", default="metrics.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="independent-pairs mixture run")
    sampling_flags(p)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    args.argv = argv  # what the manifest records as command
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
