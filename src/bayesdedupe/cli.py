"""Command line entry points.

Subcommands: dedupe (full pipeline), compare (comparison data only),
synth (generate a benchmark file), evaluate (score saved labelings
against ground truth), baseline (independent-pairs mixture run).
Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 internal failure (with a traceback on stderr under --verbose).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time
import traceback

from . import __version__, candidates, comparison, config as config_mod
from . import posterior, records, synthgen
from .errors import ConfigError, DataError
from .textio import open_output, write_int_rows

log = logging.getLogger("bayesdedupe")


def _apply_overrides(cfg, args) -> None:
    updates = {key: getattr(args, key) for key in ("seed", "iterations", "burn_in")
               if getattr(args, key) is not None}
    # replace() re-runs SamplerConfig's validation
    cfg.sampler = dataclasses.replace(cfg.sampler, **updates)
    if args.output_dir is not None:
        cfg.output.directory = args.output_dir


def _load_and_prepare(cfg):
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
    return df, comps, graph, dropped


def _write_comparison_outputs(out_dir, comps, graph) -> list:
    comp_path = os.path.join(out_dir, "comparisons.csv")
    comps.write_csv(comp_path)
    edge_path = os.path.join(out_dir, "candidate_edges.csv")
    graph.write_edges(edge_path)
    return [comp_path, edge_path]


def _manifest(args, extra: dict) -> dict:
    out = {
        "version": __version__,
        "command": " ".join(sys.argv[1:]),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                out["config_echo"] = fh.read()
        except OSError:
            pass
    out.update(extra)
    return out


def _make_output_dir(path) -> None:
    """Create the output directory; a path that cannot be one is a data
    error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise DataError(f"{path}: cannot create output directory "
                        f"({e.strerror})") from None


def _resolve_threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return args.threads
    return os.cpu_count() or 1


def cmd_dedupe(args) -> int:
    from . import gibbs  # loads scipy, which only the sampling commands need

    cfg = config_mod.load_config(args.config)
    _apply_overrides(cfg, args)
    threads = _resolve_threads(args)
    out_dir = cfg.output.directory
    _make_output_dir(out_dir)
    t0 = time.perf_counter()
    df, comps, graph, dropped = _load_and_prepare(cfg)
    outputs = _write_comparison_outputs(out_dir, comps, graph)

    ctx = gibbs.SamplerContext(comps, graph)
    chains = gibbs.run_chains(comps, graph, cfg.prior, cfg.sampler,
                              n_workers=threads, ctx=ctx)
    pooled = posterior.pool_samples(chains)

    lab_path = os.path.join(out_dir, "posterior_labelings.txt")
    posterior.save_labelings(lab_path, pooled)
    outputs.append(lab_path)
    if len(chains) == 1:
        phi_path = os.path.join(out_dir, "phi_trace.csv")
        posterior.save_phi_trace(phi_path, chains[0])
        outputs.append(phi_path)
    else:
        for k, ch in enumerate(chains):
            phi_path = os.path.join(out_dir, f"phi_trace_chain{k}.csv")
            posterior.save_phi_trace(phi_path, ch)
            outputs.append(phi_path)

    dup_path = os.path.join(out_dir, "duplicates.json")
    posterior.write_json(dup_path, posterior.duplicate_distribution(
        pooled, interval=cfg.output.interval))
    outputs.append(dup_path)
    if cfg.output.pairwise:
        pw_path = os.path.join(out_dir, "pairwise_probabilities.csv")
        posterior.write_pairwise_csv(
            pw_path, graph, posterior.pairwise_probabilities(pooled, graph))
        outputs.append(pw_path)
    if cfg.output.frequencies:
        fq_path = os.path.join(out_dir, "partition_frequencies.csv")
        posterior.write_frequency_csv(
            fq_path, posterior.partition_frequency_table(pooled))
        outputs.append(fq_path)

    manifest = _manifest(args, {
        "records": df.r, "dropped": dropped,
        "compared_pairs": graph.n_pairs, "candidate_pairs": graph.n_candidates,
        "fixed_pairs": graph.n_fixed, "chains": len(chains),
        "retained_per_chain": chains[0].n_kept, "seed": cfg.sampler.seed,
        "runtime_s": round(time.perf_counter() - t0, 3),
        "outputs": [os.path.basename(p) for p in outputs],
        **gibbs.component_summary(ctx),
        "single_site_passes": pooled.single_site_passes,
    })
    posterior.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"dedupe: {df.r} records, {graph.n_candidates} candidate pairs, "
          f"{pooled.n_kept} retained draws -> {out_dir}")
    return 0


def cmd_compare(args) -> int:
    cfg = config_mod.load_config(args.config)
    if args.output_dir is not None:
        cfg.output.directory = args.output_dir
    out_dir = cfg.output.directory
    _make_output_dir(out_dir)
    t0 = time.perf_counter()
    df, comps, graph, dropped = _load_and_prepare(cfg)
    outputs = _write_comparison_outputs(out_dir, comps, graph)
    manifest = _manifest(args, {
        "records": df.r, "dropped": dropped,
        "compared_pairs": graph.n_pairs, "candidate_pairs": graph.n_candidates,
        "fixed_pairs": graph.n_fixed,
        "runtime_s": round(time.perf_counter() - t0, 3),
        "outputs": [os.path.basename(p) for p in outputs],
    })
    posterior.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"compare: {df.r} records, {graph.n_pairs} compared pairs "
          f"({graph.n_candidates} candidates) -> {out_dir}")
    return 0


def cmd_synth(args) -> int:
    _make_output_dir(args.output_dir)
    gen_cfg = synthgen.GeneratorConfig(
        n_originals=args.originals, n_duplicates=args.duplicates,
        errors_per_duplicate=args.errors, seed=args.seed,
        fields=synthgen.default_fields(),
        misspellings_table="family_misspellings.csv")
    result = synthgen.generate(gen_cfg)
    rec_path = os.path.join(args.output_dir, "records.csv")
    records.write_delimited(result.data, rec_path)
    truth_path = os.path.join(args.output_dir, "truth.csv")
    synthgen.write_truth(truth_path, result.truth)
    manifest = _manifest(args, {
        "records": result.data.r, "originals": args.originals,
        "duplicates": args.duplicates, "errors_per_duplicate": args.errors,
        "seed": args.seed, "edit_fallbacks": result.fallbacks,
        "outputs": ["records.csv", "truth.csv"],
    })
    posterior.write_json(os.path.join(args.output_dir, "manifest.json"),
                         manifest)
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
    from . import mixture  # loads scipy, which only the sampling commands need

    cfg = config_mod.load_config(args.config)
    _apply_overrides(cfg, args)
    out_dir = cfg.output.directory
    _make_output_dir(out_dir)
    t0 = time.perf_counter()
    df, comps, graph, dropped = _load_and_prepare(cfg)
    outputs = _write_comparison_outputs(out_dir, comps, graph)

    sample = mixture.run_mixture(comps, graph, cfg.prior, cfg.sampler)
    pw_path = os.path.join(out_dir, "pairwise_probabilities.csv")
    posterior.write_pairwise_csv(pw_path, graph, sample.delta_mean)
    outputs.append(pw_path)
    p_path = os.path.join(out_dir, "p_trace.csv")
    with open_output(p_path) as fh:
        fh.write("iteration,p\n")
        for it, p in zip(sample.kept_iterations, sample.p_trace):
            fh.write(f"{int(it)},{p:.8f}\n")
    outputs.append(p_path)
    nt_path = os.path.join(out_dir, "nontransitive.csv")
    write_int_rows(nt_path, (sample.kept_iterations, sample.nontransitive),
                   header="iteration,count")
    outputs.append(nt_path)

    nt = sample.nontransitive
    manifest = _manifest(args, {
        "records": df.r, "dropped": dropped,
        "compared_pairs": graph.n_pairs, "candidate_pairs": graph.n_candidates,
        "fixed_pairs": graph.n_fixed, "retained": sample.n_kept,
        "seed": cfg.sampler.seed,
        "nontransitive_mean": float(nt.mean()) if len(nt) else 0.0,
        "nontransitive_share": float((nt > 0).mean()) if len(nt) else 0.0,
        "runtime_s": round(time.perf_counter() - t0, 3),
        "outputs": [os.path.basename(p) for p in outputs],
    })
    posterior.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"baseline: {sample.n_kept} retained draws, nontransitive in "
          f"{manifest['nontransitive_share']:.1%} of draws -> {out_dir}")
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
    args = build_parser().parse_args(argv)
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
        if args.verbose:
            traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
