"""End-to-end acceptance checks.

Every test here verifies one released guarantee of the package and
prints a single ``[acceptance] <id>: PASS/FAIL`` line with the measured
numbers, in addition to the normal pytest outcome. The ids A1..A8 match
the order of the checks below:

A1  worked-example posterior: modes, near-symmetry, concentration
A2  frozen-parameter chain matches exact enumeration in total variation
A3  string distance against a reference implementation; level cut points
A4  parameter-block distributions (level probabilities, truncated-Beta
    draws, duplicate-count draws) against analytic values
A5  strict truncation priors buy precision on synthetic files
A6  pairwise-link model produces nontransitive links, partitions cannot
A7  full single-threaded run on a 500-record file inside the time budget
A8  a never-observed field leaves the posterior unchanged
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import mpmath
import numpy as np

from bayesdedupe.candidates import FixRule, all_pairs, fix_noncoreferent
from bayesdedupe.comparison import LevelSpec, binary_spec, compare_pairs
from bayesdedupe.gibbs import SamplerConfig, run_chain
from bayesdedupe.mixture import count_nontransitive_triplets, run_mixture
from bayesdedupe.model import ModelParams, PriorSpec
from bayesdedupe.partition import format_partition
from bayesdedupe.posterior import duplicate_distribution, metric_summary
from bayesdedupe.records import DataFile, FieldSchema, Record
from bayesdedupe.synthgen import (GeneratorConfig, default_fields, generate,
                                  sample_duplicate_count,
                                  truncated_poisson_pmf)

from conftest import compared_setup
from oracles import (bin_level, delta_from_labeling, enumerate_valid_partitions,
                     levenshtein, log_posterior_unnormalized,
                     partition_to_labeling, sample_truncated_beta, star_probs)
from presets import (toy_comparisons, toy_fix_rules, toy_level_specs,
                     toy_prior, toy_schema)


def report(capsys, label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def partition_freqs(sample) -> dict:
    """Empirical partition distribution of the retained draws."""
    counts: dict = {}
    for row in sample.labelings:
        key = tuple(row.tolist())
        counts[key] = counts.get(key, 0) + 1
    return {k: v / sample.n_kept for k, v in counts.items()}


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# A1: the five-record worked example under its four prior regimes.

def test_a1_worked_example_posterior_shape(capsys):
    df, comps, graph = toy_comparisons()
    freqs = {}
    slowest = 0.0
    for case in (1, 2, 3, 4):
        t0 = time.perf_counter()
        sample = run_chain(comps, graph, toy_prior(case),
                           SamplerConfig(iterations=10000, burn_in=1000,
                                         seed=11))
        slowest = max(slowest, time.perf_counter() - t0)
        freqs[case] = {format_partition(np.array(k)): v
                       for k, v in partition_freqs(sample).items()}

    mode1 = max(freqs[1], key=freqs[1].get)
    ok1 = mode1 == "0,1,2/3,4" and freqs[1][mode1] >= 0.5
    mode3 = max(freqs[3], key=freqs[3].get)
    ok3 = mode3 == "0,1,2/3/4" and freqs[3][mode3] >= 0.5

    gap2 = abs(freqs[2].get("0,1/2/3,4", 0.0) - freqs[2].get("0/1,2/3,4", 0.0))
    gap4 = abs(freqs[4].get("0,1/2/3/4", 0.0) - freqs[4].get("0/1,2/3/4", 0.0))
    # grouping the garbled pair should be all but ruled out under case 4
    grouped = sum(v for k, v in freqs[4].items() if "3,4" in k)

    top8 = min(sum(sorted(f.values(), reverse=True)[:8])
               for f in freqs.values())

    ok = (ok1 and ok3 and gap2 <= 0.10 and gap4 <= 0.10
          and grouped <= 0.05 and top8 >= 0.99 and slowest <= 10.0)
    report(capsys, "A1", ok,
           f"modes {mode1}@{freqs[1][mode1]:.3f} / {mode3}@{freqs[3][mode3]:.3f}, "
           f"symmetry gaps {gap2:.3f}/{gap4:.3f} (limit 0.10), "
           f"grouped mass {grouped:.3f} (limit 0.05), "
           f"min top-8 mass {top8:.3f} (floor 0.99), "
           f"slowest case {slowest:.1f}s (limit 10)")


# ---------------------------------------------------------------------------
# A2: with the parameters frozen the chain is an exact sampler, so its
# empirical law must match brute-force enumeration of valid partitions.

def test_a2_frozen_parameter_chain_matches_enumeration(capsys):
    t0 = time.perf_counter()
    prior = PriorSpec.flat([4, 3, 2])
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        df, comps, graph = compared_setup(rng, 4 + k % 3)
        pr = np.random.default_rng(3000 + k)
        params = ModelParams(
            m=[pr.uniform(0.6, 0.95, size=n).tolist() for n in (3, 2, 1)],
            u=[pr.uniform(0.05, 0.45, size=n).tolist() for n in (3, 2, 1)])

        parts = enumerate_valid_partitions(df.r, graph.candidate_pair_set())
        logs = np.array([log_posterior_unnormalized(
            partition_to_labeling(p), params, prior, graph, comps)
            for p in parts])
        probs = np.exp(logs - logs.max())
        probs /= probs.sum()
        exact = {tuple(partition_to_labeling(p)): q
                 for p, q in zip(parts, probs)}

        sample = run_chain(comps, graph, prior,
                           SamplerConfig(iterations=50000, burn_in=0,
                                         seed=2000 + k),
                           fixed_params=params)
        worst = max(worst, tv_distance(exact, partition_freqs(sample)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed <= 60.0
    report(capsys, "A2", ok,
           f"20 files, worst TV {worst:.4f} (limit 0.02), "
           f"{elapsed:.1f}s (limit 60)")


# ---------------------------------------------------------------------------
# A3: edit distance against an independent reference implementation and
# the binning convention at the exact cut points.

def test_a3_string_distance_and_level_boundaries(capsys):
    @lru_cache(maxsize=None)
    def reference(a: str, b: str) -> int:
        if not a:
            return len(b)
        if not b:
            return len(a)
        return min(reference(a[1:], b[1:]) + (a[0] != b[0]),
                   reference(a[1:], b) + 1,
                   reference(a, b[1:]) + 1)

    rng = np.random.default_rng(77)
    letters = np.array(list("ABCX"))
    mismatches = 0
    for _ in range(1000):
        a = "".join(rng.choice(letters, size=rng.integers(0, 9)))
        b = "".join(rng.choice(letters, size=rng.integers(0, 9)))
        if levenshtein(a, b) != reference(a, b):
            mismatches += 1

    frac = LevelSpec(field="s", kind="levenshtein",
                     cut_points=(0.0, 0.25, 0.5, 1.0))
    gap = LevelSpec(field="n", kind="absolute_difference",
                    cut_points=(0.0, 1.0, 3.0, math.inf))
    # a similarity exactly at a cut point falls on the milder side
    edges_ok = ([bin_level(x, frac) for x in (0.0, 0.25, 0.5, 1.0)]
                == [0, 1, 2, 3]
                and [bin_level(x, gap) for x in (0.0, 1.0, 3.0, 4.0)]
                == [0, 1, 2, 3])

    ok = mismatches == 0 and edges_ok
    report(capsys, "A3", ok,
           f"1000 random pairs, {mismatches} distance mismatches, "
           f"cut-point binning {'ok' if edges_ok else 'wrong'}")


# ---------------------------------------------------------------------------
# A4: distributional building blocks against analytic values.

def tbeta_moment(a: float, b: float, lam: float, k: int) -> float:
    """E[x^k] for Beta(a, b) restricted to (lam, 1), high precision."""
    with mpmath.workdps(60):
        w = mpmath.mpf(1) - mpmath.mpf(lam)
        num = mpmath.betainc(b, a + k, 0, w)
        den = mpmath.betainc(b, a, 0, w)
        return float(num / den)


def test_a4_parameter_block_distributions(capsys):
    rng = np.random.default_rng(4242)
    worst_sum = 0.0
    worst_seq = 0.0
    for _ in range(10000):
        m = rng.uniform(0.01, 0.99, size=int(rng.integers(1, 7)))
        p = star_probs(m)
        worst_sum = max(worst_sum, abs(p.sum() - 1.0))
        q = np.empty(len(m) + 1)
        rest = 1.0
        for lvl, cond in enumerate(m):
            q[lvl] = rest * cond
            rest *= 1.0 - cond
        q[len(m)] = rest
        worst_seq = max(worst_seq, float(np.max(np.abs(p - q))))
    probs_ok = worst_sum <= 1e-12 and worst_seq <= 1e-12

    worst_z = 0.0
    support_ok = True
    for i, (a, b, lam) in enumerate(((1.0, 1.0, 0.85), (11.0, 1.0, 0.85),
                                     (2.0, 5.0, 0.5))):
        draws_rng = np.random.default_rng(600 + i)
        draws = np.array([sample_truncated_beta(draws_rng, a, b, lam)
                          for _ in range(30000)])
        support_ok &= bool(np.all((draws >= lam) & (draws < 1.0)))
        exact = tbeta_moment(a, b, lam, 1)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        worst_z = max(worst_z, abs(draws.mean() - exact) / se)
    beta_ok = support_ok and worst_z <= 3.0

    count_rng = np.random.default_rng(314)
    n = 1_000_000
    counts = np.bincount([sample_duplicate_count(count_rng)
                          for _ in range(n)], minlength=6)[1:6]
    pmf = truncated_poisson_pmf()
    worst_pois = 0.0
    for k in range(5):
        se = math.sqrt(pmf[k] * (1.0 - pmf[k]) / n)
        worst_pois = max(worst_pois, abs(counts[k] / n - pmf[k]) / se)
    pois_ok = worst_pois <= 3.0

    ok = probs_ok and beta_ok and pois_ok
    report(capsys, "A4", ok,
           f"level-prob deviation {max(worst_sum, worst_seq):.2e} "
           f"(limit 1e-12), truncated-Beta worst z {worst_z:.2f}, "
           f"duplicate-count worst z {worst_pois:.2f} (limits 3)")


# ---------------------------------------------------------------------------
# A5: on synthetic files with one error per duplicate, strict truncation
# recovers the duplicates; loosening it costs precision.

SYNTH_NAME_CUTS = (0.0, 0.25, 0.5, 1.0)


def synth_level_specs() -> list:
    return [
        binary_spec("gender"),
        LevelSpec(field="given_name", kind="levenshtein",
                  cut_points=SYNTH_NAME_CUTS),
        LevelSpec(field="family_name", kind="levenshtein",
                  cut_points=SYNTH_NAME_CUTS),
        binary_spec("age_group"),
        binary_spec("occupation"),
        LevelSpec(field="postal_code", kind="levenshtein",
                  cut_points=SYNTH_NAME_CUTS),
        LevelSpec(field="phone", kind="levenshtein",
                  cut_points=SYNTH_NAME_CUTS),
    ]


def synth_fix_rules() -> list:
    return [FixRule(conditions=(("given_name", 3),)),
            FixRule(conditions=(("family_name", 3),))]


def synth_prior(lam: float) -> PriorSpec:
    lambdas = []
    for spec in synth_level_specs():
        lambdas.append([lam] * (len(spec.cut_points) - 1)
                       if spec.kind != "binary" else [lam])
    return PriorSpec.from_lambdas(lambdas)


def test_a5_truncation_prior_drives_precision(capsys):
    specs = synth_level_specs()
    rules = synth_fix_rules()
    priors = {lam: synth_prior(lam) for lam in (0.95, 0.5)}
    medians = {lam: {"recall": [], "precision": []} for lam in priors}

    for k in range(20):
        cfg = GeneratorConfig(n_originals=450, n_duplicates=50,
                              errors_per_duplicate=1, seed=500 + k,
                              fields=default_fields(),
                              misspellings_table="family_misspellings.csv")
        result = generate(cfg)
        comps = compare_pairs(result.data, all_pairs(result.data.r), specs)
        graph = fix_noncoreferent(comps, rules)
        for lam, prior in priors.items():
            sample = run_chain(comps, graph, prior,
                               SamplerConfig(iterations=10000, burn_in=1000,
                                             seed=100 + k))
            summary = metric_summary(sample, result.truth)
            medians[lam]["recall"].append(summary["recall"]["median"])
            medians[lam]["precision"].append(summary["precision"]["median"])

    rec_strict = float(np.mean(medians[0.95]["recall"]))
    prec_strict = float(np.mean(medians[0.95]["precision"]))
    prec_loose = float(np.mean(medians[0.5]["precision"]))
    ok = rec_strict >= 0.80 and prec_strict >= 0.80 and prec_loose < prec_strict
    report(capsys, "A5", ok,
           f"strict prior recall {rec_strict:.3f} / precision "
           f"{prec_strict:.3f} (floors 0.80), loose-prior precision "
           f"{prec_loose:.3f} (must be lower)")


# ---------------------------------------------------------------------------
# A6: records arranged so that pairwise evidence is intransitive. The
# independent-links model follows it; the partition model cannot.

def chained_triples_file() -> DataFile:
    schema = [FieldSchema(name="name", kind="string"),
              FieldSchema(name="year", kind="integer")]
    rows = []
    for i, base in enumerate(("CARMONA", "VILLEGAS", "MONSALVE", "OSPINA")):
        rows.append((base, 1900 + 20 * i))
        rows.append((base + "S", None))
        rows.append((base + "SES", 1915 + 20 * i))
    records = [Record(id=k, values=vals) for k, vals in enumerate(rows)]
    return DataFile(schema=schema, records=records)


def test_a6_link_model_breaks_transitivity(capsys):
    df = chained_triples_file()
    specs = [LevelSpec(field="name", kind="levenshtein",
                       cut_points=(0.0, 0.25, 0.5, 1.0)),
             LevelSpec(field="year", kind="absolute_difference",
                       cut_points=(0.0, 1.0, math.inf))]
    comps = compare_pairs(df, all_pairs(df.r), specs)
    graph = fix_noncoreferent(comps, [FixRule(conditions=(("name", 3),))])
    prior = PriorSpec.from_lambdas([[0.5] * 3, [0.5] * 2])
    cfg = SamplerConfig(iterations=3000, burn_in=500, seed=23)

    part = run_chain(comps, graph, prior, cfg)
    part_bad = 0
    for row in part.labelings:
        delta = delta_from_labeling(row, comps.pairs)
        part_bad += count_nontransitive_triplets(
            df.r, comps.pairs[delta == 1])

    mix = run_mixture(comps, graph, prior, cfg)
    share = float(np.mean(mix.nontransitive >= 1))

    ok = part_bad == 0 and share >= 0.10
    report(capsys, "A6", ok,
           f"partition draws with nontransitive links: {part_bad} "
           f"(must be 0), link-model share {share:.2f} (floor 0.10)")


# ---------------------------------------------------------------------------
# A7: generate, compare, sample and summarize 500 records in one thread
# within a minute.

def test_a7_full_run_within_time_budget(capsys):
    t0 = time.perf_counter()
    cfg = GeneratorConfig(n_originals=450, n_duplicates=50,
                          errors_per_duplicate=1, seed=991,
                          fields=default_fields(),
                          misspellings_table="family_misspellings.csv")
    result = generate(cfg)
    comps = compare_pairs(result.data, all_pairs(result.data.r),
                          synth_level_specs(), n_workers=1)
    graph = fix_noncoreferent(comps, synth_fix_rules())
    sample = run_chain(comps, graph, synth_prior(0.95),
                       SamplerConfig(iterations=10000, burn_in=1000,
                                     seed=991))
    summary = metric_summary(sample, result.truth)
    dist = duplicate_distribution(sample)
    elapsed = time.perf_counter() - t0

    ok = (elapsed <= 60.0 and sample.n_kept == 9000
          and 0.0 <= summary["recall"]["median"] <= 1.0
          and dist["mean"] >= 0.0)
    report(capsys, "A7", ok,
           f"500 records end to end in {elapsed:.1f}s (limit 60), "
           f"9000 retained draws")


# ---------------------------------------------------------------------------
# A8: appending a field that is missing on every record must not change
# the posterior. With frozen parameters the draw sequence is identical;
# with sampled parameters the partition law agrees within noise.

def augmented_toy():
    base_df, comps, graph = toy_comparisons()
    schema = toy_schema() + [FieldSchema(name="note", kind="string")]
    records = [Record(id=rec.id, values=tuple(rec.values) + (None,))
               for rec in base_df.records]
    df2 = DataFile(schema=schema, records=records)
    specs2 = toy_level_specs() + [binary_spec("note")]
    comps2 = compare_pairs(df2, all_pairs(df2.r), specs2)
    graph2 = fix_noncoreferent(comps2, toy_fix_rules())
    return comps, graph, comps2, graph2


TOY_LAMBDAS = [[0.85] * 3, [0.85] * 3, [0.95] * 3, [0.85] * 3, [0.85] * 3,
               [0.95]]


def test_a8_all_missing_field_leaves_posterior_unchanged(capsys):
    comps, graph, comps2, graph2 = augmented_toy()
    prior = PriorSpec.from_lambdas(TOY_LAMBDAS)
    prior2 = PriorSpec.from_lambdas(TOY_LAMBDAS + [[0.0]])

    params = ModelParams(
        m=[[0.9] * 3, [0.9] * 3, [0.97] * 3, [0.9] * 3, [0.9] * 3, [0.97]],
        u=[[0.2] * 3, [0.2] * 3, [0.3] * 3, [0.3] * 3, [0.3] * 3, [0.3]])
    params2 = ModelParams(m=params.m + [[0.5]], u=params.u + [[0.5]])

    frozen = SamplerConfig(iterations=2000, burn_in=0, seed=5)
    base_frozen = run_chain(comps, graph, prior, frozen, fixed_params=params)
    aug_frozen = run_chain(comps2, graph2, prior2, frozen,
                           fixed_params=params2)
    frozen_same = np.array_equal(base_frozen.labelings, aug_frozen.labelings)

    full = SamplerConfig(iterations=10000, burn_in=1000, seed=1)
    base_1 = run_chain(comps, graph, prior, full)
    base_repeat = run_chain(comps, graph, prior, full)
    seeds_same = np.array_equal(base_1.labelings, base_repeat.labelings)
    base_2 = run_chain(comps, graph, prior,
                       SamplerConfig(iterations=10000, burn_in=1000, seed=2))
    aug_1 = run_chain(comps2, graph2, prior2, full)

    noise = tv_distance(partition_freqs(base_1), partition_freqs(base_2))
    shift = tv_distance(partition_freqs(base_1), partition_freqs(aug_1))
    bound = max(2.0 * noise, 0.05)

    ok = frozen_same and seeds_same and shift <= bound
    report(capsys, "A8", ok,
           f"frozen draws identical: {frozen_same}, same-seed repeat "
           f"identical: {seeds_same}, augmented-file TV shift {shift:.4f} "
           f"(bound {bound:.4f}, seed noise {noise:.4f})")
