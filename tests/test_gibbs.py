"""Sampler components: truncated-Beta draws, label updates, chains.

The truncated-Beta oracle works on the survival side: for the Beta(a, b)
density restricted to (lam, 1), E[x^k] is a ratio of unregularized
incomplete Beta values computed at 60 significant digits after the
substitution t = 1 - x, which keeps every integrand on one scale even
when the restricted mass is far below double-precision underflow.
"""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from bayesdedupe.comparison import compare_pairs
from bayesdedupe.candidates import (CandidateGraph, all_pairs,
                                    connected_components)
from bayesdedupe.errors import ConfigError
from bayesdedupe.gibbs import (
    BLOCK_MAX,
    SamplerConfig,
    SamplerContext,
    _block_scores,
    _tbeta_vec,
    chain_seeds,
    draw_params,
    flatten_prior,
    init_state,
    run_chain,
    run_chains,
    sample_truncated_beta,
    sweep,
)
from bayesdedupe.model import ModelParams, PriorSpec, sufficient_stats
from bayesdedupe.partition import (
    enumerate_valid_partitions,
    partition_to_labeling,
)

from conftest import compared_setup, random_file, small_specs
from oracles import (
    bell_number,
    canonical_labels,
    comparison_vector,
    is_valid_labeling,
    log_likelihood_ratio,
    log_posterior_unnormalized,
    update_label,
    update_m,
    update_u,
)


def tbeta_moment(a: float, b: float, lam: float, k: int) -> float:
    """E[x^k] for Beta(a, b) restricted to (lam, 1), high precision."""
    with mpmath.workdps(60):
        w = mpmath.mpf(1) - mpmath.mpf(lam)
        num = mpmath.betainc(b, a + k, 0, w)
        den = mpmath.betainc(b, a, 0, w)
        return float(num / den)


def check_mean(a, b, lam, n=30000, seed=1234, z_max=3.5):
    rng = np.random.default_rng(seed)
    draws = _tbeta_vec(rng, np.full(n, a), np.full(n, b), np.full(n, lam))
    assert np.all(draws >= lam)
    assert np.all(draws < 1.0)
    mean = tbeta_moment(a, b, lam, 1)
    var = tbeta_moment(a, b, lam, 2) - mean ** 2
    se = math.sqrt(max(var, 1e-300) / n)
    z = abs(draws.mean() - mean) / se
    assert z < z_max, f"(a={a}, b={b}, lam={lam}): z={z:.2f}"


class TestTruncatedBeta:
    def test_uniform_case(self):
        # Beta(1,1) on [0.85, 1) is uniform: mean exactly 0.925
        assert tbeta_moment(1.0, 1.0, 0.85, 1) == pytest.approx(0.925)
        check_mean(1.0, 1.0, 0.85)

    def test_forward_inversion_branch(self):
        check_mean(11.0, 1.0, 0.85)
        check_mean(2.0, 5.0, 0.5)

    def test_survival_inversion_branch(self):
        # restricted mass ~5e-299: below the forward threshold, still
        # representable on the survival scale
        check_mean(2.0, 1000.0, 0.5)

    def test_rejection_branch(self):
        # restricted mass underflows double precision entirely
        check_mean(2.0, 5000.0, 0.5)
        check_mean(1.0, 2000.0, 0.85)
        check_mean(3.5, 8000.0, 0.7)
        check_mean(0.6, 3000.0, 0.6)  # a < 1

    def test_survival_branch_analytic_inverse(self):
        """For a = 1 the survival function is (1-x)^b, so the quantile
        the survival branch must return has a closed form in the same
        uniform the batch consumed."""
        a, b, lam = 1.0, 300.0, 0.85
        n, seed = 64, 77
        rng = np.random.default_rng(seed)
        x = _tbeta_vec(rng, np.full(n, a), np.full(n, b), np.full(n, lam))
        u = np.random.default_rng(seed).random(n)
        expect = 1.0 - (1.0 - lam) * (1.0 - u) ** (1.0 / b)
        assert np.allclose(x, expect, rtol=1e-9, atol=0)

    def test_scalar_wrapper(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = sample_truncated_beta(rng, 2.0, 5.0, 0.5)
            assert 0.5 <= x < 1.0

    def test_forward_branch_matches_quantile_function(self):
        """Against scipy's own quantile at a handful of fixed uniforms."""
        from scipy.stats import beta as beta_dist

        a, b, lam = 3.0, 2.0, 0.4
        seed = 5
        rng = np.random.default_rng(seed)
        x = _tbeta_vec(rng, np.full(8, a), np.full(8, b), np.full(8, lam))
        u = np.random.default_rng(seed).random(8)
        f_lam = beta_dist.cdf(lam, a, b)
        expect = beta_dist.ppf(f_lam + u * (1 - f_lam), a, b)
        assert np.allclose(x, expect, rtol=1e-12)


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(iterations=0)
        with pytest.raises(ConfigError):
            SamplerConfig(iterations=5, burn_in=5)
        with pytest.raises(ConfigError):
            SamplerConfig(iterations=5, thinning=0)
        with pytest.raises(ConfigError):
            SamplerConfig(iterations=5, chains=0)

    def test_n_kept(self):
        assert SamplerConfig(iterations=10, burn_in=3, thinning=2).n_kept == 4
        assert SamplerConfig(iterations=10, burn_in=0).n_kept == 10
        assert SamplerConfig(iterations=10000, burn_in=1000).n_kept == 9000


def toy_prior_for(comps):
    return PriorSpec.from_lambdas(
        [np.full(n - 1, 0.5) for n in comps.n_levels])


class TestParameterBlock:
    def test_draw_params_shapes_and_support(self, rng):
        _, comps, graph = compared_setup(rng, 10)
        prior = toy_prior_for(comps)
        flat = flatten_prior(prior)
        z = list(range(comps.r))
        stats = sufficient_stats(z, graph, comps)
        m_list, u_list, m_flat, u_flat = draw_params(rng, flat, stats)
        assert [len(v) for v in m_list] == [n - 1 for n in comps.n_levels]
        for mf, lamf in zip(m_list, prior.lam):
            assert np.all(mf >= lamf)
            assert np.all(mf < 1.0)
        for uf in u_list:
            assert np.all((uf > 0) & (uf < 1))
        assert np.concatenate(m_list) == pytest.approx(m_flat)

    def test_single_parameter_updates(self, rng):
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        ctx = SamplerContext(comps, graph)
        state = init_state(ctx, prior, rng)
        for f in range(len(comps.fields)):
            for l in range(comps.n_levels[f] - 1):
                x = update_m(state, f, l, prior, rng)
                assert prior.lam[f][l] <= x < 1.0
                assert state.params.m[f][l] == x
                y = update_u(state, f, l, prior, rng)
                assert 0.0 < y < 1.0
                assert state.params.u[f][l] == y


class TestLogRatios:
    def test_matches_scalar_model(self, rng):
        _, comps, graph = compared_setup(rng, 12)
        ctx = SamplerContext(comps, graph)
        params = ModelParams(
            m=[[0.9, 0.8, 0.95], [0.9, 0.7], [0.92]],
            u=[[0.1, 0.2, 0.4], [0.2, 0.3], [0.15]])
        loglr = ctx.log_ratios(params)
        cand_idx = np.flatnonzero(graph.candidate_mask)
        for c, k in enumerate(cand_idx):
            vec = comparison_vector(comps, int(k))
            assert loglr[c] == pytest.approx(
                log_likelihood_ratio(vec, params), abs=1e-12)


class TestChain:
    def test_retention_schedule(self, rng):
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=10, burn_in=3, thinning=2, seed=4)
        sample = run_chain(comps, graph, prior, cfg)
        assert sample.kept_iterations.tolist() == [4, 6, 8, 10]
        assert sample.labelings.shape == (4, 8)
        assert sample.m_trace.shape[0] == 4

    def test_determinism(self, rng):
        _, comps, graph = compared_setup(rng, 10)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=60, burn_in=10, seed=99)
        s1 = run_chain(comps, graph, prior, cfg)
        s2 = run_chain(comps, graph, prior, cfg)
        assert np.array_equal(s1.labelings, s2.labelings)
        assert np.array_equal(s1.m_trace, s2.m_trace)
        assert np.array_equal(s1.u_trace, s2.u_trace)
        s3 = run_chain(comps, graph, prior,
                       SamplerConfig(iterations=60, burn_in=10, seed=100))
        assert not np.array_equal(s1.labelings, s3.labelings)

    def test_all_retained_labelings_valid(self, rng):
        _, comps, graph = compared_setup(rng, 12, fix_name_level=2)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=80, seed=3)
        sample = run_chain(comps, graph, prior, cfg)
        cand = graph.candidate_pair_set()
        for row in sample.labelings:
            assert is_valid_labeling(row.tolist(), cand)

    def test_labelings_are_canonical(self, rng):
        _, comps, graph = compared_setup(rng, 9)
        prior = toy_prior_for(comps)
        sample = run_chain(comps, graph, prior,
                           SamplerConfig(iterations=40, seed=8))
        for row in sample.labelings:
            assert tuple(row) == canonical_labels(row)

    def test_recounted_stats_match_scratch(self, rng):
        """The statistics each parameter draw used equal a from-scratch
        count over the labeling, after every sweep of a short chain."""
        _, comps, graph = compared_setup(rng, 12, fix_name_level=2)
        prior = toy_prior_for(comps)
        ctx = SamplerContext(comps, graph)
        state = init_state(ctx, prior, rng)
        flat = flatten_prior(prior)
        for _ in range(50):
            sweep(ctx, state, rng, flat)
            assert state.stats.equals(sufficient_stats(state.z, graph, comps))

    def test_frozen_params_have_no_traces(self, rng):
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        params = ModelParams(
            m=[[0.9, 0.9, 0.9], [0.9, 0.9], [0.9]],
            u=[[0.2, 0.3, 0.4], [0.3, 0.4], [0.2]])
        sample = run_chain(comps, graph, prior,
                           SamplerConfig(iterations=30, seed=1),
                           fixed_params=params)
        assert sample.m_trace is None
        assert sample.u_trace is None

    def test_update_label_preserves_cell_bookkeeping(self, rng):
        # no fix rule: one component of ten records, all single-site
        _, comps, graph = compared_setup(rng, 10, fix_name_level=None)
        prior = toy_prior_for(comps)
        ctx = SamplerContext(comps, graph)
        assert ctx.single_site == list(range(10))
        state = init_state(ctx, prior, rng)
        loglr = ctx.log_ratios(state.params)
        for _ in range(200):
            for i in ctx.single_site:
                update_label(state, i, ctx, loglr, rng)
            sizes = {}
            for lab in state.z:
                sizes[lab] = sizes.get(lab, 0) + 1
            assert sizes == state.cell_sizes
            assert len(state.free_labels) == ctx.r - len(sizes)
            assert set(state.free_labels).isdisjoint(sizes)


FROZEN = ModelParams(m=[[0.85, 0.6, 0.9], [0.8, 0.7], [0.9]],
                     u=[[0.2, 0.3, 0.4], [0.4, 0.3], [0.3]])


def exact_partition_probs(df, comps, graph, params, prior) -> dict:
    """Posterior probability of every valid partition, by enumeration."""
    parts = enumerate_valid_partitions(df.r, graph.candidate_pair_set())
    logs = np.array([
        log_posterior_unnormalized(partition_to_labeling(p), params,
                                   prior, graph, comps)
        for p in parts])
    probs = np.exp(logs - logs.max())
    probs /= probs.sum()
    return {tuple(partition_to_labeling(p)): q for p, q in zip(parts, probs)}


def graph_with_candidates(comps, cand_pairs) -> CandidateGraph:
    """comps' compared pairs with exactly the given pairs as candidates."""
    cand = set(cand_pairs)
    mask = np.array([(int(i), int(j)) in cand for i, j in comps.pairs])
    return CandidateGraph(r=comps.r, pairs=comps.pairs, candidate_mask=mask,
                          components=connected_components(comps.r, cand))


def chain_tv(df, comps, graph, seed: int, random_scan: bool) -> float:
    """Total variation distance between the retained partitions of a
    chain at the FROZEN parameters and exact enumeration."""
    prior = toy_prior_for(comps)
    exact = exact_partition_probs(df, comps, graph, FROZEN, prior)
    cfg = SamplerConfig(iterations=20000, burn_in=500, seed=seed,
                        random_scan=random_scan)
    sample = run_chain(comps, graph, prior, cfg, fixed_params=FROZEN)
    freq = Counter(tuple(row.tolist()) for row in sample.labelings)
    n = sample.n_kept
    return 0.5 * sum(abs(exact.get(k, 0.0) - freq[k] / n)
                     for k in set(exact) | set(freq))


class TestExactPosteriorSmall:
    @pytest.mark.parametrize("random_scan", [False, True])
    def test_frozen_params_match_enumeration(self, rng, random_scan):
        """Partition chain vs exact enumeration at fixed parameters, with
        records visited in order or in a fresh random order each sweep."""
        df, comps, graph = compared_setup(rng, 6, fix_name_level=3)
        tv = chain_tv(df, comps, graph, 17, random_scan)
        assert tv < 0.05, f"TV distance {tv:.4f}"

    @pytest.mark.parametrize("random_scan", [False, True])
    def test_mixed_paths_match_enumeration(self, rng, random_scan):
        """A seven-record component, larger than BLOCK_MAX and updated one
        record at a time, next to a block-drawn pair: the chain's law at
        fixed parameters matches exact enumeration."""
        df = random_file(rng, 9)
        comps = compare_pairs(df, all_pairs(9), small_specs())
        large = [(i, i + 1) for i in range(6)] + [(0, 2), (4, 6)]
        graph = graph_with_candidates(comps, large + [(7, 8)])
        ctx = SamplerContext(comps, graph)
        assert ctx.single_site == list(range(7))
        assert [blk.members.tolist() for blk in ctx.blocks] == [[[7, 8]]]
        tv = chain_tv(df, comps, graph, 29, random_scan)
        assert tv < 0.05, f"TV distance {tv:.4f}"


class TestBlockConditional:
    @pytest.mark.parametrize("s", range(2, BLOCK_MAX + 1))
    @pytest.mark.parametrize("shape", ["complete", "path"])
    def test_block_probabilities_match_enumeration(self, s, shape):
        """Every partition's probability in the block draw of one
        component equals its exact posterior probability, and partitions
        that merge a non-candidate pair get none."""
        rng = np.random.default_rng(400 + s)
        df = random_file(rng, s)
        comps = compare_pairs(df, all_pairs(s), small_specs())
        if shape == "complete":
            cand = [(i, j) for i in range(s) for j in range(i + 1, s)]
        else:
            cand = [(i, i + 1) for i in range(s - 1)]
        graph = graph_with_candidates(comps, cand)
        prior = toy_prior_for(comps)
        exact = exact_partition_probs(df, comps, graph, FROZEN, prior)

        ctx = SamplerContext(comps, graph)
        assert ctx.single_site == []
        [blk] = ctx.blocks
        assert blk.members.tolist() == [list(range(s))]
        scores = _block_scores(blk, ctx.log_ratios(FROZEN))[0]
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        got = {}
        for rep, q in zip(blk.reps, probs):
            labels = canonical_labels(rep.tolist())
            assert labels not in got
            got[labels] = q
        assert len(got) == bell_number(s)
        for labels, q in got.items():
            assert q == pytest.approx(exact.get(labels, 0.0), rel=1e-9,
                                      abs=1e-300)
        if shape == "path" and s >= 3:
            assert got[(0, 0, 0) + tuple(range(1, s - 2))] == 0.0


class TestChainSeeds:
    def test_single_chain_keeps_literal_seed(self):
        assert chain_seeds(42, 1) == [42]

    def test_multi_chain_distinct_and_stable(self):
        s1 = chain_seeds(42, 3)
        s2 = chain_seeds(42, 3)
        assert s1 == s2
        assert len(set(s1)) == 3

    def test_run_chains_matches_individual(self, rng):
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=30, seed=6, chains=2)
        both = run_chains(comps, graph, prior, cfg)
        assert len(both) == 2
        for sample, s in zip(both, chain_seeds(6, 2)):
            solo = run_chain(comps, graph, prior,
                             SamplerConfig(iterations=30, seed=s))
            assert np.array_equal(sample.labelings, solo.labelings)

    def test_run_chains_worker_count_invariance(self, rng):
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=20, seed=6, chains=2)
        one = run_chains(comps, graph, prior, cfg, n_workers=1)
        two = run_chains(comps, graph, prior, cfg, n_workers=2)
        for x, y in zip(one, two):
            assert np.array_equal(x.labelings, y.labelings)
