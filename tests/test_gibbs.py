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
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bayesdedupe import gibbs
from bayesdedupe.comparison import PairComparisons, compare_pairs
from bayesdedupe.candidates import (CandidateGraph, all_pairs,
                                    connected_components)
from bayesdedupe.errors import ConfigError
from bayesdedupe.gibbs import (
    SamplerConfig,
    SamplerContext,
    _block_scores,
    _draw_segments,
    _level_counts,
    _tbeta_vec,
    chain_seeds,
    draw_flat_params,
    draw_params,
    flatten_prior,
    init_state,
    run_chain,
    run_chains,
    sweep,
)
from bayesdedupe.model import (ModelParams, PriorSpec, SufficientStats,
                               sufficient_stats)

from conftest import compared_setup, random_file, small_specs
from presets import flat_prior
from oracles import (
    bell_number,
    canonical_labels,
    comparison_vector,
    enumerate_valid_partitions,
    is_valid_labeling,
    log_likelihood_ratio,
    log_posterior_unnormalized,
    partition_to_labeling,
    SequentialSites,
    sample_truncated_beta,
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
        offsets = flatten_prior(prior).offsets
        for f in range(len(comps.fields)):
            for l in range(comps.n_levels[f] - 1):
                x = update_m(state, f, l, prior, rng)
                assert prior.lam[f][l] <= x < 1.0
                assert state.m[offsets[f] + l] == x
                y = update_u(state, f, l, prior, rng)
                assert 0.0 < y < 1.0
                assert state.u[offsets[f] + l] == y


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


# m and u values at the clip bounds and near them, besides any in between
PROBS = st.one_of(st.sampled_from([1e-12, 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9,
                                   1 - 1e-12]),
                  st.floats(1e-12, 1 - 1e-12))


@st.composite
def level_setups(draw):
    """Every pair of up to six records compared on fields of 2 to 6
    levels (missing allowed) and all of them candidates, a labeling, and
    flat m and u vectors."""
    n_levels = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    r = draw(st.integers(2, 6))
    pairs = all_pairs(r)
    levels = np.array([[draw(st.integers(-1, n - 1)) for n in n_levels]
                       for _ in range(len(pairs))])
    comps = PairComparisons(r, tuple(f"f{k}" for k in range(len(n_levels))),
                            tuple(n_levels), pairs, levels)
    graph = graph_with_candidates(comps, [tuple(p) for p in pairs.tolist()])
    z = np.array(draw(st.lists(st.integers(0, r - 1), min_size=r, max_size=r)))
    n_params = sum(n_levels) - len(n_levels)
    m, u = (np.array(draw(st.lists(PROBS, min_size=n_params,
                                   max_size=n_params))) for _ in range(2))
    return comps, graph, z, m, u


class TestFlatParameterBlock:
    @settings(max_examples=100, deadline=None)
    @given(level_setups(), st.integers(0, 2**32 - 1))
    def test_matches_per_field_block(self, setup, seed):
        """Level counts, log ratios and parameter draws of the flat block
        against the per-field references."""
        comps, graph, z, m, u = setup
        ctx = SamplerContext(comps, graph)
        flat = flatten_prior(flat_prior(comps.n_levels, lam=0.5))
        scratch = sufficient_stats(z.tolist(), graph, comps)
        counts = ctx.recount(z)
        at, above = _level_counts(flat, counts)
        for row, per_field in enumerate((scratch.a1, scratch.a0)):
            ref_at, ref_above = oracles.level_counts(per_field)
            assert np.array_equal(at[row], ref_at)
            assert np.array_equal(above[row], ref_above)

        cut = flat.offsets[1:-1]
        params = ModelParams(m=np.split(m, cut), u=np.split(u, cut))
        assert np.allclose(ctx.flat_log_ratios(m, u),
                           oracles.log_ratios(ctx, params), rtol=0, atol=1e-12)
        assert np.array_equal(ctx.log_ratios(params), ctx.flat_log_ratios(m, u))

        # list-valued statistics, as perfbench/traced.py passes them
        listed = SufficientStats(a1=[v.tolist() for v in scratch.a1],
                                 a0=[v.tolist() for v in scratch.a0])
        m_list, u_list, m1, u1 = draw_params(np.random.default_rng(seed),
                                             flat, listed)
        m2, u2 = draw_flat_params(np.random.default_rng(seed), flat, counts)
        assert np.array_equal(m1, m2) and np.array_equal(u1, u2)
        assert all(np.array_equal(a, b) for a, b in zip(m_list, np.split(m2, cut)))
        assert all(np.array_equal(a, b) for a, b in zip(u_list, np.split(u2, cut)))


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

    def test_recounted_stats_match_scratch(self, rng, monkeypatch):
        """The statistics each parameter draw used equal a from-scratch
        count over the labeling, after every sweep of a short chain, with
        the component drawn whole and, under a lowered P_MAX, one record
        at a time; the single-site labels stay member ids throughout."""
        _, comps, graph = compared_setup(rng, 12, fix_name_level=2)
        prior = toy_prior_for(comps)
        flat = flatten_prior(prior)
        for p_max in (gibbs.P_MAX, 1):
            monkeypatch.setattr(gibbs, "P_MAX", p_max)
            ctx = SamplerContext(comps, graph)
            assert bool(ctx.single_site) == (p_max == 1)
            state = init_state(ctx, prior, rng)
            for _ in range(50):
                sweep(ctx, state, rng, flat)
                scratch = sufficient_stats(state.z, graph, comps)
                assert np.array_equal(state.stats, scratch.as_counts())
                assert_member_id_labels(ctx, state)

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

    def test_member_id_labels(self, rng):
        # no fix rule: one component of ten records, all single-site
        _, comps, graph = compared_setup(rng, 10, fix_name_level=None)
        prior = toy_prior_for(comps)
        ctx = SamplerContext(comps, graph)
        assert ctx.single_site == list(range(10))
        state = init_state(ctx, prior, rng)
        for _ in range(200):
            sweep(ctx, state, rng, None)
            assert_member_id_labels(ctx, state)


def assert_member_id_labels(ctx, state):
    """Every single-site label is the id of a member of its cell, and
    state.sizes holds the size of every single-site cell under its label
    and 0 under every other."""
    labels = state.z[ctx.single_idx]
    assert np.array_equal(state.z[labels], labels)
    assert np.array_equal(state.sizes, np.bincount(labels, minlength=ctx.r))


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
    def test_mixed_paths_match_enumeration(self, rng, random_scan,
                                           monkeypatch):
        """A seven-record component with 45 valid partitions, updated one
        record at a time once P_MAX is lowered below that, next to a
        block-drawn pair: the chain's law at fixed parameters matches
        exact enumeration."""
        monkeypatch.setattr(gibbs, "P_MAX", 44)
        df = random_file(rng, 9)
        comps = compare_pairs(df, all_pairs(9), small_specs())
        large = [(i, i + 1) for i in range(6)] + [(0, 2), (4, 6)]
        graph = graph_with_candidates(comps, large + [(7, 8)])
        ctx = SamplerContext(comps, graph)
        assert ctx.single_site == list(range(7))
        assert ctx.block_records.tolist() == [7, 8]
        tv = chain_tv(df, comps, graph, 29, random_scan)
        assert tv < 0.05, f"TV distance {tv:.4f}"


def test_draw_segments_follows_weights():
    """Three segments drawn at a grid of uniforms: every entry takes its
    share of the grid, an entry scoring -inf none, and a uniform of 1 goes
    to each segment's last entry."""
    scores = np.array([0.5, -np.inf, 2.0, 0.0, 1.0, -np.inf, -3.0, 0.0])
    first = np.array([0, 4, 5])
    n = 1000
    drawn = np.array([_draw_segments(scores.copy(), first, np.full(3, u))
                      for u in (np.arange(n) + 0.5) / n])
    for k, (lo, hi) in enumerate(zip(first, [4, 5, 8])):
        w = np.exp(scores[lo:hi] - scores[lo:hi].max())
        counts = np.bincount(drawn[:, k] - lo, minlength=hi - lo)
        assert np.all(np.abs(counts - n * w / w.sum()) <= 1)
    assert _draw_segments(scores.copy(), first, np.ones(3)).tolist() == [3, 4, 7]


def block_probabilities(ctx, loglr) -> list:
    """Per block component, its members and the probability the block draw
    gives each of its partitions, keyed by the partition's canonical
    labels over the members."""
    scores = _block_scores(ctx, loglr)
    out = []
    for c in range(ctx.n_block_components):
        members = ctx.block_records[ctx.record_comp == c].tolist()
        lo, hi = ctx.comp_parts[c], ctx.comp_parts[c + 1]
        probs = np.exp(scores[lo:hi] - scores[lo:hi].max())
        probs /= probs.sum()
        got = {}
        for p, q in zip(range(lo, hi), probs):
            at = ctx.label_at[p]
            labels = canonical_labels(
                ctx.part_labels[at:at + len(members)].tolist())
            assert labels not in got
            got[labels] = q
        out.append((members, got))
    return out


GRAPHS = {
    "complete": lambda s, rng: [(i, j) for i in range(s)
                                for j in range(i + 1, s)],
    "path": lambda s, rng: [(i, i + 1) for i in range(s - 1)],
    "star": lambda s, rng: [(0, j) for j in range(1, s)],
    "cycle": lambda s, rng: ([(i, i + 1) for i in range(s - 1)]
                             + ([(0, s - 1)] if s > 2 else [])),
    "random": lambda s, rng: [(i, j) for i in range(s)
                              for j in range(i + 1, s) if rng.random() < 0.5],
    # a pair, a triangle and a star, as far as s records reach
    "disjoint": lambda s, rng: [(i, j) for i, j in
                                [(0, 1), (2, 3), (2, 4), (3, 4)]
                                + [(5, j) for j in range(6, s)] if j < s],
}


# complete graphs of eight or more records go single-site (test_admission_cap)
BLOCK_CASES = [(shape, s) for shape in sorted(GRAPHS) for s in range(2, 10)
               if shape != "complete" or s <= 7]


class TestBlockConditional:
    @pytest.mark.parametrize("shape,s", BLOCK_CASES)
    def test_block_probabilities_match_enumeration(self, shape, s):
        """Every component with at most P_MAX valid partitions is drawn
        whole, and the block draw gives each of its valid partitions its
        exact posterior probability (the marginal of an enumeration of
        the whole file) and no other partition any."""
        rng = np.random.default_rng(400 + s)
        df = random_file(rng, s)
        comps = compare_pairs(df, all_pairs(s), small_specs())
        graph = graph_with_candidates(comps, GRAPHS[shape](s, rng))
        prior = toy_prior_for(comps)
        exact = exact_partition_probs(df, comps, graph, FROZEN, prior)

        ctx = SamplerContext(comps, graph)
        blocks = dict((tuple(members), got) for members, got
                      in block_probabilities(ctx, ctx.log_ratios(FROZEN)))
        assert ctx.n_partitions == sum(len(got) for got in blocks.values())
        for comp in graph.components:
            if len(comp) < 2:
                continue
            marginal: Counter = Counter()
            for labels, q in exact.items():
                marginal[canonical_labels([labels[i] for i in comp])] += q
            admitted = len(marginal) <= gibbs.P_MAX
            assert (comp in blocks) == admitted
            assert set(comp).isdisjoint(ctx.single_site) == admitted
            if admitted:
                got = blocks[comp]
                assert set(got) == set(marginal)
                for labels, q in got.items():
                    assert q == pytest.approx(marginal[labels], rel=1e-9,
                                              abs=1e-300)

    def test_admission_cap(self):
        """A complete component of seven records (Bell(7) = 877 valid
        partitions) is drawn whole; one of eight (4,140) is not."""
        assert bell_number(7) <= gibbs.P_MAX < bell_number(8)
        for s in (7, 8):
            rng = np.random.default_rng(400 + s)
            comps = compare_pairs(random_file(rng, s), all_pairs(s),
                                  small_specs())
            ctx = SamplerContext(comps, graph_with_candidates(
                comps, GRAPHS["complete"](s, rng)))
            if s == 7:
                assert ctx.single_site == []
                assert ctx.n_partitions == bell_number(7)
            else:
                assert ctx.single_site == list(range(8))
                assert ctx.n_block_components == 0


class TestPrefetchedScan:
    @pytest.mark.parametrize("random_scan", [False, True])
    @pytest.mark.parametrize("shape", ["complete", "path", "star", "random"])
    def test_matches_sequential_scan(self, shape, random_scan, monkeypatch):
        """With every component single-site, sweep's prefetched passes
        visit the partitions of the one-record-at-a-time scan by
        oracles.update_record after every sweep, given the same uniforms
        and visiting orders, and keep every label a member id. (The two
        round the weights differently, which could change a draw only for
        a uniform within rounding of a boundary between options.) On the
        complete graphs a label holder leaves a cell of three or more
        records; a path's or a star's cells have two records at most."""
        monkeypatch.setattr(gibbs, "P_MAX", 1)
        holders_left = []
        move = gibbs._move

        def spy(ctx, z, sizes, i, q):
            if z[i] == i and sizes[i] >= 3:
                holders_left.append(i)
            move(ctx, z, sizes, i, q)

        monkeypatch.setattr(gibbs, "_move", spy)
        for s in (5, 8):
            rng = np.random.default_rng(500 + s)
            comps = compare_pairs(random_file(rng, s), all_pairs(s),
                                  small_specs())
            graph = graph_with_candidates(comps, GRAPHS[shape](s, rng))
            ctx = SamplerContext(comps, graph)
            assert ctx.n_block_components == 0
            state = init_state(ctx, toy_prior_for(comps), rng, params=FROZEN)
            # log ratios around 1: cells of several records form and split
            state.loglr = rng.normal(1.0, 2.0, ctx.n_candidates)
            oracle = SequentialSites(ctx)
            fast, slow = np.random.default_rng(s), np.random.default_rng(s)
            for _ in range(300):
                sweep(ctx, state, fast, None, random_scan)
                oracle.sweep(state.loglr, slow, random_scan)
                assert (canonical_labels(state.z.tolist())
                        == canonical_labels(oracle.z))
                assert_member_id_labels(ctx, state)
        if shape == "complete":
            assert holders_left


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
