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
from scipy.special import betainc, betaincc

import oracles
from bayesdedupe import gibbs
from bayesdedupe.comparison import PairComparisons, compare_pairs
from bayesdedupe.candidates import (CandidateGraph, all_pairs,
                                    connected_components)
from bayesdedupe.errors import ConfigError
from bayesdedupe.mixture import run_mixture
from bayesdedupe.gibbs import (
    SamplerConfig,
    SamplerContext,
    _beta_parameters,
    _block_scores,
    _draw_segments,
    _tbeta_envelope,
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
    marginal_log_likelihood,
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
    draws, _ = _tbeta_vec(rng, np.full(n, a), np.full(n, b), np.full(n, lam))
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
        x = oracles.tbeta_inverse_cdf(rng, np.full(n, a), np.full(n, b),
                                      np.full(n, lam))
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
        x = oracles.tbeta_inverse_cdf(rng, np.full(8, a), np.full(8, b),
                                      np.full(8, lam))
        u = np.random.default_rng(seed).random(8)
        f_lam = beta_dist.cdf(lam, a, b)
        expect = beta_dist.ppf(f_lam + u * (1 - f_lam), a, b)
        assert np.allclose(x, expect, rtol=1e-12)

    @pytest.mark.parametrize("seed", [5, 17, 52])
    def test_tail_draws_match_per_element_loop(self, seed):
        """Forward, survival-scale and rejection elements interleaved: the
        batched tail draws equal the per-element loop of oracles.tbeta_vec
        bit for bit, and leave the generator in the same state. At these
        seeds a rejection draw retries, so the order in which the
        rejection draws consume uniforms shows."""
        a = np.array([3.0, 2.0, 1.0, 11.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0])
        b = np.array([2.0, 1000.0, 170.0, 1.0, 300.0, 170.0, 180.0, 170.0,
                      5.0, 180.0])
        lam = np.array([0.4, 0.5, 0.99, 0.85, 0.85, 0.99, 0.99, 0.99, 0.5,
                        0.99])
        tail = 1.0 - betainc(a, b, lam) <= 1e-14
        rejected = tail & (betaincc(a, b, lam) == 0.0)
        assert np.any(~tail) and np.any(tail & ~rejected)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        x = oracles.tbeta_inverse_cdf(fast, a, b, lam)
        ref = oracles.tbeta_vec(slow, a, b, lam)
        assert x.tobytes() == ref.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state
        # one uniform per element and one acceptance test per rejection
        # element would leave the generator here
        once = np.random.default_rng(seed)
        once.random(len(a) + np.count_nonzero(rejected))
        assert fast.bit_generator.state != once.bit_generator.state


def tbeta_cdf(a: float, b: float, lam: float):
    """The exact CDF of Beta(a, b) restricted to (lam, 1), on the survival
    scale, which stays accurate when 1 - F(lam) is far below 1e-14."""
    tail = betaincc(a, b, lam)
    return lambda x: (tail - betaincc(a, b, np.maximum(x, lam))) / tail


def envelope_pieces(a: float, b: float, lam: float):
    """The larger line top of _tbeta_envelope's pieces for one element, and
    per piece the target's and the envelope's log density in the piece's
    coordinate, both less that top, and the piece's interval, cut at 60
    decay scales where it is infinite. Empty pieces are left out. The
    target is Beta(a, b)'s density of y = log x, or of y = log(1 - x) in
    a mirrored piece (x_at = 0): its exponents come from a and b, not
    from the envelope's fields."""
    with np.errstate(all="ignore"):
        _, fields = _tbeta_envelope(np.array([a]), np.array([b]),
                                    np.array([lam]))
    pieces = []
    for _, top, c1, em, at_top, _, x_at, _ in fields.reshape(8, 2).T:
        alpha, beta = (a, b - 1.0) if x_at == 1.0 else (b, a - 1.0)
        pieces.append((alpha, beta, top, c1, em, alpha * top - at_top))
    top_v = max(piece[5] for piece in pieces)
    out = []
    for alpha, beta, top, c1, em, v in pieces:
        if em == 0.0:
            continue
        scale = abs(c1)
        width = 60.0 * scale if em <= -1.0 else min(-math.log1p(em) * scale,
                                                      60.0 * scale)
        lo, hi = (top - width, top) if c1 > 0 else (top, top + width)

        def target(y, alpha=alpha, beta=beta):
            rest = -math.expm1(y)
            if rest <= 0.0:
                return -math.inf
            return alpha * y + beta * math.log(rest) - top_v

        def line(y, v=v, top=top, scale=scale):
            return v - abs(y - top) / scale - top_v

        out.append((target, line, lo, hi))
    return top_v, out


class TestRejectionSampler:
    """gibbs._tbeta_vec: exact draws from TBeta(a, b; lam, 1) by rejection
    from a two-piece exponential envelope in a log coordinate."""

    # one case per proposal regime; n draws each at a fixed seed, tested
    # against the exact truncated CDF with a p-value floor of 0.001
    REGIMES = {
        "b=1": (7.5, 1.0, 0.9),
        "a=1": (1.0, 40.0, 0.9),
        "tail below 1e-14": (122.0, 44.0, 0.95),
        "mode above lam": (30.0, 8.0, 0.5),
        "a<1": (0.6, 30.0, 0.3),
        "b<1": (5.0, 0.5, 0.3),
        "a<1 and b<1": (0.3, 0.4, 0.2),
        "lam=0": (2.5, 3.5, 0.0),
        "lam=1-1e-6": (50.0, 3.0, 1.0 - 1e-6),
    }

    @pytest.mark.parametrize("case", list(REGIMES), ids=list(REGIMES))
    def test_matches_exact_cdf(self, case):
        from scipy.stats import kstest

        a, b, lam = self.REGIMES[case]
        n = 20000
        x, _ = _tbeta_vec(np.random.default_rng(971), np.full(n, a),
                          np.full(n, b), np.full(n, lam))
        assert np.all((x >= lam) & (x < 1.0))
        if case == "tail below 1e-14":
            assert 1.0 - betainc(a, b, lam) < 1e-14
            assert betaincc(a, b, lam) > 0.0
        assert kstest(x, tbeta_cdf(a, b, lam)).pvalue > 0.001

    @staticmethod
    def acceptance(a: float, b: float, lam: float) -> float:
        """The probability that one candidate is accepted, the target's
        mass over the envelope's, both integrated by quadrature. Checks on
        the way that the envelope bounds the density and that its pieces
        hold the truncated Beta's whole mass."""
        from scipy import integrate
        from scipy.special import betaln

        top_v, pieces = envelope_pieces(a, b, lam)
        mass = target_mass = 0.0
        for target, line, lo, hi in pieces:
            ys = np.linspace(lo, hi, 102)[1:-1]
            assert max(target(y) - line(y) for y in ys) < 1e-9, (a, b, lam)
            quad = lambda f: integrate.quad(
                lambda y: math.exp(f(y)), lo, hi, limit=200, epsabs=0,
                epsrel=1e-10)[0]
            target_mass += quad(target)
            mass += quad(line)
        tail = betaincc(a, b, lam)
        if tail > 1e-280:
            assert math.log(target_mass) + top_v == pytest.approx(
                betaln(a, b) + math.log(tail), abs=1e-6), (a, b, lam)
        return target_mass / mass

    def test_acceptance_floor(self):
        """Over a grid of hyperparameters and truncation points that
        PriorSpec accepts, a candidate is accepted with probability at
        least 1/2, so the four candidates of a round all fail at most once
        in 16 rounds. The lowest, about 0.53, is at a = b = 0.05."""
        sizes = [0.05, 0.3, 0.9, 1.0, 1.1, 1.5, 2.0, 5.0, 30.0, 300.0,
                 3000.0, 1e5]
        lams = [0.0, 1e-6, 0.05, 0.3, 0.5, 0.8, 0.95, 0.999, 1.0 - 1e-6]
        worst = min(self.acceptance(a, b, lam)
                    for a in sizes for b in sizes for lam in lams)
        assert worst > 0.5, worst

    @pytest.mark.parametrize("a, b, lam", [(0.05, 0.05, 0.0),
                                           (3.0, 2.0, 0.4),
                                           (1000.0, 1000.0, 0.5)])
    def test_rejection_count_matches_acceptance(self, a, b, lam):
        """The candidates rejected per draw average (1 - p) / p for
        acceptance probability p."""
        n = 20000
        _, rejected = _tbeta_vec(np.random.default_rng(5), np.full(n, a),
                                 np.full(n, b), np.full(n, lam))
        assert isinstance(rejected, int)
        p = self.acceptance(a, b, lam)
        assert rejected / n == pytest.approx((1.0 - p) / p, rel=0.05)

    def test_memo_changes_no_draw(self):
        """Envelopes kept across calls give the draws, rejection counts and
        generator state of envelopes built afresh."""
        lam = np.array([0.95, 0.9, 0.3])
        calls = [(np.array([122.0, 7.5, 0.3]), np.array([44.0, 1.0, 0.4])),
                 (np.array([121.0, 8.5, 0.3]), np.array([45.0, 1.0, 0.4]))]
        fresh, kept = np.random.default_rng(8), np.random.default_rng(8)
        memo: dict = {}
        for a, b in calls * 3:
            x, n = _tbeta_vec(fresh, a, b, lam)
            y, m = _tbeta_vec(kept, a, b, lam, memo)
            assert x.tobytes() == y.tobytes() and n == m
        assert len(memo) == 2
        assert fresh.bit_generator.state == kept.bit_generator.state

    def test_exact_regimes_never_reject(self):
        """With a = 1 or b = 1 the log density is a line in the sampling
        coordinate, so the envelope is the density itself."""
        a = np.array([7.5, 1.0, 1.0, 0.4, 1.0])
        b = np.array([1.0, 40.0, 0.5, 1.0, 1.0])
        lam = np.array([0.9, 0.0, 0.3, 0.0, 0.5])
        _, rejected = _tbeta_vec(np.random.default_rng(3), np.tile(a, 500),
                                 np.tile(b, 500), np.tile(lam, 500))
        assert rejected == 0

    def test_round_cap_names_the_parameters(self, monkeypatch):
        monkeypatch.setattr(gibbs, "TBETA_MAX_ROUNDS", 0)
        with pytest.raises(RuntimeError, match=r"a=\[122\.\], b=\[44\.\]"):
            _tbeta_vec(np.random.default_rng(0), np.array([122.0]),
                       np.array([44.0]), np.array([0.95]))


def clipped_tbeta_cdf(a: float, b: float, lam: float):
    """The exact CDF of a TBeta(a, b; lam, 1) draw clipped at 1 - 1e-12,
    as the sampler returns it: the top clip holds the mass above it."""
    cdf = tbeta_cdf(a, b, lam)
    return lambda x: np.where(x >= 1.0 - 1e-12, 1.0, cdf(x))


def cdf_gap(x: np.ndarray, cdf) -> float:
    """The largest distance between the empirical CDF of x and cdf, on
    both sides of every value x takes, which a law with atoms needs."""
    xs = np.sort(x.ravel())
    values, first = np.unique(xs, return_index=True)
    last = np.append(first[1:], len(xs))
    return max(np.max(np.abs(last / len(xs) - cdf(values))),
               np.max(np.abs(first / len(xs)
                             - cdf(np.nextafter(values, -np.inf)))))


class TestOverrelaxedDraw:
    """_tbeta_vec given current values: Neal's ordered overrelaxation among
    the accepted candidates of each element's first round that has any,
    which leaves TBeta(a, b; lam, 1) invariant."""

    # the envelope regimes of TestRejectionSampler, and one where 59 % of
    # the mass is clipped to 1 - 1e-12, so that current ties with
    # candidates
    REGIMES = {
        "concave": (30.0, 8.0, 0.5),
        "mirrored": (0.6, 30.0, 0.3),
        "convex": (0.3, 0.4, 0.2),
        "line": (1.0, 40.0, 0.9),
        "clipped": (2.0, 0.02, 0.5),
    }
    # over 40 seeds the five regimes read 0.004-0.012; with the value of
    # rank r kept they read 0.41-1.0, with current left out of the
    # order 0.047-0.11, and with ties given current's lowest rank 0.20
    # in the clipped regime
    GAP = 0.02

    @pytest.mark.parametrize("case", list(REGIMES), ids=list(REGIMES))
    def test_chain_keeps_the_exact_law(self, case):
        """1,000 chains of the update alone at fixed (a, b, lam), all
        started at the top clip, 10 steps of burn-in and 20 kept: the
        kept values follow the exact clipped law, and each step is
        negatively correlated with the last."""
        a, b, lam = self.REGIMES[case]
        n = 1000
        rng = np.random.default_rng(971)
        a_, b_, lam_ = np.full(n, a), np.full(n, b), np.full(n, lam)
        x, memo = np.full(n, 1.0 - 1e-12), {}
        kept = np.empty((20, n))
        for t in range(30):
            x, _ = _tbeta_vec(rng, a_, b_, lam_, memo, x)
            if t >= 10:
                kept[t - 10] = x
        assert np.all((kept >= lam) & (kept <= 1.0 - 1e-12))
        assert cdf_gap(kept, clipped_tbeta_cdf(a, b, lam)) < self.GAP
        dev = kept - kept.mean()
        assert np.mean(dev[1:] * dev[:-1]) < 0.0

    def test_without_current_draws_as_before(self):
        """With no current values the draws, the rejection count and the
        generator state are those of the plain rejection sampler that
        oracles.tbeta_rejection keeps, bit for bit, with the regimes of
        TestRejectionSampler mixed so that some elements retry."""
        a, b, lam = (np.tile(v, 200) for v in
                     np.array(list(TestRejectionSampler.REGIMES.values())).T)
        for seed in range(3):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            x, n = _tbeta_vec(new, a, b, lam)
            y, m = oracles.tbeta_rejection(old, a, b, lam)
            assert x.tobytes() == y.tobytes() and n == m
            assert new.bit_generator.state == old.bit_generator.state

    def test_rejection_count_covers_every_candidate(self):
        """Overrelaxed, the rejected candidates of every round used count:
        4 (1 - p) / (1 - (1 - p)^4) per draw for acceptance probability
        p."""
        a, b, lam, n = 3.0, 2.0, 0.4, 20000
        rng = np.random.default_rng(5)
        args = np.full(n, a), np.full(n, b), np.full(n, lam)
        current, _ = _tbeta_vec(rng, *args)
        _, rejected = _tbeta_vec(rng, *args, current=current)
        p = TestRejectionSampler.acceptance(a, b, lam)
        k = gibbs.TBETA_CANDIDATES
        assert rejected / n == pytest.approx(
            k * (1.0 - p) / (1.0 - (1.0 - p) ** k), rel=0.05)


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

    # (iterations, burn_in, thinning); the last two thin by more than the
    # sweeps left after the burn-in
    SCHEDULES = [(10, 3, 2), (10, 0, 1), (7, 6, 1), (12, 4, 3), (9, 0, 9),
                 (7, 2, 9), (6, 5, 4)]

    @pytest.mark.parametrize("iterations, burn_in, thinning", SCHEDULES)
    def test_retained_is_the_modular_rule(self, iterations, burn_in,
                                          thinning):
        """Every thinning-th sweep after the burn-in, starting with the
        first."""
        cfg = SamplerConfig(iterations=iterations, burn_in=burn_in,
                            thinning=thinning)
        rule = [t for t in range(1, iterations + 1)
                if t > burn_in and (t - burn_in - 1) % thinning == 0]
        assert list(cfg.retained()) == rule
        assert cfg.n_kept == len(cfg.retained()) == len(rule)

    @pytest.mark.parametrize("iterations, burn_in, thinning", SCHEDULES)
    def test_samplers_keep_the_retained_sweeps(self, rng, iterations, burn_in,
                                               thinning):
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=iterations, burn_in=burn_in,
                            thinning=thinning, seed=4)
        kept = list(cfg.retained())
        chain = run_chain(comps, graph, prior, cfg)
        assert chain.kept_iterations.tolist() == kept
        assert len(chain.index) == len(chain.m_trace) == len(kept)
        mix = run_mixture(comps, graph, prior, cfg)
        assert mix.kept_iterations.tolist() == kept
        assert len(mix.p_trace) == len(mix.nontransitive) == len(kept)


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

    def test_flat_prior_owns_its_memo(self, rng):
        """Draws with equal counts on one flat prior build one envelope
        and give the draws, rejection counts and generator state of draws
        that each get a fresh flat prior; no two flat priors share a
        memo."""
        _, comps, graph = compared_setup(rng, 10)
        prior = PriorSpec.from_lambdas(
            [np.full(n - 1, 0.9) for n in comps.n_levels])
        stats = sufficient_stats(list(range(comps.r)), graph, comps)
        flat = flatten_prior(prior)
        assert flat.memo == {}
        kept, fresh = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            m1, u1, n1 = draw_flat_params(kept, flat, stats.as_counts())
            m2, u2, n2 = draw_flat_params(fresh, flatten_prior(prior),
                                          stats.as_counts())
            assert m1.tobytes() == m2.tobytes() and n1 == n2
            assert u1.tobytes() == u2.tobytes()
            _, _, m1, u1 = draw_params(kept, flat, stats)
            _, _, m2, u2 = draw_params(fresh, flatten_prior(prior), stats)
            assert m1.tobytes() == m2.tobytes()
            assert u1.tobytes() == u2.tobytes()
        assert len(flat.memo) == 1
        assert kept.bit_generator.state == fresh.bit_generator.state
        other = flatten_prior(prior)
        assert other.memo == {} and other.memo is not flat.memo

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
        prior = flat_prior(comps.n_levels, lam=0.5)
        flat = flatten_prior(prior)
        scratch = sufficient_stats(z.tolist(), graph, comps)
        counts = ctx.recount(z)
        beta_params = _beta_parameters(flat, counts)
        sides = ((scratch.a1, prior.alpha1, prior.beta1),
                 (scratch.a0, prior.alpha0, prior.beta0))
        for row, (per_field, alpha, beta) in enumerate(sides):
            ref_at, ref_above = oracles.level_counts(per_field)
            assert np.array_equal(beta_params[2 * row],
                                  np.concatenate(alpha) + ref_at)
            assert np.array_equal(beta_params[2 * row + 1],
                                  np.concatenate(beta) + ref_above)

        cut = flat.offsets[1:-1]
        params = ModelParams(m=np.split(m, cut), u=np.split(u, cut))
        assert np.allclose(ctx.flat_log_ratios(m, u),
                           oracles.log_ratios(comps, graph, params), rtol=0,
                           atol=1e-12)
        assert np.array_equal(ctx.log_ratios(params), ctx.flat_log_ratios(m, u))

        # list-valued statistics, as perfbench/traced.py passes them
        listed = SufficientStats(a1=[v.tolist() for v in scratch.a1],
                                 a0=[v.tolist() for v in scratch.a0])
        m_list, u_list, m1, u1 = draw_params(np.random.default_rng(seed),
                                             flat, listed)
        m2, u2, _ = draw_flat_params(np.random.default_rng(seed), flat, counts)
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


def chain_tv(df, comps, graph, seed: int, random_scan: bool,
             fixed_params: ModelParams | None = FROZEN) -> float:
    """Total variation distance between the retained partitions of a
    chain and exact enumeration: at fixed_params, or with the parameters
    redrawn every sweep (and integrated out of the exact law) when
    fixed_params is None."""
    prior = toy_prior_for(comps)
    if fixed_params is None:
        exact = marginal_partition_probs(df, comps, graph, prior)
    else:
        exact = exact_partition_probs(df, comps, graph, fixed_params, prior)
    cfg = SamplerConfig(iterations=20000, burn_in=500, seed=seed,
                        random_scan=random_scan)
    sample = run_chain(comps, graph, prior, cfg, fixed_params=fixed_params)
    freq = Counter(tuple(row.tolist()) for row in sample.labelings)
    return tv_distance(exact, {k: c / sample.n_kept for k, c in freq.items()})


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


def marginal_partition_probs(df, comps, graph, prior) -> dict:
    """Probability of every valid partition with the parameters integrated
    out: the flat partition prior adds nothing, so it is proportional to
    the marginal likelihood."""
    parts = [tuple(partition_to_labeling(p)) for p in
             enumerate_valid_partitions(df.r, graph.candidate_pair_set())]
    logs = np.array([marginal_log_likelihood(list(z), prior, graph, comps)
                     for z in parts])
    probs = np.exp(logs - logs.max())
    return dict(zip(parts, probs / probs.sum()))


def tv_distance(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


# TV bound of the joint chain at 20,000 sweeps, from seed noise: over 8
# to 12 seeds per case the three cases below read 0.006-0.020. With m
# drawn from the previous sweep's counts they read 0.031-0.045; with a
# recount that skips the block records, or a doubled new-cell weight,
# the cases that the fault reaches read 0.12-0.22.
JOINT_TV = 0.027


class TestExactJointChain:
    """The joint chain, labels then m and u redrawn from recounted
    statistics, against the exact partition posterior of a seven-record
    file with 75 valid partitions: one component of four records (15
    valid partitions) and one of three (5)."""

    @pytest.mark.parametrize("p_max, random_scan, single_site", [
        (None, False, 0), (1, True, 7), (14, False, 4)],
        ids=["blocks", "single-site", "mixed"])
    def test_partition_law_matches_marginal_likelihood(
            self, monkeypatch, p_max, random_scan, single_site):
        if p_max is not None:
            monkeypatch.setattr(gibbs, "P_MAX", p_max)
        df, comps, graph = compared_setup(np.random.default_rng(1003), 7)
        ctx = SamplerContext(comps, graph)
        assert len(ctx.single_site) == single_site
        assert len(ctx.block_records) == 7 - single_site
        exact = marginal_partition_probs(df, comps, graph, toy_prior_for(comps))
        assert len(exact) == 75
        # λ = 0.5 binds: without the truncation the law is another one
        unbound = PriorSpec.from_lambdas([np.zeros(n - 1) for n in comps.n_levels])
        assert tv_distance(exact, marginal_partition_probs(
            df, comps, graph, unbound)) > 0.5
        tv = chain_tv(df, comps, graph, 971, random_scan, fixed_params=None)
        assert tv < JOINT_TV, f"TV distance {tv:.4f}"


def test_draw_segments_follows_weights():
    """Three segments drawn at a grid of uniforms: every entry takes its
    share of the grid, an entry scoring -inf none, and a uniform of 1 goes
    to each segment's last entry."""
    scores = np.array([0.5, -np.inf, 2.0, 0.0, 1.0, -np.inf, -3.0, 0.0])
    first = np.array([0, 4, 5])
    n = 1000
    drawn = np.array([draw_from_starts(scores.copy(), first, np.full(3, u))
                      for u in (np.arange(n) + 0.5) / n])
    for k, (lo, hi) in enumerate(zip(first, [4, 5, 8])):
        w = np.exp(scores[lo:hi] - scores[lo:hi].max())
        counts = np.bincount(drawn[:, k] - lo, minlength=hi - lo)
        assert np.all(np.abs(counts - n * w / w.sum()) <= 1)
    assert draw_from_starts(scores.copy(), first, np.ones(3)).tolist() == [3, 4, 7]


def draw_from_starts(scores, first, us):
    """_draw_segments with the segment ends and entry segments that the
    segment starts first give."""
    end = np.append(first[1:], len(scores))
    seg = np.repeat(np.arange(len(first)), end - first)
    return _draw_segments(scores, first, end, seg, us)


@pytest.mark.parametrize("seed", range(6))
def test_draw_segments_matches_oracle(seed):
    """The draw from precomputed segment ends and entry segments picks the
    index that oracles.draw_segments picks, on random layouts with
    one-entry segments, -inf entries (never a segment's last), and
    uniforms of 0 and 1 - 2**-53 among random ones."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 6, 40)
    sizes[::7] = 1
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    scores = rng.normal(0.0, 3.0, sizes.sum())
    scores[rng.random(len(scores)) < 0.3] = -np.inf
    scores[first + sizes - 1] = rng.normal(0.0, 3.0, len(sizes))
    us = rng.random(len(sizes))
    us[::5] = 0.0
    us[1::5] = 1.0 - 2.0 ** -53
    got = draw_from_starts(scores.copy(), first, us)
    assert np.array_equal(got, oracles.draw_segments(scores.copy(), first, us))
    assert np.all((got >= first) & (got < first + sizes))
    assert np.all(np.isfinite(scores[got]))


def block_probabilities(ctx, bin_lr) -> list:
    """Per block component, its members and the probability the block draw
    gives each of its partitions at per-bin log ratios bin_lr, keyed by
    the partition's canonical labels over the members."""
    scores = _block_scores(ctx, bin_lr)
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
                      in block_probabilities(ctx, ctx.bin_log_ratios(
                          np.concatenate(FROZEN.m), np.concatenate(FROZEN.u))))
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


def bin_count_setup(case):
    """Comparisons and a candidate graph: a BLOCK_CASES file (shape, s), or
    a file with many missing levels, with no candidate pairs, or with no
    block components."""
    if isinstance(case, tuple):
        shape, s = case
        rng = np.random.default_rng(400 + s)
        comps = compare_pairs(random_file(rng, s), all_pairs(s), small_specs())
        return comps, graph_with_candidates(comps, GRAPHS[shape](s, rng))
    s, shape, missing_rate = {"missing": (9, "disjoint", 0.5),
                              "no candidates": (6, None, 0.1),
                              "no blocks": (8, "complete", 0.1)}[case]
    rng = np.random.default_rng(600)
    comps = compare_pairs(random_file(rng, s, missing_rate), all_pairs(s),
                          small_specs())
    return comps, graph_with_candidates(
        comps, GRAPHS[shape](s, rng) if shape else [])


class TestBinCountProducts:
    @pytest.mark.parametrize(
        "case", BLOCK_CASES + ["missing", "no candidates", "no blocks"])
    def test_products_match_entry_sums(self, case):
        """Block scores and candidate log ratios from the bin-count matrices
        match the (partition, pair) and (pair, bin) entry sums of the
        oracles to 1e-12; link counts and recounts match exactly."""
        comps, graph = bin_count_setup(case)
        ctx = SamplerContext(comps, graph)
        if case == "missing":
            assert np.any(comps.levels[graph.candidate_mask] < 0)
            assert ctx.n_block_components
        if case == "no candidates":
            assert ctx.n_candidates == 0 and ctx.n_partitions == 0
        if case == "no blocks":
            assert ctx.n_block_components == 0 and ctx.single_site
        rng = np.random.default_rng(700)
        flat = flatten_prior(flat_prior(comps.n_levels))
        cut = flat.offsets[1:-1]
        for _ in range(5):
            m = rng.uniform(1e-12, 1 - 1e-12, len(flat.lam))
            u = rng.uniform(1e-12, 1 - 1e-12, len(flat.lam))
            params = ModelParams(m=np.split(m, cut), u=np.split(u, cut))
            ref = oracles.log_ratios(comps, graph, params)
            assert np.allclose(ctx.flat_log_ratios(m, u), ref, rtol=0,
                               atol=1e-12)
            scores = _block_scores(ctx, ctx.bin_log_ratios(m, u))
            assert scores.shape == (ctx.n_partitions,)
            assert np.allclose(scores, oracles.block_scores(ctx, ref), rtol=0,
                               atol=1e-12)
            linked = rng.random(ctx.n_candidates) < 0.5
            counts = ctx.link_counts(linked)
            assert counts.dtype == np.int64
            assert np.array_equal(counts,
                                  oracles.link_counts(comps, graph, linked))
            z = rng.integers(0, 3, comps.r)
            assert np.array_equal(ctx.recount(z), oracles.link_counts(
                comps, graph, z[ctx.cand_i] == z[ctx.cand_j]))


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

    def test_run_chains_matches_individual(self, rng, monkeypatch):
        """Every SamplerConfig field reaches each chain. With P_MAX 1
        every record is single-site, so that random_scan changes the
        draws."""
        monkeypatch.setattr(gibbs, "P_MAX", 1)
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=30, burn_in=4, thinning=3, seed=6,
                            chains=2, random_scan=True)
        both = run_chains(comps, graph, prior, cfg)
        assert len(both) == 2
        for sample, s in zip(both, chain_seeds(6, 2)):
            solo = run_chain(comps, graph, prior, SamplerConfig(
                iterations=30, burn_in=4, thinning=3, seed=s,
                random_scan=True))
            assert np.array_equal(sample.labelings, solo.labelings)
            assert np.array_equal(sample.kept_iterations,
                                  solo.kept_iterations)
            assert np.array_equal(sample.m_trace, solo.m_trace)
            ordered = run_chain(comps, graph, prior, SamplerConfig(
                iterations=30, burn_in=4, thinning=3, seed=s))
            assert not np.array_equal(sample.m_trace, ordered.m_trace)

    def test_run_chains_worker_count_invariance(self, rng):
        _, comps, graph = compared_setup(rng, 8)
        prior = toy_prior_for(comps)
        cfg = SamplerConfig(iterations=20, seed=6, chains=2)
        one = run_chains(comps, graph, prior, cfg, n_workers=1)
        two = run_chains(comps, graph, prior, cfg, n_workers=2)
        for x, y in zip(one, two):
            assert np.array_equal(x.labelings, y.labelings)
