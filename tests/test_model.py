"""Likelihood, priors, and sufficient statistics against oracles.

Numerical oracles here are deliberately independent of the library:
closed-form incomplete-Beta identities for integer parameters, and
direct scipy quadrature of naively-written integrands.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from bayesdedupe.candidates import FixRule, all_pairs, fix_noncoreferent
from bayesdedupe.comparison import compare_pairs
from bayesdedupe.errors import ConfigError
from bayesdedupe.model import (
    ModelParams,
    PriorSpec,
    SufficientStats,
    check_valid_labeling,
    sufficient_stats,
)

from conftest import compared_setup
from oracles import (
    ComparisonVector,
    _log_beta_tail,
    canonical_labels,
    comparison_vector,
    in_support,
    log_level_tables,
    log_likelihood,
    log_likelihood_ratio,
    log_p0_obs,
    log_p1_obs,
    log_posterior_unnormalized,
    marginal_log_likelihood,
    star_probs,
    stats_equal,
    truncated_beta_logpdf,
)


class TestStarProbs:
    def test_frozen(self):
        got = star_probs(np.array([0.9, 0.8, 0.99]))
        assert got == pytest.approx([0.9, 0.08, 0.0198, 0.0002], abs=1e-15)

    def test_single_parameter(self):
        assert star_probs(np.array([0.3])) == pytest.approx([0.3, 0.7])

    @given(st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=6))
    def test_sums_to_one(self, m):
        p = star_probs(np.array(m))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5))
    def test_matches_sequential_form(self, m):
        """Evaluating level l through the chain of conditionals equals
        the star probability."""
        m = np.array(m)
        p = star_probs(m)
        L = len(m)
        for level in range(L + 1):
            seq = 1.0
            for h in range(min(level, L)):
                seq *= 1.0 - m[h]
            if level < L:
                seq *= m[level]
            assert p[level] == pytest.approx(seq, abs=1e-12)


class TestObservedLogProbs:
    PARAMS = ModelParams(m=[[0.9, 0.8, 0.99]], u=[[0.2, 0.5, 0.5]])

    def test_frozen_values(self):
        vec3 = ComparisonVector(0, 1, (3,))
        # (1-0.2)(1-0.5)(1-0.5) = 0.2
        assert log_p0_obs(vec3, self.PARAMS) == pytest.approx(math.log(0.2))
        vec0 = ComparisonVector(0, 1, (0,))
        assert log_p0_obs(vec0, self.PARAMS) == pytest.approx(math.log(0.2))
        assert log_p1_obs(vec0, self.PARAMS) == pytest.approx(math.log(0.9))

    def test_missing_fields_drop_out(self):
        params = ModelParams(m=[[0.9], [0.8]], u=[[0.2], [0.5]])
        vec = ComparisonVector(0, 1, (None, 1))
        assert log_p1_obs(vec, params) == pytest.approx(math.log(1 - 0.8))
        assert log_p0_obs(vec, params) == pytest.approx(math.log(1 - 0.5))

    def test_ratio(self):
        vec = ComparisonVector(0, 1, (0,))
        assert log_likelihood_ratio(vec, self.PARAMS) == pytest.approx(
            math.log(0.9) - math.log(0.2))

    def test_tables_match_scalar(self):
        lm, lu = log_level_tables(self.PARAMS)
        for level in range(4):
            vec = ComparisonVector(0, 1, (level,))
            assert lm[0][level] == pytest.approx(log_p1_obs(vec, self.PARAMS))
            assert lu[0][level] == pytest.approx(log_p0_obs(vec, self.PARAMS))


class TestParamContainers:
    def test_model_params_validation(self):
        with pytest.raises(ConfigError):
            ModelParams(m=[[0.5]], u=[[0.5], [0.5]])
        with pytest.raises(ConfigError):
            ModelParams(m=[[0.5, 0.5]], u=[[0.5]])

    def test_prior_validation(self):
        with pytest.raises(ConfigError):
            PriorSpec.from_lambdas([[0.5]], alpha1=0.0)
        with pytest.raises(ConfigError):
            PriorSpec.from_lambdas([[1.0]])
        with pytest.raises(ConfigError):
            PriorSpec.from_lambdas([[float("nan")]])
        with pytest.raises(ConfigError):
            PriorSpec.from_lambdas([[0.5]], beta0=float("nan"))
        with pytest.raises(ConfigError):
            PriorSpec(lam=[np.array([0.5])], alpha1=[np.array([1.0, 1.0])],
                      beta1=[np.array([1.0])], alpha0=[np.array([1.0])],
                      beta0=[np.array([1.0])])

    def test_flat_builder(self):
        prior = PriorSpec.flat([4, 2], lam=0.9)
        assert [len(v) for v in prior.lam] == [3, 1]
        assert all(np.all(v == 0.9) for v in prior.lam)
        assert all(np.all(v == 1.0) for v in prior.alpha1)

    def test_in_support(self):
        prior = PriorSpec.from_lambdas([[0.8]])
        assert in_support(ModelParams(m=[[0.85]], u=[[0.5]]), prior)
        assert not in_support(ModelParams(m=[[0.75]], u=[[0.5]]), prior)
        assert not in_support(ModelParams(m=[[0.85]], u=[[1.0]]), prior)


def brute_stats(z, graph, comps):
    """Per-pair python recount of the level tallies."""
    stats = SufficientStats.zeros(comps.n_levels)
    cand = graph.candidate_pair_set()
    for k in range(len(comps)):
        vec = comparison_vector(comps, k)
        coref = z[vec.i] == z[vec.j] and (vec.i, vec.j) in cand
        for f, lv in enumerate(vec.levels):
            if lv is None:
                continue
            (stats.a1 if coref else stats.a0)[f][lv] += 1
    return stats


class TestSufficientStats:
    def test_matches_brute_force(self, rng):
        df, comps, graph = compared_setup(rng, 14)
        cand = graph.candidate_pair_set()
        # build a few valid labelings by unioning random candidate edges
        for trial in range(5):
            z = list(range(df.r))
            edges = list(cand)
            rng.shuffle(edges)
            for i, j in edges[: len(edges) // 2]:
                zi, zj = z[i], z[j]
                merged = sorted(k for k in range(df.r)
                                if z[k] in (zi, zj))
                ok = all((a, b) in cand
                         for a, b in itertools.combinations(merged, 2))
                if ok:
                    for k in range(df.r):
                        if z[k] == zj:
                            z[k] = zi
            z = list(canonical_labels(z))
            got = sufficient_stats(z, graph, comps)
            assert stats_equal(got, brute_stats(z, graph, comps))

    def test_totals_are_labeling_independent(self, rng):
        df, comps, graph = compared_setup(rng, 10)
        z_single = list(range(df.r))
        stats = sufficient_stats(z_single, graph, comps)
        for f in range(len(comps.fields)):
            col = comps.levels[:, f]
            assert stats.a1[f].sum() + stats.a0[f].sum() == int((col >= 0).sum())
            assert stats.a1[f].sum() == 0  # all singletons

    def test_invalid_labeling_rejected(self, rng):
        df, comps, graph = compared_setup(rng, 8, fix_name_level=1)
        if graph.n_fixed == 0:
            pytest.skip("no fixed pair in this draw")
        i, j = map(int, comps.pairs[~graph.candidate_mask][0])
        z = list(range(df.r))
        z[j] = z[i]
        with pytest.raises(ValueError):
            check_valid_labeling(z, graph)
        with pytest.raises(ValueError):
            sufficient_stats(z, graph, comps)

    def test_equals(self):
        s = SufficientStats.zeros([3, 2])
        t = SufficientStats.zeros([3, 2])
        assert stats_equal(s, t)
        t.a1[0][1] = 5
        assert not stats_equal(s, t)


class TestLogBetaTail:
    def test_closed_form_moderate(self):
        # 1 - I_0.5(2, 5) = 7/64 by the integer-parameter expansion
        assert _log_beta_tail(2.0, 5.0, 0.5) == pytest.approx(
            math.log(7 / 64), rel=1e-12)

    def test_closed_form_deep_tail(self):
        # 1 - I_0.5(2, 1000) = 501 * 0.5^1000, far below float underflow
        # of the complement; exercises the high-precision branch
        expect = math.log(501) - 1000 * math.log(2)
        assert _log_beta_tail(2.0, 1000.0, 0.5) == pytest.approx(expect, rel=1e-10)

    def test_no_truncation(self):
        assert _log_beta_tail(3.0, 4.0, 0.0) == 0.0


class TestTruncatedBetaLogpdf:
    @pytest.mark.parametrize("a,b,lam", [(1.0, 1.0, 0.85), (11.0, 1.0, 0.85),
                                         (2.0, 5.0, 0.5), (0.6, 2.0, 0.3)])
    def test_normalizes_to_one(self, a, b, lam):
        val, _ = quad(lambda x: math.exp(truncated_beta_logpdf(x, a, b, lam)),
                      lam, 1.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_zero_outside_support(self):
        assert truncated_beta_logpdf(0.5, 1.0, 1.0, 0.8) == -np.inf
        assert truncated_beta_logpdf(1.0, 1.0, 1.0, 0.8) == -np.inf
        assert truncated_beta_logpdf(-0.1, 1.0, 1.0, 0.0) == -np.inf

    def test_deep_tail_density_ratio(self):
        # normalization cancels in a ratio; the shape must be exact
        a, b, lam = 2.0, 1000.0, 0.5
        x1, x2 = 0.51, 0.56
        got = truncated_beta_logpdf(x1, a, b, lam) - truncated_beta_logpdf(
            x2, a, b, lam)
        expect = ((a - 1) * (math.log(x1) - math.log(x2))
                  + (b - 1) * (math.log(1 - x1) - math.log(1 - x2)))
        assert got == pytest.approx(expect, rel=1e-12)
        assert np.isfinite(truncated_beta_logpdf(0.6, a, b, lam))


class TestLogLikelihood:
    def test_dot_product_identity(self, rng):
        df, comps, graph = compared_setup(rng, 10)
        z = list(range(df.r))
        stats = sufficient_stats(z, graph, comps)
        params = ModelParams(m=[[0.9, 0.8, 0.99], [0.85, 0.7], [0.95]],
                             u=[[0.1, 0.3, 0.5], [0.3, 0.4], [0.2]])
        total = 0.0
        for k in range(len(comps)):
            total += log_p0_obs(comparison_vector(comps, k), params)
        assert log_likelihood(stats, params) == pytest.approx(total)


class TestJointDensity:
    def test_off_support_is_minus_inf(self, rng):
        df, comps, graph = compared_setup(rng, 6)
        prior = PriorSpec.from_lambdas([[0.9] * 3, [0.9] * 2, [0.9]])
        z = list(range(df.r))
        bad = ModelParams(m=[[0.5, 0.95, 0.95], [0.95, 0.95], [0.95]],
                          u=[[0.3] * 3, [0.3] * 2, [0.3]])
        assert log_posterior_unnormalized(z, bad, prior, graph, comps) == -np.inf

    def test_labelings_of_same_partition_score_identically(self, rng):
        df, comps, graph = compared_setup(rng, 6, fix_name_level=None)
        prior = PriorSpec.from_lambdas([[0.85] * 3, [0.85] * 2, [0.85]])
        params = ModelParams(m=[[0.9, 0.9, 0.9], [0.9, 0.9], [0.9]],
                             u=[[0.3] * 3, [0.3] * 2, [0.3]])
        z1 = [0, 0, 1, 2, 3, 4]
        z2 = [5, 5, 0, 3, 1, 2]  # same partition, shuffled labels
        v1 = log_posterior_unnormalized(z1, params, prior, graph, comps)
        v2 = log_posterior_unnormalized(z2, params, prior, graph, comps)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert np.isfinite(v1)


class TestMarginalLikelihood:
    def test_against_direct_quadrature(self):
        """Single binary field, so the marginal factorizes into one m
        integral and one u integral, each checkable by naive quadrature
        of likelihood times prior density."""
        from bayesdedupe.comparison import binary_spec
        from bayesdedupe.records import DataFile, FieldSchema, Record

        df = DataFile(schema=[FieldSchema("c", "categorical")], records=[
            Record(0, ("X",)), Record(1, ("X",)), Record(2, ("Y",)),
            Record(3, ("X",))])
        comps = compare_pairs(df, all_pairs(4), [binary_spec("c")])
        graph = fix_noncoreferent(comps, [])
        lam, a, b = 0.6, 2.0, 3.0
        prior = PriorSpec.from_lambdas([[lam]], alpha1=a, beta1=b,
                                       alpha0=1.5, beta0=2.5)
        z = [0, 0, 1, 2]  # merge records 0,1
        stats = sufficient_stats(z, graph, comps)
        c0, c1 = stats.a1[0]
        d0, d1 = stats.a0[0]

        def m_integrand(m):
            tail = 1.0 - _reg_inc_beta(a, b, lam)
            dens = m ** (a - 1) * (1 - m) ** (b - 1) / (
                math.exp(_log_beta(a, b)) * tail)
            return (m ** c0) * ((1 - m) ** c1) * dens

        def u_integrand(u):
            dens = u ** 0.5 * (1 - u) ** 1.5 / math.exp(_log_beta(1.5, 2.5))
            return (u ** d0) * ((1 - u) ** d1) * dens

        mi, _ = quad(m_integrand, lam, 1.0)
        ui, _ = quad(u_integrand, 0.0, 1.0)
        expect = math.log(mi) + math.log(ui)
        got = marginal_log_likelihood(z, prior, graph, comps)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_monotone_in_evidence(self, rng):
        """Merging two records that agree everywhere should raise the
        marginal likelihood relative to leaving them apart when the
        prior expects coreferent agreement."""
        from bayesdedupe.comparison import binary_spec
        from bayesdedupe.records import DataFile, FieldSchema, Record

        df = DataFile(schema=[FieldSchema("c", "categorical")], records=[
            Record(0, ("X",)), Record(1, ("X",)), Record(2, ("Y",)),
            Record(3, ("Z",))])
        comps = compare_pairs(df, all_pairs(4), [binary_spec("c")])
        graph = fix_noncoreferent(comps, [])
        prior = PriorSpec.from_lambdas([[0.95]])
        merged = marginal_log_likelihood([0, 0, 1, 2], prior, graph, comps)
        apart = marginal_log_likelihood([0, 1, 2, 3], prior, graph, comps)
        assert merged > apart


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _reg_inc_beta(a, b, x):
    from scipy.special import betainc
    return float(betainc(a, b, x))
