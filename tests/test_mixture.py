"""Independent-pairs baseline and the transitivity counter."""

import itertools
from unittest import mock

import numpy as np
import pytest

from bayesdedupe import mixture
from bayesdedupe.gibbs import SamplerConfig, run_chain
from bayesdedupe.mixture import count_nontransitive_triplets, run_mixture
from bayesdedupe.model import PriorSpec

from conftest import compared_setup
from oracles import delta_from_labeling


def brute_nontransitive(r, pos_pairs):
    pos = {(min(i, j), max(i, j)) for i, j in pos_pairs}
    count = 0
    for trip in itertools.combinations(range(r), 3):
        links = sum((a, b) in pos
                    for a, b in itertools.combinations(trip, 2))
        count += links == 2
    return count


class TestNontransitiveTriplets:
    def test_frozen_cases(self):
        # a two-edge path is the minimal violation
        assert count_nontransitive_triplets(3, [(0, 1), (1, 2)]) == 1
        # a closed triangle is consistent
        assert count_nontransitive_triplets(3, [(0, 1), (1, 2), (0, 2)]) == 0
        # a star with three leaves has three bad triples
        assert count_nontransitive_triplets(4, [(0, 1), (0, 2), (0, 3)]) == 3
        assert count_nontransitive_triplets(5, []) == 0
        # one edge alone involves no third positive link
        assert count_nontransitive_triplets(4, [(1, 2)]) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            r = int(rng.integers(3, 9))
            pairs = [(i, j) for i, j in itertools.combinations(range(r), 2)
                     if rng.random() < 0.4]
            assert count_nontransitive_triplets(r, pairs) == \
                brute_nontransitive(r, pairs), (r, pairs)

    def test_partition_links_always_transitive(self, rng):
        """Links derived from any labeling can never produce a violation."""
        _, comps, graph = compared_setup(rng, 10)
        prior = PriorSpec.from_lambdas(
            [np.full(n - 1, 0.5) for n in comps.n_levels])
        sample = run_chain(comps, graph, prior,
                           SamplerConfig(iterations=60, seed=5))
        pairs = comps.pairs
        for row in sample.labelings:
            delta = delta_from_labeling(row, pairs)
            assert count_nontransitive_triplets(
                comps.r, pairs[delta == 1]) == 0


class TestDeltaFromLabeling:
    def test_basic(self):
        pairs = np.array([[0, 1], [0, 2], [1, 2], [2, 3]])
        delta = delta_from_labeling([0, 0, 0, 1], pairs)
        assert delta.tolist() == [1, 1, 1, 0]


class TestRunMixture:
    def test_shapes_and_ranges(self, rng):
        _, comps, graph = compared_setup(rng, 12)
        prior = PriorSpec.from_lambdas(
            [np.full(n - 1, 0.5) for n in comps.n_levels])
        cfg = SamplerConfig(iterations=40, burn_in=10, seed=2)
        out = run_mixture(comps, graph, prior, cfg)
        assert out.n_kept == 30
        assert out.delta_mean.shape == (graph.n_candidates,)
        assert np.all((out.delta_mean >= 0) & (out.delta_mean <= 1))
        assert np.all((out.p_trace > 0) & (out.p_trace < 1))
        assert np.all(out.nontransitive >= 0)
        assert out.kept_iterations.tolist() == list(range(11, 41))

    def test_link_frequencies_are_retained_flag_means(self, rng):
        """delta_mean equals the mean of the retained flag vectors, read
        back from the positive pairs each retained draw counts
        triplets over."""
        _, comps, graph = compared_setup(rng, 12)
        prior = PriorSpec.from_lambdas(
            [np.full(n - 1, 0.5) for n in comps.n_levels])
        position = {tuple(p): k
                    for k, p in enumerate(graph.candidate_pairs().tolist())}
        flags = []

        def spy(r, pos_pairs):
            row = np.zeros(graph.n_candidates, dtype=np.int8)
            row[[position[tuple(p)] for p in pos_pairs.tolist()]] = 1
            flags.append(row)
            return count_nontransitive_triplets(r, pos_pairs)

        with mock.patch.object(mixture, "count_nontransitive_triplets", spy):
            out = run_mixture(comps, graph, prior,
                              SamplerConfig(iterations=70, burn_in=10, seed=4))
        kept = np.array(flags)
        assert len(kept) == out.n_kept == 60
        assert 0 < kept.sum() < kept.size
        assert np.array_equal(out.delta_mean, kept.mean(axis=0))

    def test_deterministic(self, rng):
        _, comps, graph = compared_setup(rng, 10)
        prior = PriorSpec.from_lambdas(
            [np.full(n - 1, 0.5) for n in comps.n_levels])
        cfg = SamplerConfig(iterations=30, seed=9)
        a = run_mixture(comps, graph, prior, cfg)
        b = run_mixture(comps, graph, prior, cfg)
        assert np.array_equal(a.delta_mean, b.delta_mean)
        assert np.array_equal(a.p_trace, b.p_trace)
        assert np.array_equal(a.nontransitive, b.nontransitive)
