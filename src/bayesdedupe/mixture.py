"""Independent-pairs mixture baseline.

Each candidate pair carries its own latent match flag, iid Bernoulli(p)
given a uniform mixing weight, with the same leveled likelihood for
matches and non-matches as the partition model. Because the flags are
independent, posterior draws can assert A matches B and B matches C
while A does not match C; the per-draw count of such triplets is
recorded so the effect is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import CandidateGraph
from .comparison import PairComparisons
from .config import SamplerConfig
from .gibbs import LevelContext, draw_flat_params, flatten_prior
from .model import PriorSpec


def count_nontransitive_triplets(r: int, pos_pairs) -> int:
    """Triples of records with exactly two positive links among them.

    Pairs never compared count as negative. Each such triple has a
    unique center record incident to both links; the count is
    center-paths minus three per triangle.
    """
    adj: dict = {}
    for i, j in pos_pairs:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    paths = sum(len(s) * (len(s) - 1) // 2 for s in adj.values())
    closed = 0
    for i, j in pos_pairs:
        closed += len(adj[i] & adj[j])
    return paths - closed


@dataclass
class MixtureSample:
    delta_mean: np.ndarray        # per candidate pair
    nontransitive: np.ndarray     # per retained draw
    p_trace: np.ndarray
    kept_iterations: np.ndarray

    @property
    def n_kept(self) -> int:
        return len(self.kept_iterations)


def run_mixture(comps: PairComparisons, graph: CandidateGraph,
                prior: PriorSpec, config: SamplerConfig) -> MixtureSample:
    """Gibbs over (match flags, mixing weight, level parameters).

    Sweep order: flags given p and the level parameters, then p, then
    the level parameters; retention follows the partition sampler.
    """
    ctx = LevelContext(comps, graph)
    flat = flatten_prior(prior)
    rng = np.random.default_rng(config.seed)

    n_cand = ctx.n_candidates
    cand_pairs = graph.candidate_pairs()
    delta = np.zeros(n_cand, dtype=np.int8)
    envelopes: dict = {}  # one m envelope memo for the run, as a chain keeps
    m, u, _ = draw_flat_params(rng, flat, ctx.link_counts(delta == 1),
                               envelopes)
    p = rng.beta(1.0, 1.0 + n_cand)

    # retained link count per candidate; counts of 0/1 flags are exact,
    # so count / draws is the mean of the retained flags
    links = np.zeros(n_cand, dtype=np.int64)
    kept_iter, p_tr, nontr = [], [], []
    for t in range(1, config.iterations + 1):
        loglr = ctx.flat_log_ratios(m, u)
        logit = np.log(p) - np.log1p(-p) + loglr
        prob = 1.0 / (1.0 + np.exp(-logit))
        delta = (rng.random(n_cand) < prob).astype(np.int8)
        n_pos = int(delta.sum())
        p = rng.beta(1.0 + n_pos, 1.0 + n_cand - n_pos)
        m, u, _ = draw_flat_params(rng, flat, ctx.link_counts(delta == 1),
                                   envelopes)
        if t > config.burn_in and (t - config.burn_in - 1) % config.thinning == 0:
            kept_iter.append(t)
            p_tr.append(p)
            links += delta
            nontr.append(count_nontransitive_triplets(
                comps.r, cand_pairs[delta == 1]))

    return MixtureSample(
        delta_mean=links / len(kept_iter) if kept_iter else np.zeros(n_cand),
        nontransitive=np.asarray(nontr, dtype=np.int64),
        p_trace=np.asarray(p_tr),
        kept_iterations=np.asarray(kept_iter, dtype=np.int64))
