"""Gibbs sampler over constrained coreference labelings and parameters.

Given the parameters, the partition posterior factorizes over the
connected components of the candidate graph, since no labeling may merge
records of different components. One iteration redraws the labels of
every component and then all level parameters from their conjugate full
conditionals. Records outside every candidate pair stay singletons by
construction and are never visited.

Components of 2 to BLOCK_MAX records are drawn exactly as a whole. Each
size class enumerates its set partitions once and scores them for all of
its components with one incidence-matrix product against the candidate
log likelihood ratios; partitions that put a non-candidate pair in one
cell get weight zero. Each member of a drawn cell takes the record id of
the cell's first member as its label.

Records of larger components get single-site updates, in ascending id
order or, with random_scan, in a fresh random order each sweep. The
full conditional for record i gives each existing cell weight equal to
the product of likelihood ratios against the cell's members - zero if
any member is not a candidate partner of i - and gives unit total weight
to opening a new cell, realized by drawing one of the unused labels of
the single-site records uniformly. That uniform split is what makes the
labeling-level chain marginalize to a flat prior over the permitted
partitions.

The sufficient statistics are recounted from the labeling once per
sweep, before the parameter draw. Given a seed and a config the
trajectory is bit-reproducible: random draws happen in a fixed order.
Each sweep draws one batch of uniforms, two per single-site record (in
visiting order) and then one per block component (by size class, then
by smallest member); with random_scan the visiting order is drawn next;
then come the m draws and then the u draws.
"""

from __future__ import annotations

import math
import time
from collections import Counter, namedtuple
from dataclasses import dataclass
from math import exp

import numpy as np
from scipy.special import betainc, betaincc, betainccinv, betaincinv

from . import model
from .candidates import CandidateGraph, connected_components
from .comparison import PairComparisons
from .config import SamplerConfig
from .errors import ConfigError
from .model import ModelParams, PriorSpec, SufficientStats
from .partition import canonicalize_label_rows, enumerate_valid_partitions


# --- truncated-Beta sampling ------------------------------------------------

def _tbeta_tail_fallback(a: float, b: float, lam: float, u: float,
                         max_iter: int = 300) -> float:
    """Tail quantile when 1 - F(lam) underflows in double precision.

    Solves S(x) = S(lam) * (1 - u) for the survival S by bisection in
    high precision; raises after max_iter bisection steps. Last resort
    behind the survival-scale inversion and the rejection sampler.
    """
    import mpmath
    with mpmath.workdps(60):
        tmax = mpmath.mpf(1) - mpmath.mpf(lam)
        s_lam = mpmath.betainc(b, a, 0, tmax, regularized=True)
        target = s_lam * (1 - mpmath.mpf(u))
        lo, hi = mpmath.mpf(0), tmax
        tol = tmax * mpmath.mpf(2) ** -80
        for _ in range(max_iter):
            mid = (lo + hi) / 2
            if mpmath.betainc(b, a, 0, mid, regularized=True) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol:
                break
        else:
            raise RuntimeError(
                "truncated-Beta tail inversion did not converge "
                f"(a={a}, b={b}, lam={lam})")
        return float(1 - (lo + hi) / 2)


def _tbeta_reject(rng: np.random.Generator, a: float, b: float, lam: float,
                  u0: float) -> float:
    """Draw from Beta(a, b) restricted to (lam, 1) when the restricted
    mass underflows double precision entirely.

    In that regime the mode sits far below lam, so the density is
    decreasing on (lam, 1) and log-concave there; the tangent at lam
    gives an exponential envelope and exact rejection. The first
    proposal consumes the caller's uniform, retries draw fresh ones.
    """
    width = 1.0 - lam
    slope = (a - 1.0) / lam - (b - 1.0) / width
    if not (slope < 0.0 and
            (b - 1.0) * lam * lam >= (1.0 - a) * width * width):
        return _tbeta_tail_fallback(a, b, lam, u0)
    rate = -slope
    accept_at = -math.expm1(-rate * width)  # proposal mass inside (0, width)
    u = u0
    for _ in range(10000):
        t = -math.log1p(-u * accept_at) / rate
        log_acc = ((a - 1.0) * math.log1p(t / lam)
                   + (b - 1.0) * math.log1p(-t / width) + rate * t)
        if math.log(rng.random()) < log_acc:
            return lam + t
        u = rng.random()
    raise RuntimeError(
        f"truncated-Beta rejection did not accept (a={a}, b={b}, lam={lam})")


def _tbeta_vec(rng: np.random.Generator, a: np.ndarray, b: np.ndarray,
               lam: np.ndarray) -> np.ndarray:
    """Vector of TBeta(a, b, lam, 1) draws via the inverse CDF.

    Elements whose truncated tail is too small for the plain CDF
    inversion are redrawn on the survival scale; total underflow of the
    tail falls through to the rejection sampler, which may consume
    extra uniforms.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    f_lam = betainc(a, b, lam)
    u = rng.random(len(a))
    x = betaincinv(a, b, f_lam + u * (1.0 - f_lam))
    for k in np.flatnonzero(1.0 - f_lam <= 1e-14):
        ak, bk, lk = float(a[k]), float(b[k]), float(lam[k])
        s_lam = float(betaincc(ak, bk, lk))
        if s_lam > 0.0:
            x[k] = betainccinv(ak, bk, s_lam * (1.0 - float(u[k])))
        else:
            x[k] = _tbeta_reject(rng, ak, bk, lk, float(u[k]))
    np.clip(x, 1e-12, 1.0 - 1e-12, out=x)
    np.maximum(x, lam, out=x)
    return x


def sample_truncated_beta(rng: np.random.Generator, alpha: float, beta: float,
                          lam: float) -> float:
    """One draw from Beta(alpha, beta) truncated to [lam, 1)."""
    return float(_tbeta_vec(rng, np.array([alpha]), np.array([beta]),
                            np.array([lam]))[0])


# --- parameter block --------------------------------------------------------

FlatPrior = namedtuple("FlatPrior", "alpha1 beta1 lam alpha0 beta0 offsets")


def flatten_prior(prior: PriorSpec) -> FlatPrior:
    offsets = np.cumsum([0] + [len(v) for v in prior.lam])
    cat = lambda arrs: np.concatenate(arrs) if len(arrs) else np.empty(0)
    return FlatPrior(alpha1=cat(prior.alpha1), beta1=cat(prior.beta1),
                     lam=cat(prior.lam), alpha0=cat(prior.alpha0),
                     beta0=cat(prior.beta0), offsets=offsets)


def _level_counts(counts_by_field) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-field level counts into (count at l, count above l)."""
    cs, ts = [], []
    for counts in counts_by_field:
        arr = np.asarray(counts, dtype=np.float64)
        rev = np.cumsum(arr[::-1])[::-1]
        cs.append(arr[:-1])
        ts.append(rev[1:])
    return np.concatenate(cs), np.concatenate(ts)


def draw_params(rng: np.random.Generator, flat: FlatPrior,
                stats: SufficientStats):
    """Joint conjugate redraw of all m then all u.

    Returns per-field lists plus the flat vectors for trace storage.
    """
    c1, t1 = _level_counts(stats.a1)
    m_flat = _tbeta_vec(rng, flat.alpha1 + c1, flat.beta1 + t1, flat.lam)
    c0, t0 = _level_counts(stats.a0)
    u_flat = rng.beta(flat.alpha0 + c0, flat.beta0 + t0)
    np.clip(u_flat, 1e-12, 1.0 - 1e-12, out=u_flat)
    bounds = flat.offsets
    m_list = [m_flat[bounds[f]:bounds[f + 1]] for f in range(len(bounds) - 1)]
    u_list = [u_flat[bounds[f]:bounds[f + 1]] for f in range(len(bounds) - 1)]
    return m_list, u_list, m_flat, u_flat


# --- chain state and label updates ------------------------------------------

# Candidate components of 2..BLOCK_MAX records are drawn exactly as one
# block each; a component of six has Bell(6) = 203 set partitions.
BLOCK_MAX = 6

# One size class of block-drawn components:
#   members[k]      component k's records, ascending (rows indexes the
#                   components, flat_members lists members row by row)
#   reps[p]         per member, the member index of its cell's first member
#                   under set partition p
#   incidence[q, p] 1 when local pair q shares a cell under p, else 0
#   pair_idx[k, q]  candidate index of component k's local pair q
#   penalty[k, p]   -inf when p puts a non-candidate pair of component k in
#                   one cell, else 0
_Block = namedtuple("_Block",
                    "members rows flat_members reps incidence pair_idx penalty")


def _set_partitions(s: int) -> np.ndarray:
    """Every set partition of s members as a row of cell representatives
    (each member's cell's smallest member); all singletons come last."""
    everything = {(a, b) for a in range(s) for b in range(a + 1, s)}
    parts = enumerate_valid_partitions(s, everything)
    reps = np.empty((len(parts), s), dtype=np.int64)
    for p, cells in enumerate(parts):
        for cell in cells:
            reps[p, list(cell)] = cell[0]
    return reps


def _make_block(group: list, cand_index: dict) -> _Block:
    """Set-up of one size class from its components (sorted tuples)."""
    s = len(group[0])
    reps = _set_partitions(s)
    a, b = np.triu_indices(s, k=1)
    incidence = (reps[:, a] == reps[:, b]).T.astype(np.float64)
    pair_idx = np.array([[cand_index.get((comp[x], comp[y]), -1)
                          for x, y in zip(a.tolist(), b.tolist())]
                         for comp in group], dtype=np.int64)
    missing = pair_idx < 0
    penalty = np.where(missing.astype(np.float64) @ incidence > 0, -np.inf, 0.0)
    # a stand-in index: every partition the penalty allows keeps a missing
    # pair apart, so its value is multiplied by zero
    pair_idx[missing] = 0
    members = np.array(group, dtype=np.int64)
    return _Block(members=members, rows=np.arange(len(group))[:, None],
                  flat_members=members.ravel().tolist(),
                  reps=reps, incidence=incidence, pair_idx=pair_idx,
                  penalty=penalty)


class SamplerContext:
    """Data-side constants shared by all sweeps of a chain.

    Records of candidate components larger than BLOCK_MAX are updated one
    at a time (single_site, ascending); smaller components with two or
    more records are drawn whole, one size class per entry of blocks.
    """

    def __init__(self, comps: PairComparisons, graph: CandidateGraph):
        if len(comps) != len(graph.pairs) or comps.r != graph.r:
            raise ConfigError("comparison data and candidate graph are misaligned")
        self.comps = comps
        self.graph = graph
        self.r = comps.r
        cand_idx = np.flatnonzero(graph.candidate_mask)
        self.n_candidates = len(cand_idx)
        self.cand_i = comps.pairs[cand_idx, 0].astype(np.int64)
        self.cand_j = comps.pairs[cand_idx, 1].astype(np.int64)
        ci, cj = self.cand_i.tolist(), self.cand_j.tolist()
        adj: list = [[] for _ in range(self.r)]
        for c, (i, j) in enumerate(zip(ci, cj)):
            adj[i].append((j, c))
            adj[j].append((i, c))
        self.adj = adj

        # observed candidate levels as (pair, bin) entries in field order,
        # where a field's bins are its levels after the earlier fields' bins
        self.bin_bounds = np.cumsum([0] + list(comps.n_levels))
        cand_levels = comps.levels[cand_idx]
        field, pair = np.nonzero(cand_levels.T >= 0)
        self.obs_pair = pair
        self.obs_bin = self.bin_bounds[field] + cand_levels[pair, field]
        n_bins = int(self.bin_bounds[-1])
        fixed = model.fixed_pair_stats(graph, comps)
        # a0 = fixed-pair counts + candidate counts - a1
        self.a0_base = np.concatenate(fixed) + np.bincount(self.obs_bin,
                                                           minlength=n_bins)

        components = graph.components or connected_components(self.r, zip(ci, cj))
        self.single_site = sorted(i for comp in components
                                  if len(comp) > BLOCK_MAX for i in comp)
        cand_index = {(i, j): c for c, (i, j) in enumerate(zip(ci, cj))}
        self.blocks = []
        for s in range(2, BLOCK_MAX + 1):
            group = [comp for comp in components if len(comp) == s]
            if group:
                self.blocks.append(_make_block(group, cand_index))
        self.n_block_components = sum(len(b.members) for b in self.blocks)

    def log_ratios(self, params: ModelParams) -> np.ndarray:
        """Per-candidate-pair log likelihood ratios."""
        lm, lu = model.log_level_tables(params)
        lr = np.concatenate(lm) - np.concatenate(lu)
        return np.bincount(self.obs_pair, weights=lr[self.obs_bin],
                           minlength=self.n_candidates)

    def link_stats(self, linked: np.ndarray) -> SufficientStats:
        """Sufficient statistics when exactly the candidate pairs flagged
        in linked are coreferent."""
        a1 = np.bincount(self.obs_bin[linked[self.obs_pair]],
                         minlength=len(self.a0_base))
        cut = self.bin_bounds[1:-1]
        return SufficientStats(a1=np.split(a1, cut),
                               a0=np.split(self.a0_base - a1, cut))

    def recount(self, z: np.ndarray) -> SufficientStats:
        """Sufficient statistics of labeling z, counted from scratch."""
        return self.link_stats(z[self.cand_i] == z[self.cand_j])


def component_summary(graph: CandidateGraph) -> dict:
    """Sizes of the candidate components with two or more records (size:
    number of components), and how many records each label path draws."""
    sizes = [len(comp) for comp in graph.components if len(comp) > 1]
    return {
        "component_sizes": dict(sorted(Counter(sizes).items())),
        "block_records": sum(s for s in sizes if s <= BLOCK_MAX),
        "single_site_records": sum(s for s in sizes if s > BLOCK_MAX),
    }


@dataclass
class ChainState:
    """Mutable Gibbs state: labeling, parameters with their candidate log
    ratios, statistics, and the cell bookkeeping of the single-site
    records.

    stats are recounted from z before every parameter draw. cell_sizes
    and free_labels cover only labels held by single-site records; block
    draws label a cell with its first member's record id, which no
    single-site record ever holds.
    """

    z: list
    params: ModelParams
    loglr: np.ndarray
    stats: SufficientStats
    cell_sizes: dict
    free_labels: list


def init_state(ctx: SamplerContext, prior: PriorSpec,
               rng: np.random.Generator,
               params: ModelParams | None = None) -> ChainState:
    """Singleton labeling; parameters drawn from the prior unless given."""
    r = ctx.r
    if params is None:
        zero = SufficientStats.zeros(ctx.comps.n_levels)
        m_list, u_list, _, _ = draw_params(rng, flatten_prior(prior), zero)
        params = ModelParams(m=m_list, u=u_list)
    else:
        params = params.copy()
    return ChainState(z=list(range(r)), params=params,
                      loglr=ctx.log_ratios(params),
                      stats=ctx.recount(np.arange(r)),
                      cell_sizes={i: 1 for i in ctx.single_site},
                      free_labels=[])


def _update_record(i, z, cell_sizes, free_labels, adj_i, loglr, u1, u2):
    """Redraw record i's label in place. u1 picks the option, u2 picks
    the concrete unused label if a new cell opens."""
    q_old = z[i]
    sz = cell_sizes[q_old]
    if sz == 1:
        del cell_sizes[q_old]
        free_labels.append(q_old)
    else:
        cell_sizes[q_old] = sz - 1
    sums: dict = {}
    counts: dict = {}
    for j, c in adj_i:
        q = z[j]
        if q in sums:
            sums[q] += loglr[c]
            counts[q] += 1
        else:
            sums[q] = loglr[c]
            counts[q] = 1
    labs = []
    ws = []
    mx = 0.0
    for q, s in sums.items():
        # a cell is joinable only if every member is a candidate partner
        if counts[q] == cell_sizes[q]:
            labs.append(q)
            ws.append(s)
            if s > mx:
                mx = s
    total = exp(-mx)  # the new-cell option, at log weight 0
    exps = []
    for s in ws:
        e = exp(s - mx)
        exps.append(e)
        total += e
    t = u1 * total
    q_new = -1
    acc = 0.0
    for k in range(len(exps)):
        acc += exps[k]
        if t < acc:
            q_new = labs[k]
            break
    if q_new < 0:
        nf = len(free_labels)
        k = int(u2 * nf)
        if k >= nf:
            k = nf - 1
        q_new = free_labels[k]
        free_labels[k] = free_labels[nf - 1]
        free_labels.pop()
        cell_sizes[q_new] = 1
    else:
        cell_sizes[q_new] += 1
    z[i] = q_new
    return q_new


def _block_scores(blk: _Block, loglr: np.ndarray) -> np.ndarray:
    """Log weight of every set partition (column) of every component (row)
    of a size class, up to a constant per component; -inf where the
    partition merges a non-candidate pair."""
    return loglr[blk.pair_idx] @ blk.incidence + blk.penalty


def _draw_blocks(blocks: list, loglr: np.ndarray, us: np.ndarray,
                 z: list) -> None:
    """Draw every block component's partition exactly, one uniform per
    component, and write its labels into z."""
    at = 0
    for blk in blocks:
        n = len(blk.members)
        scores = _block_scores(blk, loglr)
        scores -= scores.max(axis=1, keepdims=True)
        cdf = np.cumsum(np.exp(scores), axis=1)
        t = us[at:at + n] * cdf[:, -1]
        at += n
        # the first partition whose cdf exceeds t; the last one, all
        # singletons and always allowed, also takes t rounded up to the total
        choice = (cdf[:, :-1] <= t[:, None]).sum(axis=1)
        labels = blk.members[blk.rows, blk.reps[choice]]
        for i, lab in zip(blk.flat_members, labels.ravel().tolist()):
            z[i] = lab


def sweep(ctx: SamplerContext, state: ChainState, rng: np.random.Generator,
          flat: FlatPrior | None, random_scan: bool = False):
    """One Gibbs iteration on state, in place: labels, then parameters.

    With flat None the parameters stay fixed and None is returned;
    otherwise the statistics are recounted, the parameters redrawn, and
    the flat m and u vectors returned.
    """
    z = state.z
    single = ctx.single_site
    n_single = len(single)
    us = rng.random(2 * n_single + ctx.n_block_components)
    if n_single:
        order = rng.permutation(n_single) if random_scan else range(n_single)
        u_single = us[:2 * n_single].tolist()
        loglr = state.loglr.tolist()
        cell_sizes, free_labels, adj = state.cell_sizes, state.free_labels, ctx.adj
        k2 = 0
        for k in order:
            i = single[k]
            _update_record(i, z, cell_sizes, free_labels, adj[i], loglr,
                           u_single[k2], u_single[k2 + 1])
            k2 += 2
    _draw_blocks(ctx.blocks, state.loglr, us[2 * n_single:], z)
    if flat is None:
        return None
    state.stats = ctx.recount(np.array(z))
    m_list, u_list, m_flat, u_flat = draw_params(rng, flat, state.stats)
    state.params = ModelParams(m=m_list, u=u_list)
    state.loglr = ctx.log_ratios(state.params)
    return m_flat, u_flat


# --- full chain -------------------------------------------------------------

@dataclass
class PosteriorSample:
    """Retained draws from one chain.

    labelings holds canonical (first-occurrence) labels, one row per
    retained sweep; traces are None when parameters were held fixed.
    """

    labelings: np.ndarray
    kept_iterations: np.ndarray
    m_trace: np.ndarray | None
    u_trace: np.ndarray | None
    fields: tuple
    n_levels: tuple
    seed: int
    config: SamplerConfig
    runtime_s: float

    @property
    def r(self) -> int:
        return self.labelings.shape[1]

    @property
    def n_kept(self) -> int:
        return self.labelings.shape[0]


def run_chain(comps: PairComparisons, graph: CandidateGraph, prior: PriorSpec,
              config: SamplerConfig, *,
              fixed_params: ModelParams | None = None) -> PosteriorSample:
    """Run one chain and return its retained samples.

    With fixed_params the parameter block never updates (useful for
    validating the partition chain against exact enumeration); otherwise
    parameters are redrawn each sweep after the labels.
    """
    start = time.perf_counter()
    ctx = SamplerContext(comps, graph)
    rng = np.random.default_rng(config.seed)
    state = init_state(ctx, prior, rng, params=fixed_params)
    flat = flatten_prior(prior) if fixed_params is None else None

    n_kept = config.n_kept
    kept_z = np.empty((n_kept, ctx.r), dtype=np.int32)
    kept_iter = np.empty(n_kept, dtype=np.int64)
    n_params = len(flat.lam) if flat is not None else 0
    m_trace = np.empty((n_kept, n_params)) if flat is not None else None
    u_trace = np.empty((n_kept, n_params)) if flat is not None else None

    kk = 0
    for t in range(1, config.iterations + 1):
        drawn = sweep(ctx, state, rng, flat, config.random_scan)
        if t > config.burn_in and (t - config.burn_in - 1) % config.thinning == 0:
            kept_z[kk] = state.z
            kept_iter[kk] = t
            if drawn is not None:
                m_trace[kk], u_trace[kk] = drawn
            kk += 1

    return PosteriorSample(
        labelings=canonicalize_label_rows(kept_z[:kk]),
        kept_iterations=kept_iter[:kk],
        m_trace=m_trace[:kk] if m_trace is not None else None,
        u_trace=u_trace[:kk] if u_trace is not None else None,
        fields=comps.fields, n_levels=comps.n_levels, seed=config.seed,
        config=config, runtime_s=time.perf_counter() - start)


def chain_seeds(seed: int, chains: int) -> list[int]:
    """Per-chain 64-bit seeds derived from one master seed.

    A single chain keeps the literal seed so that chains=1 reproduces
    run_chain exactly.
    """
    if chains == 1:
        return [seed]
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0])
            for child in ss.spawn(chains)]


def _chain_job(args):
    comps, graph, prior, config = args
    return run_chain(comps, graph, prior, config)


def run_chains(comps: PairComparisons, graph: CandidateGraph, prior: PriorSpec,
               config: SamplerConfig, n_workers: int = 1) -> list[PosteriorSample]:
    """Run config.chains independent chains, optionally across processes.

    Output is deterministic for a given master seed regardless of
    worker count.
    """
    seeds = chain_seeds(config.seed, config.chains)
    configs = [SamplerConfig(iterations=config.iterations, burn_in=config.burn_in,
                             thinning=config.thinning, seed=s, chains=1,
                             random_scan=config.random_scan)
               for s in seeds]
    if n_workers <= 1 or config.chains == 1:
        return [run_chain(comps, graph, prior, c) for c in configs]
    from concurrent.futures import ProcessPoolExecutor
    jobs = [(comps, graph, prior, c) for c in configs]
    with ProcessPoolExecutor(max_workers=min(n_workers, config.chains)) as ex:
        return list(ex.map(_chain_job, jobs))
