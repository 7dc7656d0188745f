"""Gibbs sampler over constrained coreference labelings and parameters.

One iteration is a systematic sweep: every record touched by a candidate
pair is revisited in ascending id order and its label redrawn from the
full conditional, then all level parameters are redrawn from their
conjugate full conditionals. Records outside every candidate pair stay
singletons by construction and are never visited.

The label full conditional for record i gives each existing cell weight
equal to the product of likelihood ratios against the cell's members -
zero if any member is not a candidate partner of i - and gives unit
total weight to opening a new cell, realized by drawing one of the
r - n(Z without i) unused labels uniformly. That uniform split is what
makes the labeling-level chain marginalize to a flat prior over the
permitted partitions.

Sufficient statistics are delta-updated as labels move; an optional
audit recomputes them from scratch every so many sweeps and fails loudly
on divergence. Given a seed and a config the trajectory is
bit-reproducible: random draws happen in a fixed order (per sweep: one
batch of label-update uniforms, then the m draws, then the u draws).
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from math import exp

import numpy as np
from scipy.special import betainc, betaincc, betainccinv, betaincinv

from . import model
from .candidates import CandidateGraph
from .comparison import PairComparisons
from .errors import ConfigError
from .model import ModelParams, PriorSpec, SufficientStats
from .partition import canonicalize_label_rows


@dataclass
class SamplerConfig:
    iterations: int
    burn_in: int = 0
    thinning: int = 1
    seed: int = 0
    chains: int = 1
    random_scan: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigError("need 0 <= burn_in < iterations")
        if self.thinning < 1:
            raise ConfigError("thinning must be >= 1")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")

    @property
    def n_kept(self) -> int:
        return (self.iterations - self.burn_in + self.thinning - 1) // self.thinning


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


def update_m(state: "ChainState", f: int, l: int, prior: PriorSpec,
             rng: np.random.Generator) -> float:
    """Redraw one m parameter from its truncated-Beta full conditional."""
    counts = np.asarray(state.stats.a1[f])
    a = float(prior.alpha1[f][l]) + float(counts[l])
    b = float(prior.beta1[f][l]) + float(counts[l + 1:].sum())
    x = sample_truncated_beta(rng, a, b, float(prior.lam[f][l]))
    state.params.m[f][l] = x
    return x


def update_u(state: "ChainState", f: int, l: int, prior: PriorSpec,
             rng: np.random.Generator) -> float:
    """Redraw one u parameter from its Beta full conditional."""
    counts = np.asarray(state.stats.a0[f])
    a = float(prior.alpha0[f][l]) + float(counts[l])
    b = float(prior.beta0[f][l]) + float(counts[l + 1:].sum())
    x = float(np.clip(rng.beta(a, b), 1e-12, 1.0 - 1e-12))
    state.params.u[f][l] = x
    return x


# --- chain state and label updates ------------------------------------------

class SamplerContext:
    """Data-side constants shared by all sweeps of a chain."""

    def __init__(self, comps: PairComparisons, graph: CandidateGraph):
        if len(comps) != len(graph.pairs) or comps.r != graph.r:
            raise ConfigError("comparison data and candidate graph are misaligned")
        self.comps = comps
        self.graph = graph
        self.r = comps.r
        cand_idx = np.flatnonzero(graph.candidate_mask)
        ci = comps.pairs[cand_idx, 0].tolist()
        cj = comps.pairs[cand_idx, 1].tolist()
        self.n_candidates = len(cand_idx)
        adj: list = [[] for _ in range(self.r)]
        for c, (i, j) in enumerate(zip(ci, cj)):
            adj[i].append((j, c))
            adj[j].append((i, c))
        self.adj = adj
        self.active = [i for i in range(self.r) if adj[i]]
        cand_levels = comps.levels[cand_idx]
        self.pair_terms = [
            tuple((f, int(lv)) for f, lv in enumerate(row) if lv >= 0)
            for row in cand_levels]
        self.obs_idx = []
        self.obs_lv = []
        for f in range(len(comps.fields)):
            col = cand_levels[:, f]
            o = np.flatnonzero(col >= 0)
            self.obs_idx.append(o)
            self.obs_lv.append(col[o].astype(np.int64))
        self.fixed_a0 = model.fixed_pair_stats(graph, comps)

    def log_ratios(self, params: ModelParams) -> list:
        """Per-candidate-pair log likelihood ratios as a plain list."""
        lm, lu = model.log_level_tables(params)
        out = np.zeros(self.n_candidates)
        for f in range(len(self.obs_idx)):
            o = self.obs_idx[f]
            if len(o):
                out[o] += lm[f][self.obs_lv[f]] - lu[f][self.obs_lv[f]]
        return out.tolist()


@dataclass
class ChainState:
    """Mutable Gibbs state: labeling, parameters, statistics, and the
    cell bookkeeping the label updates rely on."""

    z: list
    params: ModelParams
    stats: SufficientStats
    cell_sizes: dict
    free_labels: list

    @property
    def n_cells(self) -> int:
        return len(self.cell_sizes)


def init_state(ctx: SamplerContext, prior: PriorSpec,
               rng: np.random.Generator,
               params: ModelParams | None = None) -> ChainState:
    """Singleton labeling; parameters drawn from the prior unless given."""
    r = ctx.r
    z = list(range(r))
    stats_np = model.sufficient_stats(z, ctx.graph, ctx.comps)
    stats = SufficientStats(a1=[v.tolist() for v in stats_np.a1],
                            a0=[v.tolist() for v in stats_np.a0])
    if params is None:
        zero = SufficientStats(a1=[[0] * n for n in ctx.comps.n_levels],
                               a0=[[0] * n for n in ctx.comps.n_levels])
        m_list, u_list, _, _ = draw_params(rng, flatten_prior(prior), zero)
        params = ModelParams(m=m_list, u=u_list)
    else:
        params = params.copy()
    return ChainState(z=z, params=params, stats=stats,
                      cell_sizes={lab: 1 for lab in range(r)}, free_labels=[])


def _update_record(i, z, cell_sizes, free_labels, adj_i, loglr,
                   a1, a0, pair_terms, u1, u2):
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
    if q_new != q_old:
        for j, c in adj_i:
            qj = z[j]
            if qj == q_old:
                for f, lv in pair_terms[c]:
                    a1[f][lv] -= 1
                    a0[f][lv] += 1
            elif qj == q_new:
                for f, lv in pair_terms[c]:
                    a0[f][lv] -= 1
                    a1[f][lv] += 1
    return q_new


def update_label(state: ChainState, i: int, ctx: SamplerContext,
                 loglr: list, rng: np.random.Generator) -> int:
    """Public single-record label update against precomputed log ratios."""
    u1, u2 = rng.random(2)
    return _update_record(i, state.z, state.cell_sizes, state.free_labels,
                          ctx.adj[i], loglr, state.stats.a1, state.stats.a0,
                          ctx.pair_terms, u1, u2)


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
              config: SamplerConfig, *, fixed_params: ModelParams | None = None,
              audit_every: int = 0) -> PosteriorSample:
    """Run one chain and return its retained samples.

    With fixed_params the parameter block never updates (useful for
    validating the partition chain against exact enumeration); otherwise
    parameters are redrawn each sweep after the labels.
    """
    start = time.perf_counter()
    ctx = SamplerContext(comps, graph)
    rng = np.random.default_rng(config.seed)
    state = init_state(ctx, prior, rng, params=fixed_params)
    frozen = fixed_params is not None
    flat = flatten_prior(prior) if not frozen else None
    loglr = ctx.log_ratios(state.params)

    z = state.z
    cell_sizes = state.cell_sizes
    free_labels = state.free_labels
    a1 = state.stats.a1
    a0 = state.stats.a0
    adj = ctx.adj
    pair_terms = ctx.pair_terms
    active = ctx.active
    n_active = len(active)

    n_kept = config.n_kept
    kept_z = np.empty((n_kept, ctx.r), dtype=np.int32)
    kept_iter = np.empty(n_kept, dtype=np.int64)
    n_params = len(flat.lam) if not frozen else 0
    m_trace = np.empty((n_kept, n_params)) if not frozen else None
    u_trace = np.empty((n_kept, n_params)) if not frozen else None

    kk = 0
    for t in range(1, config.iterations + 1):
        us = rng.random(2 * n_active)
        if config.random_scan:
            order = rng.permutation(n_active)
        else:
            order = range(n_active)
        k2 = 0
        for k in order:
            i = active[k]
            _update_record(i, z, cell_sizes, free_labels, adj[i], loglr,
                           a1, a0, pair_terms, us[k2], us[k2 + 1])
            k2 += 2
        if not frozen:
            m_list, u_list, m_flat, u_flat = draw_params(rng, flat, state.stats)
            state.params = ModelParams(m=m_list, u=u_list)
            loglr = ctx.log_ratios(state.params)
        if audit_every and t % audit_every == 0:
            ref = model.sufficient_stats(z, ctx.graph, ctx.comps)
            if not state.stats.equals(ref):
                raise RuntimeError(
                    f"sufficient statistics diverged from scratch recompute "
                    f"at sweep {t}")
        if t > config.burn_in and (t - config.burn_in - 1) % config.thinning == 0:
            kept_z[kk] = z
            kept_iter[kk] = t
            if not frozen:
                m_trace[kk] = m_flat
                u_trace[kk] = u_flat
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
