"""Gibbs sampler over constrained coreference labelings and parameters.

Given the parameters, the partition posterior factorizes over the
connected components of the candidate graph, since no labeling may merge
records of different components. One iteration redraws the labels of
every component and then all level parameters from their conjugate full
conditionals. Records outside every candidate pair stay singletons by
construction and are never visited.

Every label is the record id of a member of its cell. A component is
drawn exactly as a whole when it has at most P_MAX valid partitions,
those whose every cell is a clique of the candidate graph. They are
enumerated once per run and stored flat: per partition, the candidate
pairs it puts in one cell and the label of each member, the record id of
its cell's first member. A sweep scores every partition of every such
component with one bincount over the candidate log likelihood ratios and
draws all components with one searchsorted on the cumulative weights, so
its numpy calls do not depend on the number of components.

Records of the other components get single-site updates, in ascending
id order or, with random_scan, in a fresh random order each sweep. The
full conditional for record i gives each existing cell weight equal to
the product of likelihood ratios against the cell's members - zero if
any member is not a candidate partner of i - and gives unit total weight
to opening a new cell, which takes i's own id as its label. That unit
weight, one per new cell rather than one per unused label, is what
makes the chain's law a flat prior over the permitted partitions. When
a cell's label holder leaves, the remaining members take the smallest
of their own ids.

The scan is prefetched (Brockwell 2006, JCGS 15(1)): one numpy pass
evaluates every single-site record's full conditional against the
current labeling and draws each with its own uniform. Scanning the draws
in visiting order, every record up to the first whose draw changes the
partition keeps its cell, so the conditionals computed for the records
after it are still exact; that one move is applied, and the next pass
resumes after it. A sweep takes one pass more than its moves at most.
Given the same uniforms, the partitions visited are those of the
one-record-at-a-time scan, up to the rounding of the weights.

The parameter block is flat: the level counts of all fields form one
vector over their level bins, recounted from the labeling once per sweep
with one bincount, and m and u are single vectors over all fields' free
parameters. Given a seed and a config the trajectory is bit-reproducible:
random draws happen in a fixed order. Each sweep draws one batch of
uniforms, two per single-site record (in visiting order; the first picks
the record's option and the second is drawn but unused) and then one
per block component (by smallest member); with random_scan the visiting
order is drawn next; then come the m draws and then the u draws.
"""

from __future__ import annotations

import math
import time
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, betainccinv, betaincinv

from .candidates import CandidateGraph, connected_components
from .comparison import PairComparisons
from .config import SamplerConfig
from .errors import ConfigError
from .model import ModelParams, PriorSpec, SufficientStats
from .partition import (canonicalize_label_rows, expand_label_rows,
                        label_dtype, valid_partitions)


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


# --- parameter block --------------------------------------------------------

# Per parameter, in field order: its Beta hyperparameters and truncation
# point; offsets bounds each field's parameters. A field with L + 1 levels
# has L parameters and L + 1 level bins, so parameter q of field f counts
# the pairs in bin q + f against those in the bins above it up to the
# field's top bin. at and top hold these two bins per parameter as indices
# into (2, bins) level counts raveled, for a1 and then for a0.
FlatPrior = namedtuple("FlatPrior", "alpha1 beta1 lam alpha0 beta0 offsets at top")


def _concat(arrs) -> np.ndarray:
    return np.concatenate(arrs) if len(arrs) else np.empty(0)


def flatten_prior(prior: PriorSpec) -> FlatPrior:
    sizes = [len(v) for v in prior.lam]
    offsets = np.cumsum([0] + sizes)
    fields = np.arange(len(sizes))
    field = np.repeat(fields, sizes)
    at = np.arange(offsets[-1]) + field
    top = (offsets[1:] + fields)[field]
    n_bins = offsets[-1] + len(sizes)
    return FlatPrior(alpha1=_concat(prior.alpha1), beta1=_concat(prior.beta1),
                     lam=_concat(prior.lam), alpha0=_concat(prior.alpha0),
                     beta0=_concat(prior.beta0), offsets=offsets,
                     at=np.concatenate((at, at + n_bins)),
                     top=np.concatenate((top, top + n_bins)))


def _level_counts(flat: FlatPrior, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per parameter, the count at its level and the count above it in its
    field, from (2, bins) level counts; each result has a row for a1 and
    one for a0. The running sum crosses from the a1 row into the a0 row,
    which the differences within a field cancel."""
    flat_counts = counts.ravel()
    upto = np.cumsum(flat_counts)
    return (flat_counts[flat.at].reshape(2, -1),
            (upto[flat.top] - upto[flat.at]).reshape(2, -1))


def draw_flat_params(rng: np.random.Generator, flat: FlatPrior,
                     counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint conjugate redraw of all m then all u, as flat vectors, from
    level counts of shape (2, bins): a1 in row 0, a0 in row 1."""
    at, above = _level_counts(flat, counts)
    m = _tbeta_vec(rng, flat.alpha1 + at[0], flat.beta1 + above[0], flat.lam)
    u = rng.beta(flat.alpha0 + at[1], flat.beta0 + above[1])
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    return m, u


def draw_params(rng: np.random.Generator, flat: FlatPrior,
                stats: SufficientStats):
    """draw_flat_params from per-field statistics; returns per-field lists
    plus the flat vectors."""
    m, u = draw_flat_params(rng, flat, stats.as_counts())
    cut = flat.offsets[1:-1]
    return np.split(m, cut), np.split(u, cut), m, u


# --- sampler context --------------------------------------------------------

# A candidate component is drawn exactly as a whole when it has at most
# P_MAX valid partitions; a complete component of seven records has 877,
# one of eight 4,140.
P_MAX = 4096


def _too_many_partitions(edges: list) -> bool:
    """Whether a component with these (a, b, candidate) edges surely has
    more than P_MAX valid partitions: it has at least one per edge plus
    all singletons, and at least one per subset of any matching."""
    if len(edges) + 1 > P_MAX:
        return True
    matched: set = set()
    for a, b, _ in edges:
        if a not in matched and b not in matched:
            matched.update((a, b))
    return 1 << (len(matched) // 2) > P_MAX


class LevelContext:
    """Level-side constants of the candidate pairs: their records, their
    observed levels as level bins, and the level counts of all compared
    pairs. Enough to turn parameters into log ratios and links into
    level counts; the mixture baseline needs no more.
    """

    def __init__(self, comps: PairComparisons, graph: CandidateGraph):
        if len(comps) != len(graph.pairs) or comps.r != graph.r:
            raise ConfigError("comparison data and candidate graph are misaligned")
        cand_idx = np.flatnonzero(graph.candidate_mask)
        self.n_candidates = len(cand_idx)
        self.cand_i = comps.pairs[cand_idx, 0].astype(np.int64)
        self.cand_j = comps.pairs[cand_idx, 1].astype(np.int64)

        # observed candidate levels as (pair, bin) entries in field order,
        # where a field's bins are its levels after the earlier fields' bins
        n_fields = len(comps.n_levels)
        bin_bounds = np.cumsum([0] + list(comps.n_levels))
        cand_levels = comps.levels[cand_idx]
        field, pair = np.nonzero(cand_levels.T >= 0)
        self.obs_pair = pair
        self.obs_bin = bin_bounds[field] + cand_levels[pair, field]
        self.n_bins = int(bin_bounds[-1])
        # a0 = observed levels of all compared pairs - a1; shifting by one
        # puts the missing level (-1) in a bin of its own, dropped after
        self.a0_base = _concat([
            np.bincount(comps.levels[:, f] + 1, minlength=n + 1)[1:]
            for f, n in enumerate(comps.n_levels)])
        # a bin's log star probability is the log of its own parameter (none
        # for a field's top level) plus the log1p(-parameter) of every level
        # below it in its field: gathers from a log vector padded with 0 and
        # from an exclusive cumsum, less that cumsum at the field's start
        bin_field = np.repeat(np.arange(n_fields), comps.n_levels)
        self._bin_past = np.arange(self.n_bins) - bin_field
        top = np.zeros(self.n_bins, dtype=bool)
        top[bin_bounds[1:] - 1] = True
        self._bin_own = np.where(top, self.n_bins - n_fields, self._bin_past)
        self._bin_first = (bin_bounds[:-1] - np.arange(n_fields))[bin_field]

    def flat_log_ratios(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per-candidate-pair log likelihood ratios from flat m and u."""
        own = np.log(m) - np.log(u)
        past = np.empty(len(m) + 1)
        past[0] = 0.0
        np.cumsum(np.log1p(-m) - np.log1p(-u), out=past[1:])
        lr = np.append(own, 0.0)[self._bin_own] + (past[self._bin_past]
                                                   - past[self._bin_first])
        return np.bincount(self.obs_pair, weights=lr[self.obs_bin],
                           minlength=self.n_candidates)

    def log_ratios(self, params: ModelParams) -> np.ndarray:
        """flat_log_ratios from per-field parameters."""
        return self.flat_log_ratios(_concat(params.m), _concat(params.u))

    def link_counts(self, linked: np.ndarray) -> np.ndarray:
        """Level counts of shape (2, bins), a1 then a0, when exactly the
        candidate pairs flagged in linked are coreferent."""
        a1 = np.bincount(self.obs_bin[linked[self.obs_pair]],
                         minlength=self.n_bins)
        return np.stack((a1, self.a0_base - a1))

    def recount(self, z: np.ndarray) -> np.ndarray:
        """Level counts of labeling z, counted from scratch."""
        return self.link_counts(z[self.cand_i] == z[self.cand_j])


class SamplerContext(LevelContext):
    """Data-side constants shared by all sweeps of all chains of a run:
    the level side, the candidate adjacency lists, and which components
    are drawn whole.

    Candidate components with at most P_MAX valid partitions are drawn
    whole (block_records, by component in order of smallest member); the
    records of the others are updated one at a time (single_site,
    ascending). Block draws are stored flat: partitions of component c
    are comp_parts[c]..comp_parts[c + 1] - 1; partition p puts the
    candidate pairs pair_cand[pair_part == p] in one cell, and
    part_labels[label_at[p]:] labels the members of its component, in
    member order.

    Single-site records are the rows of a CSR table of their (neighbour,
    candidate) entries, site_nbr and site_cand: row k is single_site[k],
    its entries are in adjacency order, and site_row gives each entry's
    row. A draw lays the rows out flat as slots, each row's entries and
    then one slot for a new cell: entry e sits at slot site_slot[e] and
    row k's new cell at site_new[k]; site_start[k] is the row's first
    slot and slot_row the row of every slot.
    """

    def __init__(self, comps: PairComparisons, graph: CandidateGraph):
        super().__init__(comps, graph)
        self.comps = comps
        self.graph = graph
        self.r = comps.r
        ci, cj = self.cand_i.tolist(), self.cand_j.tolist()
        adj: list = [[] for _ in range(self.r)]
        for c, (i, j) in enumerate(zip(ci, cj)):
            adj[i].append((j, c))
            adj[j].append((i, c))
        self.adj = adj
        components = graph.components or connected_components(self.r, zip(ci, cj))
        self._admit([comp for comp in components if len(comp) > 1])

    def _admit(self, components: list) -> None:
        """Enumerate the valid partitions of every component, keep those
        with at most P_MAX for block draws, and flatten them."""
        single, blocks = [], []
        for comp in components:
            pos = {rec: k for k, rec in enumerate(comp)}
            edges = [(pos[j], k, c) for k, rec in enumerate(comp)
                     for j, c in self.adj[rec] if j < rec]
            heads = None
            if not _too_many_partitions(edges):
                lower: list = [[] for _ in comp]
                for a, b, _ in edges:
                    lower[b].append(a)
                heads = valid_partitions(lower, P_MAX)
            if heads is None:
                single.extend(comp)
            else:
                blocks.append((comp, heads, edges))
        self.single_site = sorted(single)
        self.single_idx = np.array(self.single_site, dtype=np.int64)
        entries = [e for i in self.single_site for e in self.adj[i]]
        self.site_nbr, self.site_cand = np.array(
            entries, dtype=np.int64).reshape(-1, 2).T
        degree = np.array([len(self.adj[i]) for i in self.single_site],
                          dtype=np.int64)
        rows = np.arange(len(degree))
        ptr = np.concatenate(([0], np.cumsum(degree)))
        self.site_row = np.repeat(rows, degree)
        self.site_slot = np.arange(len(entries)) + self.site_row
        self.site_new = ptr[1:] + rows
        self.site_start = ptr[:-1] + rows
        self.slot_row = np.repeat(rows, degree + 1)

        # per component: every partition's labels, and (partition, candidate)
        # for the candidate pairs within its cells
        none = [np.empty(0, dtype=np.int64)]
        labels, pair_part, pair_cand = none[:], none[:], none[:]
        n_parts = 0
        for comp, heads, edges in blocks:
            labels.append(np.array(comp)[heads].ravel())
            a, b, cand = np.array(edges).T
            part, edge = np.nonzero(heads[:, a] == heads[:, b])
            pair_part.append(part + n_parts)
            pair_cand.append(cand[edge])
            n_parts += len(heads)
        self.part_labels = np.concatenate(labels)
        self.pair_part = np.concatenate(pair_part)
        self.pair_cand = np.concatenate(pair_cand)

        sizes = np.array([len(comp) for comp, _, _ in blocks], dtype=np.int64)
        per_comp = np.array([len(heads) for _, heads, _ in blocks],
                            dtype=np.int64)
        self.n_block_components = len(blocks)
        self.n_partitions = n_parts
        self.block_records = np.array(
            [rec for comp, _, _ in blocks for rec in comp], dtype=np.int64)
        self.record_comp = np.repeat(np.arange(len(blocks)), sizes)
        self.record_pos = np.arange(len(self.block_records)) - np.repeat(
            np.cumsum(sizes) - sizes, sizes)
        self.comp_parts = np.concatenate(([0], np.cumsum(per_comp)))
        self.part_comp = np.repeat(np.arange(len(blocks)), per_comp)
        width = sizes[self.part_comp]
        self.label_at = np.cumsum(width) - width
        self.active = np.sort(np.concatenate((self.block_records,
                                              self.single_idx)))


def component_summary(ctx: SamplerContext) -> dict:
    """Sizes of the candidate components with two or more records (size:
    number of components), how many records each label path draws, and
    how many valid partitions the block path enumerated."""
    sizes = [len(comp) for comp in ctx.graph.components if len(comp) > 1]
    return {
        "component_sizes": dict(sorted(Counter(sizes).items())),
        "block_records": len(ctx.block_records),
        "single_site_records": len(ctx.single_site),
        "block_partitions": ctx.n_partitions,
    }


# --- chain state and label updates ------------------------------------------

# Per single-site record, the cells its neighbours lie in, as of one
# labeling: group numbers every entry's (row, label) pair; the cells the
# record may join (every member other than itself a neighbour) are the
# groups options, each with its row and, in slots, the slot of its first
# entry. label and stay give, per slot, the label a draw there takes (a
# new cell takes the record's own id) and whether that keeps the
# partition.
SiteCells = namedtuple("SiteCells", "group options rows slots label stay")


@dataclass
class ChainState:
    """Mutable Gibbs state: labeling, flat parameters with their candidate
    log ratios, level counts, the cell sizes of the single-site records
    and a count of single-site passes.

    stats (a1 and a0 over all bins) are recounted from z before every
    parameter draw. Every label is the record id of a member of its cell;
    sizes[q] is the size of the single-site cell labelled q, 0 for a
    label no single-site cell holds, and is not kept for block records.
    cells caches the SiteCells of z until a single-site record moves;
    block draws and parameter draws leave it valid.
    """

    z: np.ndarray
    m: np.ndarray
    u: np.ndarray
    loglr: np.ndarray
    stats: np.ndarray
    sizes: np.ndarray
    passes: int = 0
    cells: SiteCells | None = None


def init_state(ctx: SamplerContext, prior: PriorSpec,
               rng: np.random.Generator,
               params: ModelParams | None = None) -> ChainState:
    """Singleton labeling; parameters drawn from the prior unless given."""
    z = np.arange(ctx.r)
    if params is None:
        zero = np.zeros((2, ctx.n_bins), dtype=np.int64)
        m, u = draw_flat_params(rng, flatten_prior(prior), zero)
    else:
        m, u = _concat(params.m), _concat(params.u)
    sizes = np.zeros(ctx.r, dtype=np.int64)
    sizes[ctx.single_idx] = 1
    return ChainState(z=z, m=m, u=u, loglr=ctx.flat_log_ratios(m, u),
                      stats=ctx.recount(z), sizes=sizes)


def _site_cells(ctx: SamplerContext, z: np.ndarray,
                sizes: np.ndarray) -> SiteCells:
    """The SiteCells of labeling z, whose single-site cell sizes are
    sizes."""
    lab = z[ctx.site_nbr]
    key = ctx.site_row * ctx.r + lab
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    head = np.empty(len(key), dtype=bool)
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    group = np.empty(len(key), dtype=np.int64)
    group[perm] = np.cumsum(head) - 1
    start = np.flatnonzero(head)
    first = perm[start]  # stable: the first entry of every group
    cell = lab[first]
    own = z[ctx.single_idx]
    options = np.flatnonzero(np.diff(start, append=len(key))
                             == sizes[cell] - (cell == own[ctx.site_row[first]]))
    label = np.empty(len(ctx.slot_row), dtype=np.int64)
    label[ctx.site_slot] = lab
    label[ctx.site_new] = ctx.single_idx
    stay = label == own[ctx.slot_row]
    stay[ctx.site_new] = sizes[own] == 1
    first = first[options]
    return SiteCells(group, options, ctx.site_row[first], ctx.site_slot[first],
                     label, stay)


def _draw_segments(scores: np.ndarray, first: np.ndarray,
                   us: np.ndarray) -> np.ndarray:
    """One index per segment of scores, segment k (from first[k] to the
    next segment's start) drawn at uniform us[k] with weights exp(scores).
    Every segment's last score must be finite; scores are shifted in place.
    """
    end = np.append(first[1:], len(scores))
    scores -= np.repeat(np.maximum.reduceat(scores, first), end - first)
    cdf = np.zeros(len(scores) + 1)
    np.cumsum(np.exp(scores), out=cdf[1:])
    lo, hi = cdf[first], cdf[end]
    # a point rounded up to hi goes to the segment's last entry
    drawn = np.searchsorted(cdf, lo + us * (hi - lo), side="right") - 1
    return np.minimum(drawn, end - 1, out=drawn)


def _site_draws(ctx: SamplerContext, cells: SiteCells, lr: np.ndarray,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every single-site record's draw from its full conditional, row k
    at uniform u[k]: the label drawn and whether it keeps the partition.

    lr holds the log ratio of every CSR entry. A joinable cell's log
    weight sums them over the record's neighbours in it, in adjacency
    order, at the slot of the cell's first entry; other slots score -inf
    and the new cell 0. A draw thus picks the option the one-record
    update picks, unless a uniform lands within rounding of a boundary.
    """
    scores = np.full(len(ctx.slot_row), -np.inf)
    scores[cells.slots] = np.bincount(cells.group, weights=lr)[cells.options]
    scores[ctx.site_new] = 0.0
    slot = _draw_segments(scores, ctx.site_start, u)
    return cells.label[slot], cells.stay[slot]


def _move(ctx: SamplerContext, z: np.ndarray, sizes: np.ndarray, i: int,
          q: int) -> None:
    """Move single-site record i into the cell labelled q, or into a new
    cell when q is i, keeping every label a member's id."""
    old = z[i]
    sizes[old] -= 1
    if old == i and sizes[i]:
        site = ctx.single_idx
        rest = site[(z[site] == i) & (site != i)]
        z[rest] = rest[0]
        sizes[rest[0]] = sizes[i]
        sizes[i] = 0
    z[i] = q
    sizes[q] += 1


def _single_site_sweep(ctx: SamplerContext, state: ChainState, u: np.ndarray,
                       order: np.ndarray) -> None:
    """Update every single-site record once, row order[k] k-th with
    uniform u[k], by prefetched passes: each pass draws every record
    against the current labeling, and the first record in visiting order
    still to come whose draw changes the partition is moved; the records
    before it keep their cells."""
    u_row = np.empty(len(order))
    u_row[order] = u
    lr = state.loglr[ctx.site_cand]
    start = 0
    while start < len(order):
        state.passes += 1
        if state.cells is None:
            state.cells = _site_cells(ctx, state.z, state.sizes)
        drawn, stay = _site_draws(ctx, state.cells, lr, u_row)
        moves = np.flatnonzero(~stay[order[start:]])
        if not len(moves):
            return
        start += int(moves[0])
        row = order[start]
        _move(ctx, state.z, state.sizes, ctx.single_site[row], int(drawn[row]))
        state.cells = None
        start += 1


def _block_scores(ctx: SamplerContext, loglr: np.ndarray) -> np.ndarray:
    """Log weight of every block partition, up to a constant per component:
    the sum of the log ratios of the candidate pairs it puts in one cell."""
    return np.bincount(ctx.pair_part, weights=loglr[ctx.pair_cand],
                       minlength=ctx.n_partitions)


def _draw_blocks(ctx: SamplerContext, loglr: np.ndarray, us: np.ndarray,
                 z: np.ndarray) -> None:
    """Draw every block component's partition exactly, one uniform per
    component, and write its labels into z. A component's last
    partition, all singletons, scores 0."""
    choice = _draw_segments(_block_scores(ctx, loglr), ctx.comp_parts[:-1], us)
    z[ctx.block_records] = ctx.part_labels[ctx.label_at[choice][ctx.record_comp]
                                           + ctx.record_pos]


def sweep(ctx: SamplerContext, state: ChainState, rng: np.random.Generator,
          flat: FlatPrior | None, random_scan: bool = False):
    """One Gibbs iteration on state, in place: labels, then parameters.

    With flat None the parameters stay fixed and None is returned;
    otherwise the statistics are recounted, the parameters redrawn, and
    the flat m and u vectors returned.
    """
    n_single = len(ctx.single_site)
    us = rng.random(2 * n_single + ctx.n_block_components)
    if n_single:
        order = (rng.permutation(n_single) if random_scan
                 else np.arange(n_single))
        _single_site_sweep(ctx, state, us[:2 * n_single:2], order)
    if ctx.n_block_components:
        _draw_blocks(ctx, state.loglr, us[2 * n_single:], state.z)
    if flat is None:
        return None
    state.stats = ctx.recount(state.z)
    state.m, state.u = draw_flat_params(rng, flat, state.stats)
    state.loglr = ctx.flat_log_ratios(state.m, state.u)
    return state.m, state.u


# --- full chain -------------------------------------------------------------

@dataclass
class PosteriorSample:
    """Retained draws from one chain.

    Only the active records, those with a candidate pair (active, sorted
    record ids), can share a cell; every other record is a singleton in
    every draw. labels holds one row per retained sweep over the active
    records: canonical (first-occurrence) labels in the smallest unsigned
    type that holds them. r is the file's record count. Traces are None
    when parameters were held fixed. single_site_passes counts the
    prefetched passes of all sweeps.
    """

    labels: np.ndarray
    active: np.ndarray
    r: int
    kept_iterations: np.ndarray
    m_trace: np.ndarray | None
    u_trace: np.ndarray | None
    fields: tuple
    n_levels: tuple
    seed: int
    config: SamplerConfig
    runtime_s: float
    single_site_passes: int = 0

    @property
    def n_kept(self) -> int:
        return self.labels.shape[0]

    @property
    def labelings(self) -> np.ndarray:
        """Canonical labels of all r records, one row per retained sweep,
        built on every access. No subcommand reads it: it serves the
        traced benchmark run and the tests, and goes when the benchmark
        change of ROADMAP item 2 stops reading it."""
        return expand_label_rows(self.labels, self.active, self.r)


def run_chain(comps: PairComparisons, graph: CandidateGraph, prior: PriorSpec,
              config: SamplerConfig, *,
              fixed_params: ModelParams | None = None,
              ctx: SamplerContext | None = None) -> PosteriorSample:
    """Run one chain and return its retained samples.

    With fixed_params the parameter block never updates (useful for
    validating the partition chain against exact enumeration); otherwise
    parameters are redrawn each sweep after the labels. ctx, when given,
    is the SamplerContext of comps and graph, built once for all chains.
    A retained sweep stores the labels of the active records only, each
    as the active position of its label's record, and the rows are
    canonicalized in place at the end.
    """
    start = time.perf_counter()
    if ctx is None:
        ctx = SamplerContext(comps, graph)
    rng = np.random.default_rng(config.seed)
    state = init_state(ctx, prior, rng, params=fixed_params)
    flat = flatten_prior(prior) if fixed_params is None else None

    n_kept = config.n_kept
    active = ctx.active
    dtype = label_dtype(len(active))
    # an active record's label is the id of an active member of its cell
    pos_of = np.zeros(ctx.r, dtype=dtype)
    pos_of[active] = np.arange(len(active))
    kept = np.empty((n_kept, len(active)), dtype=dtype)
    kept_iter = np.empty(n_kept, dtype=np.int64)
    n_params = len(flat.lam) if flat is not None else 0
    m_trace = np.empty((n_kept, n_params)) if flat is not None else None
    u_trace = np.empty((n_kept, n_params)) if flat is not None else None

    kk = 0
    for t in range(1, config.iterations + 1):
        drawn = sweep(ctx, state, rng, flat, config.random_scan)
        if t > config.burn_in and (t - config.burn_in - 1) % config.thinning == 0:
            kept[kk] = pos_of[state.z[active]]
            kept_iter[kk] = t
            if drawn is not None:
                m_trace[kk], u_trace[kk] = drawn
            kk += 1

    return PosteriorSample(
        labels=canonicalize_label_rows(kept[:kk], out=kept[:kk]),
        active=active, r=ctx.r,
        kept_iterations=kept_iter[:kk],
        m_trace=m_trace[:kk] if m_trace is not None else None,
        u_trace=u_trace[:kk] if u_trace is not None else None,
        fields=comps.fields, n_levels=comps.n_levels, seed=config.seed,
        config=config, runtime_s=time.perf_counter() - start,
        single_site_passes=state.passes)


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
    ctx, prior, config = args
    return run_chain(ctx.comps, ctx.graph, prior, config, ctx=ctx)


def run_chains(comps: PairComparisons, graph: CandidateGraph, prior: PriorSpec,
               config: SamplerConfig, n_workers: int = 1,
               ctx: SamplerContext | None = None) -> list[PosteriorSample]:
    """Run config.chains independent chains, optionally across processes,
    on one SamplerContext (ctx, or one built here).

    Output is deterministic for a given master seed regardless of
    worker count.
    """
    if ctx is None:
        ctx = SamplerContext(comps, graph)
    seeds = chain_seeds(config.seed, config.chains)
    configs = [SamplerConfig(iterations=config.iterations, burn_in=config.burn_in,
                             thinning=config.thinning, seed=s, chains=1,
                             random_scan=config.random_scan)
               for s in seeds]
    if n_workers <= 1 or config.chains == 1:
        return [run_chain(comps, graph, prior, c, ctx=ctx) for c in configs]
    from concurrent.futures import ProcessPoolExecutor
    jobs = [(ctx, prior, c) for c in configs]
    with ProcessPoolExecutor(max_workers=min(n_workers, config.chains)) as ex:
        return list(ex.map(_chain_job, jobs))
