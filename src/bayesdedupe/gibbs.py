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
enumerated once per run and stored flat: per partition, the label of
each member, the record id of its cell's first member, and how many of
the candidate pairs it puts in one cell fall in each level bin. A sweep
scores every partition of every such component with one product of the
per-bin log likelihood ratios with that bin x partition matrix and draws
all components with one searchsorted on the cumulative weights, so its
numpy calls do not depend on the number of components.

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

The likelihood lives in level-bin space. A pair enters it only through
its comparison levels, so the data are read through two count matrices
built once per run: candidate x bin for the candidate pairs and bin x
partition for the block partitions. The parameter block is flat: the
level counts of all fields form one vector over their level bins,
recounted from the labeling once per sweep as the linked flags times the
candidate matrix, and m and u are single vectors over all fields' free
parameters. From them a sweep computes the log ratio of every level bin
once; the candidates' log ratios, which the single-site draws read, are
one product with the candidate matrix. Integer counts are exact in
float64.

Each m is drawn from its Beta full conditional truncated to (lam, 1)
exactly, by rejection with numpy alone: see _tbeta_envelope. The u are
untruncated Beta draws.

Given a seed and a config the trajectory is bit-reproducible, with one
BLAS thread as with two: random draws happen in a fixed order. Each
sweep draws one batch of uniforms, two per single-site record (in
visiting order; the first picks the record's option and the second is
drawn but unused) and then one per block component (by smallest
member); with random_scan the visiting order is drawn next; then come
the m draws, in rounds of three uniforms per candidate and four
candidates per m still without a draw, so their number varies from
sweep to sweep; then the u draws.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateGraph, connected_components
from .comparison import PairComparisons
from .config import SamplerConfig
from .errors import ConfigError
from .model import ModelParams, PriorSpec, SufficientStats
from .partition import (canonicalize_label_rows, distinct_rows,
                        expand_label_rows, label_dtype, valid_partitions)


# --- truncated-Beta sampling ------------------------------------------------

# Each round draws this many candidates for every m parameter still without
# a draw and keeps the first accepted one. The first success in a run of
# independent exact trials is an exact draw, so the number sets the cost,
# not the law.
TBETA_CANDIDATES = 4
TBETA_MAX_ROUNDS = 100
# A chain revisits a few partitions, and so a few sets of m full
# conditionals: it keeps the envelopes of up to this many, and starts
# afresh when it has met more.
TBETA_MEMO = 64


def _tbeta_envelope(a: np.ndarray, b: np.ndarray,
                    lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A two-piece exponential envelope of each TBeta(a, b; lam, 1) density,
    in a log coordinate.

    With y = log(1 - x) (mirrored) when b < 1 or a = 1, else y = log x,
    the density of y is exp(g(y)) with g(y) = alpha y + beta log(1 - e^y):
    (alpha, beta) is (a, b - 1), or (b, a - 1) mirrored, and y runs over
    (log lam, 0), or (-inf, log(1 - lam)) mirrored. g is concave when
    beta >= 0, and the envelope is the lower of two of its tangents
    (Gilks & Wild 1992, Applied Statistics 41(2)): one curvature scale
    below the truncated mode, but not below the support, and one above it
    unless that leaves the support. Piece 0 runs from the bottom of the
    support to where they cross and piece 1 from there to the top. With
    beta = 0, that is a = 1 or b = 1, g is a line and the envelope is
    exact. When a < 1 and b < 1 g is convex in either coordinate: the
    support is split at c = max(lam, 1/2), x < c is drawn in log x and
    x > c in log(1 - x), and each piece's line bounds the other factor by
    its largest value there, which keeps at least half of the line.

    Returns the probability of piece 0 per element and fields of shape
    (8, 2n); column k n + i describes piece k of element i: beta, the y
    of the piece's top end (top), c1 = 1 / slope, em =
    expm1(-|slope| width), alpha top - v and alpha c1 - 1, where v is the
    line at the top, and x_at and x_sign, with which
    x = x_at + x_sign expm1(y). The inverse CDF at uniform u is
    y = top + c1 l1 with l1 = log1p(u em), where the line is v + l1, so
    g(y) less the line is beta log(-expm1(y)) + (alpha top - v)
    + (alpha c1 - 1) l1. The piece's envelope mass is -em |c1| e^v.
    """
    n = len(a)
    alpha, beta = a, b - 1.0
    lo, hi = np.log(lam), np.zeros(n)
    mirror = (beta < 0.0) | (a == 1.0)
    n_mirror = np.count_nonzero(mirror)
    if n_mirror:
        alpha = np.where(mirror, b, a)
        beta = np.where(mirror, a - 1.0, beta)
        lo[mirror] = -np.inf
        hi[mirror] = np.log1p(-lam[mirror])
    # the truncated mode and minus the curvature scale there; a line has
    # none, and its tangent is taken one decay scale below
    y0 = np.log(alpha / (alpha + beta))
    np.maximum(y0, lo, out=y0)
    np.minimum(y0, hi, out=y0)
    e0 = np.expm1(y0)
    step = np.where(beta > 0.0, e0 / np.sqrt(beta * (1.0 + e0)), -1.0 / alpha)
    t = np.empty((2, n))
    np.maximum(y0 + step, lo, out=t[0])
    np.subtract(y0, step, out=t[1])
    # no upper tangent inside the support: the lower one covers it all
    np.copyto(t[1], t[0], where=t[1] >= hi)
    e = np.expm1(t)
    g = alpha * t + beta * np.log(-e)
    slope = alpha + beta * (1.0 + 1.0 / e)
    slope += 1e-300  # a flat tangent samples as a uniform
    bounds = np.empty((3, n))
    bounds[0], bounds[2] = lo, hi
    # where the tangents cross; with one tangent (NaN) piece 1 is empty
    z = t[0] + (g[1] - g[0] - slope[1] * (t[1] - t[0])) / (slope[0] - slope[1])
    np.fmax(np.fmin(z, hi), lo, out=bounds[1])

    fields = np.empty((8, 2, n))
    fields[0] = beta
    top = fields[1]
    top[:] = np.where(slope > 0, bounds[1:], bounds[:-1])
    c1 = fields[2]
    np.divide(1.0, slope, out=c1)
    np.expm1(-np.abs(slope * (bounds[1:] - bounds[:-1])), out=fields[3])
    v = g + slope * (top - t)
    np.subtract(alpha * top, v, out=fields[4])
    np.multiply(alpha, c1, out=fields[5])
    fields[5] -= 1.0
    np.subtract(1.0, mirror, out=fields[6])
    np.subtract(fields[6], mirror, out=fields[7])
    if n_mirror:
        convex = mirror & (a < 1.0)
        if np.count_nonzero(convex):
            ac, bc = a[convex], b[convex]
            c = np.maximum(lam[convex], 0.5)
            lc, l1c = np.log(c), np.log1p(-c)
            # the lines are a y + (b - 1) log(1 - c) in log x and
            # b y + (a - 1) log c in log(1 - x), both rising to their top
            for f, (left, right) in enumerate((
                    (bc - 1.0, ac - 1.0), (lc, l1c), (1.0 / ac, 1.0 / bc),
                    (np.expm1(ac * (np.log(lam[convex]) - lc)), -1.0),
                    (-(bc - 1.0) * l1c, -(ac - 1.0) * lc), (0.0, 0.0),
                    (1.0, 0.0), (1.0, -1.0))):
                fields[f, 0, convex] = left
                fields[f, 1, convex] = right
            v[0, convex] = ac * lc + (bc - 1.0) * l1c
            v[1, convex] = bc * l1c + (ac - 1.0) * lc
    mass = -fields[3] * np.abs(c1) * np.exp(v - np.fmax(v[0], v[1]))
    return mass[0] / (mass[0] + mass[1]), fields.reshape(8, 2 * n)


def _tbeta_vec(rng: np.random.Generator, a: np.ndarray, b: np.ndarray,
               lam: np.ndarray,
               memo: dict | None = None) -> tuple[np.ndarray, int]:
    """Exact TBeta(a, b; lam, 1) draws by rejection from _tbeta_envelope,
    and how many candidates were rejected before the accepted ones.

    Every round draws uniforms of shape (3, elements still without a draw,
    TBETA_CANDIDATES): the piece, the point on it and the acceptance test.
    memo, when given, maps the bytes of (a, b, lam) to their envelope
    across calls; it changes no draw. Raises RuntimeError if some element
    has no draw after TBETA_MAX_ROUNDS rounds.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    x = np.empty(len(a))
    todo = np.arange(len(a))
    rejected = 0
    # the branches an element does not take may divide by 0 or overflow
    with np.errstate(all="ignore"):
        if memo is None:
            p0, fields = _tbeta_envelope(a, b, lam)
        else:
            key = a.tobytes() + b.tobytes() + lam.tobytes()
            if key not in memo:
                if len(memo) >= TBETA_MEMO:
                    memo.clear()
                memo[key] = _tbeta_envelope(a, b, lam)
            p0, fields = memo[key]
        for _ in range(TBETA_MAX_ROUNDS):
            k = len(todo)
            u = rng.random((3, k, TBETA_CANDIDATES))
            col = (u[0] >= p0[:, None]) * k
            col += np.arange(k)[:, None]
            beta, top, c1, em, at_top, per_l1, x_at, x_sign = fields.take(
                col, axis=1)
            l1 = np.log1p(u[1] * em)
            y = c1 * l1
            y += top
            e = np.expm1(y)
            ratio = np.log(-e)
            ratio *= beta
            ratio += at_top
            per_l1 *= l1
            ratio += per_l1
            accept = np.log(u[2]) < ratio
            # an element without an accepted candidate gets first = 0 and
            # a value that a later round overwrites
            first = accept.argmax(axis=1)
            pick = first + np.arange(0, k * TBETA_CANDIDATES, TBETA_CANDIDATES)
            x_sign *= e
            x_sign += x_at  # the candidates' x
            x[todo] = x_sign.take(pick)
            rejected += int(first.sum())
            done = accept.take(pick)
            n_done = int(np.count_nonzero(done))
            if n_done == k:
                break
            rejected += TBETA_CANDIDATES * (k - n_done)
            keep = ~done
            todo, p0 = todo[keep], p0[keep]
            fields = fields[:, np.concatenate((keep, keep))]
        else:
            raise RuntimeError(
                "truncated-Beta rejection did not accept "
                f"(a={a[todo]}, b={b[todo]}, lam={lam[todo]})")
    np.minimum(x, 1.0 - 1e-12, out=x)
    np.maximum(x, 1e-12, out=x)
    np.maximum(x, lam, out=x)
    return x, rejected


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
                     counts: np.ndarray, memo: dict | None = None
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Joint conjugate redraw of all m then all u, as flat vectors, from
    level counts of shape (2, bins): a1 in row 0, a0 in row 1; and the m
    candidates rejected on the way. memo as for _tbeta_vec."""
    at, above = _level_counts(flat, counts)
    m, rejected = _tbeta_vec(rng, flat.alpha1 + at[0], flat.beta1 + above[0],
                             flat.lam, memo)
    u = rng.beta(flat.alpha0 + at[1], flat.beta0 + above[1])
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    return m, u, rejected


def draw_params(rng: np.random.Generator, flat: FlatPrior,
                stats: SufficientStats):
    """draw_flat_params from per-field statistics; returns per-field lists
    plus the flat vectors."""
    m, u, _ = draw_flat_params(rng, flat, stats.as_counts())
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
    """Level-side constants of the candidate pairs: their records, the
    candidate x bin count matrix of their observed levels, and the level
    counts of all compared pairs. Enough to turn parameters into log
    ratios and links into level counts; the mixture baseline needs no
    more.

    A pair enters the likelihood only through its levels. Row c of
    cand_bins (float64) has a 1 in the bin of each observed level of
    candidate pair c: its log ratio is the row times the per-bin log
    ratios, and the a1 counts of a set of linked candidates are their
    flags times the matrix, exact in float64 for these integer counts.
    """

    def __init__(self, comps: PairComparisons, graph: CandidateGraph):
        if len(comps) != len(graph.pairs) or comps.r != graph.r:
            raise ConfigError("comparison data and candidate graph are misaligned")
        cand_idx = np.flatnonzero(graph.candidate_mask)
        self.n_candidates = len(cand_idx)
        self.cand_i = comps.pairs[cand_idx, 0].astype(np.int64)
        self.cand_j = comps.pairs[cand_idx, 1].astype(np.int64)

        # observed candidate levels counted per (pair, bin) in one bincount,
        # where a field's bins are its levels after the earlier fields' bins
        n_fields = len(comps.n_levels)
        bin_bounds = np.cumsum([0] + list(comps.n_levels))
        self.n_bins = int(bin_bounds[-1])
        cand_levels = comps.levels[cand_idx]
        pair, field = np.nonzero(cand_levels >= 0)
        obs_bin = bin_bounds[field] + cand_levels[pair, field]
        key = pair * self.n_bins + obs_bin
        self.cand_bins = np.bincount(
            key, minlength=self.n_candidates * self.n_bins).reshape(
                self.n_candidates, self.n_bins).astype(np.float64)
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

    def bin_log_ratios(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per-level-bin log likelihood ratios from flat m and u."""
        own = np.log(m) - np.log(u)
        past = np.empty(len(m) + 1)
        past[0] = 0.0
        np.cumsum(np.log1p(-m) - np.log1p(-u), out=past[1:])
        return np.append(own, 0.0)[self._bin_own] + (past[self._bin_past]
                                                     - past[self._bin_first])

    def flat_log_ratios(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per-candidate-pair log likelihood ratios from flat m and u."""
        return self.cand_bins @ self.bin_log_ratios(m, u)

    def log_ratios(self, params: ModelParams) -> np.ndarray:
        """flat_log_ratios from per-field parameters."""
        return self.flat_log_ratios(_concat(params.m), _concat(params.u))

    def link_counts(self, linked: np.ndarray) -> np.ndarray:
        """Level counts of shape (2, bins), a1 then a0, when exactly the
        candidate pairs flagged in linked are coreferent."""
        a1 = (linked @ self.cand_bins).astype(np.int64)
        return np.stack((a1, self.a0_base - a1))

    def recount(self, z: np.ndarray) -> np.ndarray:
        """Level counts of labeling z, counted from scratch."""
        return self.link_counts(z[self.cand_i] == z[self.cand_j])


class SamplerContext(LevelContext):
    """Data-side constants shared by all sweeps of all chains of a run:
    the level side, the candidate adjacency lists, and which components
    are drawn whole.

    It holds candidate-sized data only, no reference to the comparisons
    or the graph it was built from: a chain needs the fields and their
    level counts (fields, n_levels), and the manifest the sizes of the
    components of two or more records (component_sizes).

    Candidate components with at most P_MAX valid partitions are drawn
    whole (block_records, by component in order of smallest member); the
    records of the others are updated one at a time (single_site,
    ascending). Block draws are stored flat: partitions of component c
    are comp_parts[c]..comp_parts[c + 1] - 1; column p of the bin x
    partition count matrix part_bins (float64, C-contiguous) counts the
    levels of the candidate pairs that partition p puts in one cell, per
    bin, so the per-bin log ratios times part_bins score every partition;
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
        self.r = comps.r
        self.fields = comps.fields
        self.n_levels = comps.n_levels
        ci, cj = self.cand_i.tolist(), self.cand_j.tolist()
        adj: list = [[] for _ in range(self.r)]
        for c, (i, j) in enumerate(zip(ci, cj)):
            adj[i].append((j, c))
            adj[j].append((i, c))
        self.adj = adj
        components = [comp for comp in graph.components
                      or connected_components(self.r, zip(ci, cj))
                      if len(comp) > 1]
        self.component_sizes = [len(comp) for comp in components]
        self._admit(components)

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
        pair_part = np.concatenate(pair_part)
        pair_cand = np.concatenate(pair_cand)

        # row b: per partition, how many of the candidate pairs within its
        # cells have a level in bin b. One bincount per bin keeps the
        # temporaries small, where one over all (bin, partition) keys
        # would hold several times the matrix at once
        self.part_bins = np.stack([
            np.bincount(pair_part, weights=col[pair_cand], minlength=n_parts)
            for col in self.cand_bins.T])

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
    return {
        "component_sizes": dict(sorted(Counter(ctx.component_sizes).items())),
        "block_records": len(ctx.block_records),
        "single_site_records": len(ctx.single_site),
        "block_partitions": ctx.n_partitions,
    }


# --- chain state and label updates ------------------------------------------

# Per single-site record, the cells its neighbours lie in, as of one
# labeling: group numbers every entry's (row, label) pair; the cells the
# record may join (every member other than itself a neighbour) are the
# groups options, each with the slot of its first entry in slots. label
# and stay give, per slot, the label a draw there takes (a new cell takes
# the record's own id) and whether that keeps the partition.
SiteCells = namedtuple("SiteCells", "group options slots label stay")


@dataclass
class ChainState:
    """Mutable Gibbs state: labeling, flat parameters with their per-bin
    log ratios (bin_lr, which the block draws read) and candidate log
    ratios (loglr, which the single-site draws read), level counts, the
    cell sizes of the single-site records, a count of single-site passes,
    one of the m candidates rejected before the accepted ones, and the
    memo of m envelopes that _tbeta_vec keeps for this chain.

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
    bin_lr: np.ndarray
    loglr: np.ndarray
    stats: np.ndarray
    sizes: np.ndarray
    envelopes: dict
    passes: int = 0
    rejections: int = 0
    cells: SiteCells | None = None


def init_state(ctx: SamplerContext, prior: PriorSpec,
               rng: np.random.Generator,
               params: ModelParams | None = None) -> ChainState:
    """Singleton labeling; parameters drawn from the prior unless given."""
    z = np.arange(ctx.r)
    rejected, envelopes = 0, {}
    if params is None:
        zero = np.zeros((2, ctx.n_bins), dtype=np.int64)
        m, u, rejected = draw_flat_params(rng, flatten_prior(prior), zero,
                                          envelopes)
    else:
        m, u = _concat(params.m), _concat(params.u)
    sizes = np.zeros(ctx.r, dtype=np.int64)
    sizes[ctx.single_idx] = 1
    bin_lr = ctx.bin_log_ratios(m, u)
    return ChainState(z=z, m=m, u=u, bin_lr=bin_lr,
                      loglr=ctx.cand_bins @ bin_lr, stats=ctx.recount(z),
                      sizes=sizes, rejections=rejected, envelopes=envelopes)


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
    return SiteCells(group, options, ctx.site_slot[first], label, stay)


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


def _block_scores(ctx: SamplerContext, bin_lr: np.ndarray) -> np.ndarray:
    """Log weight of every block partition, up to a constant per component:
    the sum of the log ratios of the candidate pairs it puts in one cell,
    from the per-bin log ratios bin_lr."""
    return bin_lr @ ctx.part_bins


def _draw_blocks(ctx: SamplerContext, bin_lr: np.ndarray, us: np.ndarray,
                 z: np.ndarray) -> None:
    """Draw every block component's partition exactly, one uniform per
    component, and write its labels into z. A component's last
    partition, all singletons, scores 0."""
    choice = _draw_segments(_block_scores(ctx, bin_lr), ctx.comp_parts[:-1], us)
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
        _draw_blocks(ctx, state.bin_lr, us[2 * n_single:], state.z)
    if flat is None:
        return None
    state.stats = ctx.recount(state.z)
    state.m, state.u, rejected = draw_flat_params(rng, flat, state.stats,
                                                  state.envelopes)
    state.rejections += rejected
    state.bin_lr = ctx.bin_log_ratios(state.m, state.u)
    state.loglr = ctx.cand_bins @ state.bin_lr
    return state.m, state.u


# --- full chain -------------------------------------------------------------

@dataclass
class PosteriorSample:
    """Retained draws from one chain, each distinct partition stored once.

    Only the active records, those with a candidate pair (active, sorted
    record ids), can share a cell; every other record is a singleton in
    every draw. rows holds each distinct retained partition once, in order
    of first retention, as canonical (first-occurrence) labels of the
    active records in the smallest unsigned type that holds them; index
    holds the row of every retained sweep, so the retained draws are
    rows[index]. r is the file's record count. Traces are None when
    parameters were held fixed. single_site_passes counts the prefetched
    passes of all sweeps, and tbeta_rejections the m candidates rejected
    in all parameter draws.
    """

    rows: np.ndarray
    index: np.ndarray
    active: np.ndarray
    r: int
    kept_iterations: np.ndarray
    m_trace: np.ndarray | None
    u_trace: np.ndarray | None
    fields: tuple
    n_levels: tuple
    runtime_s: float
    single_site_passes: int = 0
    tbeta_rejections: int = 0

    @property
    def n_kept(self) -> int:
        return len(self.index)

    @property
    def labelings(self) -> np.ndarray:
        """Canonical labels of all r records, one row per retained sweep,
        built on every access. No subcommand reads it: it serves the
        traced benchmark run and the tests, and goes when the benchmark
        change of ROADMAP item 2 stops reading it."""
        return expand_label_rows(self.rows, self.active, self.r)[self.index]


def run_chain(comps: PairComparisons | None, graph: CandidateGraph | None,
              prior: PriorSpec, config: SamplerConfig, *,
              fixed_params: ModelParams | None = None,
              ctx: SamplerContext | None = None) -> PosteriorSample:
    """Run one chain and return its retained samples.

    With fixed_params the parameter block never updates (useful for
    validating the partition chain against exact enumeration); otherwise
    parameters are redrawn each sweep after the labels. ctx, when given,
    is the SamplerContext of comps and graph, built once for all chains;
    comps and graph are then not read.

    A retained sweep's labels of the active records, each the active
    position of its label's record, are keyed by their bytes: a row is
    stored only when it is new, and every sweep records the row it is.
    At the end only the distinct rows are canonicalized; two of them can
    be one partition when a cell's label holder has changed, so rows
    that canonicalize alike are merged and the index remapped.
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
    seen: dict = {}  # the bytes of each distinct row -> its position
    n_params = len(flat.lam) if flat is not None else 0
    try:
        index = np.empty(n_kept, dtype=np.int64)
        kept_iter = np.empty(n_kept, dtype=np.int64)
        m_trace = np.empty((n_kept, n_params)) if flat is not None else None
        u_trace = np.empty((n_kept, n_params)) if flat is not None else None
    except MemoryError:
        raise ConfigError(f"sampler.iterations: {n_kept} retained draws per "
                          "chain do not fit in memory") from None

    kk = 0
    for t in range(1, config.iterations + 1):
        drawn = sweep(ctx, state, rng, flat, config.random_scan)
        if t > config.burn_in and (t - config.burn_in - 1) % config.thinning == 0:
            index[kk] = seen.setdefault(pos_of[state.z[active]].tobytes(),
                                        len(seen))
            kept_iter[kk] = t
            if drawn is not None:
                m_trace[kk], u_trace[kk] = drawn
            kk += 1

    raw = np.frombuffer(bytearray().join(seen), dtype=dtype).reshape(
        len(seen), len(active))
    seen.clear()
    rows, merged = distinct_rows(canonicalize_label_rows(raw, out=raw))
    return PosteriorSample(
        rows=rows, index=merged[index[:kk]], active=active, r=ctx.r,
        kept_iterations=kept_iter[:kk],
        m_trace=m_trace[:kk] if m_trace is not None else None,
        u_trace=u_trace[:kk] if u_trace is not None else None,
        fields=ctx.fields, n_levels=ctx.n_levels,
        runtime_s=time.perf_counter() - start,
        single_site_passes=state.passes, tbeta_rejections=state.rejections)


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
    return run_chain(None, None, prior, config, ctx=ctx)


def run_chains(comps: PairComparisons | None, graph: CandidateGraph | None,
               prior: PriorSpec, config: SamplerConfig, n_workers: int = 1,
               ctx: SamplerContext | None = None) -> list[PosteriorSample]:
    """Run config.chains independent chains, optionally across processes,
    on one SamplerContext: ctx, or one built here from comps and graph,
    which are not read when ctx is given. A worker process receives the
    context, which holds candidate-sized data only.

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
