"""Reference versions of production code, kept for the tests only.

Two kinds live here. The per-row bodies of the output and summary
layer are what the block-wise numpy code in bayesdedupe replaced; tests
require the production code to produce the same bytes and the same
numbers as these. The one-pair, one-parameter and exact-density
references of the comparison, likelihood and sampler layers follow:
the scalar string comparators, bin_level and compare_pair against
compare_pairs, the sequential-form likelihood against the
star-probability tables, the per-field parameter block (level counts and
log likelihood ratios) against the flat one, pair-by-pair entry sums
(log ratios and link counts over (pair, bin) entries, block scores over
(partition, pair) entries) against the bin-count products, the exact
joint and marginal densities behind the enumeration and quadrature
checks, the truncated-Beta draw by inversion that the rejection sampler
replaced (batched, and with its tail elements one at a time), the
vector draws of truncated Betas and of segments as they were before the
sampler's m update was overrelaxed and its segment layout precomputed,
and single-site Gibbs updates. Last
come the small partition helpers that the tests count, enumerate and
check labelings with, and fix rules evaluated on one pair. No
subcommand runs any of them.
"""

import csv
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from math import exp, factorial, inf

import numpy as np
from scipy.special import (betainc, betaincc, betainccinv, betaincinv,
                           betaln)

from bayesdedupe import gibbs
from bayesdedupe.comparison import absolute_difference, binary_disagreement
from bayesdedupe.errors import ConfigError, DataError
from bayesdedupe.model import sufficient_stats
from bayesdedupe.partition import label_dtype, valid_partitions


def write_comparisons_csv(path, comps) -> None:
    """PairComparisons.write_csv, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j," + ",".join(comps.fields) + "\n")
        for (i, j), row in zip(comps.pairs, comps.levels):
            cells = ["NA" if v < 0 else str(int(v)) for v in row]
            fh.write(f"{i},{j}," + ",".join(cells) + "\n")


def write_edges(path, graph) -> None:
    """CandidateGraph.write_edges, one row at a time."""
    fixed = ~graph.candidate_mask
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j,fixed\n")
        for (i, j), fx in zip(graph.pairs, fixed):
            fh.write(f"{i},{j},{int(fx)}\n")


def save_labelings(path, labelings) -> None:
    """save_labelings, one token at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in labelings:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")


def save_phi_trace(path, sample) -> None:
    """save_phi_trace, one csv.writer row per draw and parameter."""
    cols = []
    for f, name in enumerate(sample.fields):
        for l in range(sample.n_levels[f] - 1):
            cols.append((name, l))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "field", "level", "m", "u"])
        for k in range(sample.n_kept):
            it = int(sample.kept_iterations[k])
            for c, (name, l) in enumerate(cols):
                writer.writerow([it, name, l,
                                 f"{sample.m_trace[k, c]:.8f}",
                                 f"{sample.u_trace[k, c]:.8f}"])


def load_labelings(path) -> np.ndarray:
    """load_labelings, one line at a time through int(). A token must be
    ASCII digits, as the documented format says: int() alone would also
    take a sign, underscores and non-ASCII digits."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            tokens = line.split()
            if not all(tok.isascii() and tok.isdigit() for tok in tokens):
                raise DataError(f"{path}:{lineno}: unparseable label")
            row = [int(tok) for tok in tokens]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(f"{path}:{lineno}: ragged labeling row")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no labelings found")
    return np.array(rows, dtype=np.int32)


def load_distinct_labelings(path) -> tuple[np.ndarray, np.ndarray]:
    """load_distinct_labelings from the whole file split by
    bytes.splitlines, one line at a time. A line's first error is a label
    out of range, then a character other than a digit, a space or a tab,
    then a length other than the first labeled line's."""
    seen: dict = {}
    index, width = [], None
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip(b" \t"):
            continue
        if line not in seen:
            digits = re.findall(rb"[0-9]+", line)
            if any(int(tok) > 2**31 - 1 for tok in digits):
                raise DataError(f"{path}:{lineno}: label out of range")
            if line.translate(None, b"0123456789 \t"):
                raise DataError(f"{path}:{lineno}: unparseable label")
            width = len(digits) if width is None else width
            if len(digits) != width:
                raise DataError(f"{path}:{lineno}: ragged labeling row")
            seen[line] = [int(tok) for tok in digits]
        index.append(list(seen).index(line))
    if not seen:
        raise DataError(f"{path}: no labelings found")
    return (np.array(list(seen.values()), dtype=np.int32),
            np.array(index, dtype=np.int64))


def confusion_counts(est, ref) -> tuple[int, int, int]:
    """(b11, b10, b01) of one labeling through np.unique on the joint
    refinement."""
    est = np.asarray(est)
    ref = np.asarray(ref)
    if est.shape != ref.shape:
        raise DataError("labelings cover different record counts")

    def within_pairs(labels) -> int:
        _, counts = np.unique(labels, return_counts=True)
        return int((counts * (counts - 1) // 2).sum())

    # pairs coreferent in both = within-pairs of the joint refinement
    _, est_codes = np.unique(est, return_inverse=True)
    _, ref_codes = np.unique(ref, return_inverse=True)
    width = int(ref_codes.max()) + 1 if len(ref_codes) else 1
    joint = est_codes.astype(np.int64) * width + ref_codes
    b11 = within_pairs(joint)
    b10 = within_pairs(est) - b11
    b01 = within_pairs(ref) - b11
    return b11, b10, b01


def precision_recall(est, ref) -> tuple[float, float]:
    b11, b10, b01 = confusion_counts(est, ref)
    precision = b11 / (b11 + b10) if b11 + b10 else 1.0
    recall = b11 / (b11 + b01) if b11 + b01 else 1.0
    return precision, recall


def precision_recall_arrays(labelings, ref) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw pairwise precision and recall, one draw at a time."""
    ref = np.asarray(ref)
    n = len(labelings)
    precs = np.empty(n)
    recs = np.empty(n)
    for k in range(n):
        precs[k], recs[k] = precision_recall(labelings[k], ref)
    return precs, recs


def metric_summary(labelings, ref) -> dict:
    """metric_summary with one precision_recall call per draw."""
    precs, recs = precision_recall_arrays(labelings, ref)

    def summarize(x: np.ndarray) -> dict:
        return {"median": float(np.median(x)),
                "p01": float(np.percentile(x, 1)),
                "p99": float(np.percentile(x, 99))}

    return {"precision": summarize(precs), "recall": summarize(recs)}


def pairwise_probabilities(labelings, graph) -> np.ndarray:
    """pairwise_probabilities over all draws at once."""
    pairs = graph.candidate_pairs()
    if len(labelings) == 0:
        return np.zeros(len(pairs))
    eq = labelings[:, pairs[:, 0]] == labelings[:, pairs[:, 1]]
    return eq.mean(axis=0)


def partition_frequency_table(labelings) -> list:
    """partition_frequency_table through np.unique over whole rows."""
    if len(labelings) == 0:
        return []
    uniq, counts = np.unique(labelings, axis=0, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    total = counts.sum()
    return [(tuple(int(v) for v in uniq[k]), int(counts[k]),
             counts[k] / total) for k in order]


# --- comparison, one pair at a time -----------------------------------------

def levenshtein(a: str, b: str) -> int:
    """Edit distance: minimum insertions, deletions, substitutions."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for i in range(la):
        ca = a[i]
        cur = [i + 1]
        append = cur.append
        for j in range(lb):
            cost = prev[j] if ca == b[j] else prev[j] + 1
            d = prev[j + 1] + 1
            if d < cost:
                cost = d
            e = cur[j] + 1
            if e < cost:
                cost = e
            append(cost)
        prev = cur
    return prev[lb]


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance scaled by the longer length, in [0, 1]."""
    m = max(len(a), len(b))
    if m == 0:
        return 0.0
    return levenshtein(a, b) / m


def token_min_levenshtein(a: str, b: str) -> float:
    """Name comparison tolerant of differing token counts.

    Single-token names compare directly. When token counts are equal,
    tokens compare positionally and the normalized distances average.
    When they differ, every token of the shorter name is matched to its
    best-fitting token of the longer name (minimum normalized distance,
    each candidate pairing normalized by its own max token length), and
    those minima average; with one token against two this is exactly the
    min over the two tokens. An exact token match therefore yields 0.
    """
    ta, tb = a.split(), b.split()
    if not ta or not tb:
        return normalized_levenshtein(a, b)
    if len(ta) == len(tb):
        if len(ta) == 1:
            return normalized_levenshtein(a, b)
        return sum(normalized_levenshtein(x, y) for x, y in zip(ta, tb)) / len(ta)
    short, long_ = (ta, tb) if len(ta) < len(tb) else (tb, ta)
    return sum(min(normalized_levenshtein(s, t) for t in long_)
               for s in short) / len(short)


def bin_level(similarity: float, spec) -> int:
    """Discretize a similarity value: smallest l with s <= cut_points[l]."""
    if similarity < 0:
        raise ConfigError(
            f"{spec.field!r}: similarity {similarity} is negative")
    lv = bisect_left(spec.cut_points, similarity)
    if lv >= spec.n_levels:
        raise ConfigError(
            f"{spec.field!r}: similarity {similarity} exceeds the last cut point "
            f"{spec.cut_points[-1]}")
    return lv


_SIMILARITY_FUNCS = {
    "levenshtein": normalized_levenshtein,
    "token_levenshtein": token_min_levenshtein,
    "absolute_difference": absolute_difference,
    "binary": binary_disagreement,
}


def similarity(spec, vi, vj) -> float:
    return _SIMILARITY_FUNCS[spec.kind](vi, vj)


@dataclass(frozen=True)
class ComparisonVector:
    """Levels for one record pair; None where a value was missing."""

    i: int
    j: int
    levels: tuple


def compare_pair(rec_i, rec_j, specs, df) -> ComparisonVector:
    """Compare one record pair on all spec'd fields."""
    out = []
    for spec in specs:
        k = df.index_of(spec.field)
        vi, vj = rec_i.values[k], rec_j.values[k]
        if vi is None or vj is None:
            out.append(None)
        else:
            out.append(bin_level(similarity(spec, vi, vj), spec))
    return ComparisonVector(i=rec_i.id, j=rec_j.id, levels=tuple(out))


def comparison_vector(comps, k: int) -> ComparisonVector:
    """Row k of a PairComparisons as a ComparisonVector."""
    return ComparisonVector(
        i=int(comps.pairs[k, 0]), j=int(comps.pairs[k, 1]),
        levels=tuple(None if v < 0 else int(v) for v in comps.levels[k]))


# --- likelihood, sequential form --------------------------------------------

def _log_level_prob(level: int, params_f: np.ndarray) -> float:
    """Sequential-form log probability of one observed level."""
    L = len(params_f)
    total = 0.0
    if level < L:
        total += float(np.log(params_f[level]))
    for h in range(min(level, L)):
        total += float(np.log1p(-params_f[h]))
    return total


def log_p1_obs(vec, params) -> float:
    """Log probability of a pair's observed levels if coreferent."""
    total = 0.0
    for f, lv in enumerate(vec.levels):
        if lv is not None:
            total += _log_level_prob(lv, params.m[f])
    return total


def log_p0_obs(vec, params) -> float:
    """Log probability of a pair's observed levels if not coreferent."""
    total = 0.0
    for f, lv in enumerate(vec.levels):
        if lv is not None:
            total += _log_level_prob(lv, params.u[f])
    return total


def log_likelihood_ratio(vec, params) -> float:
    return log_p1_obs(vec, params) - log_p0_obs(vec, params)


# --- parameter block, one field at a time -----------------------------------

def star_probs(m_f: np.ndarray) -> np.ndarray:
    """Level probabilities induced by one field's sequential parameters.

    Length is len(m_f) + 1 and the result sums to 1 exactly as a
    telescoping product.
    """
    m_f = np.asarray(m_f, dtype=np.float64)
    rest = np.cumprod(1.0 - m_f)
    out = np.empty(len(m_f) + 1)
    out[0] = m_f[0] if len(m_f) else 1.0
    if len(m_f) > 1:
        out[1:-1] = m_f[1:] * rest[:-1]
    out[-1] = rest[-1] if len(m_f) else 1.0
    return out


def stats_equal(s, t) -> bool:
    """Whether two SufficientStats hold the same counts, field by field."""
    return (len(s.a1) == len(t.a1)
            and all(np.array_equal(np.asarray(x), np.asarray(y))
                    for x, y in zip(s.a1, t.a1))
            and all(np.array_equal(np.asarray(x), np.asarray(y))
                    for x, y in zip(s.a0, t.a0)))


def log_level_tables(params) -> tuple[list, list]:
    """Log star-probability lookup tables (per field, indexed by level)."""
    lm = [np.log(star_probs(v)) for v in params.m]
    lu = [np.log(star_probs(v)) for v in params.u]
    return lm, lu


def level_entries(comps, mask) -> tuple[np.ndarray, np.ndarray]:
    """The observed levels of the compared pairs flagged in mask as
    (pair, bin) entries, pair by pair, where pairs count from 0 among the
    flagged ones and a field's bins are its levels after the earlier
    fields' bins."""
    levels = comps.levels[mask]
    first = np.cumsum([0] + list(comps.n_levels))[:-1]
    pair, field = np.nonzero(levels >= 0)
    return pair, first[field] + levels[pair, field]


def log_ratios(comps, graph, params) -> np.ndarray:
    """SamplerContext.flat_log_ratios through per-field log level tables,
    summed over the candidate pairs' (pair, bin) entries."""
    lm, lu = log_level_tables(params)
    lr = np.concatenate(lm) - np.concatenate(lu)
    pair, bins = level_entries(comps, graph.candidate_mask)
    return np.bincount(pair, weights=lr[bins],
                       minlength=graph.n_candidates)


def link_counts(comps, graph, linked) -> np.ndarray:
    """SamplerContext.link_counts over (pair, bin) entries: a1 from the
    linked candidate pairs' entries, a0 from every compared pair's less
    a1."""
    n_bins = sum(comps.n_levels)
    pair, bins = level_entries(comps, graph.candidate_mask)
    a1 = np.bincount(bins[np.asarray(linked)[pair]], minlength=n_bins)
    _, every = level_entries(comps, np.ones(len(comps.levels), dtype=bool))
    return np.stack((a1, np.bincount(every, minlength=n_bins) - a1))


def block_scores(ctx, loglr) -> np.ndarray:
    """gibbs._block_scores as one bincount over (partition, candidate)
    entries: each block partition scores the sum of the candidate log
    ratios loglr of the pairs it puts in one cell."""
    part, cand = [], []
    for c in range(ctx.n_block_components):
        members = ctx.block_records[ctx.record_comp == c]
        for p in range(ctx.comp_parts[c], ctx.comp_parts[c + 1]):
            z = -1 - np.arange(ctx.r)  # distinct from every record id
            z[members] = ctx.part_labels[ctx.label_at[p]:][:len(members)]
            linked = np.flatnonzero(z[ctx.cand_i] == z[ctx.cand_j])
            part.extend([p] * len(linked))
            cand.extend(linked.tolist())
    cand = np.array(cand, dtype=np.int64)
    return np.bincount(np.array(part, dtype=np.int64),
                       weights=np.asarray(loglr)[cand],
                       minlength=ctx.n_partitions)


def level_counts(counts_by_field) -> tuple[np.ndarray, np.ndarray]:
    """Per parameter, one field at a time, the count at its level and the
    count above it in its field: with the prior's, these are the Beta
    parameters that gibbs._beta_parameters gives."""
    cs, ts = [], []
    for counts in counts_by_field:
        arr = np.asarray(counts, dtype=np.float64)
        rev = np.cumsum(arr[::-1])[::-1]
        cs.append(arr[:-1])
        ts.append(rev[1:])
    return np.concatenate(cs), np.concatenate(ts)


# --- exact densities --------------------------------------------------------

def _log_beta_tail(a: float, b: float, lam: float) -> float:
    """log(1 - I_lam(a, b)), switching to high precision on underflow."""
    if lam <= 0.0:
        return 0.0
    tail = 1.0 - float(betainc(a, b, lam))
    if tail > 1e-280:
        return float(np.log(tail))
    import mpmath
    with mpmath.workdps(60):
        t = mpmath.betainc(b, a, 0, 1.0 - lam, regularized=True)
        return float(mpmath.log(t))


def truncated_beta_logpdf(x: float, a: float, b: float, lam: float) -> float:
    if not (lam <= x < 1.0) or x <= 0.0:
        return -np.inf
    return ((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
            - betaln(a, b) - _log_beta_tail(a, b, lam))


def in_support(params, prior) -> bool:
    for mf, lamf in zip(params.m, prior.lam):
        if np.any(mf < lamf) or np.any(mf >= 1.0) or np.any(mf <= 0.0):
            return False
    for uf in params.u:
        if np.any(uf <= 0.0) or np.any(uf >= 1.0):
            return False
    return True


def log_likelihood(stats, params) -> float:
    """Observed-data log likelihood given level counts."""
    lm, lu = log_level_tables(params)
    total = 0.0
    for f in range(len(lm)):
        total += float(np.asarray(stats.a1[f]) @ lm[f])
        total += float(np.asarray(stats.a0[f]) @ lu[f])
    return total


def log_posterior_unnormalized(z, params, prior, graph, comps) -> float:
    """Joint log density of (partition, parameters) up to a constant.

    The flat partition prior contributes 0; two labelings of the same
    partition therefore score identically. Parameters outside the prior
    support give -inf.
    """
    if not in_support(params, prior):
        return -np.inf
    stats = sufficient_stats(z, graph, comps)
    total = log_likelihood(stats, params)
    for f in range(len(prior.lam)):
        for l in range(len(prior.lam[f])):
            total += truncated_beta_logpdf(
                float(params.m[f][l]), float(prior.alpha1[f][l]),
                float(prior.beta1[f][l]), float(prior.lam[f][l]))
            x = float(params.u[f][l])
            if not 0.0 < x < 1.0:
                return -np.inf
            a0 = float(prior.alpha0[f][l])
            b0 = float(prior.beta0[f][l])
            total += (a0 - 1.0) * np.log(x) + (b0 - 1.0) * np.log1p(-x) - betaln(a0, b0)
    return float(total)


def marginal_log_likelihood(z, prior, graph, comps) -> float:
    """Log P(observed levels | partition) with parameters integrated out.

    Conjugacy makes each (field, level) factor an incomplete-Beta ratio:
    for m, log of B(a+c, b+t) * (1 - I_lam(a+c, b+t)) minus the same at
    zero counts; for u, the untruncated version.
    """
    stats = sufficient_stats(z, graph, comps)
    total = 0.0
    for f in range(len(prior.lam)):
        c1 = np.asarray(stats.a1[f], dtype=np.float64)
        c0 = np.asarray(stats.a0[f], dtype=np.float64)
        L = len(prior.lam[f])
        tails1 = np.concatenate([np.cumsum(c1[::-1])[::-1][1:], [0.0]])
        tails0 = np.concatenate([np.cumsum(c0[::-1])[::-1][1:], [0.0]])
        for l in range(L):
            a, b = float(prior.alpha1[f][l]), float(prior.beta1[f][l])
            lam = float(prior.lam[f][l])
            total += (betaln(a + c1[l], b + tails1[l]) + _log_beta_tail(
                a + c1[l], b + tails1[l], lam))
            total -= betaln(a, b) + _log_beta_tail(a, b, lam)
            a0, b0 = float(prior.alpha0[f][l]), float(prior.beta0[f][l])
            total += betaln(a0 + c0[l], b0 + tails0[l]) - betaln(a0, b0)
    return float(total)


# --- truncated-Beta draws by inversion --------------------------------------

# The sampler's m draw before it became a rejection sampler in numpy
# alone: the inverse CDF, on the survival scale where 1 - F(lam) is
# tiny, with tangent-envelope rejection and a high-precision bisection
# behind it. A reference for the inversion branches.

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


def tbeta_inverse_cdf(rng: np.random.Generator, a: np.ndarray,
                      b: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Vector of TBeta(a, b, lam, 1) draws via the inverse CDF.

    Elements whose truncated tail is too small for the plain CDF
    inversion are redrawn on the survival scale, all in one call; those
    whose tail underflows there too fall through, in ascending order, to
    the rejection sampler, which may consume extra uniforms.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    f_lam = betainc(a, b, lam)
    u = rng.random(len(a))
    x = betaincinv(a, b, f_lam + u * (1.0 - f_lam))
    tail = np.flatnonzero(1.0 - f_lam <= 1e-14)
    if len(tail):
        at, bt, lt, ut = a[tail], b[tail], lam[tail], u[tail]
        s_lam = betaincc(at, bt, lt)
        x[tail] = betainccinv(at, bt, s_lam * (1.0 - ut))
        for k in np.flatnonzero(s_lam == 0.0):
            x[tail[k]] = _tbeta_reject(rng, float(at[k]), float(bt[k]),
                                       float(lt[k]), float(ut[k]))
    np.clip(x, 1e-12, 1.0 - 1e-12, out=x)
    np.maximum(x, lam, out=x)
    return x


def tbeta_vec(rng, a, b, lam) -> np.ndarray:
    """tbeta_inverse_cdf with its tail elements redrawn one at a time:
    the survival scale by scalar calls, and the rejection sampler where
    the survival underflows."""
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


# --- the sampler's vector draws before overrelaxation -----------------------

def tbeta_rejection(rng: np.random.Generator, a: np.ndarray, b: np.ndarray,
                    lam: np.ndarray) -> tuple[np.ndarray, int]:
    """gibbs._tbeta_vec as it was before the m draw was overrelaxed, less
    its envelope memo: every element takes the first accepted candidate
    of its first round that has one, and the count is of the candidates
    rejected before the accepted ones."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    x = np.empty(len(a))
    todo = np.arange(len(a))
    rejected = 0
    with np.errstate(all="ignore"):
        p0, fields = gibbs._tbeta_envelope(a, b, lam)
        for _ in range(gibbs.TBETA_MAX_ROUNDS):
            k = len(todo)
            u = rng.random((3, k, gibbs.TBETA_CANDIDATES))
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
            first = accept.argmax(axis=1)
            pick = first + np.arange(0, k * gibbs.TBETA_CANDIDATES,
                                     gibbs.TBETA_CANDIDATES)
            x_sign *= e
            x_sign += x_at
            x[todo] = x_sign.take(pick)
            rejected += int(first.sum())
            done = accept.take(pick)
            n_done = int(np.count_nonzero(done))
            if n_done == k:
                break
            rejected += gibbs.TBETA_CANDIDATES * (k - n_done)
            keep = ~done
            todo, p0 = todo[keep], p0[keep]
            fields = fields[:, np.concatenate((keep, keep))]
        else:
            raise RuntimeError("truncated-Beta rejection did not accept")
    np.minimum(x, 1.0 - 1e-12, out=x)
    np.maximum(x, 1e-12, out=x)
    np.maximum(x, lam, out=x)
    return x, rejected


def draw_segments(scores: np.ndarray, first: np.ndarray,
                  us: np.ndarray) -> np.ndarray:
    """gibbs._draw_segments as it was before the segment ends and entry
    segments came precomputed: one index per segment of scores, segment
    k (from first[k] to the next segment's start) drawn at uniform us[k]
    with weights exp(scores). Every segment's last score must be finite;
    scores are shifted in place.
    """
    end = np.append(first[1:], len(scores))
    scores -= np.repeat(np.maximum.reduceat(scores, first), end - first)
    cdf = np.zeros(len(scores) + 1)
    np.cumsum(np.exp(scores), out=cdf[1:])
    lo, hi = cdf[first], cdf[end]
    # a point rounded up to hi goes to the segment's last entry
    drawn = np.searchsorted(cdf, lo + us * (hi - lo), side="right") - 1
    return np.minimum(drawn, end - 1, out=drawn)


# --- single-site Gibbs updates ----------------------------------------------

def sample_truncated_beta(rng, alpha: float, beta: float, lam: float) -> float:
    """One draw from Beta(alpha, beta) truncated to [lam, 1), through the
    sampler's vector draw."""
    x, _ = gibbs._tbeta_vec(rng, np.array([alpha]), np.array([beta]),
                            np.array([lam]))
    return float(x[0])


def _field_slices(prior, f: int) -> tuple[int, slice]:
    """Field f's first flat parameter index and its slice of level bins."""
    first = sum(len(v) for v in prior.lam[:f])
    return first, slice(first + f, first + f + len(prior.lam[f]) + 1)


def update_m(state, f: int, l: int, prior, rng) -> float:
    """Redraw one m parameter from its truncated-Beta full conditional."""
    first, bins = _field_slices(prior, f)
    counts = state.stats[0, bins]
    a = float(prior.alpha1[f][l]) + float(counts[l])
    b = float(prior.beta1[f][l]) + float(counts[l + 1:].sum())
    x = sample_truncated_beta(rng, a, b, float(prior.lam[f][l]))
    state.m[first + l] = x
    return x


def update_u(state, f: int, l: int, prior, rng) -> float:
    """Redraw one u parameter from its Beta full conditional."""
    first, bins = _field_slices(prior, f)
    counts = state.stats[1, bins]
    a = float(prior.alpha0[f][l]) + float(counts[l])
    b = float(prior.beta0[f][l]) + float(counts[l + 1:].sum())
    x = float(np.clip(rng.beta(a, b), 1e-12, 1.0 - 1e-12))
    state.u[first + l] = x
    return x


def update_record(i, z, cell_sizes, free_labels, adj_i, loglr, u1, u2):
    """Redraw record i's label in place, one record at a time. u1 picks
    the option, u2 picks the concrete unused label if a new cell opens.
    cell_sizes maps each label in use to its cell's size, and
    free_labels lists the unused ones."""
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


class SequentialSites:
    """The single-site records of a SamplerContext updated one at a time
    by update_record, with labels drawn from a pool of unused ones: the
    scan that gibbs.sweep's prefetched passes reproduce."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.z = list(range(ctx.r))
        self.cell_sizes = {i: 1 for i in ctx.single_site}
        self.free_labels: list = []

    def sweep(self, loglr, rng, random_scan: bool = False) -> None:
        """One sweep at fixed log ratios, drawing its uniforms and visiting
        order from rng as gibbs.sweep does when no block component exists."""
        single = self.ctx.single_site
        us = rng.random(2 * len(single)).tolist()
        order = (rng.permutation(len(single)) if random_scan
                 else range(len(single)))
        loglr = list(loglr)
        for k, row in enumerate(order):
            i = single[row]
            update_record(i, self.z, self.cell_sizes, self.free_labels,
                          self.ctx.adj[i], loglr, us[2 * k], us[2 * k + 1])


# --- partitions and labelings -----------------------------------------------

def bell_number(r: int) -> int:
    """Number of set partitions of r elements, via the Bell triangle."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    row = [1]
    for _ in range(r):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def labeling_count(r: int, n: int) -> int:
    """Number of labelings of r records, over r labels, that induce a
    given partition with n cells: r! / (r-n)!."""
    if not 0 <= n <= r:
        raise ValueError("need 0 <= n <= r")
    return factorial(r) // factorial(r - n)


def canonical_labels(z) -> tuple[int, ...]:
    """Relabel by order of first occurrence, so equivalent labelings map
    to the same tuple. Cell ids are 0..n-1."""
    seen: dict = {}
    out = []
    for lab in z:
        c = seen.get(lab)
        if c is None:
            c = len(seen)
            seen[lab] = c
        out.append(c)
    return tuple(out)


def distinct_rows(L) -> tuple[np.ndarray, np.ndarray]:
    """partition.distinct_rows, one row at a time through tuples."""
    L = np.asarray(L)
    seen: dict = {}
    index = [seen.setdefault(tuple(row.tolist()), len(seen)) for row in L]
    return (np.array(list(seen), dtype=L.dtype).reshape(len(seen), L.shape[1]),
            np.array(index, dtype=np.int64))


def narrow_rows(labelings, active=None) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """(rows, index, active): the store run_chain keeps for full-width
    label rows, one row at a time. active lists the records that may
    share a cell, by default those that share one in some row; rows holds
    the canonical labels over them of each distinct row once, in order of
    first occurrence and in the smallest unsigned type that holds them,
    and index the row of every labeling."""
    L = np.asarray(labelings)
    if active is None:
        shared = np.zeros(L.shape[1], dtype=bool)
        for row in L:
            _, inverse, counts = np.unique(row, return_inverse=True,
                                           return_counts=True)
            shared |= counts[inverse] > 1
        active = np.flatnonzero(shared)
    labels = np.array([canonical_labels(row[active]) for row in L],
                      dtype=label_dtype(len(active)))
    rows, index = distinct_rows(labels.reshape(len(L), len(active)))
    return rows, index, active


def partition_to_labeling(cells) -> list[int]:
    """Inverse of partition.labeling_to_partition, producing canonical
    labels."""
    size = sum(len(c) for c in cells)
    z = [-1] * size
    for lab, cell in enumerate(sorted(cells, key=min)):
        for i in cell:
            if not 0 <= i < size:
                raise ValueError(f"record id {i} out of range")
            if z[i] != -1:
                raise ValueError(f"record {i} appears in two cells")
            z[i] = lab
    if -1 in z:
        raise ValueError("cells do not cover 0..r-1")
    return z


_ENUMERATION_LIMIT = 10


def enumerate_valid_partitions(r: int, candidate_pairs) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of 0..r-1 in which every within-cell pair is a
    candidate pair (i, j), i < j, each cell ascending. Guarded to
    r <= 10: the tests enumerate whole small files with it.
    """
    if r > _ENUMERATION_LIMIT:
        raise ValueError(f"exact enumeration is limited to r <= {_ENUMERATION_LIMIT}")
    lower: list[list[int]] = [[] for _ in range(r)]
    for i, j in set(candidate_pairs):
        if 0 <= i < j < r:
            lower[j].append(i)
    out = []
    for heads in valid_partitions(lower, inf).tolist():
        cells: dict = {}
        for k, h in enumerate(heads):
            cells.setdefault(h, []).append(k)
        out.append(tuple(tuple(c) for c in cells.values()))
    return out


def delta_from_labeling(z, pairs: np.ndarray) -> np.ndarray:
    """Pairwise link indicators implied by a partition labeling."""
    z = np.asarray(z)
    return (z[pairs[:, 0]] == z[pairs[:, 1]]).astype(np.int8)


def n_cells(z) -> int:
    return len(set(z))


def coreferent(z, i: int, j: int) -> bool:
    return z[i] == z[j]


def is_valid_labeling(z, candidate_pairs) -> bool:
    """True when every coreferent pair is a candidate pair.

    candidate_pairs is a set of (i, j) tuples with i < j. Records that
    share no candidate pair may never share a label.
    """
    cells: dict = {}
    for i, lab in enumerate(z):
        cells.setdefault(lab, []).append(i)
    for cell in cells.values():
        for a in range(len(cell)):
            for b in range(a + 1, len(cell)):
                if (cell[a], cell[b]) not in candidate_pairs:
                    return False
    return True


def fix_rule_matches(rule, vec_levels, field_pos: dict) -> bool:
    """FixRule on one pair's level vector (None for unobserved levels)."""
    for f, min_lv in rule.conditions:
        lv = vec_levels[field_pos[f]]
        if lv is None or lv < min_lv:
            return False
    return True
