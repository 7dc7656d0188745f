"""Output checks, chain diagnostics and workload properties.

Shared by run.py and the traced run (traced.py).
Everything here reads files the CLI wrote, or arrays already in memory;
nothing here is timed as part of a metric.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtri
from scipy.stats import rankdata

from bayesdedupe import posterior
from bayesdedupe.errors import DataError


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- effective sample size --------------------------------------------------

def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of every row, by FFT."""
    n = x.shape[1]
    size = 1 << (2 * n - 1).bit_length()
    centred = x - x.mean(axis=1, keepdims=True)
    f = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n] / n


def _ess(x: np.ndarray) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence, as in
    Vehtari et al. (2021), section 3.2."""
    chains, n = x.shape
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if chains > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = np.zeros(n)
    rho[0] = 1.0
    even, odd = 1.0, 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    rho[1] = odd
    t = 1
    while t < n - 3 and even + odd > 0:
        even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if even + odd >= 0:
            rho[t + 1], rho[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0:
        rho[max_t + 1] = even
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2
        t += 2
    total = chains * n
    tau = -1.0 + 2.0 * rho[:max_t + 1].sum() + rho[max_t + 1]
    return float(total / max(tau, 1.0 / np.log10(total)))


def bulk_ess(draws) -> tuple[float, bool]:
    """Rank-normalized bulk ESS of a (chains, draws) array, plus whether
    the trace was constant.

    Chains are split in half before ranking. A constant trace has no
    variance to estimate and so no autocorrelation: its ESS is the
    number of draws, and the flag says so.
    """
    x = np.asarray(draws, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 8:
        raise ValueError("need a (chains, draws) array with at least 8 draws")
    if np.all(x == x.flat[0]):
        return float(x.size), True
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half:]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    return _ess(ndtri((ranks - 0.375) / (split.size + 0.25))), False


def duplicate_trace(labelings: np.ndarray, chains: int) -> np.ndarray:
    """r - n_cells per retained draw, one row per chain."""
    ordered = np.sort(labelings, axis=1)
    cells = np.count_nonzero(np.diff(ordered, axis=1), axis=1) + 1
    return (labelings.shape[1] - cells).reshape(chains, -1)


# --- output checks ----------------------------------------------------------

def load_edges(path) -> np.ndarray:
    """candidate_edges.csv as an (n, 3) array of i, j, fixed."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                      ndmin=2).reshape(-1, 3)


def invalid_draws(labelings: np.ndarray, cand_pairs: np.ndarray) -> int:
    """Number of draws that merge a pair outside the candidate set.

    A draw is valid when its coreferent pairs are all candidates, that
    is when the coreferent candidate pairs number as many as the pairs
    inside its cells.
    """
    n, r = labelings.shape
    flat = labelings.astype(np.int64) + (np.arange(n, dtype=np.int64) * r)[:, None]
    sizes = np.bincount(flat.ravel(), minlength=n * r).reshape(n, r)
    within = (sizes * (sizes - 1) // 2).sum(axis=1)
    coref = (labelings[:, cand_pairs[:, 0]]
             == labelings[:, cand_pairs[:, 1]]).sum(axis=1)
    return int(np.count_nonzero(within != coref))


def check_dedupe(out_dir, r: int):
    """Check one dedupe output directory.

    Returns (problems, facts): problems is a list of messages, empty when
    every check passed; facts holds what later steps reuse (labelings,
    chain layout, compared and candidate pairs), or is None when the
    outputs could not be read.
    """
    def path(name):
        return os.path.join(out_dir, name)

    try:
        with open(path("manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        outputs = list(manifest["outputs"])
        chains = int(manifest["chains"])
        per_chain = int(manifest["retained_per_chain"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest.json is missing or incomplete: {exc!r}"], None
    problems = []
    missing = [f for f in outputs if not os.path.isfile(path(f))]
    if missing:
        problems.append(f"outputs listed in manifest.json are missing: {missing}")
    try:
        labelings = posterior.load_labelings(path("posterior_labelings.txt"))
        edges = load_edges(path("candidate_edges.csv"))
    except (OSError, ValueError, DataError) as exc:
        return problems + [f"unreadable labelings or candidate edges: {exc!r}"], None
    if labelings.shape != (chains * per_chain, r):
        return problems + [f"posterior_labelings.txt is {labelings.shape}, "
                           f"expected {(chains * per_chain, r)}"], None
    if labelings.min() < 0 or labelings.max() >= r:
        return problems + ["labels outside 0..r-1"], None
    if len(edges) and (edges[:, :2].min() < 0 or edges[:, :2].max() >= r):
        return problems + ["candidate_edges.csv names records outside 0..r-1"], None
    cand = edges[edges[:, 2] == 0, :2]
    bad = invalid_draws(labelings, cand)
    if bad:
        problems.append(f"{bad} draws merge a fixed or uncompared pair")
    facts = {"labelings": labelings, "chains": chains,
             "per_chain": per_chain, "pairs": edges[:, :2], "cand": cand}
    return problems, facts


def check_metrics(path):
    """Precision and recall summaries of an evaluate JSON lie in [0, 1].

    Returns (problems, summary); summary is None when the file could not
    be read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        values = {(m, q): float(summary[m][q])
                  for m in ("precision", "recall")
                  for q in ("median", "p01", "p99")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"metrics JSON is missing or incomplete: {exc!r}"], None
    return [f"{m}.{q} = {v} is outside [0, 1]"
            for (m, q), v in values.items() if not 0.0 <= v <= 1.0], summary


# --- workload properties ----------------------------------------------------

def component_sizes(r: int, cand_pairs: np.ndarray) -> np.ndarray:
    """Size of the candidate-graph component of every record."""
    cand_pairs = np.asarray(cand_pairs, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(cand_pairs)),
                        (cand_pairs[:, 0], cand_pairs[:, 1])), shape=(r, r))
    _, comp = connected_components(graph, directed=False)
    return np.bincount(comp)[comp]


def component_histogram(r: int, cand_pairs) -> dict:
    """Number of components of each size; size 1 counts inactive records."""
    sizes = component_sizes(r, cand_pairs)
    values, records = np.unique(sizes, return_counts=True)
    return {int(s): int(n // s) for s, n in zip(values, records)}


def distinct_value_pair_share(df, pairs, specs) -> dict:
    """Distinct unordered value pairs / observed compared pairs, per
    compared string field."""
    out = {}
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    for spec in specs:
        if spec.kind in ("binary", "absolute_difference"):
            continue
        col = df.column(spec.field)
        values = sorted({v for v in col if v is not None})
        code_of = {v: k for k, v in enumerate(values)}
        codes = np.array([-1 if v is None else code_of[v] for v in col],
                         dtype=np.int64)
        ci, cj = codes[pairs[:, 0]], codes[pairs[:, 1]]
        seen = (ci >= 0) & (cj >= 0)
        lo = np.minimum(ci[seen], cj[seen])
        hi = np.maximum(ci[seen], cj[seen])
        n_seen = int(seen.sum())
        out[spec.field] = (len(np.unique(lo * len(values) + hi)) / n_seen
                           if n_seen else 0.0)
    return out


def distinct_rows(labelings: np.ndarray) -> int:
    rows = np.ascontiguousarray(labelings)
    keyed = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    return len(np.unique(keyed))
