"""Summaries of retained partition samples, and their serialization.

Pairwise metrics against a reference partition follow the usual
confusion counts over record pairs: b11 pairs coreferent in both, b10
only in the estimate, b01 only in the reference. Recall is
b11/(b11+b01), precision b11/(b11+b10), and an empty denominator scores
1 (nothing to miss, or nothing asserted falsely).

The summaries read only the retained label matrix, from a sample or
given directly, and treat all draws at once in row blocks of bounded
size.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .errors import DataError
from .partition import canonicalize_label_rows, format_partition
from .textio import write_int_rows


def _label_matrix(sample) -> np.ndarray:
    """The retained label matrix of a sample, or the matrix itself."""
    return sample if isinstance(sample, np.ndarray) else sample.labelings


def pairwise_probabilities(sample, graph) -> np.ndarray:
    """Posterior coreference probability for every candidate pair, with
    the equal-label counts accumulated over row blocks of bounded size."""
    pairs = graph.candidate_pairs()
    L = _label_matrix(sample)
    if len(L) == 0:
        return np.zeros(len(pairs))
    equal = np.zeros(len(pairs), dtype=np.int64)
    for rows in _row_blocks(L):
        block = L[rows]
        equal += np.count_nonzero(block[:, pairs[:, 0]] == block[:, pairs[:, 1]],
                                  axis=0)
    return equal / len(L)


def write_pairwise_csv(path, graph, probs: np.ndarray) -> None:
    pairs = graph.candidate_pairs()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j,probability\n")
        for (i, j), p in zip(pairs, probs):
            fh.write(f"{i},{j},{p:.6f}\n")


def duplicate_distribution(sample, interval: float = 0.90) -> dict:
    """Posterior summary of the duplicate count r - n(Z), from canonical
    label rows (a row's cell count is its largest label plus one).

    The central interval at the given level uses integer-conservative
    endpoints (lower interpolation below, higher above). Percentages are
    relative to the file's record count.
    """
    L = _label_matrix(sample)
    r = L.shape[1]
    if r:
        dups = r - 1 - L.max(axis=1).astype(np.int64)
    else:
        dups = np.zeros(len(L), dtype=np.int64)
    lo_q, hi_q = (1.0 - interval) / 2.0, (1.0 + interval) / 2.0
    lo = float(np.quantile(dups, lo_q, method="lower"))
    hi = float(np.quantile(dups, hi_q, method="higher"))
    pct = 100.0 / r if r else 0.0
    return {
        "records": r,
        "mean": float(dups.mean()),
        "median": float(np.median(dups)),
        "min": int(dups.min()),
        "max": int(dups.max()),
        "interval_level": interval,
        "interval": [int(lo), int(hi)],
        "percent_mean": float(dups.mean() * pct),
        "percent_median": float(np.median(dups) * pct),
        "percent_interval": [lo * pct, hi * pct],
    }


def duplicate_percentage(r: int, n_unique: int) -> float:
    """Share of records that are duplicates when n_unique cells remain."""
    if r <= 0:
        raise ValueError("r must be positive")
    return 100.0 * (r - n_unique) / r


# Label-matrix cells handled per block by the summaries, which bounds
# their scratch memory at a few MB.
_SUMMARY_CELLS = 1 << 18


def _row_blocks(L: np.ndarray):
    """Slices over the rows of L, about _SUMMARY_CELLS cells each."""
    step = max(1, _SUMMARY_CELLS // max(L.shape[1], 1))
    return [slice(lo, lo + step) for lo in range(0, len(L), step)]


def _dense_labels(block: np.ndarray, r: int) -> np.ndarray:
    """Rows with labels in [0, r), each row a relabeling of the input row.

    Rows already in range pass through; others are canonicalized.
    """
    if (np.issubdtype(block.dtype, np.integer)
            and (block.size == 0 or (block.min() >= 0 and block.max() < r))):
        return block.astype(np.int64)
    return canonicalize_label_rows(block).astype(np.int64)


def _equal_pairs(sorted_rows: np.ndarray) -> np.ndarray:
    """Per row, the number of position pairs holding equal values; rows
    must be sorted."""
    n, m = sorted_rows.shape
    if m < 2:
        return np.zeros(n, dtype=np.int64)
    same = sorted_rows[:, 1:] == sorted_rows[:, :-1]
    pos = np.arange(1, m)
    # a run member pairs with every earlier member: pos minus its run's start
    run_start = np.maximum.accumulate(np.where(same, 0, pos), axis=1)
    return (pos - run_start).sum(axis=1)


def confusion_arrays(labelings, ref) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b11, b10, b01) pair counts of every row of a label matrix against
    the reference labeling.

    Within-cell pairs of a row come from its cell sizes (one bincount
    over a block of rows); b11 counts the equal (label, reference cell)
    keys per row, over the records whose reference cell is not a
    singleton. Rows go through in blocks of bounded size.
    """
    L = np.asarray(labelings)
    ref = np.asarray(ref)
    if L.ndim != 2 or ref.shape != L.shape[1:]:
        raise DataError("labelings cover different record counts")
    n, r = L.shape
    _, ref_codes, ref_sizes = np.unique(ref, return_inverse=True,
                                        return_counts=True)
    ref_pairs = int((ref_sizes * (ref_sizes - 1) // 2).sum())
    shared = ref_sizes[ref_codes] > 1
    shared_codes = ref_codes[shared].astype(np.int64)
    within = np.empty(n, dtype=np.int64)
    b11 = np.empty(n, dtype=np.int64)
    for rows in _row_blocks(L):
        dense = _dense_labels(L[rows], r)
        c = len(dense)
        sizes = np.bincount((dense + r * np.arange(c)[:, None]).ravel(),
                            minlength=c * r).reshape(c, r)
        within[rows] = (sizes * (sizes - 1) // 2).sum(axis=1)
        joint = dense[:, shared] * len(ref_sizes) + shared_codes
        b11[rows] = _equal_pairs(np.sort(joint, axis=1))
    return b11, within - b11, ref_pairs - b11


def _ratio_or_one(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.where(den > 0, num / np.maximum(den, 1), 1.0)


def precision_recall_arrays(labelings, ref) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise precision and recall of every row against the reference."""
    b11, b10, b01 = confusion_arrays(labelings, ref)
    return _ratio_or_one(b11, b11 + b10), _ratio_or_one(b11, b11 + b01)


def metric_summary(sample, ref) -> dict:
    """Median and 1st/99th percentiles of pairwise metrics across the
    retained samples."""
    precs, recs = precision_recall_arrays(_label_matrix(sample), ref)

    def summarize(x: np.ndarray) -> dict:
        return {"median": float(np.median(x)),
                "p01": float(np.percentile(x, 1)),
                "p99": float(np.percentile(x, 99))}

    return {"precision": summarize(precs), "recall": summarize(recs)}


def _row_hashes(L: np.ndarray) -> np.ndarray:
    """A 64-bit hash of every row: a wrapping dot product with fixed odd
    weights."""
    weights = np.random.default_rng(0x9E3779B9).integers(
        0, 2**63, size=L.shape[1], dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    out = np.empty(len(L), dtype=np.uint64)
    for rows in _row_blocks(L):
        out[rows] = L[rows].astype(np.uint64) @ weights
    return out


def _distinct_rows(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order, with their counts.

    Rows are grouped by hash, and every row is checked against its
    group's first row, so the grouping is exact; only the distinct rows
    are sorted. If two distinct rows ever share a hash, all rows are
    sorted instead.
    """
    _, first, inverse, counts = np.unique(
        _row_hashes(L), return_index=True, return_inverse=True,
        return_counts=True)
    reps = L[first]
    for rows in _row_blocks(L):
        if not np.array_equal(L[rows], reps[inverse[rows]]):
            return np.unique(L, axis=0, return_counts=True)
    lex = np.unique(reps, axis=0, return_index=True)[1]
    return reps[lex], counts[lex]


def partition_frequency_table(sample) -> list:
    """Distinct retained partitions with counts, most frequent first, ties
    in lexicographic order of their labels.

    Rows of the sample are canonical labelings, so identical rows mean
    identical partitions. Each entry is (labels_tuple, count, frequency).
    """
    L = _label_matrix(sample)
    if len(L) == 0:
        return []
    uniq, counts = _distinct_rows(L)
    order = np.argsort(-counts, kind="stable")
    total = counts.sum()
    return [(tuple(uniq[k].tolist()), int(counts[k]), counts[k] / total)
            for k in order]


def write_frequency_csv(path, table) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("partition,count,frequency\n")
        for labels, count, freq in table:
            fh.write(f"{format_partition(labels)},{count},{freq:.6f}\n")


def pool_samples(samples: list):
    """Concatenate retained draws from several chains into one sample.

    Iteration numbers repeat per chain; traces are stacked in chain
    order. Chains with fixed parameters pool to a trace-free sample.
    """
    from .gibbs import PosteriorSample

    if not samples:
        raise ValueError("nothing to pool")
    if len(samples) == 1:
        return samples[0]
    if len({s.r for s in samples}) != 1:
        raise ValueError("cannot pool samples over different files")
    has_trace = all(s.m_trace is not None for s in samples)
    return PosteriorSample(
        labelings=np.concatenate([s.labelings for s in samples]),
        kept_iterations=np.concatenate([s.kept_iterations for s in samples]),
        m_trace=np.concatenate([s.m_trace for s in samples]) if has_trace else None,
        u_trace=np.concatenate([s.u_trace for s in samples]) if has_trace else None,
        fields=samples[0].fields, n_levels=samples[0].n_levels,
        seed=samples[0].seed, config=samples[0].config,
        runtime_s=sum(s.runtime_s for s in samples),
        single_site_passes=sum(s.single_site_passes for s in samples))


# --- serialization ----------------------------------------------------------

def save_labelings(path, sample) -> None:
    """One retained labeling per line: space-separated canonical cell ids."""
    write_int_rows(path, (_label_matrix(sample),), sep=" ")


# Bytes parsed per block by load_labelings (cut after a newline).
_PARSE_BYTES = 1 << 20
_MAX_LABEL = 2**31 - 1  # labels load as int32


def load_labelings(path) -> np.ndarray:
    """Label matrix of a labelings file, one labeling per line.

    Labels are non-negative decimal integers in ASCII digits, at most
    2**31 - 1, separated by spaces or tabs. Blank lines are skipped, and
    lines may end in \\n, \\r\\n or \\r. Any other character, a label out
    of range, rows of different lengths and a file without labels raise
    DataError naming the file and line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rows, width, lines_before, pos = [], None, 0, 0
    while pos < len(data):
        cut = data.find(b"\n", pos + _PARSE_BYTES)
        end = len(data) if cut < 0 else cut + 1
        values, counts, n_lines = _parse_labeling_block(
            path, data, pos, end, lines_before, width)
        if width is None and len(counts):
            width = int(counts[0])
        rows.append(values)
        lines_before += n_lines
        pos = end
    if width is None:
        raise DataError(f"{path}: no labelings found")
    return np.concatenate(rows).reshape(-1, width)


def _parse_labeling_block(path, data: bytes, start: int, end: int,
                          lines_before: int, width: int | None):
    """Labels of the lines in data[start:end]; returns (labels as int32,
    labels per non-blank line, line terminators in the block)."""
    b = np.frombuffer(data, dtype=np.uint8, count=end - start, offset=start)
    lf = b == ord("\n")
    cr = b == ord("\r")
    crlf = cr.copy()
    crlf[:-1] &= lf[1:]
    crlf[-1] = False
    newline = lf | (cr & ~crlf)
    digit = (b - ord("0")) < 10
    breaks = np.flatnonzero(newline)
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    values = np.empty(len(starts), dtype=np.int64)
    digits = b - ord("0")
    for size in np.flatnonzero(np.bincount(lengths)):
        which = np.flatnonzero(lengths == size)
        at = starts[which]
        if size > 10:  # may not fit int64; leading zeros are allowed
            values[which] = [min(int(data[start + a:start + a + size]),
                                 _MAX_LABEL + 1) for a in at]
            continue
        v = digits[at].astype(np.int64)
        for k in range(1, size):
            v = v * 10 + digits[at + k]
        values[which] = v

    # labels per line; line i of the block is file line lines_before + 1 + i
    counts = np.diff(np.searchsorted(starts, breaks), prepend=0,
                     append=len(starts))
    rows = counts[counts > 0]
    expect = width if width is not None else (rows[0] if len(rows) else 0)
    # the first offending line, in the order a line-by-line reader meets them
    stray = ~(digit | newline | crlf | (b == ord(" ")) | (b == ord("\t")))
    errors = []
    if stray.any():
        errors.append((np.searchsorted(breaks, np.argmax(stray)), 0,
                       "unparseable label"))
    if (values > _MAX_LABEL).any():
        errors.append((np.searchsorted(breaks, starts[np.argmax(
            values > _MAX_LABEL)]), 0, "label out of range"))
    ragged = (counts > 0) & (counts != expect)
    if ragged.any():
        errors.append((np.argmax(ragged), 1, "ragged labeling row"))
    if errors:
        line, _, message = min(errors)
        raise DataError(f"{path}:{lines_before + 1 + int(line)}: {message}")
    return values.astype(np.int32), rows, len(breaks)


# Draws formatted per write by save_phi_trace. A scratch array for all
# draws at once (2 MB for 5,400 draws of 15 parameters) raised the later
# peak RSS of dedupe by 2.5 MB.
_TRACE_DRAWS = 256


def save_phi_trace(path, sample) -> None:
    """Parameter trace CSV: iteration, field, level, m, u per row."""
    if sample.m_trace is None:
        raise DataError("this sample was drawn with fixed parameters; no trace")
    # each parameter's "field,level" cells, quoted by csv as in a full row
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for f, name in enumerate(sample.fields):
        for l in range(sample.n_levels[f] - 1):
            writer.writerow([name, l])
            cells.append(buf.getvalue()[:-1].replace("%", "%%"))
            buf.seek(0)
            buf.truncate()
    # one draw's rows; iterations are exact in float64, as %d needs
    template = "".join(f"%d,{c},%.8f,%.8f\n" for c in cells)
    n, k = sample.m_trace.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,field,level,m,u\n")
        for lo in range(0, n, _TRACE_DRAWS):
            rows = slice(lo, lo + _TRACE_DRAWS)
            values = np.stack(np.broadcast_arrays(
                sample.kept_iterations[rows, None], sample.m_trace[rows],
                sample.u_trace[rows]), axis=2).reshape(-1, 3 * k)
            fh.write("".join(template % tuple(row) for row in values.tolist()))


def load_truth(path, r: int | None = None) -> np.ndarray:
    """Ground-truth entity labels from a record_id,entity_id CSV."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["record_id", "entity_id"]:
            raise DataError(f"{path}: expected header record_id,entity_id")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected two columns")
            try:
                rid, ent = int(row[0]), int(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable id") from None
            if rid in mapping:
                raise DataError(f"{path}:{lineno}: duplicate record id {rid}")
            mapping[rid] = ent
    if not mapping:
        raise DataError(f"{path}: no rows")
    size = r if r is not None else max(mapping) + 1
    if set(mapping) != set(range(size)):
        raise DataError(f"{path}: record ids do not cover 0..{size - 1}")
    return np.array([mapping[k] for k in range(size)], dtype=np.int64)


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
