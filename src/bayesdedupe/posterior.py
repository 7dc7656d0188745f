"""Summaries of retained partition samples, and their serialization.

Pairwise metrics against a reference partition follow the usual
confusion counts over record pairs: b11 pairs coreferent in both, b10
only in the estimate, b01 only in the reference. Recall is
b11/(b11+b01), precision b11/(b11+b10), and an empty denominator scores
1 (nothing to miss, or nothing asserted falsely).

A chain revisits the same few partitions, so the retained draws are
held as distinct rows plus the row of each draw: a sample stores each
distinct partition once, over its active records only (see
gibbs.PosteriorSample), and the labelings file is read back the same
way. Every summary works on the distinct rows, in row blocks of bounded
size, and weights or gathers them by the draws' index: each distinct
row is expanded to all records, scored against a reference and
rendered once. A label matrix given directly is first reduced to its
distinct rows.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .errors import DataError
from .partition import (canonicalize_label_rows, distinct_rows,
                        expand_label_rows, format_partition)
from .records import open_text, read_table
from .textio import open_output, render_rows, row_blocks


def _distinct_store(sample, index=None):
    """(rows, index, active, r): the distinct label rows of a sample over
    its active records, and the row of each draw. A label matrix covers
    all of its records: given directly or as the labelings of a view
    without rows (the traced benchmark run passes one), its distinct
    rows are found; given with index, its rows are taken as they are."""
    if index is not None:
        rows = np.asarray(sample)
        return rows, np.asarray(index), np.arange(rows.shape[1]), rows.shape[1]
    if hasattr(sample, "rows"):
        return sample.rows, sample.index, sample.active, sample.r
    L = np.asarray(getattr(sample, "labelings", sample))
    rows, index = distinct_rows(L)
    return rows, index, np.arange(L.shape[1]), L.shape[1]


def pairwise_probabilities(sample, graph) -> np.ndarray:
    """Posterior coreference probability for every candidate pair: the
    equal-label pairs of each distinct row, weighted by its draw count,
    summed over row blocks of bounded size. Both records of a candidate
    pair are active."""
    rows, index, active, _ = _distinct_store(sample)
    pairs = np.searchsorted(active, graph.candidate_pairs())
    if len(index) == 0:
        return np.zeros(len(pairs))
    counts = np.bincount(index, minlength=len(rows))
    equal = np.zeros(len(pairs), dtype=np.int64)
    for blk in row_blocks(*rows.shape):
        block = rows[blk]
        equal += counts[blk] @ (block[:, pairs[:, 0]]
                                == block[:, pairs[:, 1]]).astype(np.int64)
    return equal / len(index)


def write_pairwise_csv(path, graph, probs: np.ndarray) -> None:
    pairs = graph.candidate_pairs()
    with open_output(path) as fh:
        fh.write("i,j,probability\n")
        for (i, j), p in zip(pairs, probs):
            fh.write(f"{i},{j},{p:.6f}\n")


def duplicate_distribution(sample, interval: float = 0.90,
                           index=None) -> dict:
    """Posterior summary of the duplicate count r - n(Z), where a row's
    cell count n(Z) is its number of distinct labels, whatever the
    labels are. Only active records have duplicates: over A active
    records a row's count is A minus its cells. Counts are taken per
    distinct row, in row blocks of bounded size, and gathered to the
    draws; with index, sample is a matrix of distinct rows and draw k is
    row index[k].

    The central interval at the given level uses integer-conservative
    endpoints (lower interpolation below, higher above). Percentages are
    relative to the file's record count.
    """
    rows, index, _, r = _distinct_store(sample, index)
    dups = np.zeros(len(rows), dtype=np.int64)
    if rows.shape[1]:
        for blk in row_blocks(*rows.shape):
            ordered = np.sort(rows[blk], axis=1)
            dups[blk] = rows.shape[1] - 1 - np.count_nonzero(
                ordered[:, 1:] != ordered[:, :-1], axis=1)
    dups = dups[index]
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
    for rows in row_blocks(n, r):
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


def metric_summary(sample, ref, index=None) -> dict:
    """Median and 1st/99th percentiles of pairwise metrics across the
    retained samples.

    Each distinct row is expanded to all records and scored once, and
    the scores are gathered to the draws. With index, sample is a
    full-width matrix of distinct rows and draw k is row index[k].
    """
    rows, index, active, r = _distinct_store(sample, index)
    precs, recs = precision_recall_arrays(expand_label_rows(rows, active, r),
                                          ref)

    def summarize(x: np.ndarray) -> dict:
        x = x[index]
        return {"median": float(np.median(x)),
                "p01": float(np.percentile(x, 1)),
                "p99": float(np.percentile(x, 99))}

    return {"precision": summarize(precs), "recall": summarize(recs)}


def partition_frequency_table(sample) -> list:
    """Distinct retained partitions with counts, most frequent first, ties
    in lexicographic order of their labels.

    Rows of the sample are canonical labelings, so identical rows mean
    identical partitions; a distinct row's count is the number of draws
    that index it. Each entry is (labels_tuple, count, frequency), with
    the labels of all records: only the distinct rows are expanded.
    Expansion keeps the lexicographic order of canonical rows, so the
    rows over the active records are ordered before it. Two rows that
    first differ at active position p agree on every record before it,
    and at p the larger label is the later cell, whose first member has
    at least as many inactive records before it, so it stays larger.
    """
    rows, index, active, r = _distinct_store(sample)
    if len(index) == 0:
        return []
    counts = np.bincount(index, minlength=len(rows))
    lex = np.unique(rows, axis=0, return_index=True)[1]
    uniq, counts = expand_label_rows(rows[lex], active, r), counts[lex]
    order = np.argsort(-counts, kind="stable")
    total = counts.sum()
    return [(tuple(uniq[k].tolist()), int(counts[k]), counts[k] / total)
            for k in order]


def write_frequency_csv(path, table) -> None:
    with open_output(path) as fh:
        fh.write("partition,count,frequency\n")
        for labels, count, freq in table:
            fh.write(f"{format_partition(labels)},{count},{freq:.6f}\n")


def pool_samples(samples: list):
    """Concatenate retained draws from several chains into one sample.

    The chains' distinct rows are merged exactly, so every partition is
    stored once, and their indices are remapped and concatenated in
    chain order. Iteration numbers repeat per chain; traces are stacked
    in chain order. Chains with fixed parameters pool to a trace-free
    sample.
    """
    from .gibbs import PosteriorSample

    if not samples:
        raise ValueError("nothing to pool")
    if len(samples) == 1:
        return samples[0]
    first = samples[0]
    if any(s.r != first.r or not np.array_equal(s.active, first.active)
           for s in samples):
        raise ValueError("cannot pool samples over different files")
    has_trace = all(s.m_trace is not None for s in samples)
    rows, inverse = distinct_rows(np.concatenate([s.rows for s in samples]))
    offsets = np.cumsum([0] + [len(s.rows) for s in samples[:-1]])
    return PosteriorSample(
        rows=rows, index=inverse[np.concatenate(
            [s.index + off for s, off in zip(samples, offsets)])],
        active=first.active, r=first.r,
        kept_iterations=np.concatenate([s.kept_iterations for s in samples]),
        m_trace=np.concatenate([s.m_trace for s in samples]) if has_trace else None,
        u_trace=np.concatenate([s.u_trace for s in samples]) if has_trace else None,
        fields=samples[0].fields, n_levels=samples[0].n_levels,
        runtime_s=sum(s.runtime_s for s in samples),
        single_site_passes=sum(s.single_site_passes for s in samples),
        tbeta_rejections=sum(s.tbeta_rejections for s in samples))


# --- serialization ----------------------------------------------------------

# Bytes of rendered labelings lines that save_labelings keeps for later
# write blocks: about 270 lines of the grid_r1000 labelings.
_KEPT_LINE_BYTES = 1 << 20


def save_labelings(path, sample) -> None:
    """One retained labeling per line, in draw order: space-separated
    canonical cell ids of all records.

    Draws go in write blocks of bounded size. The distinct rows a block
    needs that no earlier block kept are expanded and rendered together;
    a rendered line is kept for later blocks while the row is drawn again
    after the block and the kept lines fit in _KEPT_LINE_BYTES, and is
    dropped after its row's last draw. So each distinct row is rendered
    once per run unless the kept lines overflow, and a row drawn in one
    block only is never kept.
    """
    rows, index, active, r = _distinct_store(sample)
    last = dict(zip(index.tolist(), range(len(index))))  # each row's last draw
    kept: dict = {}  # row -> its rendered line, without the line end
    kept_bytes = 0
    with open_output(path, binary=True) as fh:
        for draws in row_blocks(len(index), r):
            block = index[draws].tolist()
            new = [k for k in dict.fromkeys(block) if k not in kept]
            lines = dict(zip(new, render_rows(expand_label_rows(
                rows[new], active, r), sep=" ").split(b"\n"))) if new else {}
            for k in [k for k in kept if last[k] < draws.stop]:
                kept_bytes -= len(kept[k])
                lines[k] = kept.pop(k)
            for k in new:
                if last[k] >= draws.stop and kept_bytes + len(lines[k]) <= _KEPT_LINE_BYTES:
                    kept[k] = lines[k]
                    kept_bytes += len(lines[k])
            fh.write(b"\n".join([lines[k] if k in lines else kept[k]
                                 for k in block]) + b"\n")


# Bytes per block in load_distinct_labelings, both of the file read and
# split into lines and of distinct lines parsed. A parsed block's scratch
# is about 20 times its size and is freed after each block; at 1 MB blocks
# that churn cost evaluate 0.1 s in page faults on the grid_r1000
# labelings (5.4 million labels) and 20 MB of peak RSS. Reading the whole
# file at once held it all, 21 MB there.
_PARSE_BYTES = 1 << 17
_MAX_LABEL = 2**31 - 1  # labels load as int32


def load_distinct_labelings(path) -> tuple[np.ndarray, np.ndarray]:
    """(rows, index): the distinct labelings of a labelings file, one
    labeling per line, and the row in rows of each labeling line.

    Labels are non-negative decimal integers in ASCII digits, at most
    2**31 - 1, separated by spaces or tabs. Lines end in \\n, \\r\\n or
    \\r, as bytes.splitlines splits them, so lines that differ only in
    their terminator are the same line; blank lines are skipped. Any
    other character, a label out of range, rows of different lengths and
    a file without labels raise DataError naming the file and line.

    Each distinct non-blank line is parsed once, in order of first
    occurrence, into one int32 row. An error names the first file line
    of the first offending distinct line, which is the first offending
    line of the file: first occurrences come in file order.
    """
    seen: dict = {}  # line -> its id, in order of first occurrence

    def key(lines):
        return [seen.setdefault(line, len(seen)) for line in lines]

    ids, carry = [], b""
    with open_text(path) as fh:
        # bytes, which the parser checks one by one, read a piece at a
        # time: the lines complete in a piece are keyed, and the rest goes
        # on with the next piece. A \r at a piece's end goes on too, as it
        # may begin a \r\n.
        for piece in iter(lambda: fh.buffer.read(_PARSE_BYTES), b""):
            data = carry + piece
            limit = len(data) - data.endswith(b"\r")
            cut = max(data.rfind(b"\n", 0, limit),
                      data.rfind(b"\r", 0, limit)) + 1
            ids += key(data[:cut].splitlines())
            carry = data[cut:]
    ids = np.array(ids + key(carry.splitlines()), dtype=np.int64)
    distinct = list(seen)
    line_of = np.unique(ids, return_index=True)[1] + 1  # first file line
    labeled = np.array([bool(line.strip(b" \t")) for line in distinct],
                       dtype=bool)
    todo = np.flatnonzero(labeled)
    if not len(todo):
        raise DataError(f"{path}: no labelings found")
    rows, lo = None, 0
    while lo < len(todo):
        hi, size = lo, 0
        while hi < len(todo) and size < _PARSE_BYTES:
            size += len(distinct[todo[hi]]) + 1
            hi += 1
        block = _parse_labeling_block(
            path, b"\n".join([distinct[k] for k in todo[lo:hi]]) + b"\n",
            line_of[todo[lo:hi]], None if rows is None else rows.shape[1])
        if rows is None:
            rows = np.empty((len(todo), block.shape[1]), dtype=np.int32)
        rows[lo:hi] = block
        lo = hi
    row_of = np.cumsum(labeled) - 1  # the row of each labeled distinct line
    return rows, row_of[ids[labeled[ids]]]


def load_labelings(path) -> np.ndarray:
    """The label matrix of a labelings file, one row per labeling line
    (see load_distinct_labelings). No subcommand calls it; the
    benchmark's output checks do, until the benchmark change of ROADMAP
    item 2 reads the distinct rows instead."""
    rows, index = load_distinct_labelings(path)
    return rows[index]


def _parse_labeling_block(path, data: bytes, line_of: np.ndarray,
                          width: int | None) -> np.ndarray:
    """The labels of the lines of data, each ending in \\n and none of
    them blank, one int32 row per line; line k is file line line_of[k].
    Rows must be width labels long, or as long as the first when width
    is None."""
    b = np.frombuffer(data, dtype=np.uint8)
    newline = b == ord("\n")
    digits = b - ord("0")
    digit = digits < 10
    breaks = np.flatnonzero(newline)
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    values = np.empty(len(starts), dtype=np.int64)
    for size in np.flatnonzero(np.bincount(lengths)):
        which = np.flatnonzero(lengths == size)
        at = starts[which]
        if size > 10:  # may not fit int64; leading zeros are allowed
            values[which] = [min(int(data[a:a + size]), _MAX_LABEL + 1)
                             for a in at]
            continue
        v = digits[at].astype(np.int64)
        for k in range(1, size):
            v = v * 10 + digits[at + k]
        values[which] = v

    counts = np.diff(np.searchsorted(starts, breaks), prepend=0)
    expect = counts[0] if width is None else width
    # the first offending line, in the order a line-by-line reader meets them
    stray = ~(digit | newline | (b == ord(" ")) | (b == ord("\t")))
    errors = []
    if stray.any():
        errors.append((np.searchsorted(breaks, np.argmax(stray)), 0,
                       "unparseable label"))
    if (values > _MAX_LABEL).any():
        errors.append((np.searchsorted(breaks, starts[np.argmax(
            values > _MAX_LABEL)]), 0, "label out of range"))
    ragged = counts != expect
    if ragged.any():
        errors.append((np.argmax(ragged), 1, "ragged labeling row"))
    if errors:
        line, _, message = min(errors)
        raise DataError(f"{path}:{line_of[line]}: {message}")
    return values.astype(np.int32).reshape(len(counts), -1)


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
    with open_output(path) as fh:
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
    with open_text(path) as fh:
        for lineno, row in read_table(fh, path, ["record_id", "entity_id"]):
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
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
