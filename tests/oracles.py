"""Per-row reference versions of the output and summary layer.

These are the plain-Python bodies that the block-wise numpy code in
bayesdedupe replaced. Tests require the production code to produce the
same bytes and the same numbers as these.
"""

import numpy as np

from bayesdedupe.errors import DataError


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


def load_labelings(path) -> np.ndarray:
    """load_labelings, one line at a time through int(); it accepts any
    token int() does, which the production parser narrows."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable label") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(f"{path}:{lineno}: ragged labeling row")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no labelings found")
    return np.array(rows, dtype=np.int32)


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


def partition_frequency_table(labelings) -> list:
    """partition_frequency_table through np.unique over whole rows."""
    if len(labelings) == 0:
        return []
    uniq, counts = np.unique(labelings, axis=0, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    total = counts.sum()
    return [(tuple(int(v) for v in uniq[k]), int(counts[k]),
             counts[k] / total) for k in order]
