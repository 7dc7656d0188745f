"""Partitions of record sets and their labeling representation.

A coreference structure over records 0..r-1 is a set partition. The
sampler works with labelings: arrays z of length r with labels drawn
from an arbitrary alphabet, where z[i] == z[j] means records i and j
refer to the same entity. A partition with n cells corresponds to
r!/(r-n)! distinct labelings over a label alphabet of size r, which is
why the flat prior over partitions appears as (r-n)!/r! per labeling.
"""

from __future__ import annotations

from array import array

import numpy as np


def labeling_to_partition(z) -> tuple[tuple[int, ...], ...]:
    """Cells as sorted tuples, ordered by their smallest member."""
    cells: dict = {}
    for i, lab in enumerate(z):
        cells.setdefault(lab, []).append(i)
    return tuple(tuple(c) for c in sorted(cells.values(), key=lambda c: c[0]))


def format_partition(z) -> str:
    """Render a labeling's partition as e.g. '0,1,2/3,4'."""
    return "/".join(",".join(str(i) for i in cell)
                    for cell in labeling_to_partition(z))


# Label-matrix cells handled per block by canonicalize_label_rows (and
# output cells by expand_label_rows). A block takes about 40 bytes of
# scratch per cell; at 2**18 cells that scratch raised the peak RSS of
# dedupe on a 500-record file by 10 MB.
_CANON_CELLS = 1 << 16


def canonicalize_label_rows(rows: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Every row of a label matrix relabeled by order of first occurrence,
    so equivalent labelings map to the same row; cell ids are 0..n-1.

    One stable sort per row puts each label's first position at the head
    of its run; a record's cell is then the number of first positions
    before its label's first position. Rows go through in blocks of
    bounded size; labels may be any integers. The result goes to out
    (a new int32 matrix by default), which may be rows itself: each
    block is written only after it has been read.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d label matrix")
    n, r = rows.shape
    if out is None:
        out = np.empty((n, r), dtype=np.int32)
    cols = np.arange(r)
    step = max(1, _CANON_CELLS // max(r, 1))
    for lo in range(0, n, step):
        block = rows[lo:lo + step]
        order = np.argsort(block, axis=1, kind="stable")
        ordered = np.take_along_axis(block, order, axis=1)
        run_head = np.ones(block.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_head[:, 1:])
        head = np.maximum.accumulate(np.where(run_head, cols, 0), axis=1)
        # first[k, p]: where row k's label at p first occurs
        first = np.empty_like(order)
        np.put_along_axis(first, order,
                          np.take_along_axis(order, head, axis=1), axis=1)
        cell = np.cumsum(first == cols, axis=1, dtype=np.int32) - 1
        out[lo:lo + step] = np.take_along_axis(cell, first, axis=1)
    return out


def label_dtype(n_labels: int) -> np.dtype:
    """The smallest unsigned integer type that holds labels 0..n_labels-1."""
    return np.min_scalar_type(max(n_labels - 1, 0))


def expand_label_rows(labels: np.ndarray, active: np.ndarray,
                      r: int) -> np.ndarray:
    """Canonical labelings of records 0..r-1 from canonical rows over the
    active records (sorted record ids); every other record is a singleton.

    A cell of active records keeps its label plus the number of inactive
    records before its first member. An inactive record's label is the
    number of inactive records before it plus the number of active cells
    begun before it, which is one more than the largest label among the
    active records below it. Rows go through in blocks of bounded size
    into a new int32 matrix. With every record active the rows are
    returned as they are.
    """
    labels = np.asarray(labels)
    n, a = labels.shape
    if a == r:
        return labels
    out = np.empty((n, r), dtype=np.int32)
    inactive = np.ones(r, dtype=bool)
    inactive[active] = False
    inactive = np.flatnonzero(inactive)
    below = np.searchsorted(active, inactive)  # active records before each
    gap = active - np.arange(a)                # inactive records before each
    step = max(1, _CANON_CELLS // max(r, 1))
    for lo in range(0, n, step):
        block = labels[lo:lo + step]
        # begun[:, p]: cells begun among the first p active records
        begun = np.zeros((len(block), a + 1), dtype=np.int64)
        np.maximum.accumulate(block, axis=1, out=begun[:, 1:])
        begun[:, 1:] += 1
        out[lo:lo + step, inactive] = inactive - below + begun[:, below]
        # a cell's first member is where its label equals the cells begun
        # before it; first members come out row by row in cell order, so
        # cell c of row k is entry cells_before[k] + c
        first = np.nonzero(block == begun[:, :-1])[1]
        cells_before = np.cumsum(begun[:, -1]) - begun[:, -1]
        shift = gap[first][block + cells_before[:, None]]
        out[lo:lo + step, active] = block + shift
    return out


def valid_partitions(lower, cap: float) -> np.ndarray | None:
    """Every partition of vertices 0..n-1 whose cells are cliques, as one
    row per partition giving each vertex its cell's head (the cell's
    smallest vertex); None as soon as more than cap partitions exist.

    lower[k] lists the neighbours of vertex k below k. Vertices are
    placed in ascending order, each into a cell whose members are all
    its neighbours (one bitmask test per cell) or into a new cell, in
    ascending head order with the new cell last; so rows come out in
    lexicographic order of their cells, and all singletons come last.
    The last vertex's options are emitted as rows without a descent,
    into one flat buffer.
    """
    n = len(lower)
    if n < 2:
        return np.arange(n).reshape(1, n) if cap >= 1 else None
    nbr_mask = [sum(1 << j for j in nbrs) for nbrs in lower]
    head = [0] * n
    cell = [0] * n       # member bitmask of the cell headed by each vertex
    options = [[0]] + [[]] * (n - 1)
    tried = [0] * n      # options of each vertex tried so far
    out = array("q")
    limit = cap * n
    k = 0
    while k >= 0:
        if tried[k]:
            cell[head[k]] ^= 1 << k
        if tried[k] == len(options[k]):
            k -= 1
            continue
        h = options[k][tried[k]]
        tried[k] += 1
        head[k] = h
        cell[h] |= 1 << k
        mask = nbr_mask[k + 1]
        nxt = sorted({head[j] for j in lower[k + 1]
                      if not cell[head[j]] & ~mask}) + [k + 1]
        if k + 2 < n:
            k += 1
            options[k] = nxt
            tried[k] = 0
            continue
        for last in nxt:
            head[-1] = last
            out.extend(head)
        if len(out) > limit:
            return None
    return np.frombuffer(out, dtype=np.int64).reshape(-1, n)
