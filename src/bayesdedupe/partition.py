"""Partitions of record sets and their labeling representation.

A coreference structure over records 0..r-1 is a set partition. The
sampler works with labelings: arrays z of length r with labels drawn
from an arbitrary alphabet, where z[i] == z[j] means records i and j
refer to the same entity. A partition with n cells corresponds to
r!/(r-n)! distinct labelings over a label alphabet of size r, which is
why the flat prior over partitions appears as (r-n)!/r! per labeling.
"""

from __future__ import annotations

from math import factorial

import numpy as np


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


def labeling_to_partition(z) -> tuple[tuple[int, ...], ...]:
    """Cells as sorted tuples, ordered by their smallest member."""
    cells: dict = {}
    for i, lab in enumerate(z):
        cells.setdefault(lab, []).append(i)
    return tuple(tuple(c) for c in sorted(cells.values(), key=lambda c: c[0]))


def partition_to_labeling(cells) -> list[int]:
    """Inverse of labeling_to_partition, producing canonical labels."""
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


def n_cells(z) -> int:
    return len(set(z))


def coreferent(z, i: int, j: int) -> bool:
    return z[i] == z[j]


def format_partition(z) -> str:
    """Render a labeling's partition as e.g. '0,1,2/3,4'."""
    return "/".join(",".join(str(i) for i in cell)
                    for cell in labeling_to_partition(z))


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


# Label-matrix cells handled per block by canonicalize_label_rows. A block
# takes about 40 bytes of scratch per cell; at 2**18 cells that scratch
# raised the peak RSS of dedupe on a 500-record file by 10 MB.
_CANON_CELLS = 1 << 16


def canonicalize_label_rows(rows: np.ndarray) -> np.ndarray:
    """canonical_labels applied to every row of a label matrix.

    One stable sort per row puts each label's first position at the head
    of its run; a record's cell is then the number of first positions
    before its label's first position. Rows go through in blocks of
    bounded size; labels may be any integers.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d label matrix")
    n, r = rows.shape
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


_ENUMERATION_LIMIT = 10


def enumerate_valid_partitions(r: int, candidate_pairs) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of 0..r-1 in which every within-cell pair is a
    candidate pair. Guarded to r <= 10; meant for exact checks on small
    problems, not production use.
    """
    if r > _ENUMERATION_LIMIT:
        raise ValueError(f"exact enumeration is limited to r <= {_ENUMERATION_LIMIT}")
    cand = set(candidate_pairs)
    out: list[tuple[tuple[int, ...], ...]] = []
    cells: list[list[int]] = []

    def place(k: int) -> None:
        if k == r:
            out.append(tuple(tuple(c) for c in cells))
            return
        for cell in cells:
            if all((m, k) in cand for m in cell):
                cell.append(k)
                place(k + 1)
                cell.pop()
        cells.append([k])
        place(k + 1)
        cells.pop()

    place(0)
    return out
