"""Output files, text rendering of integer matrices, and _BLOCK_CELLS,
the block size of every bounded pass over label rows, pairs and text.

open_output opens every output file of the package; a file that cannot
be opened for writing raises DataError naming it.

The comparison, edge, labeling, truth and nontransitive-count files are
integer matrices written as delimited text. render_rows renders a block
of rows with numpy into the same bytes as joining str(int(v)) with the
separator, one row per line; write_int_rows writes whole matrices one
row block at a time.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DataError

# Cells per block of every bounded pass: about 4 MB of scratch arrays at
# any row width when rendering text, about 2.5 MB when canonicalizing
# label rows (2**18 cells there raised the peak RSS of dedupe on a
# 500-record file by 10 MB).
_BLOCK_CELLS = 1 << 16

_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # widths 2..20 start here


@contextmanager
def open_output(path, binary: bool = False):
    """An output file to write inside a with block: UTF-8 text with \\n
    line ends, or bytes; a failure to open it raises DataError naming
    it."""
    try:
        fh = (open(path, "wb") if binary
              else open(path, "w", encoding="utf-8", newline=""))
    except OSError as e:
        raise DataError(f"{path}: cannot write ({e.strerror})") from None
    with fh:
        yield fh


def render_rows(block: np.ndarray, *, sep: str = ",",
                na: bool = False) -> bytes:
    """A 2-d integer block as text, each row a line ending in \\n.

    Each value is written as str(int(v)); with na set, negative values
    are written as NA. sep is a single ASCII character other than \\n.
    """
    if block.shape[1] == 0:
        return b"\n" * len(block)
    v = block.astype(np.int64, copy=False).ravel()
    neg = v < 0
    missing = neg if na else np.zeros_like(neg)
    signed = neg & ~missing
    # magnitudes in uint64, so that the most negative int64 has one too
    mag = np.where(neg, -(v + 1), v).astype(np.uint64) + neg
    digits = np.where(missing, 0, 1 + np.searchsorted(_POW10, mag, side="right"))
    width = np.where(missing, 2, digits + signed)
    ends = np.cumsum(width + 1)  # each cell is followed by sep or newline
    starts = ends - 1 - width
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    buf[ends - 1] = ord(sep)
    buf[ends.reshape(block.shape)[:, -1] - 1] = ord("\n")
    last = ends - 2  # each cell's final character
    for d in range(int(digits.max())):
        live = digits > d
        buf[last[live] - d] = ord("0") + mag[live] % 10
        mag = mag // 10
    buf[starts[signed]] = ord("-")
    buf[starts[missing]] = ord("N")
    buf[starts[missing] + 1] = ord("A")
    return buf.tobytes()


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """Slices over n_rows rows of width cells each, about _BLOCK_CELLS
    cells and at least one row per slice."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def bounded_runs(counts: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Consecutive index ranges [lo, hi) covering counts, each with a
    total count of at most limit unless one item alone exceeds it."""
    ends = np.cumsum(counts)
    runs, lo = [], 0
    while lo < len(ends):
        before = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, before + limit, side="right"))
        runs.append((lo, max(hi, lo + 1)))
        lo = runs[-1][1]
    return runs


def write_int_rows(path, columns, *, na: bool = False,
                   header: str | None = None) -> None:
    """Write integer matrices side by side as comma-separated text (see
    render_rows), one row block at a time. The header, when given, is
    written first as its own line.

    columns is a sequence of 1-d (one column) or 2-d arrays with one row
    per output line.
    """
    parts = [np.asarray(c) for c in columns]
    parts = [c.reshape(-1, 1) if c.ndim == 1 else c for c in parts]
    with open_output(path, binary=True) as fh:
        if header is not None:
            fh.write(header.encode("utf-8") + b"\n")
        for rows in row_blocks(len(parts[0]), sum(c.shape[1] for c in parts)):
            fh.write(render_rows(np.hstack([c[rows].astype(np.int64)
                                            for c in parts]), na=na))
