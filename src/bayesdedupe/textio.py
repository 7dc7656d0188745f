"""Block-wise text rendering of integer matrices.

The comparison, edge, labeling, truth and nontransitive-count files are
integer matrices written as delimited text. write_int_rows renders them with numpy, a bounded block
of rows at a time, into the same bytes as joining str(int(v)) with the
separator, one row per line.
"""

from __future__ import annotations

import numpy as np

# Cells rendered per block: about 4 MB of scratch arrays at any row width.
_BLOCK_CELLS = 1 << 16

_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # widths 2..20 start here


def _render(block: np.ndarray, sep: int, na: bool) -> bytes:
    """One block of rows as text; negative values are NA when na is set."""
    v = block.ravel()
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
    buf[ends - 1] = sep
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


def write_int_rows(path, columns, *, sep: str = ",", na: bool = False,
                   header: str | None = None) -> None:
    """Write integer matrices side by side as delimited text.

    columns is a sequence of 1-d (one column) or 2-d arrays with one row
    per output line. Each value is written as str(int(v)); with na set,
    negative values are written as NA. sep is a single ASCII character.
    The header, when given, is written first as its own line.
    """
    parts = [np.asarray(c) for c in columns]
    parts = [c.reshape(-1, 1) if c.ndim == 1 else c for c in parts]
    n = len(parts[0])
    width = sum(c.shape[1] for c in parts)
    step = max(1, _BLOCK_CELLS // max(width, 1))
    sep_byte = ord(sep)
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode("utf-8") + b"\n")
        if width == 0:
            fh.write(b"\n" * n)
            return
        for lo in range(0, n, step):
            block = np.hstack([c[lo:lo + step].astype(np.int64) for c in parts])
            fh.write(_render(block, sep_byte, na))
