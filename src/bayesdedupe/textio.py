"""Output files, and block-wise text rendering of integer matrices.

open_output opens every output file of the package; a file that cannot
be opened for writing raises DataError naming it.

The comparison, edge, labeling, truth and nontransitive-count files are
integer matrices written as delimited text. render_rows renders a block
of rows with numpy into the same bytes as joining str(int(v)) with the
separator, one row per line; write_int_rows writes whole matrices a
bounded block of rows at a time.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DataError

# Cells rendered per block: about 4 MB of scratch arrays at any row width.
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


def block_rows(width: int) -> int:
    """Rows per rendered block at the given row width."""
    return max(1, _BLOCK_CELLS // max(width, 1))


def write_int_rows(path, columns, *, sep: str = ",", na: bool = False,
                   header: str | None = None) -> None:
    """Write integer matrices side by side as delimited text (see
    render_rows), a bounded block of rows at a time. The header, when
    given, is written first as its own line.

    columns is a sequence of 1-d (one column) or 2-d arrays with one row
    per output line.
    """
    parts = [np.asarray(c) for c in columns]
    parts = [c.reshape(-1, 1) if c.ndim == 1 else c for c in parts]
    step = block_rows(sum(c.shape[1] for c in parts))
    with open_output(path, binary=True) as fh:
        if header is not None:
            fh.write(header.encode("utf-8") + b"\n")
        for lo in range(0, len(parts[0]), step):
            fh.write(render_rows(np.hstack([c[lo:lo + step].astype(np.int64)
                                            for c in parts]), sep=sep, na=na))
