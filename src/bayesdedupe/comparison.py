"""Per-field comparators and their discretization into ordinal levels.

Each compared field yields a disagreement level 0..L_f, where 0 is the
strongest agreement and L_f the strongest disagreement; a pair with a
missing value on either side yields no level for that field. Similarity
values bin into levels through cut points: level 0 is similarity exactly
0 (or the first cut), and each further level is the left-open,
right-closed interval up to the next cut, so a value sitting exactly on
a cut falls on the lower-disagreement side.

compare_pairs factorizes each compared column once into integer codes
and makes two passes over the pairs, in blocks of textio._BLOCK_CELLS
pairs. The first collects the distinct unordered value pairs; each is
then compared once (string distances through a vectorized dynamic
program, the other kinds through their scalar functions) and binned
with one searchsorted, in chunks of _SIM_CHUNK; the second gathers the
levels back to the record pairs. No temporary is longer than a block
or a chunk, apart from a table of one byte per pair of distinct values,
which is kept no larger than the pairs array: a filtered pair list on a
field with many values is compared in one pass over the whole list
instead.

The string similarities are edit distances scaled by the longer length,
in [0, 1]. token_levenshtein tolerates differing token counts: equal
counts compare position by position and average; otherwise each token
of the shorter name takes its best-fitting token of the longer name,
and those minima average, so an exact token match yields 0. The one-pair
scalar versions of these comparators and of the binning live in
tests/oracles.py, which holds compare_pairs to them pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError
from .records import DataFile
from .textio import bounded_runs, row_blocks, write_int_rows

COMPARATOR_KINDS = ("levenshtein", "token_levenshtein", "absolute_difference", "binary")

MISSING_LEVEL = -1  # sentinel in packed level arrays
MAX_LEVELS = 127  # levels are packed as int8


def absolute_difference(x: int, y: int) -> int:
    return abs(x - y)


def binary_disagreement(x, y) -> int:
    return 0 if x == y else 1


@dataclass(frozen=True)
class LevelSpec:
    """How one field is compared and discretized.

    cut_points are ascending upper bounds of the disagreement intervals;
    the first must be 0 (exact agreement is its own level). A field with
    cut_points of length L+1 yields levels 0..L.
    """

    field: str
    kind: str
    cut_points: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ConfigError(f"unknown comparator kind {self.kind!r} for {self.field!r}")
        cuts = tuple(float(c) for c in self.cut_points)
        object.__setattr__(self, "cut_points", cuts)
        if len(cuts) < 2:
            raise ConfigError(f"{self.field!r}: need at least two cut points")
        if cuts[0] != 0.0:
            raise ConfigError(f"{self.field!r}: first cut point must be 0")
        if any(p >= q for p, q in zip(cuts, cuts[1:])):
            raise ConfigError(f"{self.field!r}: cut points must be strictly ascending")
        if len(cuts) > MAX_LEVELS:
            raise ConfigError(
                f"{self.field!r}: {len(cuts)} levels, at most {MAX_LEVELS} fit "
                f"the packed level arrays")

    @property
    def n_levels(self) -> int:
        return len(self.cut_points)


def binary_spec(field: str) -> LevelSpec:
    return LevelSpec(field, "binary", (0.0, 1.0))


class PairComparisons:
    """Packed comparison levels for a list of record pairs.

    levels is an int8 matrix (n_pairs, n_fields) holding the ordinal
    level per field, with -1 where the value was missing on either side.
    Row order matches the pairs array and is the authoritative pair
    ordering for everything downstream.
    """

    def __init__(self, r: int, fields: tuple[str, ...], n_levels: tuple[int, ...],
                 pairs: np.ndarray, levels: np.ndarray):
        self.r = int(r)
        self.fields = tuple(fields)
        self.n_levels = tuple(int(n) for n in n_levels)
        self.pairs = np.ascontiguousarray(pairs, dtype=np.int32)
        self.levels = np.ascontiguousarray(levels, dtype=np.int8)
        if self.pairs.shape != (len(self.levels), 2):
            raise ValueError("pairs and levels are misaligned")
        if self.levels.shape[1] != len(self.fields):
            raise ValueError("field names and level columns are misaligned")

    def __len__(self) -> int:
        return len(self.pairs)

    def write_csv(self, path) -> None:
        """Export as a delimited matrix: i, j, then one level column per
        field with NA for missing."""
        write_int_rows(path, (self.pairs, self.levels), na=True,
                       header="i,j," + ",".join(self.fields))


# --- batched comparison -----------------------------------------------------

# Distinct value pairs per similarity run.
_SIM_CHUNK = 1 << 14
# Pairs per vectorized edit-distance run: small enough that the DP rows
# of a run stay in cache, which bounds its memory too.
_DP_BLOCK = 1 << 13


def _factorize(column: list) -> tuple[list, np.ndarray]:
    """The column's distinct values in first-appearance order, and each
    entry's code into them (-1 where missing)."""
    index: dict = {}
    codes = np.fromiter(
        (-1 if v is None else index.setdefault(v, len(index)) for v in column),
        dtype=np.int64, count=len(column))
    return list(index), codes


def _distinct_pairs(x: np.ndarray, y: np.ndarray, n: int):
    """Distinct unordered pairs of codes in range(n).

    Returns (lo, hi, inverse): pair k of the input is (lo, hi)[inverse[k]]
    up to order.
    """
    keys = np.minimum(x, y) * n + np.maximum(x, y)
    uniq, inverse = np.unique(keys, return_inverse=True)
    lo, hi = np.divmod(uniq, n)
    return lo, hi, inverse


def _code_points(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The strings as one zero-padded code-point matrix, and their lengths."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    flat = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)
    rows = np.repeat(np.arange(len(strings)), lengths)
    offsets = np.cumsum(lengths) - lengths
    points = np.zeros((len(strings), lengths.max(initial=0)), dtype=np.uint32)
    points[rows, np.arange(len(flat)) - offsets[rows]] = flat
    return points, lengths


def _normalized_distances(points: np.ndarray, lengths: np.ndarray,
                          x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Edit distance of strings x[k] and y[k], scaled by the longer
    length, for every k; the strings are rows of _code_points.

    Pairs are put shorter string first and grouped by their length
    signature; each group runs the DP one row at a time, vectorized
    across the group.
    """
    if not len(x):
        return np.zeros(0)
    width = points.shape[1]
    shorter_first = lengths[x] <= lengths[y]
    x, y = np.where(shorter_first, x, y), np.where(shorter_first, y, x)
    la, lb = lengths[x], lengths[y]
    dist = lb.copy()  # the distance whenever the shorter string is empty
    signature = la * (width + 1) + lb
    order = np.argsort(signature, kind="stable")
    starts = np.flatnonzero(np.diff(signature[order], prepend=-1))
    for group in np.split(order, starts[1:]):
        m, n = int(la[group[0]]), int(lb[group[0]])
        if m == 0:
            continue
        col = np.arange(n + 1, dtype=np.int32)[:, None]
        for s in range(0, len(group), _DP_BLOCK):
            idx = group[s:s + _DP_BLOCK]
            a = points[x[idx], :m].T
            b = points[y[idx], :n].T
            prev = np.repeat(col, len(idx), axis=1)
            cur = np.empty_like(prev)
            for i in range(m):
                # row i+1 of the DP table: substitution and deletion from
                # the row above, then insertion along the row
                cur[0] = i + 1
                np.minimum(prev[:-1] + (a[i] != b), prev[1:] + 1, out=cur[1:])
                for j in range(1, n + 1):
                    np.minimum(cur[j], cur[j - 1] + 1, out=cur[j])
                prev, cur = cur, prev
            dist[idx] = prev[n]
    return dist / np.maximum(lb, 1)


def _token_similarity(values: list[str]):
    """Token-tolerant distance of values[a[k]] and values[b[k]] for every
    k, as a function of (a, b).

    Each value pair becomes rows of token pairs, scored as the mean over
    rows of the row's minimum distance; every distinct token pair of one
    call goes through the DP once.
    """
    index = {v: k for k, v in enumerate(values)}
    tokens = [[index.setdefault(t, len(index)) for t in v.split()] for v in values]
    points, lengths = _code_points(list(index))

    def similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        plans, x, y = [], [], []
        for i, j in zip(a.tolist(), b.tolist()):
            ti, tj = tokens[i], tokens[j]
            if not ti or not tj or len(ti) == len(tj) == 1:
                rows = [[(i, j)]]
            elif len(ti) == len(tj):
                rows = [[p] for p in zip(ti, tj)]
            else:
                short, long_ = (ti, tj) if len(ti) < len(tj) else (tj, ti)
                rows = [[(s, t) for t in long_] for s in short]
            plans.append([len(row) for row in rows])
            for row in rows:
                for s, t in row:
                    x.append(s)
                    y.append(t)
        lo, hi, inverse = _distinct_pairs(np.array(x, dtype=np.int64),
                                          np.array(y, dtype=np.int64),
                                          len(lengths))
        dist = iter(_normalized_distances(points, lengths, lo, hi)[inverse]
                    .tolist())
        return np.array([sum(min(islice(dist, n)) for n in plan) / len(plan)
                         for plan in plans], dtype=np.float64)

    return similarity


def _similarity(kind: str, values: list):
    """The similarity of value pairs (values[a[k]], values[b[k]]), as a
    function of the code arrays (a, b)."""
    if kind == "levenshtein":
        points, lengths = _code_points(values)
        return lambda a, b: _normalized_distances(points, lengths, a, b)
    if kind == "token_levenshtein":
        return _token_similarity(values)
    func = (absolute_difference if kind == "absolute_difference"
            else binary_disagreement)
    # object dtype keeps Python ints, and their comparison with the cut
    # points, exact beyond int64 and float64
    return lambda a, b: np.array([func(values[i], values[j])
                                  for i, j in zip(a.tolist(), b.tolist())],
                                 dtype=object)


def _field_codes(spec: LevelSpec, column: list) -> tuple[list, np.ndarray]:
    """The field's distinct values, and each record's code into them plus
    one (0 where missing). Strings compared by edit distance are ordered
    by length, so that a run of ascending keys spans few length
    signatures."""
    values, codes = _factorize(column)
    order = list(range(len(values)))
    if spec.kind == "levenshtein":
        order.sort(key=lambda k: len(values[k]))
    width = len(values) + 1
    shifted = np.zeros(width, dtype=np.int32 if width * width < 2**31
                       else np.int64)
    shifted[order] = np.arange(1, width)  # shifted[-1] is a missing code's
    return [values[k] for k in order], shifted[codes]


def _block_keys(codes: np.ndarray, width: int, block: np.ndarray) -> np.ndarray:
    """lo * width + hi for each pair's two codes lo <= hi; a key below
    width has a missing side."""
    ci, cj = codes[block[:, 0]], codes[block[:, 1]]
    key = np.minimum(ci, cj)
    key *= width
    key += np.maximum(ci, cj)
    return key


def _level_function(spec: LevelSpec, values: list, width: int):
    """A function from a sorted array of keys to their levels; keys
    below width have a missing side and get MISSING_LEVEL."""
    similarity = _similarity(spec.kind, values)

    def levels(keys: np.ndarray) -> np.ndarray:
        out = np.full(len(keys), MISSING_LEVEL, dtype=np.int8)
        s = int(np.searchsorted(keys, width))
        if s == len(keys):
            return out
        lo, hi = np.divmod(keys[s:], width)
        sims = similarity(lo - 1, hi - 1)
        if sims.min() < 0:
            raise ConfigError(f"{spec.field!r}: negative similarity in batch")
        lv = np.searchsorted(np.asarray(spec.cut_points, dtype=sims.dtype),
                             sims, side="left")
        if lv.max() >= spec.n_levels:
            raise ConfigError(
                f"{spec.field!r}: similarity exceeds the last cut point")
        out[s:] = lv
        return out

    return levels


def _compare_field(spec: LevelSpec, column: list, pairs: np.ndarray,
                   out: np.ndarray) -> None:
    """Write the field's level of every pair into out.

    Pass 1 marks the distinct value-pair keys block by block in a table
    of one byte per possible key. The keys' levels follow in ascending
    chunks of at most _SIM_CHUNK keys, each distinct value pair compared
    once, and the table holds them in place of its marks. Pass 2 looks
    every pair's level up by its key. A table larger than the pairs
    array, which only a filtered pair list on a field with many values
    can ask for, gives way to one np.unique over the whole list.
    """
    values, codes = _field_codes(spec, column)
    width = len(values) + 1
    levels = _level_function(spec, values, width)
    if width * width > pairs.nbytes:
        keys, inverse = np.unique(_block_keys(codes, width, pairs),
                                  return_inverse=True)
        out[:] = levels(keys)[inverse]
        return
    table = np.zeros(width * width, dtype=np.int8)
    blocks = row_blocks(len(pairs), 1)
    for blk in blocks:
        table[_block_keys(codes, width, pairs[blk])] = 1
    per_row = np.count_nonzero(table.reshape(width, width), axis=1)
    for lo, hi in bounded_runs(per_row, _SIM_CHUNK):
        keys = np.flatnonzero(table[lo * width:hi * width]) + lo * width
        table[keys] = levels(keys)
    for blk in blocks:
        out[blk] = table.take(_block_keys(codes, width, pairs[blk]))


def compare_pairs(df: DataFile, pairs: np.ndarray, specs: list[LevelSpec],
                  n_workers: int = 1) -> PairComparisons:
    """Compare every listed pair on every spec'd field, in this process.

    n_workers is ignored; it remains only for callers that still pass it.
    """
    pairs = np.ascontiguousarray(np.asarray(pairs, dtype=np.int32).reshape(-1, 2))
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= df.r):
        raise DataError("pair indices out of range for this file")
    levels = np.empty((len(pairs), len(specs)), dtype=np.int8)
    for f, spec in enumerate(specs):
        _compare_field(spec, df.column(spec.field), pairs, levels[:, f])
    return PairComparisons(
        r=df.r, fields=tuple(s.field for s in specs),
        n_levels=tuple(s.n_levels for s in specs), pairs=pairs, levels=levels)
