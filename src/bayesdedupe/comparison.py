"""Per-field comparators and their discretization into ordinal levels.

Each compared field yields a disagreement level 0..L_f, where 0 is the
strongest agreement and L_f the strongest disagreement; a pair with a
missing value on either side yields no level for that field. Similarity
values bin into levels through cut points: level 0 is similarity exactly
0 (or the first cut), and each further level is the left-open,
right-closed interval up to the next cut, so a value sitting exactly on
a cut falls on the lower-disagreement side.

compare_pairs factorizes each compared column once into integer codes,
computes one similarity per distinct unordered value pair (string
distances through a vectorized dynamic program, the other kinds through
their scalar functions), bins those with one searchsorted and gathers
the levels back to the record pairs. This is the only comparison path.

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
from .textio import write_int_rows

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


def _normalized_distances(strings: list[str], x: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
    """Edit distance of strings[x[k]] and strings[y[k]], scaled by the
    longer length, for every k.

    The strings become one code-point matrix. Pairs are put shorter
    string first and grouped by their length signature; each group runs
    the DP one row at a time, vectorized across the group.
    """
    if not len(x):
        return np.zeros(0)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    flat = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)
    width = lengths.max(initial=0)
    rows = np.repeat(np.arange(len(strings)), lengths)
    offsets = np.cumsum(lengths) - lengths
    points = np.zeros((len(strings), width), dtype=np.uint32)
    points[rows, np.arange(len(flat)) - offsets[rows]] = flat
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


def _token_similarities(values: list[str], a: np.ndarray,
                        b: np.ndarray) -> np.ndarray:
    """Token-tolerant distance of values[a[k]] and values[b[k]] for every k.

    Each value pair becomes rows of token pairs, scored as the mean over
    rows of the row's minimum distance; every distinct token pair goes
    through the DP once.
    """
    index = {v: k for k, v in enumerate(values)}
    tokens = [[index.setdefault(t, len(index)) for t in v.split()] for v in values]
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
    strings = list(index)
    lo, hi, inverse = _distinct_pairs(np.array(x, dtype=np.int64),
                                      np.array(y, dtype=np.int64), len(strings))
    dist = iter(_normalized_distances(strings, lo, hi)[inverse].tolist())
    return np.array([sum(min(islice(dist, n)) for n in plan) / len(plan)
                     for plan in plans], dtype=np.float64)


def _similarities(kind: str, values: list, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Similarity of each distinct value pair (values[a[k]], values[b[k]])."""
    if kind == "levenshtein":
        return _normalized_distances(values, a, b)
    if kind == "token_levenshtein":
        return _token_similarities(values, a, b)
    func = (absolute_difference if kind == "absolute_difference"
            else binary_disagreement)
    # object dtype keeps Python ints, and their comparison with the cut
    # points, exact beyond int64 and float64
    return np.array([func(values[i], values[j])
                     for i, j in zip(a.tolist(), b.tolist())], dtype=object)


def _compare_columns(factors: list, pairs: np.ndarray,
                     specs: list[LevelSpec]) -> np.ndarray:
    """Level matrix for the given pairs; factors holds each spec's
    field as (distinct values, codes)."""
    levels = np.full((len(pairs), len(specs)), MISSING_LEVEL, dtype=np.int8)
    for s, (spec, (values, codes)) in enumerate(zip(specs, factors)):
        ci, cj = codes[pairs[:, 0]], codes[pairs[:, 1]]
        observed = (ci >= 0) & (cj >= 0)
        a, b, inverse = _distinct_pairs(ci[observed], cj[observed], len(values))
        sims = _similarities(spec.kind, values, a, b)
        if len(sims) and sims.min() < 0:
            raise ConfigError(f"{spec.field!r}: negative similarity in batch")
        lv = np.searchsorted(np.asarray(spec.cut_points, dtype=sims.dtype),
                             sims, side="left")
        if lv.max(initial=0) >= spec.n_levels:
            raise ConfigError(
                f"{spec.field!r}: similarity exceeds the last cut point")
        levels[observed, s] = lv.astype(np.int8)[inverse]
    return levels


def compare_pairs(df: DataFile, pairs: np.ndarray, specs: list[LevelSpec],
                  n_workers: int = 1) -> PairComparisons:
    """Compare every listed pair on every spec'd field, in this process.

    n_workers is ignored; it remains only for callers that still pass it.
    """
    pairs = np.ascontiguousarray(np.asarray(pairs, dtype=np.int32).reshape(-1, 2))
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= df.r):
        raise DataError("pair indices out of range for this file")
    factors = [_factorize(df.column(s.field)) for s in specs]
    return PairComparisons(
        r=df.r, fields=tuple(s.field for s in specs),
        n_levels=tuple(s.n_levels for s in specs), pairs=pairs,
        levels=_compare_columns(factors, pairs, specs))
