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
the levels back to the record pairs. The scalar functions and
compare_pair are the one-pair reference it is tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import ConfigError, DataError
from .records import DataFile, Record
from .textio import write_int_rows

COMPARATOR_KINDS = ("levenshtein", "token_levenshtein", "absolute_difference", "binary")

MISSING_LEVEL = -1  # sentinel in packed level arrays
MAX_LEVELS = 127  # levels are packed as int8


def levenshtein(a: str, b: str) -> int:
    """Edit distance: minimum insertions, deletions, substitutions."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for i in range(la):
        ca = a[i]
        cur = [i + 1]
        append = cur.append
        for j in range(lb):
            cost = prev[j] if ca == b[j] else prev[j] + 1
            d = prev[j + 1] + 1
            if d < cost:
                cost = d
            e = cur[j] + 1
            if e < cost:
                cost = e
            append(cost)
        prev = cur
    return prev[lb]


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance scaled by the longer length, in [0, 1]."""
    m = max(len(a), len(b))
    if m == 0:
        return 0.0
    return levenshtein(a, b) / m


def token_min_levenshtein(a: str, b: str) -> float:
    """Name comparison tolerant of differing token counts.

    Single-token names compare directly. When token counts are equal,
    tokens compare positionally and the normalized distances average.
    When they differ, every token of the shorter name is matched to its
    best-fitting token of the longer name (minimum normalized distance,
    each candidate pairing normalized by its own max token length), and
    those minima average; with one token against two this is exactly the
    min over the two tokens. An exact token match therefore yields 0.
    """
    ta, tb = a.split(), b.split()
    if not ta or not tb:
        return normalized_levenshtein(a, b)
    if len(ta) == len(tb):
        if len(ta) == 1:
            return normalized_levenshtein(a, b)
        return sum(normalized_levenshtein(x, y) for x, y in zip(ta, tb)) / len(ta)
    short, long_ = (ta, tb) if len(ta) < len(tb) else (tb, ta)
    return sum(min(normalized_levenshtein(s, t) for t in long_)
               for s in short) / len(short)


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

    @property
    def top_level(self) -> int:
        return len(self.cut_points) - 1


def binary_spec(field: str) -> LevelSpec:
    return LevelSpec(field, "binary", (0.0, 1.0))


def bin_level(similarity: float, spec: LevelSpec) -> int:
    """Discretize a similarity value: smallest l with s <= cut_points[l]."""
    if similarity < 0:
        raise ConfigError(
            f"{spec.field!r}: similarity {similarity} is negative")
    lv = bisect_left(spec.cut_points, similarity)
    if lv >= spec.n_levels:
        raise ConfigError(
            f"{spec.field!r}: similarity {similarity} exceeds the last cut point "
            f"{spec.cut_points[-1]}")
    return lv


_SIMILARITY_FUNCS = {
    "levenshtein": normalized_levenshtein,
    "token_levenshtein": token_min_levenshtein,
    "absolute_difference": absolute_difference,
    "binary": binary_disagreement,
}


def similarity(spec: LevelSpec, vi, vj) -> float:
    return _SIMILARITY_FUNCS[spec.kind](vi, vj)


@dataclass(frozen=True)
class ComparisonVector:
    """Levels for one record pair; None where a value was missing."""

    i: int
    j: int
    levels: tuple


def compare_pair(rec_i: Record, rec_j: Record, specs: list[LevelSpec],
                 df: DataFile) -> ComparisonVector:
    """Compare one record pair on all spec'd fields."""
    out = []
    for spec in specs:
        k = df.index_of(spec.field)
        vi, vj = rec_i.values[k], rec_j.values[k]
        if vi is None or vj is None:
            out.append(None)
        else:
            out.append(bin_level(similarity(spec, vi, vj), spec))
    return ComparisonVector(i=rec_i.id, j=rec_j.id, levels=tuple(out))


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

    def vector(self, k: int) -> ComparisonVector:
        row = self.levels[k]
        return ComparisonVector(
            i=int(self.pairs[k, 0]), j=int(self.pairs[k, 1]),
            levels=tuple(None if v < 0 else int(v) for v in row))

    def field_index(self, name: str) -> int:
        try:
            return self.fields.index(name)
        except ValueError:
            raise ConfigError(f"unknown compared field {name!r}") from None

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
    """normalized_levenshtein(strings[x[k]], strings[y[k]]) for every k.

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
    """token_min_levenshtein(values[a[k]], values[b[k]]) for every k.

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
    func = _SIMILARITY_FUNCS[kind]
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
    """Compare every listed pair on every spec'd field.

    With n_workers > 1 the pair list is chunked across worker processes;
    chunks are reassembled in order, so the output is identical to the
    single-process run.
    """
    pairs = np.ascontiguousarray(np.asarray(pairs, dtype=np.int32).reshape(-1, 2))
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= df.r):
        raise DataError("pair indices out of range for this file")
    factors = [_factorize(df.column(s.field)) for s in specs]
    if n_workers <= 1 or len(pairs) < 2 * n_workers:
        levels = _compare_columns(factors, pairs, specs)
    else:
        chunks = [c for c in np.array_split(pairs, n_workers * 4) if len(c)]
        with ProcessPoolExecutor(max_workers=n_workers) as ex:
            parts = list(ex.map(_compare_columns, repeat(factors), chunks,
                                repeat(specs)))
        levels = np.concatenate(parts, axis=0)
    return PairComparisons(
        r=df.r, fields=tuple(s.field for s in specs),
        n_levels=tuple(s.n_levels for s in specs), pairs=pairs, levels=levels)
