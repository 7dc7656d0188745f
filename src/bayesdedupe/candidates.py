"""Which record pairs get compared, and which stay open as candidates.

Two layers of pruning happen before any sampling. Filter rules decide
the compared set P: a pair is compared only if every rule passes, and a
rule with a missing value on either side always passes, because missing
evidence must never prove two records apart. Fix rules then declare some
compared pairs noncoreferent outright (their comparison data still
informs the noncoreferent distribution); whatever remains is the
candidate set C the sampler is allowed to merge within.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import textio
from .comparison import PairComparisons, _factorize
from .errors import ConfigError, DataError
from .records import DataFile, normalize, open_text
from .textio import write_int_rows

FILTER_KINDS = ("always_compare", "categorical_block", "integer_gap_exceeds",
                "custom_overlap")

# Geographic naming particles ignored when checking place-name overlap.
DEFAULT_STOP_TOKENS = frozenset(
    {"SAN", "SANTA", "SANTO", "LA", "EL", "LAS", "LOS", "DEL", "DE"})


@dataclass(frozen=True)
class FilterRule:
    kind: str
    field: str | None = None
    gap: int | None = None
    neighbors: frozenset = frozenset()
    stop_tokens: frozenset = DEFAULT_STOP_TOKENS

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ConfigError(f"unknown filter rule kind {self.kind!r}")
        if self.kind != "always_compare" and not self.field:
            raise ConfigError(f"filter rule {self.kind!r} needs a field")
        if self.kind == "integer_gap_exceeds" and (self.gap is None or self.gap < 0):
            raise ConfigError("integer_gap_exceeds needs a nonnegative gap")

    @staticmethod
    def always_compare() -> "FilterRule":
        return FilterRule(kind="always_compare")

    @staticmethod
    def categorical_block(field_name: str) -> "FilterRule":
        return FilterRule(kind="categorical_block", field=field_name)

    @staticmethod
    def integer_gap_exceeds(field_name: str, gap: int) -> "FilterRule":
        return FilterRule(kind="integer_gap_exceeds", field=field_name, gap=gap)

    @staticmethod
    def custom_overlap(field_name: str, neighbors=frozenset(),
                       stop_tokens=DEFAULT_STOP_TOKENS) -> "FilterRule":
        return FilterRule(kind="custom_overlap", field=field_name,
                          neighbors=frozenset(neighbors),
                          stop_tokens=frozenset(stop_tokens))

    def passes(self, vi, vj) -> bool:
        """True when this rule does not exclude the pair."""
        if self.kind == "always_compare":
            return True
        if vi is None or vj is None:
            return True
        if self.kind == "categorical_block":
            return vi == vj
        if self.kind == "integer_gap_exceeds":
            return abs(vi - vj) <= self.gap
        return self._overlap(vi, vj)

    def _overlap(self, vi, vj) -> bool:
        if vi == vj:
            return True
        if (vi, vj) in self.neighbors or (vj, vi) in self.neighbors:
            return True
        ti = set(vi.split()) - self.stop_tokens
        tj = set(vj.split()) - self.stop_tokens
        return bool(ti & tj)


def load_neighbors(path) -> frozenset:
    """Adjacency file: one tab-separated pair of place names per line.

    Names are normalized like record values (uppercase, collapsed
    whitespace). The relation is used symmetrically.
    """
    out = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected two tab-separated names")
            a, b = normalize(parts[0]), normalize(parts[1])
            if not a or not b:
                raise DataError(f"{path}:{lineno}: empty place name")
            out.add((a, b))
    return frozenset(out)


def _grid_rows(r: int, lo: int, hi: int) -> np.ndarray:
    """The pairs i < j with lo <= i < hi, in lexicographic order."""
    rows = np.arange(lo, hi, dtype=np.int64)
    counts = r - 1 - rows
    starts = np.cumsum(counts) - counts
    out = np.empty((int(counts.sum()), 2), dtype=np.int32)
    out[:, 0] = np.repeat(rows, counts)
    # row i's j runs from i + 1, from offset starts[i] of the block on
    out[:, 1] = (np.arange(len(out), dtype=np.int64)
                 - np.repeat(starts - rows - 1, counts))
    return out


# every pair-level temporary of build_pairs is about one block long
def _grid_blocks(r: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of the i < j grid, each of at most
    textio._BLOCK_CELLS pairs unless a single row has more."""
    return textio.bounded_runs(np.arange(r - 1, 0, -1), textio._BLOCK_CELLS)


def all_pairs(r: int) -> np.ndarray:
    pairs = np.empty((r * (r - 1) // 2, 2), dtype=np.int32)
    at = 0
    for lo, hi in _grid_blocks(r):
        grid = _grid_rows(r, lo, hi)
        pairs[at:at + len(grid)] = grid
        at += len(grid)
    return pairs


def _rule_test(df: DataFile, rule: FilterRule):
    """The rule as a function test(block, keep) that clears keep[k] for
    each pair block[k] the rule excludes."""
    col = df.column(rule.field)
    if rule.kind == "categorical_block":
        codes = _factorize(col)[1]

        def test(block, keep):
            ci, cj = codes[block[:, 0]], codes[block[:, 1]]
            keep &= (ci == -1) | (cj == -1) | (ci == cj)
    elif rule.kind == "integer_gap_exceeds":
        # record i's close values are those of ranks first[i]..last[i]-1
        # in sorted order; bisecting Python ints keeps the test exact at
        # any magnitude
        ordered = sorted({v for v in col if v is not None})
        position = {v: k for k, v in enumerate(ordered)}
        rank, first, last = np.array(
            [(-1, 0, 0) if v is None else
             (position[v], bisect_left(ordered, v - rule.gap),
              bisect_right(ordered, v + rule.gap)) for v in col],
            dtype=np.int64).reshape(-1, 3).T

        def test(block, keep):
            i, rj = block[:, 0], rank[block[:, 1]]
            keep &= ((rank[i] < 0) | (rj < 0)
                     | ((first[i] <= rj) & (rj < last[i])))
    else:
        def test(block, keep):
            alive = np.flatnonzero(keep)
            for k, (i, j) in zip(alive.tolist(), block[alive].tolist()):
                if not rule.passes(col[i], col[j]):
                    keep[k] = False
    return test


def build_pairs(df: DataFile, rules: list[FilterRule]) -> np.ndarray:
    """All pairs i < j passing every filter rule, in lexicographic order.

    The grid goes through in row blocks. Cheap rules test a whole block
    vectorized; the overlap rule runs per pair but only on pairs still
    alive, so ordering rules cheapest-first in the config pays off at
    scale. Each block keeps only its passing pairs, so the scratch
    beyond one block is at most the output.
    """
    tests = [_rule_test(df, rule) for rule in rules
             if rule.kind != "always_compare"]
    if not tests:
        return all_pairs(df.r)
    parts = [np.empty((0, 2), dtype=np.int32)]
    for lo, hi in _grid_blocks(df.r):
        grid = _grid_rows(df.r, lo, hi)
        keep = np.ones(len(grid), dtype=bool)
        for test in tests:
            test(grid, keep)
        parts.append(grid[keep])
    return np.concatenate(parts)


@dataclass(frozen=True)
class FixRule:
    """Conjunction of minimum-disagreement conditions.

    A compared pair is fixed noncoreferent when every condition holds;
    a condition on an unobserved field does not hold. Several fix rules
    act as alternatives: matching any one of them fixes the pair.
    """

    conditions: tuple  # of (field_name, min_level)

    def __post_init__(self):
        if not self.conditions:
            raise ConfigError("a fix rule needs at least one condition")
        norm = tuple((str(f), int(lv)) for f, lv in self.conditions)
        object.__setattr__(self, "conditions", norm)
        for f, lv in norm:
            if lv < 1:
                raise ConfigError(
                    f"fix rule on {f!r}: minimum level must be >= 1")


@dataclass
class CandidateGraph:
    """Compared pairs plus the candidate/fixed split and C's components."""

    r: int
    pairs: np.ndarray                 # (n, 2) int32, the compared set P
    candidate_mask: np.ndarray        # bool over pairs
    components: list = field(default_factory=list)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_candidates(self) -> int:
        return int(self.candidate_mask.sum())

    @property
    def n_fixed(self) -> int:
        return self.n_pairs - self.n_candidates

    def candidate_pairs(self) -> np.ndarray:
        return self.pairs[self.candidate_mask]

    def candidate_pair_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.candidate_pairs()}

    def write_edges(self, path) -> None:
        """Edge list export: record id pair plus the fixed flag."""
        write_int_rows(path, (self.pairs, ~self.candidate_mask),
                       header="i,j,fixed")


def connected_components(r: int, edges) -> list:
    """Components over records 0..r-1; isolated records are singletons.

    Returned as tuples of sorted members, ordered by smallest member.
    """
    parent = list(range(r))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, j in edges:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict = {}
    for x in range(r):
        groups.setdefault(find(x), []).append(x)
    return [tuple(g) for g in sorted(groups.values(), key=lambda g: g[0])]


def fix_noncoreferent(comps: PairComparisons, rules: list[FixRule]) -> CandidateGraph:
    """Split the compared set into fixed and candidate pairs.

    Fixed pairs keep their comparison data; they only stop being merge
    candidates. Components are computed over the candidate edges.
    """
    fixed = np.zeros(len(comps), dtype=bool)
    pos = {name: k for k, name in enumerate(comps.fields)}
    for rule in rules:
        m = np.ones(len(comps), dtype=bool)
        for f, min_lv in rule.conditions:
            if f not in pos:
                raise ConfigError(f"fix rule references uncompared field {f!r}")
            col = comps.levels[:, pos[f]]
            m &= col >= min_lv  # missing is -1, so unobserved conditions fail
        fixed |= m
    candidate_mask = ~fixed
    comp_list = connected_components(comps.r, comps.pairs[candidate_mask])
    return CandidateGraph(r=comps.r, pairs=comps.pairs,
                          candidate_mask=candidate_mask, components=comp_list)
