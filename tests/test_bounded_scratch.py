"""Block-wise pair generation and comparison.

build_pairs and compare_pairs go through the pair grid and the pair list
in blocks and compare distinct value pairs in chunks. Their results must
not depend on where the block and chunk boundaries fall, and their
scratch memory must stay within one fixed budget as the file grows.
"""

import itertools
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from bayesdedupe import candidates, comparison, textio
from bayesdedupe.candidates import FilterRule, build_pairs
from bayesdedupe.comparison import LevelSpec, binary_spec, compare_pairs
from bayesdedupe.config import load_config
from bayesdedupe.records import DataFile, FieldSchema, Record
from bayesdedupe.synthgen import (GeneratorConfig, data_path, default_fields,
                                  generate)

from oracles import compare_pair, comparison_vector

PLACES = ["SAN PEDRO", "PEDRO ALTO", "SAN JUAN", "JUAN BAJO", "LA PAZ",
          "PAZ", "EL ALTO", "SANTA ANA"]
NAMES = ["ANA", "ANNA", "MARIA", "MARTA", "LUIS", "LUISA", "JOSE", "ROSA",
         "MARIA JOSE", "ANA MARIA LUISA", ""]

SPECS = [
    LevelSpec("name", "levenshtein", (0.0, 0.25, 0.5, 1.0)),
    LevelSpec("place", "token_levenshtein", (0.0, 0.25, 0.5, 1.0)),
    LevelSpec("year", "absolute_difference", (0.0, 1.0, 3.0, float("inf"))),
    binary_spec("city"),
]

FILTERS = [FilterRule.categorical_block("city"),
           FilterRule.integer_gap_exceeds("year", 3),
           FilterRule.custom_overlap("place")]

# (textio._BLOCK_CELLS, _SIM_CHUNK)
SIZES = [(1, 1), (7, 3), (5, 3), (50, 4), (64, 4), (3, 2), (17, 2)]

# scratch allowed beyond the returned arrays, in bytes; one budget for
# both file sizes tested
SCRATCH_BUDGET = 6 << 20


def mixed_file(rng: np.random.Generator, r: int) -> DataFile:
    """Multi-token place names, empty names and about 20 % missing values."""
    schema = [FieldSchema("name", "string"), FieldSchema("place", "string"),
              FieldSchema("year", "integer"), FieldSchema("city", "categorical")]
    records = []
    for i in range(r):
        values = [NAMES[int(rng.integers(len(NAMES)))],
                  PLACES[int(rng.integers(len(PLACES)))],
                  1990 + int(rng.integers(12)),
                  ["NORTE", "SUR"][int(rng.integers(2))]]
        records.append(Record(i, tuple(None if rng.random() < 0.2 else v
                                       for v in values)))
    return DataFile(schema=schema, records=records)


def patched(block: int, chunk: int) -> ExitStack:
    stack = ExitStack()
    stack.enter_context(mock.patch.object(textio, "_BLOCK_CELLS", block))
    stack.enter_context(mock.patch.object(comparison, "_SIM_CHUNK", chunk))
    return stack


@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize("rules", [[], FILTERS], ids=["all", "filtered"])
def test_block_boundaries_do_not_change_results(sizes, rules):
    df = mixed_file(np.random.default_rng(sum(sizes)), 60)
    pairs = build_pairs(df, rules)
    levels = compare_pairs(df, pairs, SPECS).levels
    with patched(*sizes):
        got_pairs = build_pairs(df, rules)
        got = compare_pairs(df, got_pairs, SPECS)
    assert got_pairs.dtype == np.int32
    assert np.array_equal(got_pairs, pairs)
    assert np.array_equal(got.levels, levels)

    cols = {rule.field: df.column(rule.field) for rule in rules}
    expected = [(i, j) for i, j in itertools.combinations(range(df.r), 2)
                if all(rule.passes(cols[rule.field][i], cols[rule.field][j])
                       for rule in rules)]
    assert got_pairs.tolist() == [list(p) for p in expected]
    assert 0 < len(expected) < df.r * (df.r - 1) // 2 or not rules
    for k in range(len(got)):
        vec = comparison_vector(got, k)
        ref = compare_pair(df.records[vec.i], df.records[vec.j], SPECS, df)
        assert vec.levels == ref.levels, (vec.i, vec.j)


@pytest.mark.parametrize("stride", [1, 200])
def test_sparse_pair_list_matches_full_comparison(stride):
    """A pair list too short for a key table of its fields, compared in
    one pass, gives each pair the levels of the full comparison. At
    stride 200 the list holds 9 pairs (72 bytes): name, place and year
    are compared in one pass, city through its 9-byte table."""
    df = mixed_file(np.random.default_rng(5), 60)
    full = compare_pairs(df, candidates.all_pairs(df.r), SPECS)
    pairs = full.pairs[::stride]
    with patched(1, 1):
        got = compare_pairs(df, pairs, SPECS)
    assert np.array_equal(got.levels, full.levels[::stride])
    for k in range(len(got)):
        vec = comparison_vector(got, k)
        ref = compare_pair(df.records[vec.i], df.records[vec.j], SPECS, df)
        assert vec.levels == ref.levels, (vec.i, vec.j)


@pytest.mark.parametrize("pairs", [[[0, 1], [0, 2], [1, 2]], [[0, 2]]],
                         ids=["table", "one_pass"])
def test_errors_raised_from_any_chunk(pairs):
    df = DataFile(schema=[FieldSchema("n", "integer")],
                  records=[Record(i, (v,)) for i, v in enumerate([0, 1, 9])])
    spec = LevelSpec("n", "absolute_difference", (0.0, 1.0, 2.0))
    with patched(1, 1), pytest.raises(Exception, match="last cut point"):
        compare_pairs(df, np.array(pairs), [spec])


@pytest.mark.parametrize("originals", [600, 900])
def test_scratch_within_budget(originals):
    """The peak traced memory of build_pairs and of compare_pairs, beyond
    the arrays they return, stays within one budget at two file sizes."""
    df = generate(GeneratorConfig(
        n_originals=originals, n_duplicates=originals // 10,
        errors_per_duplicate=1, seed=1, fields=default_fields())).data
    specs = load_config(data_path("configs/synth.yaml")).level_specs
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pairs = build_pairs(df, [])
        pairs_scratch = tracemalloc.get_traced_memory()[1] - start - pairs.nbytes
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        comps = compare_pairs(df, pairs, specs)
        compare_scratch = (tracemalloc.get_traced_memory()[1] - start
                           - comps.levels.nbytes)
    finally:
        tracemalloc.stop()
    assert len(pairs) == df.r * (df.r - 1) // 2
    assert pairs_scratch < SCRATCH_BUDGET
    assert compare_scratch < SCRATCH_BUDGET
