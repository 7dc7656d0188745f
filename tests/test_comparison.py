"""Comparators and level binning against independent oracles.

The edit-distance oracle below is the textbook recursion, written
naively on purpose so that it shares no code or structure with either
the scalar comparators or the batched path of compare_pairs.
"""

import functools
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdedupe.candidates import all_pairs
from bayesdedupe.comparison import (
    LevelSpec,
    PairComparisons,
    absolute_difference,
    binary_disagreement,
    binary_spec,
    compare_pairs,
)
from bayesdedupe.errors import ConfigError, DataError
from bayesdedupe.records import DataFile, FieldSchema, Record

from conftest import random_file, small_specs
from oracles import (bin_level, compare_pair, comparison_vector, levenshtein,
                     normalized_levenshtein, token_min_levenshtein)


@functools.lru_cache(maxsize=None)
def oracle_lev(a: str, b: str) -> int:
    """Plain recursive edit distance."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    same = 0 if a[0] == b[0] else 1
    return min(oracle_lev(a[1:], b[1:]) + same,
               oracle_lev(a[1:], b) + 1,
               oracle_lev(a, b[1:]) + 1)


ALPHA = "ABCX"


def random_word(rng, max_len=8):
    n = int(rng.integers(0, max_len + 1))
    return "".join(ALPHA[i] for i in rng.integers(0, len(ALPHA), size=n))


class TestLevenshtein:
    def test_frozen_values(self):
        assert levenshtein("JULIAN", "JILIAM") == 2
        assert levenshtein("KITTEN", "SITTING") == 3
        assert levenshtein("", "ABC") == 3
        assert levenshtein("ABC", "") == 3
        assert levenshtein("SAME", "SAME") == 0
        assert levenshtein("AB", "BA") == 2

    def test_against_recursive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b = random_word(rng), random_word(rng)
            assert levenshtein(a, b) == oracle_lev(a, b), (a, b)

    @given(st.text(string.ascii_uppercase, max_size=6),
           st.text(string.ascii_uppercase, max_size=6))
    def test_metric_properties(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert (d == 0) == (a == b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


class TestNormalized:
    def test_scale(self):
        assert normalized_levenshtein("", "") == 0.0
        assert normalized_levenshtein("A", "") == 1.0
        assert normalized_levenshtein("JULIAN", "JILIAM") == pytest.approx(2 / 6)

    @given(st.text(string.ascii_uppercase, max_size=8),
           st.text(string.ascii_uppercase, max_size=8))
    def test_bounds(self, a, b):
        s = normalized_levenshtein(a, b)
        assert 0.0 <= s <= 1.0


class TestTokenMin:
    def test_equal_token_counts_average_positionally(self):
        # per-token distances 1/6 and 0, averaged
        a, b = "CARLOS LOPEZ", "CARLOT LOPEZ"
        assert token_min_levenshtein(a, b) == pytest.approx(1 / 12)
        assert token_min_levenshtein(a, b) == pytest.approx(
            (normalized_levenshtein("CARLOS", "CARLOT") + 0) / 2)

    def test_one_against_two_takes_min(self):
        assert token_min_levenshtein("LOPEZ", "LOPEZ CANO") == 0.0
        assert token_min_levenshtein("CANO", "LOPEZ CANO") == 0.0
        v = token_min_levenshtein("CANA", "LOPEZ CANO")
        assert v == pytest.approx(min(normalized_levenshtein("CANA", "LOPEZ"),
                                      normalized_levenshtein("CANA", "CANO")))

    def test_singletons_compare_directly(self):
        assert token_min_levenshtein("ANA", "ANNA") == pytest.approx(1 / 4)

    def test_two_against_three(self):
        a, b = "JOSE LUIS", "JOSE LUIS GOMEZ"
        assert token_min_levenshtein(a, b) == 0.0

    @given(st.lists(st.text(string.ascii_uppercase, min_size=1, max_size=5),
                    min_size=1, max_size=3),
           st.lists(st.text(string.ascii_uppercase, min_size=1, max_size=5),
                    min_size=1, max_size=3))
    def test_bounds_and_symmetry(self, ta, tb):
        a, b = " ".join(ta), " ".join(tb)
        v = token_min_levenshtein(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(token_min_levenshtein(b, a))


class TestScalarComparators:
    def test_absolute_difference(self):
        assert absolute_difference(1998, 2001) == 3
        assert absolute_difference(5, 5) == 0

    def test_binary(self):
        assert binary_disagreement("SUR", "SUR") == 0
        assert binary_disagreement("SUR", "NORTE") == 1
        assert binary_disagreement(3, 4) == 1


class TestLevelSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LevelSpec("f", "levenshtein", (0.0,))
        with pytest.raises(ConfigError):
            LevelSpec("f", "levenshtein", (0.1, 0.5))
        with pytest.raises(ConfigError):
            LevelSpec("f", "levenshtein", (0.0, 0.5, 0.5))
        with pytest.raises(ConfigError):
            LevelSpec("f", "what", (0.0, 1.0))

    def test_level_count_fits_packed_levels(self):
        # levels are stored as int8; a 128th level would wrap to -128,
        # which reads back as missing
        LevelSpec("f", "absolute_difference", tuple(range(127)))
        with pytest.raises(ConfigError):
            LevelSpec("f", "absolute_difference", tuple(range(128)))

    def test_levels(self):
        spec = LevelSpec("f", "levenshtein", (0.0, 0.25, 0.5, 1.0))
        assert spec.n_levels == 4
        assert spec.n_levels - 1 == 3
        assert binary_spec("g").n_levels == 2


class TestBinLevel:
    SPEC = LevelSpec("f", "levenshtein", (0.0, 0.25, 0.5, 1.0))

    def test_boundaries_fall_on_lower_disagreement_side(self):
        # a similarity exactly at a cut belongs to the level that the cut
        # closes, not the next one up
        assert bin_level(0.0, self.SPEC) == 0
        assert bin_level(0.25, self.SPEC) == 1
        assert bin_level(0.5, self.SPEC) == 2
        assert bin_level(1.0, self.SPEC) == 3

    def test_interiors(self):
        assert bin_level(1e-9, self.SPEC) == 1
        assert bin_level(0.3, self.SPEC) == 2
        assert bin_level(0.51, self.SPEC) == 3

    def test_integer_cuts(self):
        spec = LevelSpec("y", "absolute_difference", (0.0, 1.0, 3.0, float("inf")))
        assert bin_level(0, spec) == 0
        assert bin_level(1, spec) == 1
        assert bin_level(2, spec) == 2
        assert bin_level(3, spec) == 2
        assert bin_level(4, spec) == 3
        assert bin_level(10**6, spec) == 3

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            bin_level(1.2, self.SPEC)
        with pytest.raises(ConfigError):
            bin_level(-0.1, self.SPEC)


def assert_matches_scalar(df, specs):
    comps = compare_pairs(df, all_pairs(df.r), specs)
    for k in range(len(comps)):
        vec = comparison_vector(comps, k)
        ref = compare_pair(df.records[vec.i], df.records[vec.j], specs, df)
        assert vec.levels == ref.levels, (vec.i, vec.j)


NAME_ALPHABET = "AB \u00d1\u00e9\u5b57"
WORDS = st.text("ABN\u00d1", min_size=1, max_size=4)
HUGE = 2 ** 66


@st.composite
def mixed_files(draw):
    """Files with empty, multi-token, space-padded and non-ASCII names,
    integers beyond int64 (with differences on a cut point and just past
    it, which float64 cannot tell apart) and about 20 % missing values."""
    def maybe(values):
        return None if draw(st.integers(0, 4)) == 0 else draw(values)

    names = st.text(NAME_ALPHABET, max_size=6)
    token_names = st.one_of(st.lists(WORDS, max_size=3).map(" ".join),
                            st.text(NAME_ALPHABET, max_size=6))
    ints = st.one_of(st.integers(-3, 3),
                     st.sampled_from([HUGE, HUGE + 1, -HUGE, -HUGE - 1]),
                     st.integers(-2 ** 70, 2 ** 70))
    categories = st.sampled_from(["NORTE", "SUR", "\u00d1"])
    r = draw(st.integers(2, 10))
    records = [Record(i, (maybe(names), maybe(token_names), maybe(ints),
                          maybe(categories))) for i in range(r)]
    schema = [FieldSchema("name", "string"), FieldSchema("tokens", "string"),
              FieldSchema("n", "integer"), FieldSchema("c", "categorical")]
    return DataFile(schema=schema, records=records)


MIXED_SPECS = [
    LevelSpec("name", "levenshtein", (0.0, 0.25, 0.5, 1.0)),
    LevelSpec("tokens", "token_levenshtein", (0.0, 0.25, 0.5, 1.0)),
    LevelSpec("n", "absolute_difference",
              (0.0, 1.0, 3.0, float(2 * HUGE), float("inf"))),
    binary_spec("c"),
]


class TestBatchAgainstScalar:
    def test_batch_matches_pairwise_scalar(self, rng):
        assert_matches_scalar(random_file(rng, 40, missing_rate=0.2),
                              small_specs())

    @settings(max_examples=150, deadline=None)
    @given(mixed_files())
    def test_generated_files_match_scalar(self, df):
        assert_matches_scalar(df, MIXED_SPECS)

    def test_token_kind_batch(self, rng):
        schema = [FieldSchema("name", "string")]
        names = ["CARLOS LOPEZ", "CARLOS LOPEZ CANO", "LOPEZ", "ANA",
                 "ANA MARIA", None, "CARLOT LOPEZ"]
        df = DataFile(schema=schema, records=[
            Record(i, (v,)) for i, v in enumerate(names)])
        assert_matches_scalar(df, [
            LevelSpec("name", "token_levenshtein", (0.0, 0.25, 0.5, 1.0))])

    def test_out_of_range_pairs(self, rng):
        df = random_file(rng, 4)
        with pytest.raises(DataError):
            compare_pairs(df, np.array([[0, 4]]), small_specs())


class TestMissingHandling:
    def test_missing_yields_none(self):
        schema = [FieldSchema("name", "string"), FieldSchema("year", "integer")]
        df = DataFile(schema=schema, records=[
            Record(0, ("ANA", None)), Record(1, ("ANA", 2000))])
        specs = [LevelSpec("name", "levenshtein", (0.0, 0.25, 0.5, 1.0)),
                 LevelSpec("year", "absolute_difference", (0.0, 1.0, float("inf")))]
        vec = compare_pair(df.records[0], df.records[1], specs, df)
        assert vec.levels == (0, None)
        comps = compare_pairs(df, np.array([[0, 1]]), specs)
        assert comps.levels[0, 0] == 0
        assert comps.levels[0, 1] == -1
        assert comparison_vector(comps, 0).levels == (0, None)


class TestPairComparisonsContainer:
    def test_misalignment_rejected(self):
        with pytest.raises(ValueError):
            PairComparisons(r=3, fields=("a",), n_levels=(2,),
                            pairs=np.zeros((2, 2)), levels=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            PairComparisons(r=3, fields=("a", "b"), n_levels=(2, 2),
                            pairs=np.zeros((2, 2)), levels=np.zeros((2, 1)))
