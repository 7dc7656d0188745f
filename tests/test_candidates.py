"""Pair filtering, fixing, and the candidate graph."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdedupe.candidates import (
    CandidateGraph,
    FilterRule,
    FixRule,
    all_pairs,
    build_pairs,
    connected_components,
    fix_noncoreferent,
    load_neighbors,
)
from bayesdedupe.comparison import compare_pairs
from bayesdedupe.errors import ConfigError, DataError
from bayesdedupe.records import DataFile, FieldSchema, Record

from conftest import compared_setup, random_file, small_specs
from oracles import comparison_vector, fix_rule_matches


def make_df(rows, schema=None):
    schema = schema or [FieldSchema("name", "string"),
                        FieldSchema("year", "integer"),
                        FieldSchema("city", "categorical")]
    return DataFile(schema=schema,
                    records=[Record(i, tuple(v)) for i, v in enumerate(rows)])


class TestFilterRules:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FilterRule(kind="whatever")
        with pytest.raises(ConfigError):
            FilterRule(kind="categorical_block")
        with pytest.raises(ConfigError):
            FilterRule.integer_gap_exceeds("year", -1)

    def test_categorical_block(self):
        rule = FilterRule.categorical_block("city")
        assert rule.passes("SUR", "SUR")
        assert not rule.passes("SUR", "NORTE")
        assert rule.passes(None, "NORTE")
        assert rule.passes("SUR", None)

    def test_integer_gap(self):
        rule = FilterRule.integer_gap_exceeds("year", 2)
        assert rule.passes(2000, 2002)
        assert not rule.passes(2000, 2003)
        assert rule.passes(None, 2003)

    def test_overlap_tokens_and_stops(self):
        rule = FilterRule.custom_overlap("city")
        assert rule.passes("SAN PEDRO", "PEDRO ALTO")
        # only a stop word in common is not overlap
        assert not rule.passes("SAN PEDRO", "SAN JUAN")
        assert rule.passes("SAN PEDRO", "SAN PEDRO")
        assert rule.passes(None, "SAN JUAN")

    def test_overlap_neighbors(self):
        rule = FilterRule.custom_overlap(
            "city", neighbors={("PEDRO ALTO", "JUAN BAJO")})
        assert rule.passes("PEDRO ALTO", "JUAN BAJO")
        assert rule.passes("JUAN BAJO", "PEDRO ALTO")
        assert not rule.passes("JUAN BAJO", "OTRO")


class TestBuildPairs:
    def test_all_pairs(self):
        assert all_pairs(3).tolist() == [[0, 1], [0, 2], [1, 2]]
        assert len(all_pairs(500)) == 500 * 499 // 2

    def test_matches_per_pair_evaluation(self, rng):
        # vectorized path vs rule.passes applied pair by pair
        for trial in range(5):
            df = random_file(rng, 15, missing_rate=0.25)
            rules = [FilterRule.categorical_block("city"),
                     FilterRule.integer_gap_exceeds("year", 2),
                     FilterRule.custom_overlap("name")]
            got = {tuple(p) for p in build_pairs(df, rules).tolist()}
            cols = {r.field: df.column(r.field) for r in rules}
            expected = set()
            for i, j in itertools.combinations(range(df.r), 2):
                if all(r.passes(cols[r.field][i], cols[r.field][j])
                       for r in rules):
                    expected.add((i, j))
            assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.none(),
        st.builds(lambda base, offset: base + offset,
                  st.sampled_from([0, 2**53, -2**53, 2**63, -2**63,
                                   10**400, -10**400]),
                  st.integers(-3, 3))), min_size=2, max_size=12),
        st.integers(0, 4))
    def test_integer_gap_exact_for_large_values(self, values, gap):
        """Values float64 cannot tell apart, beyond int64, and beyond
        float64's range."""
        df = make_df([(v,) for v in values],
                     schema=[FieldSchema("n", "integer")])
        rule = FilterRule.integer_gap_exceeds("n", gap)
        got = [tuple(p) for p in build_pairs(df, [rule]).tolist()]
        expected = [(i, j) for i, j in itertools.combinations(range(df.r), 2)
                    if rule.passes(values[i], values[j])]
        assert got == expected

    def test_always_compare_keeps_everything(self, rng):
        df = random_file(rng, 10)
        got = build_pairs(df, [FilterRule.always_compare()])
        assert len(got) == 45


class TestLoadNeighbors:
    def test_load(self, tmp_path):
        p = tmp_path / "adj.tsv"
        p.write_text("pedro  alto\tjuan bajo\n\nOTRO\tMAS\n", encoding="utf-8")
        nb = load_neighbors(p)
        assert ("PEDRO ALTO", "JUAN BAJO") in nb
        assert ("OTRO", "MAS") in nb

    def test_errors(self, tmp_path):
        p = tmp_path / "adj.tsv"
        p.write_text("solo\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_neighbors(p)
        p.write_text("a\t\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_neighbors(p)


class TestFixRules:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FixRule(conditions=())
        with pytest.raises(ConfigError):
            FixRule(conditions=(("name", 0),))

    def test_matches_semantics(self):
        rule = FixRule(conditions=(("name", 3), ("year", 2)))
        pos = {"name": 0, "year": 1}
        assert fix_rule_matches(rule, (3, 2), pos)
        assert fix_rule_matches(rule, (3, 3), pos)
        assert not fix_rule_matches(rule, (2, 3), pos)
        # unobserved never matches
        assert not fix_rule_matches(rule, (None, 3), pos)

    def test_fix_noncoreferent_counts(self, rng):
        df, comps, graph = compared_setup(rng, 12, fix_name_level=3)
        # reference: evaluate rule per pair on unpacked vectors
        name_col = 0
        expect_fixed = np.array(
            [comps.levels[k, name_col] >= 3 for k in range(len(comps))])
        assert np.array_equal(~graph.candidate_mask, expect_fixed)
        assert graph.n_pairs == len(comps)
        assert graph.n_fixed == int(expect_fixed.sum())

    def test_multiple_rules_are_alternatives(self, rng):
        df, comps, _ = compared_setup(rng, 12, fix_name_level=None)
        rules = [FixRule(conditions=(("name", 3),)),
                 FixRule(conditions=(("year", 2),))]
        graph = fix_noncoreferent(comps, rules)
        fixed = ~graph.candidate_mask
        for k in range(len(comps)):
            lv = comparison_vector(comps, k).levels
            expect = ((lv[0] is not None and lv[0] >= 3)
                      or (lv[1] is not None and lv[1] >= 2))
            assert fixed[k] == expect

    def test_unknown_field_rejected(self, rng):
        _, comps, _ = compared_setup(rng, 5, fix_name_level=None)
        with pytest.raises(ConfigError):
            fix_noncoreferent(comps, [FixRule(conditions=(("zip", 1),))])


class TestComponents:
    def test_basic(self):
        comps = connected_components(6, [(0, 1), (1, 2), (4, 5)])
        assert comps == [(0, 1, 2), (3,), (4, 5)]

    def test_no_edges(self):
        assert connected_components(3, []) == [(0,), (1,), (2,)]

    def test_order_by_smallest_member(self):
        comps = connected_components(5, [(3, 4), (0, 2)])
        assert comps == [(0, 2), (1,), (3, 4)]

    def test_graph_components_cover_all_records(self, rng):
        _, _, graph = compared_setup(rng, 20)
        members = sorted(x for c in graph.components for x in c)
        assert members == list(range(20))


class TestCandidateGraph:
    def test_counts_and_sets(self, rng):
        _, comps, graph = compared_setup(rng, 10)
        assert graph.n_candidates + graph.n_fixed == graph.n_pairs
        cand = graph.candidate_pair_set()
        assert all(i < j for i, j in cand)
        assert len(cand) == graph.n_candidates

    def test_write_edges(self, rng, tmp_path):
        _, comps, graph = compared_setup(rng, 6)
        p = tmp_path / "edges.csv"
        graph.write_edges(p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "i,j,fixed"
        assert len(lines) == graph.n_pairs + 1
        fixed_flags = [int(l.split(",")[2]) for l in lines[1:]]
        assert sum(fixed_flags) == graph.n_fixed
