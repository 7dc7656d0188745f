"""Partition and labeling machinery against independent references."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdedupe import textio
from bayesdedupe.partition import (
    canonicalize_label_rows,
    format_partition,
    labeling_to_partition,
    valid_partitions,
)

from oracles import (
    bell_number,
    canonical_labels,
    coreferent,
    enumerate_valid_partitions,
    is_valid_labeling,
    labeling_count,
    n_cells,
    partition_to_labeling,
)


def brute_force_partitions(r):
    """Every set partition of 0..r-1, via canonical labelings. Written
    independently of the library's recursion: enumerate all label vectors
    in {0..r-1}^r and dedupe by canonical form."""
    seen = set()
    for z in itertools.product(range(r), repeat=r):
        seen.add(canonical_labels(z))
    return seen


class TestBellNumbers:
    def test_known_values(self):
        assert [bell_number(r) for r in range(6)] == [1, 1, 2, 5, 15, 52]
        assert bell_number(10) == 115975
        assert bell_number(15) == 1382958545

    def test_matches_brute_force(self):
        for r in range(1, 6):
            assert bell_number(r) == len(brute_force_partitions(r))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestLabelingCount:
    def test_frozen(self):
        assert labeling_count(5, 3) == 60
        assert labeling_count(5, 5) == 120
        assert labeling_count(5, 1) == 5

    def test_counts_actual_labelings(self):
        # For r=4: count label vectors over alphabet 0..3 inducing each
        # partition, grouped by number of cells.
        r = 4
        by_partition = {}
        for z in itertools.product(range(r), repeat=r):
            by_partition.setdefault(canonical_labels(z), 0)
            by_partition[canonical_labels(z)] += 1
        for part, count in by_partition.items():
            assert count == labeling_count(r, n_cells(part))

    def test_bounds(self):
        with pytest.raises(ValueError):
            labeling_count(3, 4)
        with pytest.raises(ValueError):
            labeling_count(3, -1)


class TestCanonicalLabels:
    def test_first_occurrence_order(self):
        assert canonical_labels([7, 7, 2, 7, 9]) == (0, 0, 1, 0, 2)
        assert canonical_labels(["b", "a", "b"]) == (0, 1, 0)
        assert canonical_labels([]) == ()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    def test_idempotent_and_equivalent(self, z):
        c = canonical_labels(z)
        assert canonical_labels(c) == c
        # same coreference relation
        for i in range(len(z)):
            for j in range(len(z)):
                assert (z[i] == z[j]) == (c[i] == c[j])

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=7))
    def test_roundtrip_through_partition(self, z):
        cells = labeling_to_partition(z)
        back = partition_to_labeling(cells)
        assert tuple(back) == canonical_labels(z)


class TestPartitionConversions:
    def test_cells_sorted_by_smallest_member(self):
        assert labeling_to_partition([1, 0, 1, 2]) == ((0, 2), (1,), (3,))

    def test_partition_to_labeling_validation(self):
        with pytest.raises(ValueError):
            partition_to_labeling([(0, 1), (1, 2)])  # overlap
        with pytest.raises(ValueError):
            partition_to_labeling([(0,), (2,)])  # gap
        with pytest.raises(ValueError):
            partition_to_labeling([(0, 5)])  # out of range

    def test_format(self):
        assert format_partition([0, 0, 0, 1, 1]) == "0,1,2/3,4"
        assert format_partition([3, 1, 4, 1, 5]) == "0/1,3/2/4"

    def test_coreferent(self):
        z = [0, 1, 0]
        assert coreferent(z, 0, 2)
        assert not coreferent(z, 0, 1)


class TestValidity:
    def test_is_valid_labeling(self):
        cand = {(0, 1), (1, 2)}
        assert is_valid_labeling([0, 0, 1], cand)
        assert is_valid_labeling([0, 1, 1], cand)
        assert not is_valid_labeling([0, 0, 0], cand)  # needs (0,2)
        assert not is_valid_labeling([0, 1, 0], cand)
        assert is_valid_labeling([0, 1, 2], set())

    def test_enumeration_complete_graph_gives_bell(self):
        for r in range(1, 7):
            cand = set(itertools.combinations(range(r), 2))
            assert len(enumerate_valid_partitions(r, cand)) == bell_number(r)

    def test_enumeration_no_candidates_gives_singletons(self):
        parts = enumerate_valid_partitions(4, set())
        assert parts == [((0,), (1,), (2,), (3,))]

    def test_enumeration_matches_filtered_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = int(rng.integers(2, 7))
            all_pairs = list(itertools.combinations(range(r), 2))
            keep = rng.random(len(all_pairs)) < 0.5
            cand = {p for p, k in zip(all_pairs, keep) if k}
            expected = {
                part for part in brute_force_partitions(r)
                if is_valid_labeling(part, cand)
            }
            got = {tuple(partition_to_labeling(c))
                   for c in enumerate_valid_partitions(r, cand)}
            assert got == expected

    def test_capped_enumeration(self):
        """On complete graphs: Bell(r) distinct rows of cell heads, all
        singletons last, and None once the count passes the cap."""
        for r in range(1, 7):
            lower = [list(range(k)) for k in range(r)]
            rows = valid_partitions(lower, bell_number(r))
            assert rows.shape == (bell_number(r), r)
            assert len({tuple(row) for row in rows.tolist()}) == len(rows)
            assert np.all(rows[np.arange(len(rows))[:, None], rows] == rows)
            assert rows[-1].tolist() == list(range(r))
            assert valid_partitions(lower, bell_number(r) - 1) is None

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            enumerate_valid_partitions(11, set())


class TestCanonicalizeRows:
    @settings(max_examples=50)
    @given(st.integers(0, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_scalar(self, n, r, seed):
        rows = np.random.default_rng(seed).integers(0, 4, size=(n, r))
        out = canonicalize_label_rows(rows)
        for k in range(n):
            assert tuple(out[k]) == canonical_labels(rows[k])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.sampled_from([1, 2, 31, 32, 33, 64]),
           st.sampled_from([np.int32, np.int64]),
           st.sampled_from([1, 7, 1 << 16]), st.integers(0, 2**32 - 1))
    def test_matches_scalar_any_width_and_labels(self, n, r, dtype, cells,
                                                 seed):
        """Widths on both sides of 32, negative labels and labels at the
        ends of the dtype's range, rows split over blocks of any size."""
        info = np.iinfo(dtype)
        gen = np.random.default_rng(seed)
        alphabet = np.array([info.min, info.min + 1, -7, -1, 0, 3,
                             info.max - 1, info.max], dtype=dtype)
        rows = alphabet[gen.integers(0, len(alphabet), size=(n, r))]
        with mock.patch.object(textio, "_BLOCK_CELLS", cells):
            out = canonicalize_label_rows(rows)
        assert out.shape == (n, r)
        for k in range(n):
            assert tuple(out[k]) == canonical_labels(rows[k].tolist())

    @pytest.mark.parametrize("cells", [1, 37, 100, 1 << 16])
    def test_in_place_matches_out_of_place(self, cells):
        """Written over its own input, one block or many."""
        rng = np.random.default_rng(cells)
        rows = rng.integers(0, 25, size=(40, 25)).astype(np.int32)
        expected = canonicalize_label_rows(rows)
        with mock.patch.object(textio, "_BLOCK_CELLS", cells):
            out = canonicalize_label_rows(rows, out=rows)
        assert out is rows
        assert np.array_equal(rows, expected)

    def test_wide_path(self):
        # rows wider than 32 columns
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 50, size=(5, 40))
        out = canonicalize_label_rows(rows)
        for k in range(5):
            assert tuple(out[k]) == canonical_labels(rows[k])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            canonicalize_label_rows(np.zeros(3))
