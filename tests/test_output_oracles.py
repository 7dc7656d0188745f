"""The block-wise output and summary layer against its per-row oracles.

Every file must be byte-identical to the per-row writers in oracles.py,
and every summary number identical to the per-draw computations there.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from bayesdedupe import posterior, textio
from bayesdedupe.candidates import CandidateGraph
from bayesdedupe.comparison import PairComparisons
from bayesdedupe.errors import DataError

# values on both sides of each digit-width step, and the int32 limits
EDGE_VALUES = [0, 1, 8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001,
               2**31 - 1]
LEVELS = [-1, 0, 1, 2, 8, 9, 10, 11, 98, 99, 100, 101, 127]
BLOCKS = st.sampled_from([1, 7, 1 << 16])


def same_bytes(tmp_path, write_new, write_old) -> bool:
    new, old = tmp_path / "new", tmp_path / "old"
    write_new(new)
    write_old(old)
    return new.read_bytes() == old.read_bytes()


@st.composite
def comparisons(draw):
    n = draw(st.integers(0, 40))
    k = draw(st.integers(1, 5))
    pairs = np.array(draw(st.lists(
        st.tuples(st.sampled_from(EDGE_VALUES), st.sampled_from(EDGE_VALUES)),
        min_size=n, max_size=n)), dtype=np.int32).reshape(n, 2)
    levels = np.array(draw(st.lists(st.sampled_from(LEVELS), min_size=n * k,
                                    max_size=n * k)), dtype=np.int8)
    fields = tuple(f"f{c}" for c in range(k))
    return PairComparisons(2**31, fields, (128,) * k, pairs,
                           levels.reshape(n, k))


class TestWriters:
    @settings(max_examples=60, deadline=None)
    @given(comps=comparisons(), block=BLOCKS, data=st.data())
    def test_comparisons_and_edges(self, tmp_path_factory, comps, block, data):
        tmp = tmp_path_factory.mktemp("w")
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(comps),
                                           max_size=len(comps))), dtype=bool)
        graph = CandidateGraph(r=2**31, pairs=comps.pairs, candidate_mask=mask)
        with mock.patch.object(textio, "_BLOCK_CELLS", block):
            assert same_bytes(tmp, comps.write_csv,
                              lambda p: oracles.write_comparisons_csv(p, comps))
            assert same_bytes(tmp, graph.write_edges,
                              lambda p: oracles.write_edges(p, graph))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 12), cols=st.integers(0, 12), block=BLOCKS,
           data=st.data())
    def test_labelings(self, tmp_path_factory, rows, cols, block, data):
        tmp = tmp_path_factory.mktemp("l")
        values = st.one_of(st.sampled_from(EDGE_VALUES),
                           st.integers(-2**63, 2**63 - 1))
        L = np.array(data.draw(st.lists(values, min_size=rows * cols,
                                        max_size=rows * cols)),
                     dtype=np.int64).reshape(rows, cols)
        with mock.patch.object(textio, "_BLOCK_CELLS", block):
            assert same_bytes(tmp, lambda p: posterior.save_labelings(p, L),
                              lambda p: oracles.save_labelings(p, L))


    @settings(max_examples=60, deadline=None)
    @given(n_levels=st.lists(st.integers(2, 4), min_size=1, max_size=4),
           draws=st.integers(0, 7), block=st.sampled_from([1, 3, 1024]),
           data=st.data())
    def test_phi_trace(self, tmp_path_factory, n_levels, draws, block, data):
        """Field names needing csv quoting or holding format characters,
        and any float, including NaN, infinities and negative zero."""
        tmp = tmp_path_factory.mktemp("t")
        names = st.one_of(st.sampled_from(["name", "a,b", 'say "hi"', "%d %%",
                                           "{0}", "two\nlines", " "]),
                          st.text(min_size=1, max_size=6))
        fields = tuple(data.draw(names) for _ in n_levels)
        k = sum(n - 1 for n in n_levels)
        floats = st.one_of(st.floats(0, 1), st.floats(allow_nan=True))
        m = np.array(data.draw(st.lists(floats, min_size=draws * k,
                                        max_size=draws * k))).reshape(draws, k)
        u = np.array(data.draw(st.lists(floats, min_size=draws * k,
                                        max_size=draws * k))).reshape(draws, k)
        iterations = np.array(data.draw(st.lists(
            st.integers(1, 10**12), min_size=draws, max_size=draws)),
            dtype=np.int64)
        sample = SimpleNamespace(
            fields=fields, n_levels=tuple(n_levels), n_kept=draws,
            kept_iterations=iterations, m_trace=m, u_trace=u)
        with mock.patch.object(posterior, "_TRACE_DRAWS", block):
            assert same_bytes(tmp,
                              lambda p: posterior.save_phi_trace(p, sample),
                              lambda p: oracles.save_phi_trace(p, sample))


def label_matrices(max_rows=12, max_cols=9):
    """Label matrices mixing canonical, non-canonical, negative and
    large labels."""
    alphabets = st.sampled_from([
        st.integers(0, 3), st.integers(-3, 3), st.integers(0, 40),
        st.sampled_from([-2**62, -1, 0, 7, 2**31 - 1, 2**62])])

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_rows))
        r = draw(st.integers(0, max_cols))
        labels = draw(alphabets)
        return np.array(draw(st.lists(labels, min_size=n * r,
                                      max_size=n * r)),
                        dtype=np.int64).reshape(n, r)

    return build()


class TestMetrics:
    @settings(max_examples=150, deadline=None)
    @given(L=label_matrices(), data=st.data(),
           cells=st.sampled_from([1, 5, 1 << 18]))
    def test_precision_recall_arrays(self, L, data, cells):
        r = L.shape[1]
        ref = np.array(data.draw(st.lists(st.integers(-2, 4), min_size=r,
                                          max_size=r)), dtype=np.int64)
        with mock.patch.object(posterior, "_SUMMARY_CELLS", cells):
            precs, recs = posterior.precision_recall_arrays(L, ref)
            want_p, want_r = oracles.precision_recall_arrays(L, ref)
            assert np.array_equal(precs, want_p)
            assert np.array_equal(recs, want_r)
            assert (posterior.metric_summary(L, ref)
                    == oracles.metric_summary(L, ref))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), cells=st.sampled_from([1, 5, 1 << 18]))
    def test_summaries_of_distinct_rows(self, data, cells):
        """Scored once per row of a pool and gathered by index, every
        number equals the summary of the gathered matrix."""
        pool = data.draw(label_matrices(max_rows=5))
        index = np.array(data.draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=30)))
        r = pool.shape[1]
        ref = np.array(data.draw(st.lists(st.integers(-2, 4), min_size=r,
                                          max_size=r)), dtype=np.int64)
        with mock.patch.object(posterior, "_SUMMARY_CELLS", cells):
            assert (posterior.metric_summary(pool, ref, index=index)
                    == oracles.metric_summary(pool[index], ref))
            assert (posterior.duplicate_distribution(pool, index=index)
                    == posterior.duplicate_distribution(pool[index]))

    def test_special_cases(self):
        r = 30
        rng = np.random.default_rng(4)
        draws = np.vstack([
            np.arange(r),                        # all singletons
            np.zeros(r, dtype=np.int64),         # one cell
            rng.integers(0, 5, size=r) * 10**9,  # large non-canonical labels
            -rng.integers(1, 4, size=r),         # negative labels
        ])
        truths = [np.zeros(r, dtype=np.int64),   # one giant cluster
                  np.arange(r),                  # no coreferent pairs
                  rng.integers(0, 8, size=r)]
        for ref in truths:
            precs, recs = posterior.precision_recall_arrays(draws, ref)
            want_p, want_r = oracles.precision_recall_arrays(draws, ref)
            assert np.array_equal(precs, want_p)
            assert np.array_equal(recs, want_r)
        # empty denominators score 1
        precs, recs = posterior.precision_recall_arrays(draws[:1], np.arange(r))
        assert (precs[0], recs[0]) == (1.0, 1.0)


class TestPairwise:
    @settings(max_examples=100, deadline=None)
    @given(L=label_matrices(), data=st.data(),
           cells=st.sampled_from([1, 5, 1 << 18]))
    def test_matches_all_draws_at_once(self, L, data, cells):
        """Equal probabilities, so pairwise_probabilities.csv keeps its
        bytes."""
        r = L.shape[1]
        all_pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(all_pairs),
                                           max_size=len(all_pairs))), dtype=bool)
        graph = CandidateGraph(r=r, pairs=np.array(all_pairs, dtype=np.int32
                                                   ).reshape(-1, 2),
                               candidate_mask=mask)
        with mock.patch.object(posterior, "_SUMMARY_CELLS", cells):
            got = posterior.pairwise_probabilities(L, graph)
        assert np.array_equal(got, oracles.pairwise_probabilities(L, graph))


class TestFrequencyTable:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), cells=st.sampled_from([1, 5, 1 << 18]))
    def test_matches_unique_rows(self, data, cells):
        pool = data.draw(label_matrices(max_rows=5))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=1, max_size=30))
        L = pool[picks]
        want = oracles.partition_frequency_table(L)
        with mock.patch.object(posterior, "_SUMMARY_CELLS", cells):
            assert posterior.partition_frequency_table(L) == want
            # every row hashing alike must not merge distinct rows
            with mock.patch.object(posterior, "_row_hashes",
                                   lambda M: np.zeros(len(M), np.uint64)):
                assert posterior.partition_frequency_table(L) == want

    def test_ties_in_lexicographic_order(self):
        rows = [[0, 1, 1], [0, 0, 1], [0, 1, 2], [0, 0, 0]]
        L = np.array([rows[k] for k in (2, 0, 3, 1, 2, 0, 3, 1)])
        table = posterior.partition_frequency_table(L)
        assert [labels for labels, _, _ in table] == sorted(map(tuple, rows))
        assert table == oracles.partition_frequency_table(L)


@st.composite
def labeling_files(draw):
    """Labeling text with the freedoms the parser documents: leading
    zeros, runs of spaces and tabs, blank lines, LF, CRLF and CR endings,
    a missing final newline, and now and then a row of another length or
    with a stray token. Lines are drawn from a small pool, so most of
    them repeat, each time with its own line end."""
    width = draw(st.integers(1, 5))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            pool.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        n = width if draw(st.integers(0, 5)) else draw(st.integers(1, 6))
        tokens = [str(draw(st.integers(0, 10**9))).zfill(draw(st.integers(1, 12)))
                  for _ in range(n)]
        if draw(st.integers(0, 7)) == 0:
            tokens[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["x", "-1"]))
        gaps = [draw(st.sampled_from(["", " ", "\t", "  "])) for _ in range(2)]
        sep = draw(st.sampled_from([" ", "\t", " \t "]))
        pool.append(gaps[0] + sep.join(tokens) + gaps[1])
    lines = draw(st.lists(st.sampled_from(pool), max_size=12))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("ascii")


def load_matrix(path):
    """The label matrix of a labelings file, gathered from its distinct
    rows."""
    rows, index = posterior.load_distinct_labelings(path)
    return rows[index]


def load_or_error(load, path):
    try:
        return load(path)
    except DataError as exc:
        return str(exc)


class TestLoadLabelings:
    @settings(max_examples=200, deadline=None)
    @given(text=labeling_files(), parse=st.sampled_from([1, 3, 1 << 20]))
    def test_matches_line_reader(self, tmp_path_factory, text, parse):
        p = tmp_path_factory.mktemp("t") / "labelings.txt"
        p.write_bytes(text)
        want = load_or_error(oracles.load_labelings, p)
        with mock.patch.object(posterior, "_PARSE_BYTES", parse):
            got = load_or_error(load_matrix, p)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(text=labeling_files(), parse=st.sampled_from([1, 3, 1 << 20]))
    def test_one_row_per_distinct_line(self, tmp_path_factory, text, parse):
        """One row per distinct non-blank line, whatever its line end, in
        order of first occurrence."""
        p = tmp_path_factory.mktemp("d") / "labelings.txt"
        p.write_bytes(text)
        with mock.patch.object(posterior, "_PARSE_BYTES", parse):
            got = load_or_error(posterior.load_distinct_labelings, p)
        assume(not isinstance(got, str))
        rows, index = got
        lines = [line for line in text.splitlines() if line.strip(b" \t")]
        assert len(rows) == len(set(lines))
        first = np.unique(index, return_index=True)[1]
        assert np.array_equal(np.sort(first), first)
        assert np.array_equal(np.unique(index), np.arange(len(rows)))

    @settings(max_examples=30, deadline=None)
    @given(L=label_matrices(), parse=st.sampled_from([1, 3, 1 << 20]))
    def test_reads_what_save_labelings_writes(self, tmp_path_factory, L, parse):
        assume(L.shape[1] > 0)
        L = np.abs(L) % 2**31
        p = tmp_path_factory.mktemp("s") / "labelings.txt"
        posterior.save_labelings(p, L)
        with mock.patch.object(posterior, "_PARSE_BYTES", parse):
            assert np.array_equal(load_matrix(p), L)
