"""Posterior summaries, pairwise metrics, and serialization."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayesdedupe import posterior
from bayesdedupe.errors import DataError
from bayesdedupe.gibbs import PosteriorSample, SamplerConfig, run_chain
from bayesdedupe.model import PriorSpec
from bayesdedupe.posterior import (
    confusion_arrays,
    duplicate_distribution,
    duplicate_percentage,
    load_distinct_labelings,
    load_labelings,
    load_truth,
    metric_summary,
    pairwise_probabilities,
    partition_frequency_table,
    pool_samples,
    precision_recall_arrays,
    save_labelings,
    save_phi_trace,
    write_frequency_csv,
    write_json,
    write_pairwise_csv,
)

from conftest import compared_setup
from oracles import narrow_rows


def fake_sample(labelings, m_trace=None, u_trace=None, active=None):
    """A sample of canonical label rows, stored as run_chain stores them:
    over the active records, by default those that share a cell in some
    row."""
    labelings = np.asarray(labelings, dtype=np.int32)
    labels, active = narrow_rows(labelings, active)
    n, r = labelings.shape
    cfg = SamplerConfig(iterations=max(n, 1))
    return PosteriorSample(
        labels=labels, active=active, r=r,
        kept_iterations=np.arange(1, n + 1),
        m_trace=m_trace, u_trace=u_trace, fields=("f",), n_levels=(2,),
        seed=0, config=cfg, runtime_s=0.0)


def confusion_counts(est, ref):
    """(b11, b10, b01) of one labeling, through confusion_arrays."""
    b11, b10, b01 = confusion_arrays(np.asarray(est)[None, :], ref)
    return int(b11[0]), int(b10[0]), int(b01[0])


def precision_recall(est, ref):
    """(precision, recall) of one labeling, through precision_recall_arrays."""
    precs, recs = precision_recall_arrays(np.asarray(est)[None, :], ref)
    return float(precs[0]), float(recs[0])


def brute_confusion(est, ref):
    b11 = b10 = b01 = 0
    for i, j in itertools.combinations(range(len(est)), 2):
        e = est[i] == est[j]
        t = ref[i] == ref[j]
        b11 += e and t
        b10 += e and not t
        b01 += t and not e
    return b11, b10, b01


class TestConfusionCounts:
    def test_frozen(self):
        est = [0, 0, 1, 1, 2]
        ref = [0, 0, 0, 1, 2]
        # est pairs: (0,1),(2,3); ref pairs: (0,1),(0,2),(1,2)
        assert confusion_counts(est, ref) == (1, 1, 2)

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, r, seed):
        g = np.random.default_rng(seed)
        est = g.integers(0, 4, size=r)
        ref = g.integers(0, 4, size=r)
        assert confusion_counts(est, ref) == brute_confusion(
            est.tolist(), ref.tolist())

    def test_label_alphabet_irrelevant(self):
        assert confusion_counts([5, 5, 9], ["a", "a", "b"]) == (1, 0, 0)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            confusion_counts([0, 1], [0, 1, 2])


class TestPrecisionRecall:
    def test_perfect(self):
        p, r = precision_recall([0, 0, 1], [7, 7, 3])
        assert (p, r) == (1.0, 1.0)

    def test_empty_denominators_score_one(self):
        # estimate all singletons: nothing asserted, precision 1
        p, r = precision_recall([0, 1, 2], [0, 0, 1])
        assert p == 1.0
        assert r == 0.0
        # reference all singletons: nothing to find, recall 1
        p, r = precision_recall([0, 0, 1], [0, 1, 2])
        assert p == 0.0
        assert r == 1.0

    def test_partial(self):
        p, r = precision_recall([0, 0, 1, 1], [0, 0, 0, 1])
        # est pairs {01, 23}; ref pairs {01, 02, 12}
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(1 / 3)


class TestDuplicateSummaries:
    def test_duplicate_percentage(self):
        assert duplicate_percentage(100, 90) == pytest.approx(10.0)
        assert 7.04 <= duplicate_percentage(5395, 5008) <= 7.30
        with pytest.raises(ValueError):
            duplicate_percentage(0, 0)

    def test_distribution(self):
        # 4 records; cells per draw: 4, 3, 3, 2 -> duplicates 0,1,1,2
        sample = fake_sample([[0, 1, 2, 3], [0, 0, 1, 2],
                              [0, 1, 1, 2], [0, 0, 1, 1]])
        d = duplicate_distribution(sample, interval=0.5)
        assert d["records"] == 4
        assert d["mean"] == pytest.approx(1.0)
        assert d["median"] == pytest.approx(1.0)
        assert (d["min"], d["max"]) == (0, 2)
        assert d["interval_level"] == 0.5
        lo, hi = d["interval"]
        assert lo <= 1 <= hi
        assert d["percent_mean"] == pytest.approx(25.0)

    def test_interval_is_conservative(self):
        sample = fake_sample(np.zeros((100, 3), dtype=np.int32)
                             + np.arange(3, dtype=np.int32))
        d = duplicate_distribution(sample)
        assert d["interval"] == [0, 0]


class TestMetricSummary:
    def test_summary_structure(self):
        sample = fake_sample([[0, 0, 1], [0, 1, 2]])
        ref = [0, 0, 1]
        s = metric_summary(sample, ref)
        assert set(s) == {"precision", "recall"}
        assert set(s["recall"]) == {"median", "p01", "p99"}
        # draws have recall 1.0 and 0.0
        assert s["recall"]["median"] == pytest.approx(0.5)
        assert s["precision"]["median"] == pytest.approx(1.0)


class TestPairwiseProbabilities:
    def test_counts(self, rng, tmp_path):
        _, comps, graph = compared_setup(rng, 6, fix_name_level=None)
        sample = fake_sample([[0, 0, 1, 2, 3, 4],
                              [0, 0, 0, 1, 2, 3],
                              [0, 1, 2, 3, 4, 5]],
                             active=np.unique(graph.candidate_pairs()))
        probs = pairwise_probabilities(sample, graph)
        pairs = graph.candidate_pairs()
        for (i, j), p in zip(pairs, probs):
            expect = np.mean([row[i] == row[j]
                              for row in sample.labelings])
            assert p == pytest.approx(expect)
        p = tmp_path / "pairs.csv"
        write_pairwise_csv(p, graph, probs)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "i,j,probability"
        assert len(lines) == len(pairs) + 1


class TestFrequencyTable:
    def test_ordering_and_totals(self):
        sample = fake_sample([[0, 0, 1]] * 3 + [[0, 1, 2]] * 2
                             + [[0, 1, 1]])
        table = partition_frequency_table(sample)
        assert [count for _, count, _ in table] == [3, 2, 1]
        assert table[0][0] == (0, 0, 1)
        assert sum(freq for _, _, freq in table) == pytest.approx(1.0)

    def test_write(self, tmp_path):
        sample = fake_sample([[0, 0, 1], [0, 1, 2]])
        p = tmp_path / "freq.csv"
        write_frequency_csv(p, partition_frequency_table(sample))
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "partition,count,frequency"
        assert len(lines) == 3
        assert lines[1].startswith("0,1/2,") or lines[1].startswith("0/1/2,")


class TestPooling:
    def test_pool_concatenates(self, rng):
        _, comps, graph = compared_setup(rng, 8)
        prior = PriorSpec.from_lambdas(
            [np.full(n - 1, 0.5) for n in comps.n_levels])
        a = run_chain(comps, graph, prior, SamplerConfig(iterations=20, seed=1))
        b = run_chain(comps, graph, prior, SamplerConfig(iterations=30, seed=2))
        pooled = pool_samples([a, b])
        assert pooled.n_kept == 50
        assert np.array_equal(pooled.labelings[:20], a.labelings)
        assert np.array_equal(pooled.labelings[20:], b.labelings)
        assert pooled.m_trace.shape[0] == 50

    def test_pool_single_passthrough(self):
        s = fake_sample([[0, 0]])
        assert pool_samples([s]) is s

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            pool_samples([])
        with pytest.raises(ValueError):
            pool_samples([fake_sample([[0, 0]]), fake_sample([[0, 0, 1]])])


class TestSerialization:
    def test_labelings_roundtrip(self, tmp_path):
        sample = fake_sample([[0, 0, 1, 2], [0, 1, 2, 3]])
        p = tmp_path / "labelings.txt"
        save_labelings(p, sample)
        rows, index = load_distinct_labelings(p)
        assert np.array_equal(rows[index], sample.labelings)
        # the full matrix, as the benchmark's output checks read it
        assert np.array_equal(load_labelings(p), sample.labelings)

    def test_load_labelings_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 0 1\n0 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="ragged"):
            load_distinct_labelings(p)
        p.write_text("0 x 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="unparseable"):
            load_distinct_labelings(p)
        for text in ("", "\n \t\r\n\r"):
            p.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match="no labelings"):
                load_distinct_labelings(p)
        # a repeated bad line is reported where it first occurs, and the
        # first bad line of the file wins
        for text, where in [
                (b"0 1\n0 x\n0 1\n0 x\n", "2: unparseable"),
                (b"0 1\r\n\n0 1\r0 1 2\n0 1\n0 1 2\n", "4: ragged"),
                (b"0 1\n9 9\n0 2147483648\n9 9\n0 2147483648", "3: label out"),
                (b"\n0 1\n0 1 2\n0 x\n0 1 2\n", "3: ragged")]:
            p.write_bytes(text)
            with pytest.raises(DataError, match=rf"bad\.txt:{where}"):
                load_distinct_labelings(p)

    def test_load_labelings_accepts(self, tmp_path):
        p = tmp_path / "labelings.txt"
        def load(text):
            p.write_bytes(text)
            rows, index = load_distinct_labelings(p)
            return rows.tolist(), index.tolist()

        # lines are keyed by their bytes, so equal labels in other spelling
        # make a row of their own
        assert load(b"0 0\t1\r\n\r\n  0 1 2  \n\n000 001 0002") == (
            [[0, 0, 1], [0, 1, 2], [0, 1, 2]], [0, 1, 2])
        assert load(b"0 1\r0 0\r") == ([[0, 1], [0, 0]], [0, 1])  # lone CR
        assert load(b"2147483647 000000000002147483647\n") == (
            [[2**31 - 1, 2**31 - 1]], [0])
        # lines that differ only in their terminator are one row
        assert load(b"0 1\r\n0 1\n\n0 0\r0 1\r\n0 0") == (
            [[0, 1], [0, 0]], [0, 0, 1, 0, 1])

    def test_each_distinct_line_parsed_once(self, tmp_path):
        p = tmp_path / "labelings.txt"
        p.write_bytes(b"0 1 1\n\n0 1 1\r\n0 0 0\r0 1 1\n \n0 0 0\n" * 50)
        parse = posterior._parse_labeling_block
        with mock.patch.object(posterior, "_parse_labeling_block",
                               wraps=parse) as spy:
            rows, index = load_distinct_labelings(p)
        assert rows.tolist() == [[0, 1, 1], [0, 0, 0]]
        assert index.tolist() == [0, 0, 1, 0, 1] * 50
        assert sum(call.args[1].count(b"\n")
                   for call in spy.call_args_list) == 2

    @pytest.mark.parametrize("token", [
        "+1", "-1", "1_0", "1.0", "0x1", "1e3", "\u0661", "\u00a0", "\x0c"])
    def test_load_labelings_rejects_other_tokens(self, tmp_path, token):
        # int() accepts signs, underscores and non-ASCII digits; labels
        # are plain ASCII digits
        p = tmp_path / "labelings.txt"
        p.write_text(f"0 1\r\n\n0 {token}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"labelings\.txt:3: unparseable"):
            load_distinct_labelings(p)

    def test_load_labelings_rejects_labels_beyond_int32(self, tmp_path):
        p = tmp_path / "labelings.txt"
        p.write_text("0 1\n0 2147483648\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"labelings\.txt:2: label out of"):
            load_distinct_labelings(p)

    def test_summaries_take_the_label_matrix(self):
        sample = fake_sample([[0, 0, 1], [0, 1, 2], [0, 1, 1]])
        ref = [0, 0, 1]
        L = sample.labelings
        assert metric_summary(L, ref) == metric_summary(sample, ref)
        assert duplicate_distribution(L) == duplicate_distribution(sample)
        assert (partition_frequency_table(L)
                == partition_frequency_table(sample))

    def test_package_deprecation_warnings_are_errors(self):
        # pyproject.toml turns DeprecationWarnings raised from package code
        # into errors, so deprecated numpy text paths fail the suite
        import warnings
        with pytest.raises(DeprecationWarning):
            warnings.warn_explicit("deprecated", DeprecationWarning,
                                   "posterior.py", 1,
                                   module="bayesdedupe.posterior")

    def test_phi_trace(self, rng, tmp_path):
        _, comps, graph = compared_setup(rng, 6)
        prior = PriorSpec.from_lambdas(
            [np.full(n - 1, 0.5) for n in comps.n_levels])
        sample = run_chain(comps, graph, prior,
                           SamplerConfig(iterations=5, seed=3))
        p = tmp_path / "phi.csv"
        save_phi_trace(p, sample)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "iteration,field,level,m,u"
        n_params = sum(n - 1 for n in comps.n_levels)
        assert len(lines) == 1 + 5 * n_params

    def test_phi_trace_requires_trace(self, tmp_path):
        sample = fake_sample([[0, 0]])
        with pytest.raises(DataError):
            save_phi_trace(tmp_path / "phi.csv", sample)

    def test_truth_roundtrip(self, tmp_path):
        from bayesdedupe.synthgen import write_truth
        p = tmp_path / "truth.csv"
        write_truth(p, np.array([0, 1, 0, 2]))
        t = load_truth(p)
        assert t.tolist() == [0, 1, 0, 2]
        t2 = load_truth(p, r=4)
        assert np.array_equal(t, t2)

    def test_truth_validation(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("record_id,entity_id\n0,0\n2,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="cover"):
            load_truth(p)
        p.write_text("record_id,entity_id\n0,0\n0,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_truth(p)
        p.write_text("nope\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_truth(p)

    def test_write_json(self, tmp_path):
        import json
        p = tmp_path / "out.json"
        write_json(p, {"b": 1, "a": [1, 2]})
        data = json.loads(p.read_text())
        assert data == {"b": 1, "a": [1, 2]}
