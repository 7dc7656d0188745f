"""The retained store over active records: each distinct partition once,
as labels of the records that have a candidate pair in the smallest
unsigned type, plus the row of every draw; expanded to all records only
for distinct rows.

Every check compares the store with the full-width canonical labelings
it stands for: expansion against canonicalize_label_rows of the full
rows, and each summary and the labelings file against the same summary
of the full matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdedupe import gibbs, posterior, textio
from bayesdedupe.candidates import (CandidateGraph, FixRule, all_pairs,
                                    fix_noncoreferent)
from bayesdedupe.comparison import compare_pairs
from bayesdedupe.gibbs import (PosteriorSample, SamplerConfig, SamplerContext,
                               run_chain)
from bayesdedupe.model import PriorSpec
from bayesdedupe.partition import (canonicalize_label_rows, expand_label_rows,
                                   label_dtype)
from bayesdedupe.posterior import (duplicate_distribution,
                                   pairwise_probabilities,
                                   partition_frequency_table, pool_samples,
                                   save_labelings)
from bayesdedupe.records import Record

import oracles
from conftest import NAME_POOL, compared_setup, random_file, small_specs


def draw_store(rng, r, n_active, n_rows, n_cells=None):
    """(full, labels, active): random canonical labelings of r records in
    which only n_active of them may share a cell, and their store as
    run_chain keeps it (each label the active position of a member,
    canonicalized in place)."""
    active = np.sort(rng.choice(r, size=n_active, replace=False))
    z = np.tile(np.arange(r), (n_rows, 1))
    if n_active:
        cells = rng.integers(0, min(n_cells or n_active, n_active),
                             size=(n_rows, n_active))
        # a cell's label is one of its members, here its smallest
        for row, cell in zip(z, cells):
            _, cell = np.unique(cell, return_inverse=True)
            first = np.full(cell.max() + 1, len(row))
            np.minimum.at(first, cell, active)
            row[active] = first[cell]
    pos_of = np.zeros(r, dtype=label_dtype(n_active))
    pos_of[active] = np.arange(n_active)
    labels = pos_of[z[:, active]]
    canonicalize_label_rows(labels, out=labels)
    return canonicalize_label_rows(z), labels, active


def sample_of(labels, active, r):
    """The sample of a store's per-draw label rows: its distinct rows and
    the row of each draw."""
    n = len(labels)
    rows, index = oracles.distinct_rows(labels)
    return PosteriorSample(
        rows=rows, index=index, active=active, r=r,
        kept_iterations=np.arange(1, n + 1),
        m_trace=None, u_trace=None, fields=("f",), n_levels=(2,),
        runtime_s=0.0)


def graph_over(active, r, rng):
    """A graph whose candidate pairs are random pairs of active records."""
    pairs = np.array([(i, j) for k, i in enumerate(active)
                      for j in active[k + 1:] if rng.random() < 0.5],
                     dtype=np.int32).reshape(-1, 2)
    return CandidateGraph(r=r, pairs=pairs,
                          candidate_mask=np.ones(len(pairs), dtype=bool))


def assert_same_summaries(sample, full, graph, tmp_path):
    """Every summary and the labelings file of the store equal those of
    the full-width matrix."""
    assert sample.rows.dtype == label_dtype(len(sample.active))
    assert np.array_equal(sample.labelings, full)
    assert np.array_equal(pairwise_probabilities(sample, graph),
                          oracles.pairwise_probabilities(full, graph))
    assert duplicate_distribution(sample) == duplicate_distribution(full)
    assert (partition_frequency_table(sample)
            == oracles.partition_frequency_table(full))
    tmp_path.mkdir(exist_ok=True)
    save_labelings(tmp_path / "store.txt", sample)
    oracles.save_labelings(tmp_path / "full.txt", full)
    assert ((tmp_path / "store.txt").read_bytes()
            == (tmp_path / "full.txt").read_bytes())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 6),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_expansion_matches_full_canonicalization(r, share, n_rows, n_cells,
                                                 seed):
    rng = np.random.default_rng(seed)
    full, labels, active = draw_store(rng, r, int(share * r), n_rows, n_cells)
    assert np.array_equal(expand_label_rows(labels, active, r), full)
    # expansion keeps the lexicographic order of the rows
    assert (sorted(range(n_rows), key=lambda k: labels[k].tolist())
            == sorted(range(n_rows), key=lambda k: full[k].tolist()))
    # block by block, with blocks of one row inside the expansion
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK_CELLS", 1)
        rows = [expand_label_rows(labels[k:k + 2], active, r)
                for k in range(0, n_rows, 2)]
    assert np.array_equal(np.vstack(rows) if rows else full, full)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.floats(0, 1), st.integers(1, 12),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_summaries_match_full_width(tmp_path_factory, r, share, n_rows,
                                    n_cells, seed):
    """Few cells per row, so rows repeat and the frequency table has
    ties, whose order is that of the full labels."""
    rng = np.random.default_rng(seed)
    full, labels, active = draw_store(rng, r, int(share * r), n_rows, n_cells)
    assert_same_summaries(sample_of(labels, active, r), full,
                          graph_over(active, r, rng),
                          tmp_path_factory.mktemp("store"))


@pytest.mark.parametrize("n_active, dtype", [
    (255, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_uint8_boundary(tmp_path, n_active, dtype):
    rng = np.random.default_rng(n_active)
    full, labels, active = draw_store(rng, 300, n_active, 6, n_cells=200)
    assert labels.dtype == dtype
    assert_same_summaries(sample_of(labels, active, 300), full,
                          graph_over(active[:40], 300, rng), tmp_path)


@pytest.mark.parametrize("case", ["repeated", "distinct", "one_row"])
@pytest.mark.parametrize("block", [1 << 16, 1000])
def test_repeated_and_distinct_rows(tmp_path, case, block):
    """The labelings file and the summaries when rows repeat heavily, when
    no row repeats, and when every row of a write block is one row; with
    1,000 cells per write block, 300 records take three rows a block.
    The file is the same whether save_labelings keeps every rendered
    line for later blocks, none, or one at a time."""
    rng = np.random.default_rng(12)
    r = 300
    if case == "distinct":
        full, labels, active = draw_store(rng, r, 120, 400, n_cells=60)
        assert len(np.unique(labels, axis=0)) == 400
    else:
        full, labels, active = draw_store(
            rng, r, 120, 5 if case == "repeated" else 1, n_cells=40)
        pick = (rng.integers(0, 5, size=400) if case == "repeated"
                else np.zeros(400, dtype=int))
        full, labels = full[pick], labels[pick]
    graph = graph_over(active[:40], r, rng)
    if case == "distinct":  # every draw is a new partition
        assert np.array_equal(sample_of(labels, active, r).index,
                              np.arange(400))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK_CELLS", block)
        assert_same_summaries(sample_of(labels, active, r), full, graph,
                              tmp_path / "kept")
        line = len(render_line(full[0]))
        for budget, name in [(0, "none"), (line, "one")]:
            mp.setattr(posterior, "_KEPT_LINE_BYTES", budget)
            assert_same_summaries(sample_of(labels, active, r), full, graph,
                                  tmp_path / name)


def test_metric_summary_never_builds_the_full_width_matrix(rng):
    """metric_summary of a sample scores its distinct rows, expanded on
    their own; it never reads the sample's full-width labelings."""
    full, labels, active = draw_store(rng, 50, 20, 30, n_cells=3)
    ref = rng.integers(0, 30, size=50)
    want = oracles.metric_summary(full, ref)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PosteriorSample, "labelings", property(
            lambda self: pytest.fail("full-width labelings read")))
        assert posterior.metric_summary(sample_of(labels, active, 50),
                                        ref) == want


@pytest.mark.parametrize("n_active, dtype", [
    (65536, np.uint16), (65537, np.uint32)])
def test_uint16_boundary(n_active, dtype):
    rng = np.random.default_rng(n_active)
    full, labels, active = draw_store(rng, n_active + 3, n_active, 2)
    assert labels.dtype == dtype
    assert np.array_equal(expand_label_rows(labels, active, n_active + 3),
                          full)
    assert (duplicate_distribution(sample_of(labels, active, n_active + 3))
            == duplicate_distribution(full))


def render_line(row) -> bytes:
    return " ".join(str(int(v)) for v in row).encode()


def flat(comps):
    return PriorSpec.from_lambdas([np.full(n - 1, 0.5) for n in comps.n_levels])


def test_chain_with_no_active_records(tmp_path):
    """A fix rule that fixes every pair leaves no active record: every
    retained row is 0 1 ... r-1."""
    df = random_file(np.random.default_rng(3), 7, missing_rate=0.0)
    df.records = [Record(id=i, values=(name, *rec.values[1:]))
                  for i, (name, rec) in enumerate(zip(NAME_POOL, df.records))]
    comps = compare_pairs(df, all_pairs(7), small_specs())
    # every two names differ
    graph = fix_noncoreferent(comps, [FixRule(conditions=(("name", 1),))])
    sample = run_chain(comps, graph, flat(comps),
                       SamplerConfig(iterations=30, burn_in=5, seed=1))
    assert sample.rows.shape == (1, 0) and sample.r == 7
    assert np.array_equal(sample.index, np.zeros(25))
    full = np.tile(np.arange(7), (25, 1))
    assert_same_summaries(sample, full, graph, tmp_path)
    assert duplicate_distribution(sample)["max"] == 0


def test_chain_with_every_record_active(rng, tmp_path):
    _, comps, graph = compared_setup(rng, 8, fix_name_level=None)
    sample = run_chain(comps, graph, flat(comps),
                       SamplerConfig(iterations=60, burn_in=10, seed=2))
    assert np.array_equal(sample.active, np.arange(8))
    assert_same_summaries(sample, sample.rows[sample.index].astype(np.int32),
                          graph, tmp_path)


def test_two_pooled_chains(tmp_path):
    # only records of the same name stay linked
    df = random_file(np.random.default_rng(11), 14, missing_rate=0.0)
    comps = compare_pairs(df, all_pairs(14), small_specs())
    graph = fix_noncoreferent(comps, [FixRule(conditions=(("name", 1),))])
    a = run_chain(comps, graph, flat(comps),
                  SamplerConfig(iterations=80, burn_in=10, seed=1))
    b = run_chain(comps, graph, flat(comps),
                  SamplerConfig(iterations=50, burn_in=10, seed=2))
    assert 0 < len(a.active) < 14
    members = np.unique(graph.candidate_pairs())
    assert np.array_equal(a.active, members)
    pooled = pool_samples([a, b])
    full = np.vstack([a.labelings, b.labelings])
    # the full rows are the canonical labelings the chain kept
    assert np.array_equal(canonicalize_label_rows(full), full)
    assert_same_summaries(pooled, full, graph, tmp_path)


def capture_sweeps(monkeypatch) -> list:
    """The labeling after every sweep of the chains run from here on."""
    captured = []
    sweep = gibbs.sweep

    def spy(ctx, state, rng, flat, random_scan=False):
        drawn = sweep(ctx, state, rng, flat, random_scan)
        captured.append(state.z.copy())
        return drawn

    monkeypatch.setattr(gibbs, "sweep", spy)
    return captured


@pytest.mark.parametrize("random_scan", [False, True])
@pytest.mark.parametrize("r, fix_level, path", [
    (12, 3, "block"), (10, None, "single_site"), (14, None, "single_site")])
def test_store_holds_the_retained_sweeps(monkeypatch, random_scan, r,
                                         fix_level, path):
    """rows[index], expanded, is the canonical labeling of every retained
    sweep, and rows holds each partition once, in order of first
    retention. With every record single-site (one complete component of
    10 or 14 records) label holders leave cells, so several raw rows are
    one partition and are merged."""
    captured = capture_sweeps(monkeypatch)
    _, comps, graph = compared_setup(np.random.default_rng(100), r,
                                     fix_name_level=fix_level)
    ctx = SamplerContext(comps, graph)
    assert bool(ctx.single_site) == (path == "single_site")
    cfg = SamplerConfig(iterations=400, burn_in=37, thinning=3, seed=5,
                        random_scan=random_scan)
    sample = run_chain(None, None, flat(comps), cfg, ctx=ctx)
    retained = np.array(captured[cfg.burn_in::cfg.thinning])
    assert sample.n_kept == len(retained) == cfg.n_kept
    assert np.array_equal(
        expand_label_rows(sample.rows[sample.index], sample.active, r),
        canonicalize_label_rows(retained))
    assert sample.rows.dtype == label_dtype(len(sample.active))
    assert len(np.unique(sample.rows, axis=0)) == len(sample.rows)
    first = np.unique(sample.index, return_index=True)[1]
    assert np.array_equal(np.sort(first), first)
    assert np.array_equal(np.unique(sample.index), np.arange(len(sample.rows)))
    pos_of = np.zeros(r, dtype=np.int64)
    pos_of[sample.active] = np.arange(len(sample.active))
    raw = len(np.unique(pos_of[retained[:, sample.active]], axis=0))
    if path == "single_site":
        assert raw > len(sample.rows)
    else:
        assert raw == len(sample.rows)


def test_pooling_merges_shared_partitions(tmp_path):
    """Two chains on one file visit many of the same partitions; the
    pooled store holds each once and summarizes as the pooled full-width
    matrices do."""
    _, comps, graph = compared_setup(np.random.default_rng(100), 10,
                                     fix_name_level=None)
    a, b = (run_chain(comps, graph, flat(comps),
                      SamplerConfig(iterations=300, burn_in=20, seed=seed))
            for seed in (1, 2))
    pooled = pool_samples([a, b])
    assert len(pooled.rows) < len(a.rows) + len(b.rows)
    assert len(np.unique(pooled.rows, axis=0)) == len(pooled.rows)
    full = np.vstack([a.labelings, b.labelings])
    assert_same_summaries(pooled, full, graph, tmp_path)
