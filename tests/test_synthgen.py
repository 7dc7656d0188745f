"""Synthetic file generator: allocation law, corruption kinds, determinism."""

import math

import numpy as np
import pytest

from bayesdedupe.errors import ConfigError, DataError
from bayesdedupe.records import write_delimited
from bayesdedupe.synthgen import (
    ERROR_KINDS,
    KEYBOARD_NEIGHBORS,
    OCR_CONFUSIONS,
    GeneratorConfig,
    SynthField,
    corrupt_field,
    default_fields,
    generate,
    load_frequency_table,
    load_joint_table,
    load_misspellings,
    random_edit,
    sample_duplicate_count,
    truncated_poisson_pmf,
    write_truth,
)

from oracles import levenshtein


class TestDuplicateCountLaw:
    def test_pmf_is_unit_poisson_on_one_to_five(self):
        pmf = truncated_poisson_pmf()
        weights = [1 / math.factorial(k) for k in range(1, 6)]
        expect = np.array(weights) / sum(weights)
        assert pmf == pytest.approx(expect, abs=1e-15)
        assert pmf[0] == pytest.approx(0.5825243, abs=1e-6)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_empirical_matches_pmf(self):
        rng = np.random.default_rng(314)
        n = 1_000_000
        draws = np.array([sample_duplicate_count(rng) for _ in range(n)])
        assert draws.min() >= 1 and draws.max() <= 5
        pmf = truncated_poisson_pmf()
        for k in range(1, 6):
            p = pmf[k - 1]
            se = math.sqrt(p * (1 - p) / n)
            emp = float((draws == k).mean())
            assert abs(emp - p) < 3 * se + 1e-9, f"k={k}: {emp} vs {p}"


class TestCorruptions:
    def test_random_edit_changes_length_by_at_most_one(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = "CARLOS"
            t = random_edit(rng, s)
            assert abs(len(t) - len(s)) <= 1
            assert levenshtein(s, t) <= 1

    def test_random_edit_on_digits_stays_digits(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = random_edit(rng, "0612345678")
            assert t.isdigit()

    def test_random_edit_empty_string_inserts(self):
        rng = np.random.default_rng(2)
        t = random_edit(rng, "")
        assert len(t) == 1

    def test_ocr_substitutes_confusable_character(self):
        rng = np.random.default_rng(3)
        fb = {"ocr": 0}
        t = corrupt_field(rng, "BODEGA", "ocr", {}, fb)
        assert fb["ocr"] == 0
        assert len(t) == 6
        diff = [(a, b) for a, b in zip("BODEGA", t) if a != b]
        assert len(diff) == 1
        a, b = diff[0]
        assert OCR_CONFUSIONS[a] == b

    def test_ocr_falls_back_when_no_site(self):
        rng = np.random.default_rng(4)
        fb = {"ocr": 0}
        t = corrupt_field(rng, "XXX", "ocr", {}, fb)
        assert fb["ocr"] == 1
        assert t != "XXX" or levenshtein("XXX", t) <= 1

    def test_keyboard_swaps_adjacent_key(self):
        rng = np.random.default_rng(5)
        fb = {"keyboard": 0}
        t = corrupt_field(rng, "MARIA", "keyboard", {}, fb)
        diff = [(a, b) for a, b in zip("MARIA", t) if a != b]
        assert len(diff) == 1
        a, b = diff[0]
        assert b in KEYBOARD_NEIGHBORS[a]

    def test_phonetic_applies_rule(self):
        rng = np.random.default_rng(6)
        fb = {"phonetic": 0}
        t = corrupt_field(rng, "PHILIPPE", "phonetic", {}, fb)
        assert fb["phonetic"] == 0
        assert t != "PHILIPPE"

    def test_missing(self):
        rng = np.random.default_rng(7)
        assert corrupt_field(rng, "X", "missing", {}, {}) is None

    def test_misspelling_uses_table_or_falls_back(self):
        rng = np.random.default_rng(8)
        fb = {"misspelling": 0}
        t = corrupt_field(rng, "GOMEZ", "misspelling",
                          {"GOMEZ": ("GOMES",)}, fb)
        assert t == "GOMES"
        assert fb["misspelling"] == 0
        corrupt_field(rng, "ZZZZ", "misspelling", {}, fb)
        assert fb["misspelling"] == 1

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            corrupt_field(np.random.default_rng(0), "X", "smudge", {}, {})


class TestTables:
    def test_bundled_frequency_table(self):
        values, probs = load_frequency_table("family_names.csv")
        assert len(values) == len(probs) >= 50
        assert probs.sum() == pytest.approx(1.0)
        assert all(v == v.upper() for v in values)

    def test_bundled_joint_tables(self):
        rows, cols, probs = load_joint_table("gender_given_names.csv")
        assert set(cols) == {"M", "F"}
        assert probs.sum() == pytest.approx(1.0)
        rows2, cols2, probs2 = load_joint_table("age_occupation.csv")
        assert len(set(rows2)) == 8
        assert len(set(cols2)) == 8

    def test_bundled_misspellings(self):
        table = load_misspellings("family_misspellings.csv")
        assert len(table) >= 10
        assert all(isinstance(v, tuple) and v for v in table.values())

    def test_disk_table_and_errors(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("value,count\nA,3\nB,1\n", encoding="utf-8")
        values, probs = load_frequency_table(str(p))
        assert values == ["A", "B"]
        assert probs == pytest.approx([0.75, 0.25])
        p.write_text("value,count\nA,0\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_frequency_table(str(p))
        p.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_frequency_table(str(p))
        with pytest.raises(ConfigError):
            load_frequency_table("no_such_table.csv")

    def test_unreadable_disk_table(self, tmp_path):
        folder = tmp_path / "table.csv"
        folder.mkdir()
        with pytest.raises(DataError, match="table.csv"):
            load_frequency_table(str(folder))
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"value,count\nJOS\xc9,1\n")
        with pytest.raises(DataError, match="latin.csv"):
            load_frequency_table(str(latin))

    def test_bundled_table_wins_over_working_directory(self, tmp_path,
                                                         monkeypatch):
        bundled = load_frequency_table("family_names.csv")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "family_names.csv").write_text("value,count\nZZZ,1\n",
                                                   encoding="utf-8")
        values, probs = load_frequency_table("family_names.csv")
        assert values == bundled[0]
        assert probs.tolist() == bundled[1].tolist()
        assert load_frequency_table("./family_names.csv")[0] == ["ZZZ"]


class TestFieldAndConfigValidation:
    def test_synth_field_validation(self):
        with pytest.raises(ConfigError):
            SynthField("x", "string", ())
        with pytest.raises(ConfigError):
            SynthField("x", "string", ("joint", "t.csv"))
        with pytest.raises(ConfigError):
            SynthField("x", "string", ("table", "t.csv"), ("smudge",))

    def test_capacity_limits(self):
        fields = [SynthField("a", "string", ("code", "ddd"), ("edit",))]
        with pytest.raises(ConfigError):
            GeneratorConfig(n_originals=2, n_duplicates=11,
                            errors_per_duplicate=1, seed=0, fields=fields)
        with pytest.raises(ConfigError):
            GeneratorConfig(n_originals=5, n_duplicates=2,
                            errors_per_duplicate=2, seed=0, fields=fields)

    def test_joint_table_needs_both_roles(self):
        fields = [SynthField("g", "categorical",
                             ("joint", "gender_given_names.csv", "col"))]
        cfg = GeneratorConfig(n_originals=3, n_duplicates=0,
                              errors_per_duplicate=0, seed=0, fields=fields)
        with pytest.raises(ConfigError):
            generate(cfg)


def small_config(seed=0, n_originals=40, n_duplicates=10, errors=1):
    return GeneratorConfig(
        n_originals=n_originals, n_duplicates=n_duplicates,
        errors_per_duplicate=errors, seed=seed, fields=default_fields(),
        misspellings_table="family_misspellings.csv")


class TestGenerate:
    def test_shapes_and_truth(self):
        res = generate(small_config())
        assert res.data.r == 50
        assert len(res.truth) == 50
        # originals carry their own entity id; duplicates point at one
        assert list(res.truth[:40]) == list(range(40))
        assert all(0 <= e < 40 for e in res.truth[40:])

    def test_exactly_k_fields_differ(self):
        for errors in (1, 2, 3):
            res = generate(small_config(seed=errors, errors=errors))
            originals = {int(e): res.data.records[int(e)].values
                         for e in range(40)}
            for rid in range(40, 50):
                ent = int(res.truth[rid])
                dup = res.data.records[rid].values
                ndiff = sum(a != b for a, b in zip(originals[ent], dup))
                assert ndiff == errors, (rid, originals[ent], dup)

    def test_zero_errors_copies_exactly(self):
        res = generate(small_config(seed=3, errors=0))
        for rid in range(40, 50):
            ent = int(res.truth[rid])
            assert res.data.records[rid].values == res.data.records[ent].values

    def test_no_duplicates(self):
        res = generate(small_config(n_duplicates=0))
        assert res.data.r == 40
        assert list(res.truth) == list(range(40))

    def test_deterministic_output(self, tmp_path):
        a = generate(small_config(seed=11))
        b = generate(small_config(seed=11))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_delimited(a.data, pa)
        write_delimited(b.data, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert np.array_equal(a.truth, b.truth)
        c = generate(small_config(seed=12))
        pc = tmp_path / "c.csv"
        write_delimited(c.data, pc)
        assert pa.read_bytes() != pc.read_bytes()

    def test_duplicate_counts_within_bounds(self):
        res = generate(GeneratorConfig(
            n_originals=100, n_duplicates=60, errors_per_duplicate=1,
            seed=5, fields=default_fields(),
            misspellings_table="family_misspellings.csv"))
        counts = np.bincount(res.truth[100:], minlength=100)
        assert counts.max() <= 5
        assert counts.sum() == 60

    def test_categoricals_only_go_missing(self):
        """Fields whose only error kind is 'missing' never change to a
        different value; they either survive or disappear."""
        res = generate(small_config(seed=9, n_duplicates=40, errors=3))
        names = res.data.field_names
        only_missing = [names.index(f.name) for f in default_fields()
                        if f.corruptions == ("missing",)]
        assert only_missing  # design includes such fields
        for rid in range(40, 80):
            ent = int(res.truth[rid])
            orig = res.data.records[ent].values
            dup = res.data.records[rid].values
            for k in only_missing:
                assert dup[k] == orig[k] or dup[k] is None

    def test_gender_consistent_with_joint_table(self):
        rows, cols, _ = load_joint_table("gender_given_names.csv")
        legal = set(zip(rows, cols))
        res = generate(small_config(seed=13, n_duplicates=0))
        gi = res.data.field_names.index("given_name")
        ge = res.data.field_names.index("gender")
        for rec in res.data.records:
            assert (rec.values[gi], rec.values[ge]) in legal

    def test_phone_pattern(self):
        res = generate(small_config(seed=14, n_duplicates=0))
        pi = res.data.field_names.index("phone")
        for rec in res.data.records:
            v = rec.values[pi]
            assert len(v) == 10 and v.startswith("0") and v.isdigit()

    def test_write_truth(self, tmp_path):
        res = generate(small_config(seed=2))
        p = tmp_path / "truth.csv"
        write_truth(p, res.truth)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "record_id,entity_id"
        assert len(lines) == res.data.r + 1
        assert lines[1] == "0,0"
