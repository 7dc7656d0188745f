"""Synthetic files with known ground truth for benchmarking.

Original records draw field values from frequency tables (optionally a
two-way table for a jointly distributed field pair) or from fixed-shape
code patterns. Duplicates attach to originals: each selected original
receives a truncated-Poisson(1) number of duplicates in 1..5, and every
duplicate corrupts a fixed number of its fields, each corrupted field
receiving one or two error applications. Error kinds are configured per
field; kinds that find no applicable site fall back to a random edit and
the fallback is logged.

Everything is driven by one seeded generator, so a config plus seed
regenerates the same bytes.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field as dc_field
from importlib import resources

import numpy as np

from .errors import ConfigError, DataError
from .records import DataFile, FieldSchema, Record
from .textio import write_int_rows

log = logging.getLogger(__name__)

ERROR_KINDS = ("missing", "edit", "ocr", "keyboard", "phonetic", "misspelling")

MAX_ERRORS_PER_FIELD = 2

_TP_WEIGHTS = np.array([1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120])


def truncated_poisson_pmf() -> np.ndarray:
    """Poisson(1) restricted to 1..5 and renormalized."""
    return _TP_WEIGHTS / _TP_WEIGHTS.sum()


_TP_CUM = np.cumsum(truncated_poisson_pmf())


def sample_duplicate_count(rng: np.random.Generator) -> int:
    """Duplicates for one original: truncated Poisson(1) on 1..5."""
    return int(np.searchsorted(_TP_CUM, rng.random(), side="right")) + 1


# --- corruption tables ------------------------------------------------------

OCR_CONFUSIONS = {
    "O": "0", "0": "O", "I": "1", "1": "I", "S": "5", "5": "S",
    "B": "8", "8": "B", "Z": "2", "2": "Z", "G": "6", "6": "G",
    "T": "7", "7": "T", "A": "4", "4": "A", "E": "3", "3": "E",
}

_KEY_ROWS = ("1234567890", "QWERTYUIOP", "ASDFGHJKL", "ZXCVBNM")


def _build_keyboard_map() -> dict:
    adj: dict = {c: set() for row in _KEY_ROWS for c in row}
    for row in _KEY_ROWS:
        for k, c in enumerate(row):
            if k > 0:
                adj[c].add(row[k - 1])
            if k + 1 < len(row):
                adj[c].add(row[k + 1])
    for upper, lower in zip(_KEY_ROWS, _KEY_ROWS[1:]):
        for k, c in enumerate(lower):
            for kk in (k, k + 1):
                if kk < len(upper):
                    adj[c].add(upper[kk])
                    adj[upper[kk]].add(c)
    return {c: "".join(sorted(s)) for c, s in adj.items()}


KEYBOARD_NEIGHBORS = _build_keyboard_map()

# Substitution patterns common in hand-written name variants.
PHONETIC_RULES = (
    ("PH", "F"), ("F", "PH"), ("LL", "L"), ("RR", "R"),
    ("V", "B"), ("B", "V"), ("Z", "S"), ("S", "Z"),
    ("Y", "I"), ("I", "Y"), ("J", "X"), ("X", "J"),
    ("C", "K"), ("K", "C"), ("GU", "G"), ("QU", "K"),
)

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_DIGITS = "0123456789"


def _alphabet_for(s: str) -> str:
    if s and all(c in _DIGITS for c in s):
        return _DIGITS
    return _LETTERS


def random_edit(rng: np.random.Generator, s: str) -> str:
    """One random insertion, deletion, or substitution."""
    alphabet = _alphabet_for(s)
    ops = ["insert"]
    if len(s) >= 1:
        ops.append("substitute")
    if len(s) >= 2:
        ops.append("delete")
    op = ops[int(rng.integers(len(ops)))]
    if op == "insert":
        pos = int(rng.integers(len(s) + 1))
        return s[:pos] + alphabet[int(rng.integers(len(alphabet)))] + s[pos:]
    pos = int(rng.integers(len(s)))
    if op == "delete":
        return s[:pos] + s[pos + 1:]
    choices = alphabet.replace(s[pos], "") or alphabet
    return s[:pos] + choices[int(rng.integers(len(choices)))] + s[pos + 1:]


def _ocr_error(rng, s, fallbacks):
    sites = [k for k, c in enumerate(s) if c in OCR_CONFUSIONS]
    if not sites:
        fallbacks["ocr"] += 1
        return random_edit(rng, s)
    pos = sites[int(rng.integers(len(sites)))]
    return s[:pos] + OCR_CONFUSIONS[s[pos]] + s[pos + 1:]


def _keyboard_error(rng, s, fallbacks):
    sites = [k for k, c in enumerate(s) if c in KEYBOARD_NEIGHBORS]
    if not sites:
        fallbacks["keyboard"] += 1
        return random_edit(rng, s)
    pos = sites[int(rng.integers(len(sites)))]
    neighbors = KEYBOARD_NEIGHBORS[s[pos]]
    return s[:pos] + neighbors[int(rng.integers(len(neighbors)))] + s[pos + 1:]


def _phonetic_error(rng, s, fallbacks):
    sites = []
    for src, dst in PHONETIC_RULES:
        start = s.find(src)
        while start != -1:
            sites.append((start, src, dst))
            start = s.find(src, start + 1)
    if not sites:
        fallbacks["phonetic"] += 1
        return random_edit(rng, s)
    pos, src, dst = sites[int(rng.integers(len(sites)))]
    return s[:pos] + dst + s[pos + len(src):]


def corrupt_field(rng: np.random.Generator, value: str, kind: str,
                  misspellings: dict, fallbacks: dict) -> str | None:
    """Apply one error of the given kind to a value."""
    if kind == "missing":
        return None
    if kind == "edit":
        return random_edit(rng, value)
    if kind == "ocr":
        return _ocr_error(rng, value, fallbacks)
    if kind == "keyboard":
        return _keyboard_error(rng, value, fallbacks)
    if kind == "phonetic":
        return _phonetic_error(rng, value, fallbacks)
    if kind == "misspelling":
        variants = misspellings.get(value)
        if not variants:
            fallbacks["misspelling"] += 1
            return random_edit(rng, value)
        return variants[int(rng.integers(len(variants)))]
    raise ConfigError(f"unknown error kind {kind!r}")


# --- sources ----------------------------------------------------------------

def data_path(name: str):
    """A bundled data table, by file name."""
    return resources.files("bayesdedupe").joinpath("data").joinpath(name)


def _open_table(spec: str):
    import os
    if os.path.exists(spec):
        return open(spec, "r", encoding="utf-8", newline="")
    bundled = data_path(spec)
    if bundled.is_file():
        return bundled.open("r", encoding="utf-8", newline="")
    raise ConfigError(f"frequency table {spec!r} not found on disk or bundled")


def load_frequency_table(spec: str) -> tuple[list, np.ndarray]:
    """value,count rows -> (values, probabilities)."""
    with _open_table(spec) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["value", "count"]:
            raise DataError(f"{spec}: expected header value,count")
        values, counts = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{spec}:{lineno}: expected two columns")
            values.append(" ".join(row[0].split()).upper())
            try:
                counts.append(float(row[1]))
            except ValueError:
                raise DataError(f"{spec}:{lineno}: unparseable count") from None
    if not values:
        raise DataError(f"{spec}: empty table")
    probs = np.asarray(counts, dtype=np.float64)
    if probs.min() <= 0:
        raise DataError(f"{spec}: counts must be positive")
    return values, probs / probs.sum()


def load_joint_table(spec: str) -> tuple[list, list, np.ndarray]:
    """row,col,count rows -> (row values, col values, probabilities)."""
    with _open_table(spec) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["row", "col", "count"]:
            raise DataError(f"{spec}: expected header row,col,count")
        rows, cols, counts = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{spec}:{lineno}: expected three columns")
            rows.append(" ".join(row[0].split()).upper())
            cols.append(" ".join(row[1].split()).upper())
            try:
                counts.append(float(row[2]))
            except ValueError:
                raise DataError(f"{spec}:{lineno}: unparseable count") from None
    if not rows:
        raise DataError(f"{spec}: empty table")
    probs = np.asarray(counts, dtype=np.float64)
    if probs.min() <= 0:
        raise DataError(f"{spec}: counts must be positive")
    return rows, cols, probs / probs.sum()


def load_misspellings(spec: str) -> dict:
    """value,variant rows -> value -> tuple of variants."""
    out: dict = {}
    with _open_table(spec) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["value", "variant"]:
            raise DataError(f"{spec}: expected header value,variant")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{spec}:{lineno}: expected two columns")
            key = " ".join(row[0].split()).upper()
            out.setdefault(key, []).append(" ".join(row[1].split()).upper())
    return {k: tuple(v) for k, v in out.items()}


@dataclass(frozen=True)
class SynthField:
    """One generated field.

    source is ("table", spec), ("code", pattern), or
    ("joint", spec, "row"|"col"); a joint table must be referenced by
    exactly one row field and one col field. In code patterns, 'd' draws
    a digit, 'A' draws a letter, everything else is literal.
    """

    name: str
    kind: str = "string"
    source: tuple = ()
    corruptions: tuple = ()

    def __post_init__(self):
        if not self.source or self.source[0] not in ("table", "code", "joint"):
            raise ConfigError(f"field {self.name!r}: bad source {self.source!r}")
        if self.source[0] == "joint":
            if len(self.source) != 3 or self.source[2] not in ("row", "col"):
                raise ConfigError(
                    f"field {self.name!r}: joint source needs (spec, role)")
        for kind in self.corruptions:
            if kind not in ERROR_KINDS:
                raise ConfigError(f"field {self.name!r}: unknown error kind {kind!r}")


@dataclass
class GeneratorConfig:
    n_originals: int
    n_duplicates: int
    errors_per_duplicate: int
    seed: int
    fields: list
    misspellings_table: str | None = None

    def __post_init__(self):
        if self.n_originals < 1:
            raise ConfigError("n_originals must be >= 1")
        if self.n_duplicates < 0:
            raise ConfigError("n_duplicates must be >= 0")
        if self.n_duplicates > 5 * self.n_originals:
            raise ConfigError(
                "n_duplicates exceeds the 5-per-original allocation capacity")
        eligible = [f for f in self.fields if f.corruptions]
        if self.errors_per_duplicate < 0 or (
                self.n_duplicates and self.errors_per_duplicate > len(eligible)):
            raise ConfigError(
                "errors_per_duplicate exceeds the number of corruptible fields")


@dataclass
class GenerationResult:
    data: DataFile
    truth: np.ndarray          # entity id per record
    fallbacks: dict = dc_field(default_factory=dict)


def _draw_code(rng, pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch == "d":
            out.append(_DIGITS[int(rng.integers(10))])
        elif ch == "A":
            out.append(_LETTERS[int(rng.integers(26))])
        else:
            out.append(ch)
    return "".join(out)


def _sample_originals(rng, config: GeneratorConfig) -> list:
    """Column-major sampling in declared field order; a joint pair is
    drawn once, at its row field."""
    n = config.n_originals
    columns: dict = {}
    joint_done = set()
    for f in config.fields:
        if f.source[0] == "table":
            values, probs = load_frequency_table(f.source[1])
            idx = rng.choice(len(values), size=n, p=probs)
            columns[f.name] = [values[k] for k in idx]
        elif f.source[0] == "code":
            columns[f.name] = [_draw_code(rng, f.source[1]) for _ in range(n)]
        else:
            spec = f.source[1]
            if spec in joint_done:
                continue
            partners = [g for g in config.fields
                        if g.source[0] == "joint" and g.source[1] == spec]
            roles = sorted(g.source[2] for g in partners)
            if len(partners) != 2 or roles != ["col", "row"]:
                raise ConfigError(
                    f"joint table {spec!r} must be used by exactly one row "
                    f"field and one col field")
            row_f = next(g for g in partners if g.source[2] == "row")
            col_f = next(g for g in partners if g.source[2] == "col")
            rows, cols, probs = load_joint_table(spec)
            idx = rng.choice(len(rows), size=n, p=probs)
            columns[row_f.name] = [rows[k] for k in idx]
            columns[col_f.name] = [cols[k] for k in idx]
            joint_done.add(spec)
    names = [f.name for f in config.fields]
    return [tuple(columns[name][k] for name in names) for k in range(n)]


def _allocate_duplicates(rng, config: GeneratorConfig) -> list:
    """(original id, duplicate count) pairs; distinct originals.

    A count drawn past the remaining budget is resampled; allocation
    capacity was validated up front.
    """
    remaining = config.n_duplicates
    available = list(range(config.n_originals))
    out = []
    while remaining > 0:
        pos = int(rng.integers(len(available)))
        orig = available[pos]
        k = sample_duplicate_count(rng)
        tries = 0
        while k > remaining:
            k = sample_duplicate_count(rng)
            tries += 1
            if tries > 10000:
                raise ConfigError("duplicate allocation failed to converge")
        available[pos] = available[-1]
        available.pop()
        out.append((orig, k))
        remaining -= k
    return out


def _corrupt_record(rng, values: list, config: GeneratorConfig,
                    eligible_idx: list, misspellings: dict,
                    fallbacks: dict) -> None:
    chosen = rng.choice(len(eligible_idx), size=config.errors_per_duplicate,
                        replace=False)
    for c in sorted(int(x) for x in chosen):
        k = eligible_idx[c]
        fld = config.fields[k]
        original = values[k]
        for _ in range(100):
            v = original
            n_app = 1 + int(rng.integers(MAX_ERRORS_PER_FIELD))
            for _ in range(n_app):
                kind = fld.corruptions[int(rng.integers(len(fld.corruptions)))]
                v = corrupt_field(rng, v, kind, misspellings, fallbacks)
                if v is None:
                    break
            if v != original:
                break
        else:
            raise RuntimeError(
                f"could not corrupt field {fld.name!r} away from {original!r}")
        values[k] = v


def generate(config: GeneratorConfig) -> GenerationResult:
    """Build a synthetic file plus its ground-truth entity labels."""
    rng = np.random.default_rng(config.seed)
    originals = _sample_originals(rng, config)
    allocation = _allocate_duplicates(rng, config)
    misspellings = (load_misspellings(config.misspellings_table)
                    if config.misspellings_table else {})
    eligible_idx = [k for k, f in enumerate(config.fields) if f.corruptions]
    fallbacks = {k: 0 for k in ("ocr", "keyboard", "phonetic", "misspelling")}

    schema = [FieldSchema(name=f.name, kind=f.kind) for f in config.fields]
    records = [Record(id=k, values=vals) for k, vals in enumerate(originals)]
    truth = list(range(config.n_originals))
    for orig, count in allocation:
        for _ in range(count):
            values = list(originals[orig])
            _corrupt_record(rng, values, config, eligible_idx, misspellings,
                            fallbacks)
            records.append(Record(id=len(records), values=tuple(values)))
            truth.append(orig)
    total_fb = sum(fallbacks.values())
    if total_fb:
        log.info("corruption fallbacks to random edit: %s",
                 {k: v for k, v in fallbacks.items() if v})
    return GenerationResult(
        data=DataFile(schema=schema, records=records),
        truth=np.asarray(truth, dtype=np.int64), fallbacks=fallbacks)


def write_truth(path, truth: np.ndarray) -> None:
    write_int_rows(path, (np.arange(len(truth)), truth),
                   header="record_id,entity_id")


def default_fields() -> list:
    """The bundled seven-field design.

    Gender and given name come from one two-way table, as do age group
    and occupation; family name and postal code have their own tables;
    phone numbers follow a fixed digit pattern. Error kinds per field:
    names get character-level noise (family names also known
    misspellings), the categoricals only go missing, and the code
    fields get both.
    """
    return [
        SynthField("gender", "categorical",
                   ("joint", "gender_given_names.csv", "col"), ("missing",)),
        SynthField("given_name", "string",
                   ("joint", "gender_given_names.csv", "row"),
                   ("edit", "ocr", "keyboard", "phonetic")),
        SynthField("family_name", "string", ("table", "family_names.csv"),
                   ("edit", "ocr", "keyboard", "phonetic", "misspelling")),
        SynthField("age_group", "categorical",
                   ("joint", "age_occupation.csv", "row"), ("missing",)),
        SynthField("occupation", "categorical",
                   ("joint", "age_occupation.csv", "col"), ("missing",)),
        SynthField("postal_code", "string", ("table", "postal_codes.csv"),
                   ("missing", "edit", "ocr", "keyboard")),
        SynthField("phone", "string", ("code", "0ddddddddd"),
                   ("missing", "edit", "ocr", "keyboard")),
    ]
