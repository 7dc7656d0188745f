"""The five-record worked example behind acceptance check A1: its
records, level specs, fix rules and four prior regimes."""

from __future__ import annotations

import math

from bayesdedupe import candidates, comparison
from bayesdedupe.candidates import FixRule
from bayesdedupe.comparison import LevelSpec, binary_spec
from bayesdedupe.errors import ConfigError
from bayesdedupe.model import PriorSpec
from bayesdedupe.records import DataFile, FieldSchema, Record

TOY_FIELDS = ("given_name", "family_name", "year", "month", "day",
              "municipality")


def toy_schema() -> list:
    kinds = ("string", "string", "integer", "integer", "integer",
             "categorical")
    return [FieldSchema(name=n, kind=k) for n, k in zip(TOY_FIELDS, kinds)]


def toy_records() -> DataFile:
    """Five records, two underlying people.

    Records 0..2 agree exactly on both names but drift on the date (one
    is missing the day); records 3 and 4 share a garbled name pair and
    an identical date. The two groups differ on every field.
    """
    rows = [
        ("CARLOS MARIO", "LOPEZ CANO", 2005, 7, 3, "MEDELLIN"),
        ("CARLOS MARIO", "LOPEZ CANO", 2005, 8, None, "MEDELLIN"),
        ("CARLOS MARIO", "LOPEZ CANO", 2005, 9, 15, "MEDELLIN"),
        ("JULIAN ANDRES", "RAMOS ROJAS", 1998, 2, 21, "CALI"),
        ("JILIAM", "RMAOS", 1998, 2, 21, "CALI"),
    ]
    records = [Record(id=k, values=vals) for k, vals in enumerate(rows)]
    return DataFile(schema=toy_schema(), records=records)


def toy_level_specs() -> list:
    name_cuts = (0.0, 0.25, 0.5, 1.0)
    return [
        LevelSpec(field="given_name", kind="token_levenshtein",
                  cut_points=name_cuts),
        LevelSpec(field="family_name", kind="token_levenshtein",
                  cut_points=name_cuts),
        LevelSpec(field="year", kind="absolute_difference",
                  cut_points=(0.0, 1.0, 3.0, math.inf)),
        LevelSpec(field="month", kind="absolute_difference",
                  cut_points=(0.0, 1.0, 3.0, math.inf)),
        LevelSpec(field="day", kind="absolute_difference",
                  cut_points=(0.0, 2.0, 7.0, math.inf)),
        binary_spec("municipality"),
    ]


def toy_fix_rules() -> list:
    """Freeze any pair whose given names disagree at the top level."""
    return [FixRule(conditions=(("given_name", 3),))]


def toy_prior(case: int) -> PriorSpec:
    """Four prior regimes crossing loose/strict truncation of the name
    fields against the month and day fields. Year and municipality stay
    strict throughout.
    """
    if case not in (1, 2, 3, 4):
        raise ConfigError("toy prior case must be 1..4")
    name_lam = 0.85 if case in (1, 2) else 0.95
    date_lam = 0.85 if case in (1, 3) else 0.95
    lambdas = [
        [name_lam] * 3,          # given_name
        [name_lam] * 3,          # family_name
        [0.95] * 3,              # year
        [date_lam] * 3,          # month
        [date_lam] * 3,          # day
        [0.95],                  # municipality
    ]
    return PriorSpec.from_lambdas(lambdas)


def flat_prior(n_levels, lam=0.0, **hyper) -> PriorSpec:
    """One shared truncation value per field, given level counts."""
    return PriorSpec.from_lambdas(
        [[float(lam)] * (n - 1) for n in n_levels], **hyper)


def toy_comparisons():
    """Comparison data and candidate structure for the worked example."""
    df = toy_records()
    pairs = candidates.all_pairs(df.r)
    comps = comparison.compare_pairs(df, pairs, toy_level_specs())
    graph = candidates.fix_noncoreferent(comps, toy_fix_rules())
    return df, comps, graph
