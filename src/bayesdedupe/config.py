"""Pipeline configuration from a YAML file.

Sections: input, fields, comparators, filters, fix_rules, prior,
sampler, output. Only input.path, fields, and comparators are
mandatory; everything else has workable defaults. Cut points may use
YAML's .inf or the string "inf" for an unbounded top band.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field

import yaml

from .candidates import FilterRule, FixRule, load_neighbors
from .comparison import COMPARATOR_KINDS, LevelSpec, binary_spec
from .errors import ConfigError
from .model import PriorSpec
from .records import FIELD_KINDS, FieldSchema


@dataclass
class SamplerConfig:
    iterations: int
    burn_in: int = 0
    thinning: int = 1
    seed: int = 0
    chains: int = 1
    random_scan: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigError("need 0 <= burn_in < iterations")
        if self.thinning < 1:
            raise ConfigError("thinning must be >= 1")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")

    @property
    def n_kept(self) -> int:
        return (self.iterations - self.burn_in + self.thinning - 1) // self.thinning


@dataclass
class InputOptions:
    path: str
    delimiter: str = ","
    missing_token: str = "NA"
    required: tuple = ()
    on_invalid: str = "drop"     # or "error"


@dataclass
class OutputOptions:
    directory: str = "out"
    pairwise: bool = True
    frequencies: bool = True
    interval: float = 0.90


@dataclass
class PipelineConfig:
    input: InputOptions
    schema: list
    level_specs: list
    filter_rules: list = dc_field(default_factory=list)
    fix_rules: list = dc_field(default_factory=list)
    prior: PriorSpec | None = None
    sampler: SamplerConfig = dc_field(
        default_factory=lambda: SamplerConfig(iterations=1000))
    output: OutputOptions = dc_field(default_factory=OutputOptions)


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _as_map(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return obj


def _as_list(obj, where):
    if not isinstance(obj, list):
        raise ConfigError(f"{where}: expected a list")
    return obj


def _cut_point(v, where) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "+inf", "infinity"):
            return math.inf
        raise ConfigError(f"{where}: unparseable cut point {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: unparseable cut point {v!r}")
    return float(v)


def _parse_fields(raw) -> list:
    out = []
    for k, item in enumerate(_as_list(raw, "fields")):
        item = _as_map(item, f"fields[{k}]")
        name = _require(item, "name", f"fields[{k}]")
        kind = item.get("kind", "string")
        if kind not in FIELD_KINDS:
            raise ConfigError(f"fields[{k}]: unknown kind {kind!r}")
        out.append(FieldSchema(name=str(name), kind=kind))
    if not out:
        raise ConfigError("fields: at least one field is required")
    names = [f.name for f in out]
    if len(set(names)) != len(names):
        raise ConfigError("fields: duplicate field names")
    return out


def _parse_comparators(raw, field_names) -> list:
    out = []
    for k, item in enumerate(_as_list(raw, "comparators")):
        where = f"comparators[{k}]"
        item = _as_map(item, where)
        fname = _require(item, "field", where)
        if fname not in field_names:
            raise ConfigError(f"{where}: unknown field {fname!r}")
        kind = _require(item, "kind", where)
        if kind not in COMPARATOR_KINDS:
            raise ConfigError(f"{where}: unknown comparator kind {kind!r}")
        if kind == "binary":
            if "cut_points" in item:
                raise ConfigError(f"{where}: binary takes no cut_points")
            out.append(binary_spec(fname))
            continue
        cuts = _as_list(_require(item, "cut_points", where), where)
        out.append(LevelSpec(field=fname, kind=kind, cut_points=tuple(
            _cut_point(v, where) for v in cuts)))
    if not out:
        raise ConfigError("comparators: at least one comparator is required")
    compared = [s.field for s in out]
    if len(set(compared)) != len(compared):
        raise ConfigError("comparators: a field may only be compared once")
    return out


def _parse_filters(raw, field_names, base_dir) -> list:
    out = []
    for k, item in enumerate(_as_list(raw, "filters")):
        where = f"filters[{k}]"
        item = _as_map(item, where)
        kind = _require(item, "kind", where)
        if kind == "always_compare":
            out.append(FilterRule.always_compare())
            continue
        fname = _require(item, "field", where)
        if fname not in field_names:
            raise ConfigError(f"{where}: unknown field {fname!r}")
        if kind == "categorical_block":
            out.append(FilterRule.categorical_block(fname))
        elif kind == "integer_gap_exceeds":
            gap = _require(item, "gap", where)
            if isinstance(gap, bool) or not isinstance(gap, int) or gap < 0:
                raise ConfigError(f"{where}: gap must be a nonnegative integer")
            out.append(FilterRule.integer_gap_exceeds(fname, gap))
        elif kind == "custom_overlap":
            neighbors = frozenset()
            if "neighbors" in item:
                p = str(item["neighbors"])
                if not os.path.isabs(p):
                    p = os.path.join(base_dir, p)
                neighbors = load_neighbors(p)
            stop = item.get("stop_tokens")
            if stop is None:
                out.append(FilterRule.custom_overlap(fname, neighbors))
            else:
                out.append(FilterRule.custom_overlap(
                    fname, neighbors,
                    frozenset(str(s).upper() for s in _as_list(stop, where))))
        else:
            raise ConfigError(f"{where}: unknown filter kind {kind!r}")
    return out


def _parse_fix_rules(raw, compared) -> list:
    out = []
    for k, item in enumerate(_as_list(raw, "fix_rules")):
        where = f"fix_rules[{k}]"
        item = _as_map(item, where)
        conds = []
        for c, cond in enumerate(_as_list(_require(item, "conditions", where),
                                          where)):
            cw = f"{where}.conditions[{c}]"
            cond = _as_map(cond, cw)
            fname = _require(cond, "field", cw)
            if fname not in compared:
                raise ConfigError(f"{cw}: field {fname!r} is not compared")
            lv = _require(cond, "min_level", cw)
            if isinstance(lv, bool) or not isinstance(lv, int):
                raise ConfigError(f"{cw}: min_level must be an integer")
            conds.append((str(fname), lv))
        out.append(FixRule(conditions=tuple(conds)))
    return out


def _parse_prior(raw, specs) -> PriorSpec:
    raw = _as_map(raw, "prior")
    lam_map = _as_map(raw.get("lambdas", {}), "prior.lambdas")
    for fname in lam_map:
        if fname not in [s.field for s in specs]:
            raise ConfigError(f"prior.lambdas: field {fname!r} is not compared")
    lambdas = []
    for s in specs:
        if s.field not in lam_map:
            lambdas.append([0.0] * (s.n_levels - 1))
            continue
        where = f"prior.lambdas.{s.field}"
        vals = _as_list(lam_map[s.field], where)
        if len(vals) != s.n_levels - 1:
            raise ConfigError(
                f"{where}: expected {s.n_levels - 1} values, one per level "
                f"above zero, got {len(vals)}")
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{where}: {v!r} is not a number")
        lambdas.append([float(v) for v in vals])
    hypers = {}
    for key in ("alpha1", "beta1", "alpha0", "beta0"):
        v = raw.get(key, 1.0)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
            raise ConfigError(f"prior.{key}: must be a positive number")
        hypers[key] = float(v)
    try:
        return PriorSpec.from_lambdas(lambdas, **hypers)
    except ConfigError as e:
        raise ConfigError(f"prior: {e}") from None


def _parse_sampler(raw) -> SamplerConfig:
    raw = _as_map(raw, "sampler")
    kwargs = {}
    for key, default in (("iterations", 1000), ("burn_in", 0),
                         ("thinning", 1), ("seed", 0), ("chains", 1)):
        v = raw.get(key, default)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"sampler.{key}: must be an integer")
        kwargs[key] = v
    rs = raw.get("random_scan", False)
    if not isinstance(rs, bool):
        raise ConfigError("sampler.random_scan: must be a boolean")
    kwargs["random_scan"] = rs
    return SamplerConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path}: {e}") from None
    raw = _as_map(raw if raw is not None else {}, "config")
    base_dir = os.path.dirname(os.path.abspath(path))

    inp = _as_map(_require(raw, "input", "config"), "input")
    in_path = str(_require(inp, "path", "input"))
    if not os.path.isabs(in_path):
        in_path = os.path.join(base_dir, in_path)
    on_invalid = inp.get("on_invalid", "drop")
    if on_invalid not in ("drop", "error"):
        raise ConfigError("input.on_invalid: expected 'drop' or 'error'")
    schema = _parse_fields(_require(raw, "fields", "config"))
    names = [f.name for f in schema]
    required = tuple(str(x) for x in inp.get("required", []))
    for f in required:
        if f not in names:
            raise ConfigError(f"input.required: unknown field {f!r}")
    input_opts = InputOptions(
        path=in_path, delimiter=str(inp.get("delimiter", ",")),
        missing_token=str(inp.get("missing_token", "NA")),
        required=required, on_invalid=on_invalid)

    specs = _parse_comparators(_require(raw, "comparators", "config"), names)
    filters = _parse_filters(raw.get("filters", []), names, base_dir)
    fixes = _parse_fix_rules(raw.get("fix_rules", []),
                             [s.field for s in specs])
    prior = _parse_prior(raw.get("prior", {}), specs)
    sampler = _parse_sampler(raw.get("sampler", {}))

    out_raw = _as_map(raw.get("output", {}), "output")
    interval = out_raw.get("interval", 0.90)
    if isinstance(interval, bool) or not isinstance(interval, (int, float)) \
            or not 0 < interval < 1:
        raise ConfigError("output.interval: must be in (0, 1)")
    out_dir = str(out_raw.get("directory", "out"))
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(base_dir, out_dir)
    output = OutputOptions(
        directory=out_dir, pairwise=bool(out_raw.get("pairwise", True)),
        frequencies=bool(out_raw.get("frequencies", True)),
        interval=float(interval))

    return PipelineConfig(input=input_opts, schema=schema, level_specs=specs,
                          filter_rules=filters, fix_rules=fixes, prior=prior,
                          sampler=sampler, output=output)
