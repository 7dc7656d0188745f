"""Pipeline configuration from a YAML file.

Sections: input, fields, comparators, filters, fix_rules, prior,
sampler, output. Only input.path, fields, and comparators are
mandatory; everything else has workable defaults. Cut points may use
YAML's .inf or the string "inf" for an unbounded top band.

Every value is read once, through _get, which checks its shape: a
mapping, a list, text, an integer, a number or a boolean. A boolean is
never an integer or a number; text is a string or an integer, read as
its decimal digits; null is a value of no shape (only a file that is
empty altogether reads as an empty mapping). A wrong shape, a missing
required key and the semantic checks of the objects built from the
values raise ConfigError naming the value's place, as section.key or
section[k].key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field

import yaml

from .candidates import FilterRule, FixRule, load_neighbors
from .comparison import LevelSpec, binary_spec
from .errors import ConfigError, DataError
from .model import PriorSpec
from .records import FieldSchema, open_text


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


# shape -> the YAML types it takes and its name in errors
_SHAPES = {"mapping": (dict, "a mapping"), "list": (list, "a list"),
           "text": ((str, int), "text"), "integer": (int, "an integer"),
           "number": ((int, float), "a number"), "boolean": (bool, "a boolean")}
_REQUIRED = object()


def _check(value, shape, where):
    """value, which must have the shape: text comes back as a string and
    a number as a float. Otherwise ConfigError naming where."""
    types, name = _SHAPES[shape]
    if isinstance(value, types) and (shape == "boolean"
                                     or not isinstance(value, bool)):
        try:
            return float(value) if shape == "number" else (
                str(value) if shape == "text" else value)
        except OverflowError:  # an integer beyond every float
            pass
    raise ConfigError(f"{where}: expected {name}, got {value!r}")


def _get(mapping, key, shape, where, default=_REQUIRED):
    """mapping[key], which must have the shape; where is the mapping's
    place ("" at the top level). An absent key reads as default, and is
    an error without one."""
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigError(f"{where or 'config'}: missing required key {key!r}")
        return default
    return _check(mapping[key], shape, f"{where}.{key}" if where else key)


def _items(mapping, key, shape, where, default=_REQUIRED):
    """(place, item) for each item of the list at mapping[key], every
    item of the shape."""
    at = f"{where}.{key}" if where else key
    return [(f"{at}[{k}]", _check(v, shape, f"{at}[{k}]"))
            for k, v in enumerate(_get(mapping, key, "list", where, default))]


def _path(mapping, key, where, base_dir, default=_REQUIRED):
    """A text value as a path; a relative one is taken from the config
    file's directory."""
    return os.path.join(base_dir, _get(mapping, key, "text", where, default))


def _known(name, names, where, problem="unknown field"):
    """name, which must be one of names."""
    if name not in names:
        raise ConfigError(f"{where}: {problem} {name!r}")
    return name


def _build(where, make, *args, **kwargs):
    """make(*args, **kwargs), with where before its ConfigError."""
    try:
        return make(*args, **kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def _cut_point(v, where) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "+inf", "infinity"):
            return math.inf
        raise ConfigError(f"{where}: unparseable cut point {v!r}")
    return _check(v, "number", where)


def _check_fits(kind, fname, field_kinds, where) -> None:
    """Numeric comparators and filters need an integer field, text ones
    a non-integer one."""
    integer = field_kinds[fname] == "integer"
    numeric = kind in ("absolute_difference", "integer_gap_exceeds")
    text = kind in ("levenshtein", "token_levenshtein", "custom_overlap")
    if (numeric and not integer) or (text and integer):
        raise ConfigError(f"{where}: {kind} cannot read the "
                          f"{field_kinds[fname]} field {fname!r}")


def _parse_fields(raw) -> list:
    out = [_build(where, FieldSchema, _get(item, "name", "text", where),
                  _get(item, "kind", "text", where, "string"))
           for where, item in _items(raw, "fields", "mapping", "")]
    names = [f.name for f in out]
    if len(set(names)) != len(names):
        raise ConfigError("fields: duplicate field names")
    return out


def _parse_comparators(raw, field_kinds) -> list:
    out = []
    for where, item in _items(raw, "comparators", "mapping", ""):
        fname = _known(_get(item, "field", "text", where), field_kinds, where)
        kind = _get(item, "kind", "text", where)
        _check_fits(kind, fname, field_kinds, where)
        if kind == "binary":
            if "cut_points" in item:
                raise ConfigError(f"{where}: binary takes no cut_points")
            out.append(binary_spec(fname))
            continue
        cuts = _get(item, "cut_points", "list", where, [])
        out.append(_build(where, LevelSpec, fname, kind, tuple(
            _cut_point(v, f"{where}.cut_points[{k}]")
            for k, v in enumerate(cuts))))
    if not out:
        raise ConfigError("comparators: at least one comparator is required")
    compared = [s.field for s in out]
    if len(set(compared)) != len(compared):
        raise ConfigError("comparators: a field may only be compared once")
    return out


def _parse_filters(raw, field_kinds, base_dir) -> list:
    out = []
    for where, item in _items(raw, "filters", "mapping", "", []):
        kind = _get(item, "kind", "text", where)
        if kind == "always_compare":
            out.append(FilterRule.always_compare())
            continue
        fname = _known(_get(item, "field", "text", where), field_kinds, where)
        _check_fits(kind, fname, field_kinds, where)
        if kind == "categorical_block":
            out.append(FilterRule.categorical_block(fname))
        elif kind == "integer_gap_exceeds":
            out.append(_build(where, FilterRule.integer_gap_exceeds, fname,
                              _get(item, "gap", "integer", where)))
        elif kind == "custom_overlap":
            extra = {}
            if "neighbors" in item:
                extra["neighbors"] = load_neighbors(
                    _path(item, "neighbors", where, base_dir))
            if "stop_tokens" in item:
                extra["stop_tokens"] = frozenset(s.upper() for _, s in _items(
                    item, "stop_tokens", "text", where))
            out.append(FilterRule.custom_overlap(fname, **extra))
        else:
            raise ConfigError(f"{where}: unknown filter kind {kind!r}")
    return out


def _parse_fix_rules(raw, compared) -> list:
    out = []
    for where, item in _items(raw, "fix_rules", "mapping", "", []):
        conds = []
        for cw, cond in _items(item, "conditions", "mapping", where):
            fname = _known(_get(cond, "field", "text", cw), compared, cw,
                           "not a compared field")
            conds.append((fname, _get(cond, "min_level", "integer", cw)))
        out.append(_build(where, FixRule, tuple(conds)))
    return out


def _parse_prior(raw, specs) -> PriorSpec:
    lam_map = {}  # the values of each field, keyed by its name as text
    for key, vals in _get(raw, "lambdas", "mapping", "prior", {}).items():
        fname = _known(_check(key, "text", "prior.lambdas"),
                       [s.field for s in specs], "prior.lambdas",
                       "not a compared field")
        if fname in lam_map:
            raise ConfigError(f"prior.lambdas: field {fname!r} given twice")
        lam_map[fname] = vals
    lambdas = []
    for s in specs:
        vals = [v for _, v in _items(lam_map, s.field, "number", "prior.lambdas",
                                     [0.0] * (s.n_levels - 1))]
        if len(vals) != s.n_levels - 1:
            raise ConfigError(
                f"prior.lambdas.{s.field}: expected {s.n_levels - 1} values, "
                f"one per level above zero, got {len(vals)}")
        lambdas.append(vals)
    hypers = {key: _get(raw, key, "number", "prior", 1.0)
              for key in ("alpha1", "beta1", "alpha0", "beta0")}
    return _build("prior", PriorSpec.from_lambdas, lambdas, **hypers)


def _parse_sampler(raw) -> SamplerConfig:
    kwargs = {key: _get(raw, key, "integer", "sampler", default)
              for key, default in (("iterations", 1000), ("burn_in", 0),
                                   ("thinning", 1), ("seed", 0), ("chains", 1))}
    return _build("sampler", SamplerConfig, **kwargs, random_scan=_get(
        raw, "random_scan", "boolean", "sampler", False))


def load_config(path) -> PipelineConfig:
    try:
        with open_text(path) as fh:
            raw = yaml.safe_load(fh)
    except DataError as e:  # the config file is configuration: exit 2
        raise ConfigError(str(e)) from None
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path}: {e}") from None
    raw = _check({} if raw is None else raw, "mapping", "config")
    base_dir = os.path.dirname(os.path.abspath(path))

    inp = _get(raw, "input", "mapping", "")
    in_path = _path(inp, "path", "input", base_dir)
    on_invalid = _get(inp, "on_invalid", "text", "input", "drop")
    if on_invalid not in ("drop", "error"):
        raise ConfigError("input.on_invalid: expected 'drop' or 'error'")
    schema = _parse_fields(raw)
    kinds = {f.name: f.kind for f in schema}
    required = tuple(_known(f, kinds, where) for where, f in
                     _items(inp, "required", "text", "input", []))
    delimiter = _get(inp, "delimiter", "text", "input", ",")
    if len(delimiter) != 1:
        raise ConfigError(f"input.delimiter: {delimiter!r} is not one character")
    input_opts = InputOptions(
        path=in_path, delimiter=delimiter,
        missing_token=_get(inp, "missing_token", "text", "input", "NA"),
        required=required, on_invalid=on_invalid)

    specs = _parse_comparators(raw, kinds)
    filters = _parse_filters(raw, kinds, base_dir)
    fixes = _parse_fix_rules(raw, [s.field for s in specs])
    prior = _parse_prior(_get(raw, "prior", "mapping", "", {}), specs)
    sampler = _parse_sampler(_get(raw, "sampler", "mapping", "", {}))

    out_raw = _get(raw, "output", "mapping", "", {})
    interval = _get(out_raw, "interval", "number", "output", 0.90)
    if not 0 < interval < 1:
        raise ConfigError("output.interval: must be in (0, 1)")
    output = OutputOptions(
        directory=_path(out_raw, "directory", "output", base_dir, "out"),
        pairwise=_get(out_raw, "pairwise", "boolean", "output", True),
        frequencies=_get(out_raw, "frequencies", "boolean", "output", True),
        interval=interval)

    return PipelineConfig(input=input_opts, schema=schema, level_specs=specs,
                          filter_rules=filters, fix_rules=fixes, prior=prior,
                          sampler=sampler, output=output)
