"""Delimited record files and their in-memory representation.

Files are UTF-8 text with a header row naming the fields. String and
categorical values are uppercased with internal whitespace collapsed at
load time so that comparators never see case or spacing artifacts.
Missing values are a designated token (default "NA"); empty cells count
as missing too. Dates are represented as three separate integer fields
by the caller's schema; nothing here is date-aware.

open_text and read_table read every text input of the package; a file
that is missing, unreadable, not UTF-8 or malformed raises DataError
naming it.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import ConfigError, DataError
from .textio import open_output

FIELD_KINDS = ("string", "categorical", "integer")


@dataclass(frozen=True)
class FieldSchema:
    """One field's name and kind ('string', 'categorical', 'integer')."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"unknown field kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class Record:
    """A row: 0-based id plus values aligned with the file's schema.

    Values are str, int, or None (missing).
    """

    id: int
    values: tuple


@dataclass
class DataFile:
    schema: list[FieldSchema]
    records: list[Record]
    path: str | None = None
    field_positions: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        names = [f.name for f in self.schema]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate field names in schema")
        self.field_positions = {n: k for k, n in enumerate(names)}

    @property
    def r(self) -> int:
        return len(self.records)

    @property
    def field_names(self) -> list[str]:
        return [f.name for f in self.schema]

    def index_of(self, name: str) -> int:
        try:
            return self.field_positions[name]
        except KeyError:
            raise ConfigError(f"unknown field {name!r}") from None

    def column(self, name: str) -> list:
        k = self.index_of(name)
        return [rec.values[k] for rec in self.records]


def normalize(text: str) -> str:
    """Uppercase with internal whitespace collapsed and ends trimmed."""
    return " ".join(text.split()).upper()


@contextmanager
def open_text(path):
    """A UTF-8 text file to read inside a with block; a failure to open
    it or to decode what is read raises DataError naming it."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None


def read_table(fh, name, header: list, delimiter: str = ","):
    """(line number, cells) of every non-blank row after the header,
    which must equal the given column names up to spaces; a row with
    another number of cells raises DataError naming the table and line."""
    reader = csv.reader(fh, delimiter=delimiter)
    found = next(reader, None)
    if found is None:
        raise DataError(f"{name}: empty file, expected a header row")
    if [h.strip() for h in found] != header:
        raise DataError(f"{name}: header {found!r} does not match {header!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{name}:{lineno}: expected {len(header)} values, got {len(row)}")
        yield lineno, row


def _normalize_cell(raw: str, kind: str, missing: str, where: str):
    cell = normalize(raw)
    if cell == "" or cell == missing:
        return None
    if kind == "integer":
        try:
            return int(cell)
        except ValueError:
            raise DataError(f"{where}: cannot parse integer from {raw!r}") from None
    return cell


def load_delimited(path, schema: list[FieldSchema], delimiter: str = ",",
                   missing_token: str = "NA") -> DataFile:
    """Read a delimited file against a declared schema.

    The header row must match the schema field names exactly and in
    order. Row arity mismatches and unparseable integers raise DataError
    with the offending line number.
    """
    missing = missing_token.upper()
    records: list[Record] = []
    with open_text(path) as fh:
        for lineno, row in read_table(fh, path, [f.name for f in schema],
                                      delimiter):
            where = f"{path}:{lineno}"
            values = tuple(_normalize_cell(cell, f.kind, missing, where)
                           for cell, f in zip(row, schema))
            records.append(Record(id=len(records), values=values))
    return DataFile(schema=list(schema), records=records, path=str(path))


def write_delimited(df: DataFile, path, delimiter: str = ",",
                    missing_token: str = "NA") -> None:
    with open_output(path) as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(df.field_names)
        for rec in df.records:
            writer.writerow([missing_token if v is None else str(v)
                             for v in rec.values])


def filter_required(df: DataFile, required: list[str]) -> tuple[DataFile, int]:
    """Drop records missing any of the required fields.

    Surviving records are renumbered 0..n-1 in original order; the count
    of dropped records is returned so callers can log it.
    """
    idxs = [df.index_of(name) for name in required]
    kept: list[Record] = []
    for rec in df.records:
        if all(rec.values[k] is not None for k in idxs):
            kept.append(Record(id=len(kept), values=rec.values))
    return (DataFile(schema=df.schema, records=kept, path=df.path),
            df.r - len(kept))
