"""Loading, normalization, and validation of delimited record files."""

import pytest

from bayesdedupe.errors import ConfigError, DataError
from bayesdedupe.records import (
    DataFile,
    FieldSchema,
    Record,
    filter_required,
    load_delimited,
    write_delimited,
)

SCHEMA = [FieldSchema("name", "string"), FieldSchema("year", "integer"),
          FieldSchema("city", "categorical")]


def write(tmp_path, text, name="f.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FieldSchema("x", "float")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            DataFile(schema=[FieldSchema("a", "string"),
                             FieldSchema("a", "integer")], records=[])

    def test_index_and_column(self):
        df = DataFile(schema=SCHEMA, records=[
            Record(0, ("ANA", 2001, "SUR")), Record(1, ("LUIS", None, "SUR"))])
        assert df.index_of("year") == 1
        assert df.column("year") == [2001, None]
        with pytest.raises(ConfigError):
            df.index_of("zip")


class TestLoad:
    def test_normalization(self, tmp_path):
        p = write(tmp_path, "name,year,city\n"
                            "  ana   maria ,2001,sur\n"
                            "NA,na,\n"
                            "Jose,1999, Norte\n")
        df = load_delimited(p, SCHEMA)
        assert df.r == 3
        assert df.records[0].values == ("ANA MARIA", 2001, "SUR")
        assert df.records[1].values == (None, None, None)
        assert df.records[2].values == ("JOSE", 1999, "NORTE")
        assert [rec.id for rec in df.records] == [0, 1, 2]

    def test_custom_missing_token(self, tmp_path):
        p = write(tmp_path, "name,year,city\n?,2000,SUR\n")
        df = load_delimited(p, SCHEMA, missing_token="?")
        assert df.records[0].values == (None, 2000, "SUR")

    def test_header_mismatch(self, tmp_path):
        p = write(tmp_path, "nome,year,city\nANA,2000,SUR\n")
        with pytest.raises(DataError, match="header"):
            load_delimited(p, SCHEMA)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_delimited(p, SCHEMA)

    def test_arity_error_reports_line(self, tmp_path):
        p = write(tmp_path, "name,year,city\nANA,2000,SUR\nLUIS,1999\n")
        with pytest.raises(DataError, match=":3:"):
            load_delimited(p, SCHEMA)

    def test_bad_integer_reports_line(self, tmp_path):
        p = write(tmp_path, "name,year,city\nANA,20x0,SUR\n")
        with pytest.raises(DataError, match=":2:"):
            load_delimited(p, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_delimited(tmp_path / "nope.csv", SCHEMA)

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path, "name,year,city\nANA,2000,SUR\n\nLUIS,1999,NORTE\n")
        df = load_delimited(p, SCHEMA)
        assert df.r == 2

    def test_other_delimiter(self, tmp_path):
        p = write(tmp_path, "name;year;city\nANA;2000;SUR\n")
        df = load_delimited(p, SCHEMA, delimiter=";")
        assert df.records[0].values == ("ANA", 2000, "SUR")


class TestWriteRoundtrip:
    def test_roundtrip(self, tmp_path):
        df = DataFile(schema=SCHEMA, records=[
            Record(0, ("ANA MARIA", 2001, None)),
            Record(1, (None, None, "SUR"))])
        p = tmp_path / "out.csv"
        write_delimited(df, p)
        back = load_delimited(p, SCHEMA)
        assert [rec.values for rec in back.records] == [
            rec.values for rec in df.records]


class TestFilterRequired:
    def test_drop_and_renumber(self):
        df = DataFile(schema=SCHEMA, records=[
            Record(0, ("ANA", 2001, "SUR")),
            Record(1, (None, 2000, "SUR")),
            Record(2, ("LUIS", None, "SUR")),
            Record(3, ("JOSE", 1999, None))])
        kept, dropped = filter_required(df, ["name", "year"])
        assert dropped == 2
        assert [rec.id for rec in kept.records] == [0, 1]
        assert [rec.values[0] for rec in kept.records] == ["ANA", "JOSE"]

    def test_no_required_keeps_all(self):
        df = DataFile(schema=SCHEMA, records=[Record(0, (None, None, None))])
        kept, dropped = filter_required(df, [])
        assert (kept.r, dropped) == (1, 0)
