"""Tests for the storage substrate: schemas, relations, catalog, CSV I/O."""

import io
import re

import pytest

from repro.storage.catalog import Catalog, CatalogError
from repro.storage.csvio import (
    from_csv_string,
    read_csv,
    to_csv_string,
    write_csv,
)
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, AttributeKind, Schema, SchemaError


class TestAttribute:
    def test_categorical_coerces_to_str(self):
        attribute = Attribute("make")
        assert attribute.coerce(2007) == "2007"

    def test_numeric_accepts_int_and_float(self):
        attribute = Attribute("year", AttributeKind.NUMERIC)
        assert attribute.coerce(2007) == 2007
        assert attribute.coerce(3.5) == 3.5

    def test_numeric_parses_strings(self):
        attribute = Attribute("year", AttributeKind.NUMERIC)
        assert attribute.coerce("2007") == 2007
        assert attribute.coerce("3.5") == 3.5

    def test_numeric_rejects_garbage(self):
        attribute = Attribute("year", AttributeKind.NUMERIC)
        with pytest.raises(TypeError):
            attribute.coerce("not-a-number")

    def test_numeric_rejects_bool(self):
        attribute = Attribute("year", AttributeKind.NUMERIC)
        with pytest.raises(TypeError):
            attribute.coerce(True)

    def test_null_rejected(self):
        with pytest.raises(TypeError):
            Attribute("make").coerce(None)


class TestSchema:
    def test_of_shorthand(self):
        schema = Schema.of(make="categorical", year="numeric", desc="text")
        assert schema.names == ("make", "year", "desc")
        assert schema.attribute("desc").kind is AttributeKind.TEXT

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Attribute("a"), Attribute("a")])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_position_and_contains(self):
        schema = Schema.of(a="categorical", b="numeric")
        assert schema.position("b") == 1
        assert "a" in schema and "z" not in schema
        with pytest.raises(SchemaError):
            schema.position("z")

    def test_coerce_row_from_sequence(self):
        schema = Schema.of(make="categorical", year="numeric")
        assert schema.coerce_row(["Honda", "2007"]) == ("Honda", 2007)

    def test_coerce_row_from_mapping(self):
        schema = Schema.of(make="categorical", year="numeric")
        assert schema.coerce_row({"year": 2007, "make": "Honda"}) == ("Honda", 2007)

    def test_coerce_row_missing_attribute(self):
        schema = Schema.of(make="categorical", year="numeric")
        with pytest.raises(SchemaError):
            schema.coerce_row({"make": "Honda"})

    def test_coerce_row_unknown_attribute(self):
        schema = Schema.of(make="categorical")
        with pytest.raises(SchemaError):
            schema.coerce_row({"make": "Honda", "bogus": 1})

    def test_coerce_row_wrong_arity(self):
        schema = Schema.of(make="categorical", year="numeric")
        with pytest.raises(SchemaError):
            schema.coerce_row(["Honda"])

    def test_equality_and_hash(self):
        a = Schema.of(x="categorical")
        b = Schema.of(x="categorical")
        assert a == b and hash(a) == hash(b)
        assert a != Schema.of(x="numeric")


class TestRelation:
    @pytest.fixture
    def relation(self):
        schema = Schema.of(make="categorical", year="numeric")
        return Relation.from_rows(
            schema,
            [("Honda", 2007), ("Toyota", 2006), ("Honda", 2006)],
            name="cars",
        )

    def test_len_and_getitem(self, relation):
        assert len(relation) == 3
        assert relation[0] == ("Honda", 2007)

    def test_insert_returns_rid(self, relation):
        rid = relation.insert({"make": "Ford", "year": 2005})
        assert rid == 3
        assert relation.value(rid, "make") == "Ford"

    def test_row_dict(self, relation):
        assert relation.row_dict(1) == {"make": "Toyota", "year": 2006}

    def test_scan_with_predicate(self, relation):
        rids = list(relation.scan(lambda row: row[0] == "Honda"))
        assert rids == [0, 2]

    def test_scan_all(self, relation):
        assert list(relation.scan()) == [0, 1, 2]

    def test_distinct_values_first_appearance_order(self, relation):
        assert relation.distinct_values("make") == ["Honda", "Toyota"]

    def test_project(self, relation):
        assert relation.project(["year"]) == [(2007,), (2006,), (2006,)]

    def test_validate_attribute(self, relation):
        relation.validate_attribute("make")
        with pytest.raises(SchemaError):
            relation.validate_attribute("bogus")

    def test_extend_coerces_a_column_at_a_time_as_insert_does(self, relation):
        columnar = [["Ford", "2005"], ("Kia", 2004.5), [7, 2003]]
        mixed = [("Fiat", 1999), {"make": "VW", "year": 1}]
        expected = [relation.schema.coerce_row(row) for row in columnar + mixed]
        assert relation.extend(columnar) == [3, 4, 5]
        assert relation.extend(mixed) == [6, 7]
        assert list(relation)[3:] == expected
        assert relation[3] == ("Ford", 2005) and relation[5] == ("7", 2003)

    @pytest.mark.parametrize("bad", [("Ford", None), ("Ford", True),
                                     ("Ford", "soon"), (None, 2005)])
    def test_extend_refuses_what_insert_refuses_and_appends_nothing(
        self, relation, bad
    ):
        with pytest.raises(TypeError) as refused:
            relation.insert(bad)
        for rows in ([("Ford", 2005), bad], [("Ford", 2005), list(bad)]):
            with pytest.raises(TypeError, match=re.escape(str(refused.value))):
                relation.extend(rows)
            assert len(relation) == 3


class TestCatalog:
    def test_register_and_lookup(self, cars):
        catalog = Catalog()
        key = catalog.register(cars, ordering=["Make", "Model"])
        assert key == "Cars"
        assert catalog.relation("Cars") is cars
        assert catalog.default_ordering("Cars") == ("Make", "Model")
        assert "Cars" in catalog and len(catalog) == 1

    def test_register_without_ordering(self, cars):
        catalog = Catalog()
        catalog.register(cars, name="inventory")
        assert catalog.default_ordering("inventory") is None

    def test_duplicate_rejected(self, cars):
        catalog = Catalog()
        catalog.register(cars)
        with pytest.raises(CatalogError):
            catalog.register(cars)

    def test_bad_ordering_attribute_rejected(self, cars):
        catalog = Catalog()
        with pytest.raises(Exception):
            catalog.register(cars, ordering=["NoSuchAttr"])

    def test_unregister(self, cars):
        catalog = Catalog()
        catalog.register(cars)
        catalog.unregister("Cars")
        assert "Cars" not in catalog
        with pytest.raises(CatalogError):
            catalog.relation("Cars")

    def test_unknown_lookups_raise(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.relation("nope")
        with pytest.raises(CatalogError):
            catalog.default_ordering("nope")
        with pytest.raises(CatalogError):
            catalog.unregister("nope")


class TestCsvIO:
    def test_roundtrip_string(self, cars):
        text = to_csv_string(cars)
        back = from_csv_string(text, name="Cars")
        assert back.schema == cars.schema
        assert list(back) == list(cars)

    def test_roundtrip_file(self, cars, tmp_path):
        path = tmp_path / "cars.csv"
        write_csv(cars, path)
        back = read_csv(path)
        assert list(back) == list(cars)

    def test_header_encodes_kinds(self, cars):
        header = to_csv_string(cars).splitlines()[0]
        assert "Year:numeric" in header
        assert "Description:text" in header

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            from_csv_string("")

    def test_bad_kind_rejected(self):
        buffer = io.StringIO("a:bogus\n1\n")
        with pytest.raises(ValueError):
            read_csv(buffer)

    def test_untyped_header_defaults_to_categorical(self):
        back = from_csv_string("make\nHonda\n")
        assert back.schema.attribute("make").kind is AttributeKind.CATEGORICAL
        assert back[0] == ("Honda",)
