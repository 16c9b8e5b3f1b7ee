"""Unit tests for the relational table."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.storage.relational.expression import Column, Comparison, Like, Literal
from repro.storage.relational.table import ColumnDefinition, Table, TableSchema

SCHEMA = TableSchema(
    name="files",
    columns=(
        ColumnDefinition("id", int, nullable=False),
        ColumnDefinition("name", str),
        ColumnDefinition("size", int),
    ),
)


@pytest.fixture
def table() -> Table:
    table = Table(SCHEMA)
    table.create_hash_index("name")
    table.create_sorted_index("size")
    table.insert_many(
        [
            {"id": 1, "name": "/etc/passwd", "size": 100},
            {"id": 2, "name": "/etc/shadow", "size": 50},
            {"id": 3, "name": "/tmp/upload.tar", "size": 900},
            {"id": 4, "name": "/etc/passwd", "size": 120},
        ]
    )
    return table


class TestSchemaValidation:
    def test_unknown_column_rejected(self, table: Table):
        with pytest.raises(SchemaError, match="unknown column"):
            table.insert({"id": 9, "owner": "root"})

    def test_missing_non_nullable_rejected(self, table: Table):
        with pytest.raises(SchemaError, match="missing value"):
            table.insert({"name": "/x"})

    def test_missing_nullable_becomes_none(self, table: Table):
        position = table.insert({"id": 10})
        assert table.row_at(position)["name"] is None

    def test_type_mismatch_rejected(self, table: Table):
        with pytest.raises(SchemaError, match="expects int"):
            table.insert({"id": "not-an-int", "name": "/x"})

    def test_index_on_unknown_column_rejected(self, table: Table):
        with pytest.raises(SchemaError):
            table.create_hash_index("nonexistent")


def _state(table: Table) -> tuple:
    """Length, columns and what every index answers."""
    return (
        len(table),
        {name: list(values) for name, values in table.column_store().items()},
        {name: table.positions_equal("name", name) for name in ("/etc/passwd", "/new", "/bad")},
        table.count_range("size"),
        list(table.positions_range("size")),
    )


class TestBatchAppend:
    def test_append_columns_extends_columns_and_indexes(self, table: Table):
        assert table.append_columns({"id": [5, 6], "name": ["/new", "/etc/passwd"]}, 2) == 2
        assert table.column_array("size")[-2:] == [None, None]
        assert list(table.positions_equal("name", "/etc/passwd")) == [0, 3, 5]
        assert table.count_range("size") == 4  # NULL sizes are not indexed

    def test_an_out_of_order_batch_merges_into_the_sorted_index(self, table: Table):
        table.append_columns({"id": [5, 6, 7], "size": [120, 5, 2000]}, 3)
        # Counting bisects the index: it is only right if the index is sorted.
        assert table.count_range("size", high=60) == 2
        assert table.count_range("size", 100, 120) == 3
        assert table.count_range("size", low=1000) == 1
        assert [row["id"] for row in table.lookup_range("size", high=60)] == [2, 6]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([{"id": 5, "name": "/new", "size": 1}, {"id": 6, "name": "/bad", "size": "9"}],
             "expects int, got str"),
            ([{"id": 5, "name": "/new", "size": 1}, {"name": "/bad"}], "missing value"),
            ([{"id": 5, "name": "/new", "size": 1}, {"id": 6, "mode": 7}], "unknown column"),
        ],
    )
    def test_a_bad_last_row_writes_nothing(self, table: Table, rows, message):
        """Regression: ``insert_many`` stored the rows before the bad one."""
        before = _state(table)
        with pytest.raises(SchemaError, match=message):
            table.insert_many(rows)
        assert _state(table) == before

    def test_append_columns_validates_every_column_before_writing(self, table: Table):
        before = _state(table)
        with pytest.raises(SchemaError, match="column 'name' expects str, got int"):
            table.append_columns({"id": [5, 6], "name": ["/new", 7], "size": [1, 2]}, 2)
        with pytest.raises(SchemaError, match="holds 1 values for 2 rows"):
            table.append_columns({"id": [5, 6], "name": ["/new"]}, 2)
        with pytest.raises(SchemaError, match="missing value for column 'id'"):
            table.append_columns({"id": [5, None]}, 2)
        assert _state(table) == before

    def test_an_int_column_accepts_bool(self, table: Table):
        table.append_columns({"id": [True], "size": [False]}, 1)
        assert table.row_at(4)["id"] is True

    def test_validate_row_keeps_its_rules(self):
        assert SCHEMA.validate_row({"id": 1}) == {"id": 1, "name": None, "size": None}
        with pytest.raises(SchemaError, match="expects int, got float"):
            SCHEMA.validate_row({"id": 1, "size": 1.5})


class TestAccessPaths:
    def test_full_scan(self, table: Table):
        assert len(list(table.scan())) == 4

    def test_filtered_scan(self, table: Table):
        predicate = Comparison(Column("size"), ">", Literal(90))
        names = {row["name"] for row in table.scan(predicate)}
        assert names == {"/etc/passwd", "/tmp/upload.tar"}

    def test_hash_lookup(self, table: Table):
        rows = list(table.lookup_equal("name", "/etc/passwd"))
        assert {row["id"] for row in rows} == {1, 4}

    def test_hash_lookup_with_residual(self, table: Table):
        residual = Comparison(Column("size"), ">", Literal(110))
        rows = list(table.lookup_equal("name", "/etc/passwd", residual=residual))
        assert [row["id"] for row in rows] == [4]

    def test_lookup_on_unindexed_column_falls_back_to_scan(self, table: Table):
        rows = list(table.lookup_equal("id", 3))
        assert len(rows) == 1 and rows[0]["name"] == "/tmp/upload.tar"

    def test_range_lookup(self, table: Table):
        rows = list(table.lookup_range("size", low=60, high=150))
        assert {row["id"] for row in rows} == {1, 4}

    def test_range_lookup_without_index(self, table: Table):
        rows = list(table.lookup_range("id", low=2, high=3))
        assert {row["id"] for row in rows} == {2, 3}

    def test_indexes_backfilled_on_creation(self):
        table = Table(SCHEMA)
        table.insert({"id": 1, "name": "/a", "size": 5})
        table.create_hash_index("name")
        assert [row["id"] for row in table.lookup_equal("name", "/a")] == [1]

    def test_like_residual_with_scan(self, table: Table):
        predicate = Like(Column("name"), "%/etc/%")
        assert len(list(table.scan(predicate))) == 3


class TestPositionalAccess:
    def test_column_array_aliases_storage(self, table: Table):
        names = table.column_array("name")
        assert list(names) == ["/etc/passwd", "/etc/shadow", "/tmp/upload.tar", "/etc/passwd"]
        table.insert({"id": 5, "name": "/new", "size": 1})
        assert names[-1] == "/new"  # live array grows in place

    def test_column_array_missing_column(self, table: Table):
        assert table.column_array("nonexistent") is None

    def test_positions_equal_uses_hash_index(self, table: Table):
        assert sorted(table.positions_equal("name", "/etc/passwd")) == [0, 3]

    def test_positions_equal_falls_back_to_scan(self, table: Table):
        assert list(table.positions_equal("id", 3)) == [2]

    def test_positions_range(self, table: Table):
        assert sorted(table.positions_range("size", 60, 150)) == [0, 3]

    def test_positions_range_is_in_storage_order(self, table: Table):
        # Sizes 100, 50, 900, 120: value order would be [1, 0, 3, 2].
        assert table.positions_range("size") == [0, 1, 2, 3]

    def test_count_range_counts_without_touching_rows(self, table: Table):
        assert table.count_range("size", 60, 150) == 2
        assert table.count_range("size") == 4
        with pytest.raises(TypeError):
            table.count_range("size", "5", None)

    def test_filter_positions_vectorized(self, table: Table):
        predicate = Comparison(Column("size"), ">", Literal(90))
        assert table.filter_positions(predicate) == [0, 2, 3]
        assert table.filter_positions(predicate, [2, 1]) == [2]

    def test_filter_positions_without_predicate(self, table: Table):
        assert table.filter_positions(None) == [0, 1, 2, 3]

    def test_rows_at_materializes_in_order(self, table: Table):
        rows = list(table.rows_at([3, 0]))
        assert [row["id"] for row in rows] == [4, 1]


class TestStatistics:
    def test_selectivity_uses_distinct_count(self, table: Table):
        selectivity = table.estimate_selectivity("name")
        assert selectivity == pytest.approx(1 / 3)

    def test_selectivity_unindexed_default(self, table: Table):
        assert table.estimate_selectivity("id") == 0.1

    def test_selectivity_empty_table(self):
        assert Table(SCHEMA).estimate_selectivity("name") == 0.0

    def test_statistics_summary(self, table: Table):
        stats = table.statistics()
        assert stats["rows"] == 4
        assert stats["hash_indexes"] == ["name"]
        assert stats["sorted_indexes"] == ["size"]
