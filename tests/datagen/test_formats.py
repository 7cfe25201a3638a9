"""Tests for format conversion (Figure 3 step 4, Section 2.3)."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import FormatConversionError
from repro.datagen.base import DataType
from repro.datagen.formats import available_formats, convert
from repro.datagen.stream import EventKind, StreamEvent

from tests._datasets import as_dataset


@pytest.fixture()
def table_dataset():
    return as_dataset(
        [(1, "ann", 30), (2, "bob", 25)],
        DataType.TABLE,
        name="people",
        schema=("id", "name", "age"),
    )


@pytest.fixture()
def graph_dataset():
    return as_dataset([(0, 1), (1, 2)], DataType.GRAPH, name="g")


class TestRegistry:
    def test_known_formats_present(self):
        formats = available_formats()
        for name in ("records", "text-lines", "csv", "jsonl", "key-value",
                     "adjacency-list", "edge-list-lines", "common-log"):
            assert name in formats

    def test_unknown_format_rejected(self, table_dataset):
        with pytest.raises(FormatConversionError):
            convert(table_dataset, "parquet")

    def test_converted_data_carries_provenance(self, table_dataset):
        converted = convert(table_dataset, "csv")
        assert converted.format_name == "csv"
        assert converted.source_name == "people"


class TestTextLines:
    def test_strings_pass_through(self):
        dataset = as_dataset(["one", "two"], DataType.TEXT)
        assert convert(dataset, "text-lines").payload == ["one", "two"]

    def test_tuples_are_tab_joined(self, table_dataset):
        lines = convert(table_dataset, "text-lines").payload
        assert lines[0] == "1\tann\t30"

    def test_dicts_are_tab_joined(self):
        dataset = as_dataset([{"a": 1, "b": 2}], DataType.WEB_LOG)
        assert convert(dataset, "text-lines").payload == ["1\t2"]


class TestCsv:
    def test_header_from_schema(self, table_dataset):
        lines = convert(table_dataset, "csv").payload
        assert lines[0] == "id,name,age"
        assert len(lines) == 3

    def test_cells_with_commas_are_quoted(self):
        dataset = as_dataset(
            [("a,b",)], DataType.TABLE, schema=("text",)
        )
        lines = convert(dataset, "csv").payload
        assert lines[1] == '"a,b"'

    def test_quotes_are_escaped(self):
        dataset = as_dataset(
            [('say "hi"',)], DataType.TABLE, schema=("text",)
        )
        assert '""hi""' in convert(dataset, "csv").payload[1]


class TestJsonl:
    def test_rows_use_schema_keys(self, table_dataset):
        lines = convert(table_dataset, "jsonl").payload
        first = json.loads(lines[0])
        assert first == {"id": 1, "name": "ann", "age": 30}

    def test_every_line_is_valid_json(self, table_dataset):
        for line in convert(table_dataset, "jsonl").payload:
            json.loads(line)

    def test_plain_values_wrapped(self):
        dataset = as_dataset(["hello"], DataType.TEXT)
        assert json.loads(convert(dataset, "jsonl").payload[0]) == {
            "value": "hello"
        }

    def test_an_enum_member_is_its_value(self):
        event = StreamEvent(0.5, 7, 1.25, EventKind.UPDATE)
        dataset = as_dataset([event], DataType.STREAM)
        assert json.loads(convert(dataset, "jsonl").payload[0]) == {
            "value": {
                "timestamp": 0.5, "key": 7, "value": 1.25, "kind": "update",
            }
        }


class TestKeyValue:
    def test_pairs_pass_through(self):
        dataset = as_dataset([("k", "v")], DataType.KEY_VALUE)
        assert convert(dataset, "key-value").payload == [("k", "v")]

    def test_wide_tuples_split_key_rest(self, table_dataset):
        pairs = convert(table_dataset, "key-value").payload
        assert pairs[0] == (1, ("ann", 30))

    def test_plain_records_get_index_keys(self):
        dataset = as_dataset(["a", "b"], DataType.TEXT)
        assert convert(dataset, "key-value").payload == [(0, "a"), (1, "b")]


class TestGraphFormats:
    def test_adjacency_list_is_symmetric(self, graph_dataset):
        adjacency = convert(graph_dataset, "adjacency-list").payload
        assert adjacency[1] == [0, 2]

    def test_adjacency_list_requires_graph(self, table_dataset):
        with pytest.raises(FormatConversionError):
            convert(table_dataset, "adjacency-list")

    def test_edge_list_lines(self, graph_dataset):
        assert convert(graph_dataset, "edge-list-lines").payload == [
            "0\t1", "1\t2",
        ]


class TestCommonLog:
    def test_weblog_renders(self, retail_tables):
        from repro.datagen.weblog import WebLogGenerator

        weblog = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=1
        ).generate(5)
        lines = convert(weblog, "common-log").payload
        assert len(lines) == 5
        assert all('"' in line for line in lines)

    def test_requires_weblog_type(self, table_dataset):
        with pytest.raises(FormatConversionError):
            convert(table_dataset, "common-log")


class _OneRecordBatches:
    """A data set's records as a source, one record per batch; counts
    the batches pulled."""

    def __init__(self, dataset):
        self.name = dataset.name
        self.data_type = dataset.data_type
        self.metadata = dataset.metadata
        self._dataset = dataset
        self.pulled = 0

    def batches(self):
        for batch in self._dataset.batches(chunk_size=1):
            self.pulled += 1
            yield batch


class TestStreamingConversion:
    """convert over a batch-by-batch source: identical output."""

    def test_matches_convert_for_csv(self, table_dataset):
        chunked = convert(_OneRecordBatches(table_dataset), "csv").payload
        assert chunked == convert(table_dataset, "csv").payload

    def test_matches_convert_for_key_value(self):
        dataset = as_dataset([f"doc {i}" for i in range(10)], DataType.TEXT)
        chunked = convert(_OneRecordBatches(dataset), "key-value").payload
        # The global key index spans batch boundaries unbroken.
        assert chunked == convert(dataset, "key-value").payload

    def test_type_mismatch_rejected_before_consuming(self, table_dataset):
        source = _OneRecordBatches(table_dataset)
        with pytest.raises(FormatConversionError):
            convert(source, "common-log")
        assert source.pulled == 0
