"""Format-conversion tools (Figure 3 step 4, Section 2.3).

"Since the same type of data can be stored in multiple formats … big data
benchmarks need to provide format conversion, which can transfer a data
set into an appropriate format capable of being used as the input of a
test running on a specific system."

Converters are record-stream transformers: each maps an iterator of
records to an iterator of converted records, and :func:`convert`
collects the result.  It reads a :class:`~repro.datagen.source.DatasetSource`
batch by batch as readily as a materialized data set; cross-record
state — the CSV header row, the global key-value index — lives inside
one generator that spans the full stream, so chunking never changes
the output.

The only non-streaming format is ``adjacency-list``: its payload is a
dict keyed by vertex, which inherently needs every edge before it is
complete.
"""

from __future__ import annotations

import enum
import itertools
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

from repro.core.errors import FormatConversionError
from repro.datagen.base import DataSet, DataType


@dataclass
class ConversionContext:
    """What a converter may inspect besides the record stream itself."""

    data_type: DataType
    metadata: dict[str, Any]
    source_name: str


@dataclass
class ConvertedData:
    """The output of a format conversion: a payload plus its format name."""

    format_name: str
    payload: Any
    source_name: str

    def __len__(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class _Converter:
    """A registered format: its transform and what it streams and needs."""

    name: str
    transform: Callable[[Iterator[Any], ConversionContext], Any]
    streaming: bool
    requires: DataType | None


_CONVERTERS: dict[str, _Converter] = {}

_SENTINEL = object()


def register_format(
    name: str,
    *,
    streaming: bool = True,
    requires: DataType | None = None,
) -> Callable[[Callable[[Iterator[Any], ConversionContext], Any]], Any]:
    """Decorator registering a record-stream transformer under a name.

    ``streaming`` converters are generator functions yielding converted
    records one at a time; non-streaming ones return a complete payload.
    ``requires`` restricts the converter to one data type, checked eagerly
    before any record is consumed.
    """

    def wrap(function: Callable[[Iterator[Any], ConversionContext], Any]):
        if name in _CONVERTERS:
            raise FormatConversionError(f"format {name!r} is already registered")
        _CONVERTERS[name] = _Converter(
            name=name, transform=function, streaming=streaming, requires=requires
        )
        return function

    return wrap


def available_formats() -> list[str]:
    """All registered format names."""
    return sorted(_CONVERTERS)


def _lookup(format_name: str) -> _Converter:
    converter = _CONVERTERS.get(format_name)
    if converter is None:
        raise FormatConversionError(
            f"unknown format {format_name!r}; available: {available_formats()}"
        )
    return converter


def _context_of(data: Any) -> ConversionContext:
    return ConversionContext(
        data_type=data.data_type,
        metadata=dict(getattr(data, "metadata", {}) or {}),
        source_name=data.name,
    )


def _iter_records(data: Any) -> Iterator[Any]:
    if isinstance(data, DataSet):
        return iter(data.records)
    batches = getattr(data, "batches", None)
    if batches is not None:
        return (record for batch in batches() for record in batch)
    return iter(data)


def _check_type(converter: _Converter, ctx: ConversionContext) -> None:
    if converter.requires is not None and ctx.data_type is not converter.requires:
        raise FormatConversionError(
            f"{converter.name} requires a {converter.requires.label} data set, "
            f"got {ctx.data_type.label}"
        )


def convert(data: Any, format_name: str) -> ConvertedData:
    """Convert a data set (or any dataset source) to the named format.

    The record stream passes through the converter exactly once and the
    result is collected into a single payload list (dict for
    non-streaming formats) — no intermediate record copy is built.
    """
    converter = _lookup(format_name)
    ctx = _context_of(data)
    _check_type(converter, ctx)
    try:
        payload = converter.transform(_iter_records(data), ctx)
        if converter.streaming:
            payload = list(payload)
    except FormatConversionError:
        raise
    except Exception as exc:
        raise FormatConversionError(
            f"converting {ctx.source_name!r} to {format_name!r} failed: {exc}"
        ) from exc
    return ConvertedData(
        format_name=format_name, payload=payload, source_name=ctx.source_name
    )


@register_format("records")
def _records(records: Iterator[Any], ctx: ConversionContext) -> Iterator[Any]:
    """The identity format: raw records."""
    yield from records


@register_format("text-lines")
def _text_lines(records: Iterator[Any], ctx: ConversionContext) -> Iterator[str]:
    """One line per record; structured records are tab-separated."""
    for record in records:
        if isinstance(record, str):
            yield record
        elif isinstance(record, dict):
            yield "\t".join(str(value) for value in record.values())
        elif isinstance(record, (tuple, list)):
            yield "\t".join(str(value) for value in record)
        else:
            yield str(record)


@register_format("csv")
def _csv(records: Iterator[Any], ctx: ConversionContext) -> Iterator[str]:
    """Comma-separated lines with a header derived from the schema."""
    schema = ctx.metadata.get("schema")
    first = next(records, _SENTINEL)
    if schema is not None:
        yield ",".join(schema)
    elif first is not _SENTINEL and isinstance(first, dict):
        yield ",".join(first.keys())
    if first is _SENTINEL:
        return
    for record in itertools.chain([first], records):
        if isinstance(record, dict):
            values = record.values()
        elif isinstance(record, (tuple, list)):
            values = record
        else:
            values = (record,)
        yield ",".join(_csv_cell(value) for value in values)


def _csv_cell(value: Any) -> str:
    text = str(value)
    if "," in text or '"' in text:
        escaped = text.replace('"', '""')
        return f'"{escaped}"'
    return text


@register_format("jsonl")
def _jsonl(records: Iterator[Any], ctx: ConversionContext) -> Iterator[str]:
    """One JSON object per record (semi-structured interchange)."""
    schema = ctx.metadata.get("schema")
    for record in records:
        if isinstance(record, dict):
            obj: Any = record
        elif isinstance(record, (tuple, list)) and schema is not None:
            obj = dict(zip(schema, record))
        else:
            obj = {"value": _jsonable(record)}
        yield json.dumps(obj, default=_jsonable, sort_keys=True)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, enum.Enum):
        return _jsonable(value.value)
    if is_dataclass(value) and not isinstance(value, type):
        # Through the fields: a slotted record has no ``__dict__``.
        return {
            item.name: _jsonable(getattr(value, item.name))
            for item in fields(value)
        }
    if hasattr(value, "__dict__"):
        return {k: _jsonable(v) for k, v in vars(value).items()}
    return str(value)


@register_format("key-value")
def _key_value(
    records: Iterator[Any], ctx: ConversionContext
) -> Iterator[tuple[Any, Any]]:
    """(key, value) pairs: the input format of KV stores and MapReduce."""
    for index, record in enumerate(records):
        if isinstance(record, tuple) and len(record) == 2:
            yield record
        elif isinstance(record, tuple) and len(record) > 2:
            yield (record[0], record[1:])
        elif isinstance(record, dict):
            yield (record.get("key", index), record)
        else:
            yield (index, record)


@register_format("adjacency-list", streaming=False, requires=DataType.GRAPH)
def _adjacency_list(
    records: Iterator[Any], ctx: ConversionContext
) -> dict[int, list[int]]:
    """vertex → neighbour list, for graph workloads.

    Inherently materializing: the payload is complete only after every
    edge has been seen.
    """
    adjacency: dict[int, list[int]] = {}
    for src, dst in records:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, []).append(src)
    return adjacency


@register_format("edge-list-lines", requires=DataType.GRAPH)
def _edge_list_lines(
    records: Iterator[Any], ctx: ConversionContext
) -> Iterator[str]:
    """"src<TAB>dst" lines, the common on-disk graph exchange format."""
    for src, dst in records:
        yield f"{src}\t{dst}"


@register_format("common-log", requires=DataType.WEB_LOG)
def _common_log(records: Iterator[Any], ctx: ConversionContext) -> Iterator[str]:
    """Apache common-log-style lines for web-log data sets."""
    for record in records:
        yield (
            f'{record["customer_id"]} - - [{record["timestamp"]:.3f}] '
            f'"{record["method"]} {record["path"]}" {record["status"]} '
            f'{record["bytes"]} "{record["user_agent"]}"'
        )
