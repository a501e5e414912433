"""Wire codec for the process-engine protocol.

The WAL codec (:mod:`repro.wal.codec`) is exact for the three mutating
request kinds over the kernel value domain; the process engine reuses it
verbatim and adds what a *live* backend conversation needs on top:

* the two retrieval request kinds (target lists, BY attribute, the
  RETRIEVE-COMMON query pair), which are never journaled but must cross
  to the worker;
* the reply side — :class:`~repro.abdl.executor.RequestResult` and
  :class:`~repro.mbds.backend.BackendResult` with their scan-statistics
  deltas;
* pruning summaries, aggregate index digests, and observability span
  trees.

Every encoder returns a JSON-shaped value (dicts with string keys,
lists, strings, numbers, booleans, None) and every decoder inverts its
encoder exactly.  :class:`~repro.ipc.transport.PipeTransport` carries
those values as :mod:`marshal` frame bodies, which keep floats
bit-identical (NaN payloads and ``-0.0`` included), ints unbounded and
``True`` distinct from ``1`` — this is what lets the engine-equivalence
tests demand *bit*-identical results from a worker process.

Every record list on the pipe — a RETRIEVE reply, a file pre-image, a
store dump, a bulk or single insert — is one *record batch*
(:func:`encode_records`): each distinct attribute order is sent once,
each record as a shape id plus its value list, and the text column only
when some record has text.  A RETRIEVE reply ships each matching record
once, as ``raw_records``; the receiver rebuilds ``records`` by running
the executor's projection on each backend's partial
(:func:`decode_result`).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Iterable, Mapping, Optional

from repro.abdl.ast import (
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    TargetItem,
)
from repro.abdl.executor import RequestResult, project
from repro.abdm.directory import Directory
from repro.abdm.plan import AttributeIndexDigest
from repro.abdm.record import Record
from repro.errors import ExecutionError
from repro.mbds.backend import BackendResult
from repro.mbds.summary import AttributeRange, BackendSummary, FileSummary
from repro.mbds.timing import TimingModel
from repro.obs.trace import Span
from repro.wal.codec import (
    decode_query,
    decode_request,
    encode_query,
    encode_request,
    is_mutating,
)

# -- requests ------------------------------------------------------------------


def _encode_target(target: tuple[TargetItem, ...]) -> list[list[Optional[str]]]:
    return [[item.attribute, item.aggregate] for item in target]


def _decode_target(payload: list[list[Optional[str]]]) -> list[TargetItem]:
    return [TargetItem(attribute, aggregate) for attribute, aggregate in payload]  # type: ignore[arg-type]


def encode_any_request(request: Request) -> dict[str, Any]:
    """Encode any of the five ABDL request kinds (superset of the WAL codec)."""
    if is_mutating(request):
        return encode_request(request)
    if isinstance(request, RetrieveRequest):
        return {
            "op": "RETRIEVE",
            "query": encode_query(request.query),
            "target": _encode_target(request.target),
            "by": request.by,
        }
    if isinstance(request, RetrieveCommonRequest):
        return {
            "op": "RETRIEVE-COMMON",
            "left_query": encode_query(request.left_query),
            "left_attribute": request.left_attribute,
            "right_query": encode_query(request.right_query),
            "right_attribute": request.right_attribute,
            "target": _encode_target(request.target),
        }
    raise ExecutionError(f"cannot encode request type {type(request).__name__}")


def decode_any_request(payload: Mapping[str, Any]) -> Request:
    """Decode a dict produced by :func:`encode_any_request`."""
    operation = payload.get("op")
    if operation == "RETRIEVE":
        return RetrieveRequest(
            decode_query(payload["query"]),
            _decode_target(payload["target"]),
            by=payload.get("by"),
        )
    if operation == "RETRIEVE-COMMON":
        return RetrieveCommonRequest(
            decode_query(payload["left_query"]),
            payload["left_attribute"],
            decode_query(payload["right_query"]),
            payload["right_attribute"],
            _decode_target(payload["target"]),
        )
    return decode_request(dict(payload))


# -- records and results -------------------------------------------------------


def encode_records(records: Iterable[Record]) -> dict[str, Any]:
    """Encode a record list as one shape-interned batch.

    ``shapes`` lists each distinct attribute order once; record *i* is
    ``shapes[ids[i]]`` zipped with ``values[i]``.  ``text`` holds the
    textual portions and is left out when every one is empty.
    """
    shape_ids: dict[tuple[str, ...], int] = {}
    shapes: list[list[str]] = []
    ids: list[int] = []
    values: list[list[Any]] = []
    texts: list[str] = []
    for record in records:
        order, row = record.shape()
        shape_id = shape_ids.get(order)
        if shape_id is None:
            shape_id = shape_ids[order] = len(shapes)
            shapes.append(list(order))
        ids.append(shape_id)
        values.append(row)
        texts.append(record.text)
    batch: dict[str, Any] = {"shapes": shapes, "ids": ids, "values": values}
    if any(texts):
        batch["text"] = texts
    return batch


def decode_records(batch: Mapping[str, Any]) -> list[Record]:
    """Rebuild the records of a batch made by :func:`encode_records`."""
    shapes = batch["shapes"]
    build = Record.from_shape
    texts = batch.get("text")
    if texts is None:
        return [build(shapes[i], row) for i, row in zip(batch["ids"], batch["values"])]
    return [
        build(shapes[i], row, text)
        for i, row, text in zip(batch["ids"], batch["values"], texts)
    ]


def encode_result(result: RequestResult) -> dict[str, Any]:
    """Ship each matching record once: ``raw_records`` only.

    ``records`` is the projection of ``raw_records`` onto the request's
    target list, so the receiver rebuilds it with :func:`decode_result`.
    """
    return {
        "operation": result.operation,
        "raw_records": encode_records(result.raw_records),
        "count": result.count,
    }


def _project(records: list[Record], request: Request) -> list[Record]:
    """The executor's projection of one backend's matching records."""
    if isinstance(request, RetrieveRequest):
        return project(records, request)
    if isinstance(request, RetrieveCommonRequest):
        # Executor._retrieve_common projects the joined records through
        # the left query with the request's target list and no BY.
        return project(records, RetrieveRequest(request.left_query, request.target))
    return []


def decode_result(payload: Mapping[str, Any], request: Request) -> RequestResult:
    """Rebuild the result of *request* on one backend.

    The projection runs per backend partial, exactly as the backend's
    executor ran it: a ``BY`` clause groups within each partial.
    """
    raw_records = decode_records(payload["raw_records"])
    return RequestResult(
        payload["operation"],
        records=_project(raw_records, request),
        raw_records=raw_records,
        count=payload["count"],
    )


def encode_backend_result(result: BackendResult) -> dict[str, Any]:
    return {
        "backend_id": result.backend_id,
        "result": encode_result(result.result),
        "elapsed_ms": result.elapsed_ms,
        "wall_ms": result.wall_ms,
        "records_examined": result.records_examined,
        "index_hits": result.index_hits,
        "range_hits": result.range_hits,
        "fallback_scans": result.fallback_scans,
    }


def decode_backend_result(
    payload: Mapping[str, Any], request: Request
) -> BackendResult:
    """Rebuild a backend's reply to *request* (see :func:`decode_result`)."""
    return BackendResult(
        payload["backend_id"],
        decode_result(payload["result"], request),
        payload["elapsed_ms"],
        payload["wall_ms"],
        payload["records_examined"],
        payload["index_hits"],
        payload["range_hits"],
        payload["fallback_scans"],
    )


# -- pruning summaries ---------------------------------------------------------


def _encode_range(attr_range: AttributeRange) -> list[Any]:
    return [
        attr_range.num_min,
        attr_range.num_max,
        attr_range.str_min,
        attr_range.str_max,
        attr_range.has_null,
        attr_range.has_nan,
    ]


def _decode_range(payload: list[Any]) -> AttributeRange:
    return AttributeRange(*payload)


def encode_summary(summary: BackendSummary) -> dict[str, Any]:
    """Encode a summary minus its directory (which is schema, not state).

    The decoder re-attaches a directory supplied by the caller: directory
    definitions are fixed per store factory, so the controller-side proxy
    keeps a template store and lends its directory to every decoded
    summary.
    """
    return {
        "clustered": summary.directory is not None,
        "files": {
            name: {
                "records": file_summary.records,
                "ranges": {
                    attribute: _encode_range(attr_range)
                    for attribute, attr_range in file_summary.ranges.items()
                },
                "descriptors": (
                    None
                    if file_summary.descriptors is None
                    else [sorted(ids) for ids in file_summary.descriptors]
                ),
            }
            for name, file_summary in summary.file_summaries.items()
        },
    }


def decode_summary(
    payload: Mapping[str, Any], directory: Optional[Directory] = None
) -> BackendSummary:
    file_summaries = {
        name: FileSummary(
            entry["records"],
            {
                attribute: _decode_range(encoded)
                for attribute, encoded in entry["ranges"].items()
            },
            (
                None
                if entry["descriptors"] is None
                else tuple(frozenset(ids) for ids in entry["descriptors"])
            ),
        )
        for name, entry in payload["files"].items()
    }
    return BackendSummary(
        frozenset(file_summaries),
        directory if payload["clustered"] else None,
        file_summaries,
    )


# -- aggregate index digests ---------------------------------------------------


def encode_digest(digest: AttributeIndexDigest) -> dict[str, Any]:
    return asdict(digest)


def decode_digest(payload: Mapping[str, Any]) -> AttributeIndexDigest:
    return AttributeIndexDigest(**payload)


# -- trace spans ---------------------------------------------------------------


def encode_span(span: Span) -> dict[str, Any]:
    """Encode a finished span subtree (the worker's half of a trace)."""
    return {
        "name": span.name,
        "wall_ms": span.wall_ms,
        "simulated_ms": span.simulated_ms,
        "attrs": dict(span.attrs),
        "children": [encode_span(child) for child in span.children],
    }


def decode_span(payload: Mapping[str, Any], parent: Optional[Span] = None) -> Span:
    """Rebuild a span subtree, grafting it under *parent* when given.

    This is the cross-process analogue of the thread-pool engine's
    explicit parent capture: the worker's spans (``qc.compile``, access-
    path attributes) re-attach under the controller-side per-backend span
    so a traced request reads identically whichever engine ran it.
    """
    span = Span(payload["name"], parent)
    span.attrs.update(payload["attrs"])
    span.simulated_ms = payload["simulated_ms"]
    span.wall_ms = payload["wall_ms"]
    for child in payload["children"]:
        decode_span(child, span)
    return span


def graft_spans(payloads: list[dict[str, Any]], parent: Optional[Span]) -> None:
    """Attach every encoded worker span tree under *parent*."""
    for payload in payloads:
        decode_span(payload, parent)


# -- timing model --------------------------------------------------------------


def encode_timing(timing: TimingModel) -> dict[str, Any]:
    return {
        "broadcast_ms": timing.broadcast_ms,
        "access_ms": timing.access_ms,
        "page_scan_ms": timing.page_scan_ms,
        "records_per_page": timing.records_per_page,
        "select_record_ms": timing.select_record_ms,
        "merge_record_ms": timing.merge_record_ms,
        "insert_ms": timing.insert_ms,
    }


def decode_timing(payload: Mapping[str, Any]) -> TimingModel:
    return TimingModel(**payload)
