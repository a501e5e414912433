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

Every encoder returns data ``json.dumps`` accepts directly (dicts, lists,
strings, numbers, booleans, None) and every decoder inverts its encoder
exactly.  Floats round-trip bit-identically through JSON (``repr``-based
formatting), including the timing model's simulated milliseconds — this
is what lets the engine-equivalence tests demand *bit*-identical results
from a worker process.  NaN keyword values survive too: the stdlib codec
emits and reparses the ``NaN`` literal.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping, Optional

from repro.abdl.ast import (
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    TargetItem,
)
from repro.abdl.executor import RequestResult
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


def encode_record(record: Record) -> list[Any]:
    """``[[attr, value], ...], text`` — positional to keep replies compact."""
    return [[[a, v] for a, v in record.pairs()], record.text]


def decode_record(payload: list[Any]) -> Record:
    pairs, text = payload
    return Record.from_pairs(
        [(attribute, value) for attribute, value in pairs], text=text
    )


def encode_result(result: RequestResult) -> dict[str, Any]:
    return {
        "operation": result.operation,
        "records": [encode_record(r) for r in result.records],
        "raw_records": [encode_record(r) for r in result.raw_records],
        "count": result.count,
    }


def decode_result(payload: Mapping[str, Any]) -> RequestResult:
    return RequestResult(
        payload["operation"],
        records=[decode_record(r) for r in payload["records"]],
        raw_records=[decode_record(r) for r in payload["raw_records"]],
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


def decode_backend_result(payload: Mapping[str, Any]) -> BackendResult:
    return BackendResult(
        payload["backend_id"],
        decode_result(payload["result"]),
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
