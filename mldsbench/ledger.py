"""The traced run's span ledger: wrappers around each layer's entry points.

The program is not edited: for the traced pass only, :class:`Ledger`
replaces each entry point named in :func:`install` with a wrapper
that records a span (id, parent, name, start, end) in memory and, for
some points, counts what the call returned.  :meth:`Ledger.remove`
restores every original, and :func:`layer_metrics` turns the spans and
counts into the per-layer metrics.  A layer's self time is the duration
of its spans minus the part of each span that its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional


class Ledger:
    """In-memory spans and counters, filled by wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        #: Engines (kms) seen during the pass -> their translation-cache
        #: snapshot when first seen, the baseline of the hit-ratio delta.
        self.kms_baselines: dict[int, tuple[Any, dict]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any, bool]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[[tuple, Optional[str]], None]] = None,
        on_result: Optional[Callable[[Any, Optional[str]], None]] = None,
    ) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *on_call* sees the arguments and *on_result* the return value,
        each with the name of the enclosing span (or None).
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        ledger = self

        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            parent_id, parent_name = stack[-1] if stack else (0, None)
            if on_call is not None:
                on_call(args, parent_name)
            span_id = next(ledger._ids)
            stack.append((span_id, name))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ledger.spans.append((span_id, parent_id, name, start, end))
            if on_result is not None:
                on_result(result, parent_name)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, had_own))

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def remove(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: Path) -> None:
        """Write the spans out once, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def translation_snapshot(engine) -> Optional[dict]:
    holder = getattr(engine, "adapter", engine)
    snapshot = getattr(holder, "translation_cache_snapshot", None)
    return snapshot() if snapshot is not None else None


def install(ledger: Ledger) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    from repro.core import session as core
    from repro.ipc import codec
    from repro.ipc.proxy import ProcessBackend
    from repro.ipc.transport import PipeTransport
    from repro.kc.controller import KernelController
    from repro.kms.daplex_engine import DaplexEngine
    from repro.kms.dli_engine import DliEngine
    from repro.kms.engine import DMLEngine
    from repro.kms.sql_engine import SqlEngine
    from repro.mbds.controller import BackendController
    from repro.mbds.engine import ProcessPoolEngine, SerialEngine
    from repro.mbds.kds import KernelDatabaseSystem
    from repro.mbds.locks import LockManager
    from repro.server.admission import AdmissionController
    from repro.wal.log import WalManager

    for cls in (core.CodasylSession, core.DaplexSession, core.SqlSession, core.DliSession):
        ledger.wrap(cls, "execute", "core")
        ledger.wrap(cls, "run", "core")

    def first_sight(args, _parent):
        engine = args[0]
        if id(engine) not in ledger.kms_baselines:
            snapshot = translation_snapshot(engine)
            if snapshot is not None:
                ledger.kms_baselines[id(engine)] = (engine, snapshot)

    for cls in (DMLEngine, DaplexEngine, SqlEngine, DliEngine):
        ledger.wrap(cls, "execute", "kms", on_call=first_sight)
        ledger.wrap(cls, "run", "kms", on_call=first_sight)

    ledger.wrap(KernelController, "execute", "kc")
    ledger.wrap(KernelDatabaseSystem, "execute", "kds")
    ledger.wrap(KernelDatabaseSystem, "execute_transaction", "kds")
    ledger.wrap(KernelDatabaseSystem, "session_commit", "kds.commit")
    # Its own span so lock waits are not counted as kds self time.
    ledger.wrap(LockManager, "acquire", "locks")
    ledger.wrap(BackendController, "execute", "controller")

    def backend_results(results, parent):
        # A serial broadcast's run() calls execute_one() per backend:
        # count each BackendResult once, at the outermost engine span.
        if parent == "engine":
            return
        for result in results if isinstance(results, list) else [results]:
            ledger.count("backend.results")
            ledger.count("backend.wall_ms", result.wall_ms)
            ledger.count("store.examined", result.records_examined)
            ledger.count("store.returned", result.result.count)
            ledger.count("store.index_hits", result.index_hits + result.range_hits)

    for cls in (SerialEngine, ProcessPoolEngine):
        ledger.wrap(cls, "run", "engine", on_result=backend_results)
        ledger.wrap(cls, "execute_one", "engine", on_result=backend_results)

    ledger.wrap(ProcessBackend, "start_execute", "ipc.encode")
    ledger.wrap(ProcessBackend, "finish_execute", "ipc.finish")
    ledger.wrap(codec, "decode_backend_result", "ipc.decode")
    ledger.wrap(
        PipeTransport,
        "_decode",
        "ipc.decode",
        on_call=lambda args, parent: (
            ledger.count("ipc.reply_bytes", len(args[1])) if parent == "ipc.finish" else None
        ),
    )

    ledger.wrap(WalManager, "commit", "wal.commit")
    ledger.wrap(WalManager, "log_op", "wal.append")
    ledger.wrap(os, "fsync", "wal.fsync")

    def queued(args, _parent):
        admission = args[0]
        if admission.stats()["inflight"] >= admission.max_inflight:
            ledger.count("server.queued")

    ledger.wrap(AdmissionController, "acquire", "server.admit", on_call=queued)


# -- turning spans into metrics ------------------------------------------------------


#: Unit of every per-layer metric, in the order the ledger reports them.
UNITS = {
    "core.stmts": "count",
    "kms.self_ms_per_stmt": "ms",
    "kms.self_share": "ratio",
    "kms.translate_hit_ratio": "ratio",
    "kc.requests_per_stmt": "count",
    "kc.self_ms_per_stmt": "ms",
    "kds.self_ms_per_request": "ms",
    "kds.commit_ms": "ms",
    "locks.wait_ms_per_txn": "ms",
    "locks.waits": "count",
    "locks.timeouts": "count",
    "locks.deadlocks": "count",
    "controller.backends_per_request": "count",
    "controller.self_ms_per_request": "ms",
    "ipc.encode_ms_per_request": "ms",
    "ipc.wait_ms_per_request": "ms",
    "ipc.decode_ms_per_request": "ms",
    "ipc.reply_bytes_per_request": "B",
    "backend.wall_ms_per_request": "ms",
    "store.examined_per_returned": "ratio",
    "store.index_hit_ratio": "ratio",
    "qc.result_hit_ratio": "ratio",
    "qc.compile_hit_ratio": "ratio",
    "qc.parse_hit_ratio": "ratio",
    "wal.commit_ms": "ms",
    "wal.fsyncs_per_commit": "count",
    "wal.bytes_per_commit": "B",
    "server.overhead_ms_per_stmt": "ms",
    "server.queued": "count",
    "server.shed": "count",
    "timing.sim_ms_per_stmt": "ms",
    "trace.overhead_ratio": "ratio",
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanTotals:
    """Per-name span counts, total durations and self times (seconds)."""

    def __init__(self, spans: list[tuple[int, int, str, float, float]]) -> None:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        names: dict[int, str] = {}
        for span_id, parent, name, start, end in spans:
            children[parent].append((start, end))
            names[span_id] = name
        self.count: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        #: Spans whose parent is not a span of the same name (outermost).
        self.outer_count: Counter = Counter()
        self.outer_total: Counter = Counter()
        for span_id, parent, name, start, end in spans:
            duration = end - start
            self.count[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - _covered(children.get(span_id, []))
            if names.get(parent) != name:
                self.outer_count[name] += 1
                self.outer_total[name] += duration


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def hit_ratio(before: list[dict], after: list[dict]) -> float:
    hits = sum(a["hits"] - b["hits"] for a, b in zip(after, before))
    misses = sum(a["misses"] - b["misses"] for a, b in zip(after, before))
    return _ratio(hits, hits + misses)


def cache_layers(snapshots: dict) -> dict[str, list[dict]]:
    """Flatten ``BackendController.cache_snapshots()`` by qc layer."""
    backends = snapshots["backends"].values()
    return {
        "result": [b["result"] for b in backends],
        "compile": [b["compile"] for b in backends],
        "parse": list(snapshots["global"]),
    }


def lock_counters(locks) -> dict[str, float]:
    """Cumulative lock-manager counters, with the total time spent waiting."""
    stats = locks.stats()
    return {
        "waits": stats["waited"],
        "timeouts": stats["timeouts"],
        "deadlocks": stats["deadlocks"] + stats["upgrade_deadlocks"],
        "wait_ms": sum(h["sum"] for h in locks.wait_histograms().values()),
    }


def translate_hit_ratio(baselines: dict[int, tuple[Any, dict]]) -> float:
    before = [snapshot for _engine, snapshot in baselines.values()]
    after = [translation_snapshot(engine) for engine, _snapshot in baselines.values()]
    return hit_ratio(before, after)


def layer_metrics(
    ledger: Ledger,
    before: dict,
    after: dict,
    *,
    sim_ms_per_stmt: float,
    overhead_ratio: float,
    wal_bytes: int = 0,
    server_shed: int = 0,
    client_execute_s: float = 0.0,
) -> dict[str, tuple[str, float]]:
    """Every per-layer metric of the traced pass: name -> (unit, value).

    *before* and *after* hold the program's own counters around the pass
    (``caches``: qc snapshots, ``locks``: :func:`lock_counters`);
    *client_execute_s* is the client-observed time of the statements the
    server ran, zero when no server is involved.
    """
    spans = SpanTotals(ledger.spans)
    counts = ledger.counts
    stmts = spans.outer_count["core"]
    requests = spans.outer_count["kds"]
    controller_calls = spans.count["controller"]
    commits = spans.count["wal.commit"]
    txns = spans.count["kds.commit"]
    ms = 1000.0
    locks_before, locks_after = before["locks"], after["locks"]
    caches_before = cache_layers(before["caches"])
    caches_after = cache_layers(after["caches"])
    values = {
        "core.stmts": float(stmts),
        "kms.self_ms_per_stmt": _ratio(spans.self_time["kms"] * ms, stmts),
        "kms.self_share": _ratio(spans.self_time["kms"], spans.outer_total["core"]),
        "kms.translate_hit_ratio": translate_hit_ratio(ledger.kms_baselines),
        "kc.requests_per_stmt": _ratio(spans.count["kc"], stmts),
        "kc.self_ms_per_stmt": _ratio(spans.self_time["kc"] * ms, stmts),
        "kds.self_ms_per_request": _ratio(spans.self_time["kds"] * ms, requests),
        "kds.commit_ms": _ratio(spans.total["kds.commit"] * ms, txns),
        "locks.wait_ms_per_txn": _ratio(locks_after["wait_ms"] - locks_before["wait_ms"], txns),
        "locks.waits": float(locks_after["waits"] - locks_before["waits"]),
        "locks.timeouts": float(locks_after["timeouts"] - locks_before["timeouts"]),
        "locks.deadlocks": float(locks_after["deadlocks"] - locks_before["deadlocks"]),
        "controller.backends_per_request": _ratio(counts["backend.results"], controller_calls),
        "controller.self_ms_per_request": _ratio(
            spans.self_time["controller"] * ms, controller_calls
        ),
        "ipc.encode_ms_per_request": _ratio(spans.total["ipc.encode"] * ms, requests),
        "ipc.wait_ms_per_request": _ratio(spans.self_time["ipc.finish"] * ms, requests),
        "ipc.decode_ms_per_request": _ratio(spans.total["ipc.decode"] * ms, requests),
        "ipc.reply_bytes_per_request": _ratio(counts["ipc.reply_bytes"], requests),
        "backend.wall_ms_per_request": _ratio(counts["backend.wall_ms"], requests),
        "store.examined_per_returned": _ratio(counts["store.examined"], counts["store.returned"]),
        "store.index_hit_ratio": _ratio(counts["store.index_hits"], counts["backend.results"]),
        "qc.result_hit_ratio": hit_ratio(caches_before["result"], caches_after["result"]),
        "qc.compile_hit_ratio": hit_ratio(caches_before["compile"], caches_after["compile"]),
        "qc.parse_hit_ratio": hit_ratio(caches_before["parse"], caches_after["parse"]),
        "wal.commit_ms": _ratio(spans.total["wal.commit"] * ms, commits),
        "wal.fsyncs_per_commit": _ratio(spans.count["wal.fsync"], commits),
        "wal.bytes_per_commit": _ratio(wal_bytes, commits),
        "server.overhead_ms_per_stmt": (
            _ratio((client_execute_s - spans.outer_total["core"]) * ms, stmts)
            if client_execute_s
            else 0.0
        ),
        "server.queued": float(counts["server.queued"]),
        "server.shed": float(server_shed),
        "timing.sim_ms_per_stmt": sim_ms_per_stmt,
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: (UNITS[name], value) for name, value in values.items()}
