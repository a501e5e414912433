"""An MBDS backend (slave): one store, one executor, one simulated disk.

Backends have identical software and their own disks (thesis I.B.2).  Each
backend owns an :class:`~repro.abdm.store.ABStore` holding its slice of
every file and executes each broadcast request against that slice,
reporting the result, the simulated time spent, and the real wall-clock
time spent.

Concurrency: the controller's :class:`~repro.mbds.engine.ThreadPoolEngine`
dispatches one broadcast to every backend at once, so :meth:`Backend.execute`
must be safe under one-request-per-backend concurrency.  Stores are
partitioned one-per-backend (no sharing), and a per-backend lock
serializes requests *within* a backend, so store mutation, the
``ScanStats`` delta read, and ``busy_ms`` accumulation are race-free even
if a caller overlaps requests on the same backend.

Disk latency emulation: real MBDS backends are disk-bound, and the
paper's speedup comes from overlapping those disk waits across backends.
With ``latency_scale > 0`` a backend sleeps ``simulated_ms *
latency_scale`` milliseconds per request, converting the timing model's
disk time into real, overlappable wall-clock stalls — this is what the
wall-clock scaling benchmark measures.  The default of 0 keeps normal
runs instantaneous.  Simulated time is computed before (and never from)
the sleep, so engine choice and latency emulation cannot perturb it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from typing import Callable, Optional, Sequence

from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    RetrieveRequest,
    UpdateRequest,
)
from repro.abdl.executor import Executor, RequestResult
from repro.abdm.plan import AttributeIndexDigest
from repro.abdm.store import ABStore
from repro.mbds.summary import BackendSummary, SummaryCache
from repro.mbds.timing import TimingModel
from repro.obs import ObsSpec, resolve_obs
from repro.qc.lru import MISSING
from repro.qc import runtime as qc_runtime

#: Builds the record store of one backend; lets callers swap the plain
#: scan store for a directory-clustered one (see repro.abdm.directory).
StoreFactory = Callable[[], ABStore]

#: Request types that can change what a backend's slice contains (and so
#: must capture version pre-images).
_MUTATING_REQUESTS = (InsertRequest, BulkInsertRequest, DeleteRequest, UpdateRequest)


@dataclass
class _CachedRetrieve:
    """One result-cache entry: the result plus its full cost accounting.

    *signature* is the store's epoch signature at compute time; an entry
    only serves while the signature still matches (any mutation of a
    contributing file bumps an epoch and strands the entry).  The cost
    fields are replayed on a hit so cumulative ScanStats, simulated time,
    and emulated disk latency stay bit-identical to an uncached run.
    """

    signature: tuple
    result: RequestResult
    elapsed_ms: float
    examined: int
    index_hits: int
    touched: int
    range_hits: int = 0
    fallback_scans: int = 0


def _copy_retrieve_result(result: RequestResult) -> RequestResult:
    """An independent copy (callers may mutate the records they receive)."""
    return RequestResult(
        result.operation,
        records=[r.copy() for r in result.records],
        raw_records=[r.copy() for r in result.raw_records],
        count=result.count,
    )


@dataclass
class BackendResult:
    """One backend's contribution to a request: records plus elapsed time.

    *elapsed_ms* is simulated (timing-model) time; *wall_ms* is the real
    time the backend spent executing, measured with ``perf_counter``.
    *records_examined* / *index_hits* / *range_hits* / *fallback_scans*
    are this request's slice of the store's scan accounting (deltas, not
    cumulative totals), surfaced so per-backend trace spans can explain
    their own cost and access-path choice.
    """

    backend_id: int
    result: RequestResult
    elapsed_ms: float
    wall_ms: float = 0.0
    records_examined: int = 0
    index_hits: int = 0
    range_hits: int = 0
    fallback_scans: int = 0


class Backend:
    """A single database backend with a dedicated (simulated) disk."""

    def __init__(
        self,
        backend_id: int,
        timing: TimingModel,
        store_factory: Optional[StoreFactory] = None,
        latency_scale: float = 0.0,
    ) -> None:
        self.backend_id = backend_id
        self.timing = timing
        self.store = store_factory() if store_factory else ABStore()
        self.executor = Executor(self.store)
        #: Cumulative simulated busy time, for utilization reporting.
        self.busy_ms = 0.0
        #: Cumulative real execution time (includes emulated disk stalls).
        self.busy_wall_ms = 0.0
        #: Real milliseconds slept per simulated millisecond (0 = no sleep).
        self.latency_scale = latency_scale
        self._lock = threading.Lock()
        #: Per-file summary digests stamped with the store's mutation
        #: epochs; only files whose stamp moved are re-digested.
        self._summaries = SummaryCache()
        self._result_cache = qc_runtime.new_cache("result", prefix="qc.result")

    def bind_obs(self, obs: ObsSpec) -> None:
        """Attach observability: store compile-cache + result-cache metrics."""
        self.store.bind_obs(obs)
        self._result_cache.bind_metrics(resolve_obs(obs).metrics)

    def cache_snapshots(self) -> dict[str, dict[str, object]]:
        """Per-layer cache counters for the ``.caches`` dot-command."""
        return {
            "compile": self.store.cache_snapshot(),
            "result": self._result_cache.snapshot(),
        }

    def execute(self, request: Request, snapshot: Optional[int] = None) -> BackendResult:
        """Execute *request* on this backend's slice, charging scan time.

        Plain RETRIEVEs are served from the epoch-guarded result cache
        when possible.  A hit replays the original run's full accounting
        — simulated elapsed, examined/index-hit/touched deltas, and the
        emulated disk stall — so cumulative stats, the timing model, and
        the wall-clock scaling benchmark see bit-identical figures
        whether or not the cache fired.

        With *snapshot* set the read executes against the committed
        state at that commit seq (MVCC).  The result cache still serves
        — but only when every queried file's live state is valid at the
        snapshot (``snapshot_live``); a file superseded past the
        snapshot forces the uncached reconstruction path.
        """
        with self._lock:
            use_cache = (
                type(request) is RetrieveRequest and self._result_cache.enabled
            )
            if use_cache and snapshot is not None:
                use_cache = self.store.snapshot_live(
                    request.query.file_names(), snapshot
                )
            if not use_cache:
                return self._execute_locked(request, snapshot)
            key = request.render()
            signature = self.store.epoch_signature(request.query.file_names())
            entry = self._result_cache.get(key)
            if entry is not MISSING and entry.signature == signature:
                return self._replay_cached(entry)
            touched_before = self.store.stats.records_touched
            backend_result = self._execute_locked(request, snapshot)
            touched = self.store.stats.records_touched - touched_before
            self._result_cache.put(
                key,
                _CachedRetrieve(
                    signature,
                    _copy_retrieve_result(backend_result.result),
                    backend_result.elapsed_ms,
                    backend_result.records_examined,
                    backend_result.index_hits,
                    touched,
                    backend_result.range_hits,
                    backend_result.fallback_scans,
                ),
            )
            return backend_result

    def _execute_locked(
        self, request: Request, snapshot: Optional[int] = None
    ) -> BackendResult:
        start = time.perf_counter()
        before = self.store.stats.copy()
        mutating = isinstance(request, _MUTATING_REQUESTS)
        if mutating:
            # Version capture: the store parks a pre-image of each file
            # this request touches, sealed with the commit seq once the
            # transaction is durable (or discarded on failure/abort).
            self.store._capture = True
        try:
            result = self.executor.execute(request, snapshot=snapshot)
        finally:
            if mutating:
                self.store._capture = False
        stats = self.store.stats
        examined = stats.records_examined - before.records_examined
        index_hits = stats.index_hits - before.index_hits
        range_hits = stats.range_hits - before.range_hits
        fallback_scans = stats.fallback_scans - before.fallback_scans
        if isinstance(request, InsertRequest):
            elapsed = self.timing.backend_insert_ms()
        elif isinstance(request, BulkInsertRequest):
            # Simulated cost stays per-record — the bulk path saves real
            # journaling/fsync work, not modeled disk work — so simulated
            # totals remain engine- and path-independent.
            elapsed = self.timing.backend_insert_ms() * len(request.records)
        else:
            selected = result.count
            elapsed = self.timing.backend_scan_ms(examined, selected)
        if self.latency_scale > 0.0:
            time.sleep(elapsed * self.latency_scale / 1000.0)
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.busy_ms += elapsed
        self.busy_wall_ms += wall_ms
        return BackendResult(
            self.backend_id,
            result,
            elapsed,
            wall_ms,
            examined,
            index_hits,
            range_hits,
            fallback_scans,
        )

    def _replay_cached(self, entry: _CachedRetrieve) -> BackendResult:
        start = time.perf_counter()
        stats = self.store.stats
        stats.records_examined += entry.examined
        stats.index_hits += entry.index_hits
        stats.range_hits += entry.range_hits
        stats.fallback_scans += entry.fallback_scans
        stats.records_touched += entry.touched
        if self.latency_scale > 0.0:
            time.sleep(entry.elapsed_ms * self.latency_scale / 1000.0)
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.busy_ms += entry.elapsed_ms
        self.busy_wall_ms += wall_ms
        return BackendResult(
            self.backend_id,
            _copy_retrieve_result(entry.result),
            entry.elapsed_ms,
            wall_ms,
            entry.examined,
            entry.index_hits,
            entry.range_hits,
            entry.fallback_scans,
        )

    # -- durability support -----------------------------------------------------

    def replay(self, request: Request) -> None:
        """Re-apply a journaled mutation without timing or result accounting.

        Recovery is not a workload: no simulated or wall time is charged
        and no summary is consulted — the store is simply brought back to
        the state the journal proves it reached.  Routing the op through
        the executor keeps hash indexes and clustering maintained exactly
        as they were during the original execution.
        """
        with self._lock:
            self.executor.execute(request)

    def file_names(self) -> list[str]:
        """Names of the files resident on this backend's slice (sorted)."""
        with self._lock:
            return self.store.file_names()

    def capture_file(self, file_name: str) -> list:
        """Deep-copy one file's records (a session transaction's pre-image).

        Session transactions undo at file granularity — the same granule
        the :class:`~repro.mbds.locks.LockManager` protects — so an abort
        only rebuilds the files the transaction actually touched instead
        of the whole slice.  Returns ``[]`` for a file this backend does
        not hold (restoring ``[]`` later just drops it again).
        """
        with self._lock:
            if not self.store.has_file(file_name):
                return []
            return [record.copy() for record in self.store.file(file_name).records()]

    def restore_file(self, file_name: str, records: list) -> None:
        """Roll one file back to a captured pre-image (session abort).

        Goes through :meth:`ABStore.restore_file` so the aborted
        transaction's pending version entry is discarded while the
        committed version chain (which concurrent snapshot readers may
        still be reconstructing from) survives the rebuild.
        """
        with self._lock:
            self.store.restore_file(
                file_name, [record.copy() for record in records]
            )

    # -- version chains (MVCC snapshot reads) ------------------------------------

    def seal_versions(
        self, files: Optional[list], seq: int, watermark: int
    ) -> None:
        """Stamp this slice's pending version entries with commit *seq*."""
        with self._lock:
            self.store.seal_versions(files, seq, watermark)

    def discard_pending(self, files: Optional[list] = None) -> None:
        """Drop pending version entries after a failed/aborted mutation."""
        with self._lock:
            self.store.discard_pending(files)

    # -- content summary (broadcast pruning) ------------------------------------

    def summary(self) -> BackendSummary:
        """This backend's content summary, current with every store edit.

        Per-file digests are memoized in :class:`SummaryCache` under the
        store's mutation epochs, so after any edit — through a request or
        straight on ``self.store`` — only the touched files are
        re-digested.
        """
        with self._lock:
            return self._summaries.summarize(self.store)

    def summary_rebuild_counts(self) -> dict[str, int]:
        """How often each file was re-digested (per-file invalidation tests)."""
        with self._lock:
            return dict(self._summaries.rebuild_counts)

    def charge_access(self) -> tuple[float, float]:
        """Charge one simulated disk access (the aggregate fast path).

        Returns ``(simulated_ms, wall_ms)`` and keeps the busy counters
        and emulated disk latency consistent with normal execution.
        """
        with self._lock:
            start = time.perf_counter()
            elapsed = self.timing.access_ms
            if self.latency_scale > 0.0:
                time.sleep(elapsed * self.latency_scale / 1000.0)
            wall_ms = (time.perf_counter() - start) * 1000.0
            self.busy_ms += elapsed
            self.busy_wall_ms += wall_ms
            return elapsed, wall_ms

    def aggregate_probe(
        self,
        file_name: str,
        attributes: Sequence[str],
        snapshot: Optional[int] = None,
    ) -> Optional[tuple[dict[str, AttributeIndexDigest], int]]:
        """Index digests + record count for the aggregate fast path.

        None means some attribute's index cannot vouch for this file on
        this backend (unindexed, planning disabled, or populated before
        indexing) and the whole request must take the raw-scan path.
        The probe itself reads only index metadata — no records — which
        is why the fast path charges a single disk access per backend.
        A snapshot read can only use the digests when the file's live
        state is valid at the snapshot; otherwise it falls back to the
        raw scan, which reconstructs.
        """
        with self._lock:
            if snapshot is not None and not self.store.snapshot_live(
                [file_name], snapshot
            ):
                return None
            digests: dict[str, AttributeIndexDigest] = {}
            for attribute in attributes:
                digest = self.store.index_digest(file_name, attribute)
                if digest is None:
                    return None
                digests[attribute] = digest
            return digests, self.store.count(file_name)

    def record_count(self) -> int:
        """Records resident on this backend."""
        return self.store.count()

    def __repr__(self) -> str:
        return f"Backend({self.backend_id}, {self.record_count()} records)"
