"""The MBDS backend controller (master).

The controller supervises transaction execution and user interfacing
(thesis I.B.2): it broadcasts each request over the communication bus to
every backend, collects their partial results, merges them, and accounts
for simulated response time.  Because the backends work in parallel, the
backend contribution to response time is the *maximum* of their individual
times, not the sum — this is the mechanism behind both MBDS performance
claims.

Two orthogonal layers make the parallelism real rather than only
simulated:

* an :class:`~repro.mbds.engine.ExecutionEngine` decides how a broadcast
  is dispatched in wall-clock terms — serially (default, deterministic)
  or concurrently on a thread pool — without affecting results or
  simulated time;
* optional **broadcast pruning** consults each backend's cached
  :class:`~repro.mbds.summary.BackendSummary` and skips backends whose
  slice cannot match the request's query.  Pruned backends are charged
  zero simulated time and zero wall time; their slots in the per-backend
  lists stay at 0.0 so the lists remain indexed by backend id.

INSERT requests are not broadcast: the placement policy routes each new
record to exactly one backend.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    UpdateRequest,
)
from repro.abdl.executor import RequestResult
from repro.abdm.record import Record
from repro.errors import ExecutionError, WalError
from repro.mbds.backend import Backend, BackendResult, StoreFactory
from repro.mbds.engine import EngineSpec, ExecutionEngine, make_engine
from repro.mbds.placement import PlacementPolicy, RoundRobinPlacement
from repro.mbds.sessions import KernelSession
from repro.mbds.timing import (
    PHASE_BROADCAST,
    PHASE_INSERT,
    BroadcastPhase,
    ResponseTime,
    TimingModel,
)
from repro.obs import ObsSpec, resolve_obs
from repro.qc import runtime as qc_runtime
from repro.wal.faults import CrashPoint, InjectedCrash
from repro.wal.log import WalManager

_OPERATION_NAMES = {
    RetrieveRequest: "RETRIEVE",
    RetrieveCommonRequest: "RETRIEVE-COMMON",
    DeleteRequest: "DELETE",
    UpdateRequest: "UPDATE",
    InsertRequest: "INSERT",
    BulkInsertRequest: "BULK-INSERT",
}


#: Request types that mutate backend stores (and so must be journaled).
_MUTATING_REQUESTS = (InsertRequest, BulkInsertRequest, DeleteRequest, UpdateRequest)

#: How each operation's result count moves a backend's record count.
_COUNT_SIGNS = {"INSERT": 1, "BULK-INSERT": 1, "DELETE": -1}


@dataclass
class ExecutionTrace:
    """Merged outcome of one request across all backends.

    *per_backend_ms* / *per_backend_wall_ms* are indexed by backend id
    for broadcasts (pruned backends hold 0.0); for routed INSERTs they
    hold the single executing backend.  For multi-phase requests
    (RETRIEVE-COMMON) they are the element-wise per-backend totals
    across phases, with the per-phase breakdown in *phases*.

    *response* is simulated time (engine-independent); *wall_ms* is the
    real time the request took end to end.
    """

    request: Request
    result: RequestResult
    response: ResponseTime
    per_backend_ms: list[float] = field(default_factory=list)
    wall_ms: float = 0.0
    per_backend_wall_ms: list[float] = field(default_factory=list)
    phases: list[BroadcastPhase] = field(default_factory=list)
    #: Global commit order stamped by the KDS for auto-commits (None for
    #: reads and in-transaction requests — those get their order from
    #: session_commit).  Serial replay of mutations in commit_seq order
    #: reproduces the farm bit-identically.
    commit_seq: Optional[int] = None
    #: The commit seq a lock-free snapshot read pinned (None when the
    #: request ran on the ordinary locking path).  A retrieval with a
    #: snapshot_seq acquired no locks at all.
    snapshot_seq: Optional[int] = None


class BackendController:
    """Master node: broadcast, merge, and time a farm of backends."""

    def __init__(
        self,
        backend_count: int,
        timing: Optional[TimingModel] = None,
        placement: Optional[PlacementPolicy] = None,
        store_factory: Optional[StoreFactory] = None,
        engine: EngineSpec = None,
        workers: Optional[int] = None,
        pruning: bool = False,
        latency_scale: float = 0.0,
        wal: Optional[WalManager] = None,
        obs: ObsSpec = None,
    ) -> None:
        if backend_count < 1:
            raise ValueError("MBDS needs at least one backend")
        self.timing = timing or TimingModel()
        self.placement = placement or RoundRobinPlacement()
        #: Placement policies keep mutable routing state (round-robin
        #: counters, load tallies, shard taints); concurrent sessions
        #: serialize their updates here.
        self.placement_lock = threading.RLock()
        self.engine: ExecutionEngine = make_engine(engine, workers)
        self.pruning = pruning
        #: Observability bundle shared with the engine and the WAL; the
        #: default is the null bundle (every hook a constant-time no-op).
        self.obs = resolve_obs(obs)
        self.engine.obs = self.obs
        #: Write-ahead log; when set, every mutating request is journaled
        #: to the executing backends' logs before it is applied.
        self.wal = wal
        #: Indexed attributes added at runtime (see :meth:`add_index`) —
        #: schema state a healed farm must rebuild, since the WAL only
        #: journals data mutations.
        self.indexed_attributes: list[str] = []
        if wal is not None and self.obs.enabled:
            wal.bind_obs(self.obs)
        # The engine owns backend construction: in-process engines build
        # plain Backends; the process engine spawns worker processes and
        # returns proxies (see ExecutionEngine.create_backends).
        self.backends = self.engine.create_backends(
            backend_count, self.timing, store_factory, latency_scale
        )
        if self.obs.enabled:
            # Cache layers (compile + result, per backend) report their
            # hit/miss/eviction counters into this bundle's registry; the
            # process-global parse caches follow the same registry
            # (last instrumented controller wins — see qc.runtime).
            for backend in self.backends:
                backend.bind_obs(self.obs)
            qc_runtime.bind_metrics(self.obs.metrics)

    def cache_snapshots(self) -> dict[str, object]:
        """Aggregated qc cache counters (the ``.caches`` dot-command)."""
        return {
            "global": qc_runtime.global_snapshots(),
            "backends": {
                f"backend[{b.backend_id}]": b.cache_snapshots() for b in self.backends
            },
        }

    @property
    def backend_count(self) -> int:
        return len(self.backends)

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        request: Request,
        label: Optional[str] = None,
        session: Optional[KernelSession] = None,
        snapshot: Optional[int] = None,
    ) -> ExecutionTrace:
        """Execute one request: route inserts, broadcast everything else.

        *label* names the request's broadcast phase; it is the single
        source for both the :class:`BroadcastPhase` accounting label and
        the per-backend span names, so the two can never disagree (the
        KDS passes ``left``/``right`` for RETRIEVE-COMMON's halves).

        *session* is the kernel session the request runs on (the KDS
        always passes one): its mutations journal under the session's
        own WAL transaction, or a per-request auto-commit transaction
        owned by the session.  The KDS is responsible for having
        acquired the request's locks before calling in.

        *snapshot* (a commit seq) makes a RETRIEVE / RETRIEVE-COMMON
        read the committed state at that seq via the stores' version
        chains — the KDS's lock-free snapshot-read path.  Mutations
        ignore it.
        """
        if isinstance(request, InsertRequest):
            return self._execute_insert(request, label or PHASE_INSERT, session)
        if isinstance(request, BulkInsertRequest):
            return self._execute_bulk_insert(request, label or PHASE_INSERT, session)
        return self._execute_broadcast(
            request, label or PHASE_BROADCAST, session, snapshot
        )

    def _journal(
        self,
        requests: Sequence[Request],
        targets: Sequence[Backend],
        session: Optional[KernelSession],
        apply: Callable[[], list[BackendResult]],
    ) -> list[BackendResult]:
        """Journal ``requests[i]`` for ``targets[i]``, apply, then settle.

        Each target gets its own log line ahead of the apply: the whole
        request for a broadcast or a routed INSERT, the records routed to
        that backend for a BULK-INSERT.  Inside *session*'s open
        transaction the ops join it and the apply's record-count delta
        accumulates on the session for its commit record; otherwise the
        request is its own session-owned (auto-commit) transaction,
        committed with its delta after the apply.

        An :class:`~repro.wal.faults.InjectedCrash` is the simulated
        machine dying — a dead machine writes no abort record, and
        recovery discards the uncommitted transaction from the log — so
        it propagates untouched.  Any other failure aborts the
        auto-commit transaction, so the session's owner slot is never
        left occupied by a request that will neither commit nor be
        retried.
        """
        wal = self.wal
        if wal is None:
            return apply()
        if session is None:
            raise WalError("journaled requests need a kernel session")
        txn = session.wal_txn
        auto = txn is None
        if txn is None:
            txn = wal.begin(session.owner)
        try:
            for backend, request in zip(targets, requests):
                if isinstance(request, BulkInsertRequest):
                    wal.log_bulk(backend.backend_id, request, txn=txn)
                else:
                    wal.log_op(backend.backend_id, request, txn=txn)
            wal.fire(CrashPoint.BEFORE_APPLY)
            partials = apply()
            wal.fire(CrashPoint.AFTER_APPLY)
            delta = _count_delta(partials)
            if auto:
                wal.commit(txn, delta)
            else:
                for backend_id, change in delta.items():
                    session.delta[backend_id] = session.delta.get(backend_id, 0) + change
        except InjectedCrash:
            raise
        except BaseException:
            if auto:
                wal.abort(txn)
            raise
        return partials

    def _execute_insert(
        self,
        request: InsertRequest,
        label: str,
        session: Optional[KernelSession] = None,
    ) -> ExecutionTrace:
        start = time.perf_counter()
        with self.placement_lock:
            index = self.placement.place(request.record, self.backend_count)
        if session is not None and session.in_transaction:
            session.placed.append((request.record.file_name, index))
        target = self.backends[index]
        (backend_result,) = self._journal(
            [request],
            [target],
            session,
            lambda: [self.engine.execute_one(target, request, label)],
        )
        wall_ms = (time.perf_counter() - start) * 1000.0
        self._account(label, [backend_result])
        response = ResponseTime()
        response.add(backend_result.elapsed_ms, self.timing.controller_ms(0))
        phase = BroadcastPhase(
            label, [backend_result.elapsed_ms], [backend_result.wall_ms]
        )
        return ExecutionTrace(
            request,
            backend_result.result,
            response,
            per_backend_ms=[backend_result.elapsed_ms],
            wall_ms=wall_ms,
            per_backend_wall_ms=[backend_result.wall_ms],
            phases=[phase],
        )

    def _execute_bulk_insert(
        self,
        request: BulkInsertRequest,
        label: str,
        session: Optional[KernelSession] = None,
    ) -> ExecutionTrace:
        """Route a record batch, journal one shard per backend, apply once.

        The batch is partitioned by the placement policy (each record goes
        where a one-at-a-time INSERT would have put it), journaled as one
        BULK-INSERT record per target backend, and applied with a single
        store call per backend.  Simulated time charges
        ``backend_insert_ms() * shard_size`` on each backend — the same
        total the incremental path would — so bulk loading changes wall
        clock and fsync counts, never simulated response accounting.
        """
        start = time.perf_counter()
        if not request.records:
            return ExecutionTrace(request, _empty_result(request), ResponseTime())
        groups: dict[int, list[Record]] = {}
        with self.obs.tracer.span("bulk.route") as span:
            with self.placement_lock:
                for record in request.records:
                    index = self.placement.place(record, self.backend_count)
                    groups.setdefault(index, []).append(record)
            if span:
                span.record(records=len(request.records), shards=len(groups))
        if session is not None and session.in_transaction:
            for index, records in groups.items():
                for record in records:
                    session.placed.append((record.file_name, index))
        indices = sorted(groups)
        targets = [self.backends[i] for i in indices]
        shards = [BulkInsertRequest(groups[i]) for i in indices]
        # The apply span covers store mutation AND the deferred index
        # finalize (sort-once), which runs inside each backend's store.
        with self.obs.tracer.span("bulk.apply"):
            partials = self._journal(
                shards,
                targets,
                session,
                lambda: self.engine.run_distinct(targets, shards, label),
            )
        merged = _merge(request, partials)
        per_backend_ms = [0.0] * self.backend_count
        per_backend_wall_ms = [0.0] * self.backend_count
        for partial in partials:
            per_backend_ms[partial.backend_id] = partial.elapsed_ms
            per_backend_wall_ms[partial.backend_id] = partial.wall_ms
        slowest = max((p.elapsed_ms for p in partials), default=0.0)
        response = ResponseTime()
        response.add(slowest, self.timing.controller_ms(0))
        wall_ms = (time.perf_counter() - start) * 1000.0
        self._account(label, partials)
        phase = BroadcastPhase(label, per_backend_ms, per_backend_wall_ms)
        return ExecutionTrace(
            request,
            merged,
            response,
            per_backend_ms=per_backend_ms,
            wall_ms=wall_ms,
            per_backend_wall_ms=per_backend_wall_ms,
            phases=[phase],
        )

    def _execute_broadcast(
        self,
        request: Request,
        label: str,
        session: Optional[KernelSession] = None,
        snapshot: Optional[int] = None,
    ) -> ExecutionTrace:
        start = time.perf_counter()
        mutating = isinstance(request, _MUTATING_REQUESTS)
        with self.placement_lock:
            targets = self._broadcast_targets(request)
            if mutating:
                # Targets were routed under the pre-mutation placement
                # state (where the matching records actually live); only
                # then may the policy update its routing metadata
                # (shard-key taints).
                observe = getattr(self.placement, "observe_mutation", None)
                if observe is not None:
                    observe(request)
        if mutating:
            partials = self._journal(
                [request] * len(targets),
                targets,
                session,
                lambda: self.engine.run(targets, request, label) if targets else [],
            )
        else:
            partials = (
                self.engine.run(targets, request, label, snapshot)
                if targets
                else []
            )
        merged = (
            _merge(request, partials) if partials else _empty_result(request)
        )
        per_backend_ms = [0.0] * self.backend_count
        per_backend_wall_ms = [0.0] * self.backend_count
        for partial in partials:
            per_backend_ms[partial.backend_id] = partial.elapsed_ms
            per_backend_wall_ms[partial.backend_id] = partial.wall_ms
        slowest = max((p.elapsed_ms for p in partials), default=0.0)
        response = ResponseTime()
        response.add(slowest, self.timing.controller_ms(len(merged.records)))
        wall_ms = (time.perf_counter() - start) * 1000.0
        self._account(label, partials)
        phase = BroadcastPhase(label, per_backend_ms, per_backend_wall_ms)
        return ExecutionTrace(
            request,
            merged,
            response,
            per_backend_ms=per_backend_ms,
            wall_ms=wall_ms,
            per_backend_wall_ms=per_backend_wall_ms,
            phases=[phase],
        )

    def _account(self, label: str, partials: Sequence[BackendResult]) -> None:
        """Record per-backend metrics for one executed phase."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        for partial in partials:
            metrics.inc("backend.requests")
            metrics.observe("backend.wall_ms", partial.wall_ms)
            if partial.records_examined:
                metrics.inc("backend.records_examined", partial.records_examined)
            if partial.index_hits:
                metrics.inc("backend.index_hits", partial.index_hits)
            if partial.range_hits:
                metrics.inc("index.range_hits", partial.range_hits)
            if partial.fallback_scans:
                metrics.inc("plan.fallback_scan", partial.fallback_scans)

    def _broadcast_targets(self, request: Request) -> list[Backend]:
        """The backends a broadcast must reach.

        Two independent narrowing layers compose here:

        1. **Shard routing** — a placement policy exposing ``route``
           (e.g. :class:`~repro.mbds.placement.HashShardPlacement`) can
           prove from placement alone that only certain backends may
           hold matches.  Routing is metadata-only: no backend is
           consulted.
        2. **Summary pruning** — when enabled, the surviving targets are
           further filtered against each backend's cached content
           summary, which also catches backends whose routed slice
           happens to hold nothing matching the predicate values.

        Skipped backends (by either layer) are charged zero simulated
        and zero wall time, exactly as pruning always has.
        """
        targets = list(self.backends)
        router = getattr(self.placement, "route", None)
        if router is not None:
            routed = router(request, self.backend_count)
            if routed is not None:
                targets = [b for b in targets if b.backend_id in routed]
                metrics = self.obs.metrics
                if metrics.enabled:
                    metrics.inc("route.requests")
                    skipped = self.backend_count - len(targets)
                    if skipped:
                        metrics.inc("route.skipped_backends", skipped)
        if not self.pruning:
            return targets
        query = getattr(request, "query", None)
        if query is None:
            return targets
        with self.obs.tracer.span("prune.decision") as span:
            pruned = [b for b in targets if b.summary().may_match(query)]
        skipped = len(targets) - len(pruned)
        if span:
            span.record(targets=len(pruned), skipped=skipped)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.inc("prune.broadcasts")
            if skipped:
                metrics.inc("prune.skipped_backends", skipped)
        return pruned

    # -- maintenance -------------------------------------------------------------

    def add_index(self, *attributes: str) -> None:
        """Build sorted attribute indexes on every backend's store.

        Indexing changes the simulated cost of future retrievals (fewer
        records examined), so each store bumps its epoch and any cached
        results priced under the unindexed accounting are invalidated.
        The attribute set is remembered: indexes are schema the WAL does
        not journal, so farm healing re-adds them after a respawn.
        """
        for backend in self.backends:
            for attribute in attributes:
                backend.store.add_index(attribute)
        for attribute in attributes:
            if attribute not in self.indexed_attributes:
                self.indexed_attributes.append(attribute)

    def index_report(self) -> dict[str, object]:
        """Per-backend index state and hit counters (the ``.indexes``
        dot-command)."""
        return {
            f"backend[{b.backend_id}]": b.store.index_snapshot()
            for b in self.backends
        }

    def invalidate_summaries(self) -> None:
        """Drop every cached backend summary (after direct store edits)."""
        for backend in self.backends:
            backend.invalidate_summary()

    def shutdown(self) -> None:
        """Release engine resources (worker threads, if any)."""
        self.engine.shutdown()

    # -- inspection -------------------------------------------------------------

    def record_count(self) -> int:
        """Total records across all backends."""
        return sum(b.record_count() for b in self.backends)

    def distribution(self) -> list[int]:
        """Records per backend (for placement-balance tests)."""
        return [b.record_count() for b in self.backends]

    def all_records(self) -> list[Record]:
        """Every record in the database, backend by backend."""
        records: list[Record] = []
        for backend in self.backends:
            records.extend(backend.store.all_records())
        return records


def _empty_result(request: Request) -> RequestResult:
    """The result of a broadcast every backend was pruned from."""
    for request_type, operation in _OPERATION_NAMES.items():
        if isinstance(request, request_type):
            return RequestResult(operation)
    raise ExecutionError(f"unknown request type {type(request).__name__}")


def _count_delta(partials: Sequence[BackendResult]) -> dict[int, int]:
    """Net record-count change per backend: +inserted, -deleted."""
    delta: dict[int, int] = {}
    for partial in partials:
        sign = _COUNT_SIGNS.get(partial.result.operation, 0)
        if sign and partial.result.count:
            delta[partial.backend_id] = sign * partial.result.count
    return delta


def _merge(request: Request, partials: Sequence[BackendResult]) -> RequestResult:
    """Merge per-backend partial results into one logical result.

    Record lists concatenate in backend order (deterministic given the
    deterministic placement); counts add.  Aggregate RETRIEVEs cannot be
    merged by concatenation in general (AVG of AVGs is wrong), so the
    controller is expected to receive aggregate queries only through
    :class:`~repro.mbds.kds.KernelDatabaseSystem`, which evaluates
    aggregates at the controller from raw records.
    """
    if not partials:
        raise ExecutionError("no backend results to merge")
    operation = partials[0].result.operation
    merged = RequestResult(operation)
    for partial in partials:
        merged.records.extend(partial.result.records)
        merged.raw_records.extend(partial.result.raw_records)
        merged.count += partial.result.count
    return merged
