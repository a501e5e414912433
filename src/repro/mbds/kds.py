"""The Kernel Database System: MBDS behind a single execution interface.

Every MLDS language interface submits ABDL to one shared KDS (thesis
Figure 1.2).  :class:`KernelDatabaseSystem` wraps the backend controller
and papers over the one merge subtlety: aggregate RETRIEVEs cannot be
combined by concatenating per-backend partials (an average of averages is
wrong), so the KDS broadcasts the *query* portion, gathers the raw
matching records, and evaluates the target list at the controller.

The KDS also keeps the database catalog: which database (template) each
file belongs to, so several user databases — AB(network) and
AB(functional) alike — can coexist in one kernel, as MLDS requires.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.abdl.ast import (
    ALL_ATTRIBUTES,
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    Transaction,
    UpdateRequest,
)
from repro.abdl.aggregates import digest_plan, merge_digests
from repro.abdl.executor import RequestResult, merge_common, project
from repro.abdm.record import Record
from repro.errors import ExecutionError, SnapshotTooOld, WalError, WorkerCrashed
from repro.mbds.controller import BackendController, ExecutionTrace
from repro.mbds.engine import EngineSpec
from repro.mbds.locks import LockManager, lock_items
from repro.mbds.placement import PlacementPolicy
from repro.mbds.sessions import KernelSession
from repro.mbds.summary import affected_files
from repro.mbds.timing import (
    PHASE_AGGREGATE_INDEX,
    PHASE_COMMON_LEFT,
    PHASE_COMMON_RIGHT,
    BroadcastPhase,
    ResponseTime,
    TimingModel,
)
from repro.obs import ObsSpec
from repro.qc import runtime as qc_runtime
from repro.wal.faults import CrashPoint, InjectedCrash
from repro.wal.log import WalManager

#: The request types that mutate store state (everything else is a read).
_MUTATING_REQUESTS = (InsertRequest, BulkInsertRequest, DeleteRequest, UpdateRequest)

#: How many times a lock-free read retries at a fresher snapshot after
#: GC trimmed its pinned one away, before falling back to a locking read.
_SNAPSHOT_RETRIES = 3


@dataclass
class DatabaseTemplate:
    """Catalog entry: a user database and the AB files realizing it."""

    name: str
    model: str  # 'network' or 'functional' (origin of the AB database)
    files: list[str] = field(default_factory=list)


class KernelDatabaseSystem:
    """MBDS plus catalog: the single kernel shared by all interfaces."""

    def __init__(
        self,
        backend_count: int = 4,
        timing: Optional[TimingModel] = None,
        placement: Optional[PlacementPolicy] = None,
        store_factory=None,
        engine: EngineSpec = None,
        workers: Optional[int] = None,
        pruning: bool = False,
        latency_scale: float = 0.0,
        wal: Optional[WalManager] = None,
        obs: ObsSpec = None,
        lock_timeout: float = 10.0,
        snapshot_reads: bool = True,
        version_retain: Optional[int] = None,
    ) -> None:
        """*engine* picks the wall-clock dispatch strategy ('serial' or
        'threads', or an :class:`~repro.mbds.engine.ExecutionEngine`);
        simulated response time is identical for every engine.  *pruning*
        enables summary-based broadcast pruning; *latency_scale* emulates
        real disk stalls (see :class:`~repro.mbds.backend.Backend`).
        *wal* attaches a write-ahead log: mutating requests are journaled
        before applying and grouped into session transactions (see
        :meth:`session_transaction`).  *obs* attaches an
        :class:`~repro.obs.Observability` bundle (tracing + metrics +
        slow log); the default is the no-op null bundle.
        *snapshot_reads* enables the lock-free MVCC read path for
        RETRIEVEs (see :meth:`_execute_session`);
        *version_retain* caps the per-file version-chain depth on
        in-process stores (process-engine workers keep the library
        default; their chains still garbage-collect by watermark)."""
        self.controller = BackendController(
            backend_count,
            timing,
            placement,
            store_factory,
            engine=engine,
            workers=workers,
            pruning=pruning,
            latency_scale=latency_scale,
            wal=wal,
            obs=obs,
        )
        self._catalog: dict[str, DatabaseTemplate] = {}
        #: Simulated time accumulated across every request executed.
        self.clock = ResponseTime()
        #: Count of requests executed (for the benchmark harnesses).
        self.requests_executed = 0
        #: Kernel concurrency control: every request runs on a session.
        self.locks = LockManager(lock_timeout)
        #: Guards the shared accounting (clock, counters) across sessions.
        self._state_lock = threading.Lock()
        #: Global commit order: bumped for every session commit while the
        #: committing session still holds its locks, so replaying
        #: committed work in commit_seq order is a serial history
        #: conflict-equivalent to the concurrent one (2PL).
        self._commit_seq = 0
        #: Highest commit seq sealed into the version chains with every
        #: predecessor sealed too — the newest snapshot a lock-free read
        #: may open.  Published only over contiguous seqs so concurrent
        #: out-of-order commits never expose a gap.
        self._stable_seq = 0
        self._sealed: set[int] = set()
        #: Open snapshot registry: token -> pinned commit seq.  The GC
        #: watermark is the oldest pinned seq (stable when none is open),
        #: so a chain entry is only trimmed once no in-flight or future
        #: snapshot can need it.
        self._active_snapshots: dict[int, int] = {}
        self._snapshot_token = 0
        #: Lock-free RETRIEVE path toggle (see :meth:`_execute_session`).
        self.snapshot_reads = snapshot_reads
        if version_retain is not None:
            for backend in self.controller.backends:
                store = getattr(backend, "store", None)
                if hasattr(store, "version_retain"):
                    store.version_retain = version_retain
        self._session_counter = 0
        #: The kernel's own session, used by every caller that names none.
        self.default_session = KernelSession("kernel")
        self.locks.bind_metrics(self.obs.metrics)
        # Supervise a respawnable engine: crashes latch instead of
        # immediately stopping the farm, so execute() can heal from
        # checkpoint + WAL when no transaction is open.  Ineligible
        # crashes (no WAL, mid-transaction) still shut the farm down —
        # see _handle_worker_crash.
        engine_obj = self.controller.engine
        if hasattr(engine_obj, "defer_crash_shutdown"):
            engine_obj.defer_crash_shutdown = True

    @property
    def wal(self) -> Optional[WalManager]:
        return self.controller.wal

    @property
    def obs(self):
        """The observability bundle shared by every layer of this kernel."""
        return self.controller.obs

    # -- sessions ----------------------------------------------------------------
    #
    # Every request runs on a kernel session — the caller's, or the
    # kernel's own default_session when it names none.  Each session
    # carries its own WAL transaction, its own file-granular undo, and a
    # lock owner identity.  Requests acquire two-phase locks (see
    # repro.mbds.locks), so concurrent RETRIEVEs proceed in parallel
    # while mutations serialize per file, and every history is
    # conflict-equivalent to the commit order the kernel stamps
    # (``commit_seq``).

    def create_session(self, name: Optional[str] = None) -> KernelSession:
        """Register a new concurrent caller of this kernel."""
        with self._state_lock:
            self._session_counter += 1
            owner = name or f"session-{self._session_counter}"
        return KernelSession(owner)

    def _next_commit_seq(self) -> int:
        with self._state_lock:
            self._commit_seq += 1
            return self._commit_seq

    def session_begin(self, session: KernelSession) -> None:
        """Open *session*'s kernel transaction (locks release at its end)."""
        if session.in_transaction:
            raise WalError(
                f"session {session.owner!r} already has a transaction open "
                "(no nesting)"
            )
        if self.wal is not None:
            session.wal_txn = self.wal.begin(owner=session.owner)
        session.in_transaction = True

    def session_commit(self, session: KernelSession) -> int:
        """Commit *session*'s transaction; returns its global commit seq.

        The commit record is written, the commit order stamped, and the
        version chains sealed at the new seq while the session still
        holds every lock it acquired (strict two-phase locking), which
        is what makes the concurrent history conflict-equivalent to
        commit_seq order — and what makes the sealed pre-images the
        committed state every snapshot below the seq must see.
        """
        if not session.in_transaction:
            raise WalError(f"session {session.owner!r} has no transaction to commit")
        wal, txn = self.wal, session.wal_txn
        if wal is not None and txn is not None:
            wal.commit(txn, session.delta)
        seq = self._publish(self._session_seal_files(session))
        session.end_transaction()
        session.commits += 1
        self.locks.release_all(session.owner)
        return seq

    def session_abort(self, session: KernelSession) -> None:
        """Abort *session*'s transaction: WAL abort plus file-level undo.

        Undo restores exactly the files the transaction captured
        pre-images for — still under the transaction's exclusive locks,
        so no other session can have observed the rolled-back state —
        then rolls back placement routing for the transaction's INSERTs
        and finally releases the locks.
        """
        if not session.in_transaction:
            raise WalError(f"session {session.owner!r} has no transaction to abort")
        wal, txn = self.wal, session.wal_txn
        if wal is not None and txn is not None:
            wal.abort(txn)
        touched = bool(session.undo) or bool(session.wildcard_backends)
        backends = self.controller.backends
        for (backend_id, file_name), records in sorted(session.undo.items()):
            backends[backend_id].restore_file(file_name, records)
        for backend_id in sorted(session.wildcard_backends):
            captured = {
                name for owner_id, name in session.undo if owner_id == backend_id
            }
            for file_name in backends[backend_id].file_names():
                if file_name not in captured:
                    # Never captured on a fully-captured backend: the
                    # file was created by this transaction; drop it.
                    backends[backend_id].restore_file(file_name, [])
        if touched:
            with self.controller.placement_lock:
                observe = getattr(self.controller.placement, "observe_abort", None)
                if observe is not None:
                    for file_name, backend_id in session.placed:
                        observe(file_name, backend_id)
            self.controller.invalidate_summaries()
        session.end_transaction()
        session.aborts += 1
        self.locks.release_all(session.owner)

    @contextmanager
    def session_transaction(self, session: KernelSession) -> Iterator[KernelSession]:
        """Scope a session transaction: commit on success, abort on error.

        An :class:`~repro.wal.faults.InjectedCrash` is *not* handled — a
        crashed machine writes no abort record; it just dies.
        """
        self.session_begin(session)
        try:
            yield session
        except InjectedCrash:
            raise
        except BaseException:
            self.session_abort(session)
            raise
        else:
            self.session_commit(session)

    def transaction(self) -> AbstractContextManager[KernelSession]:
        """Scope a transaction on :attr:`default_session`."""
        return self.session_transaction(self.default_session)

    def _capture_undo(self, session: KernelSession, request: Request) -> None:
        """Lazily capture pre-images of the files *request* may mutate.

        Pinned requests capture the named files on every backend (cheap:
        a backend without the file contributes ``[]``).  An unpinned
        mutation can touch anything, so the session captures every file
        currently on every backend and marks those backends wildcard.
        Captures happen at most once per (backend, file) per transaction
        — the first mutation wins, preserving the true pre-image.
        """
        files = self._request_files(request)
        for backend in self.controller.backends:
            backend_id = backend.backend_id
            if backend_id in session.wildcard_backends:
                continue
            capture = backend.file_names() if files is None else files
            for file_name in capture:
                key = (backend_id, file_name)
                if key not in session.undo:
                    session.undo[key] = backend.capture_file(file_name)
            if files is None:
                session.wildcard_backends.add(backend_id)

    def _execute_session(self, request: Request, session: KernelSession) -> ExecutionTrace:
        """Execute on *session*: lock, (maybe) capture undo, run.

        Outside a transaction, locks span just this request and a
        mutation auto-commits under a session-owned WAL transaction,
        stamped with its commit seq and sealed into the version chains
        before the locks drop.  Inside a transaction, locks accumulate
        until commit/abort (2PL).

        RETRIEVE / RETRIEVE-COMMON from a session that has not yet
        written in its transaction take the lock-free snapshot path
        instead (when ``snapshot_reads`` is on): the read pins the
        newest stable commit seq and reconstructs that committed state
        from the stores' version chains, acquiring no S locks at all —
        readers never block writers and writers never block readers.  A
        session that has mutated must read its own uncommitted writes,
        which no snapshot contains, so it falls back to locking reads.
        """
        mutating = isinstance(request, _MUTATING_REQUESTS)
        if (
            self.snapshot_reads
            and not mutating
            and isinstance(request, (RetrieveRequest, RetrieveCommonRequest))
            and not session.undo
            and not session.wildcard_backends
        ):
            trace = self._execute_snapshot_read(request, session)
            if trace is not None:
                self._account_session(trace, session)
                return trace
            # GC kept trimming the pinned snapshot away: locking read.
        release_after = not session.in_transaction
        try:
            self.locks.acquire(
                session.owner, lock_items(request), session.lock_timeout
            )
            if mutating and session.in_transaction:
                self._capture_undo(session, request)
            with self.obs.tracer.span("kds.execute") as span:
                try:
                    trace = self._dispatch(request, session)
                except InjectedCrash:
                    raise
                except BaseException:
                    if mutating and release_after:
                        # The auto-commit mutation failed (and the WAL
                        # already aborted it); drop the pending version
                        # entries it may have opened so a later commit
                        # cannot seal a pre-image that isn't its own.
                        # In-transaction failures keep their pendings:
                        # the captured pre-image is still the committed
                        # state, and commit/abort settles them.
                        self._discard_pending(self._request_files(request))
                    raise
                if span:
                    span.record(
                        simulated_ms=trace.response.total_ms,
                        op=trace.result.operation,
                        records=trace.result.count,
                        session=session.owner,
                    )
            if mutating and release_after:
                trace.commit_seq = self._publish(self._request_files(request))
            self._account_session(trace, session)
            return trace
        finally:
            if release_after:
                self.locks.release_all(session.owner)

    def _dispatch(
        self,
        request: Request,
        session: KernelSession,
        snapshot: Optional[int] = None,
    ) -> ExecutionTrace:
        """Route *request* to the controller, or to the controller-side
        evaluation aggregates and RETRIEVE-COMMON need."""
        if isinstance(request, RetrieveRequest) and request.has_aggregates:
            return self._execute_aggregate(request, session, snapshot)
        if isinstance(request, RetrieveCommonRequest):
            return self._execute_common(request, session, snapshot)
        return self.controller.execute(request, session=session, snapshot=snapshot)

    def _account_session(self, trace: ExecutionTrace, session: KernelSession) -> None:
        """Fold one finished request into the shared kernel accounting."""
        with self._state_lock:
            self.clock = self.clock + trace.response
            self.requests_executed += 1
        session.requests_executed += 1
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.inc("kds.requests")
            metrics.inc(f"kds.requests.{trace.result.operation.lower()}")
            metrics.observe("kds.request.simulated_ms", trace.response.total_ms)
            metrics.observe("kds.request.wall_ms", trace.wall_ms)
            metrics.set_gauge("kds.requests_executed", self.requests_executed)

    # -- MVCC snapshots ----------------------------------------------------------
    #
    # Every commit unit — a session commit or a session auto-commit —
    # seals the pending version-chain entries it opened with its commit
    # seq (repro.abdm.store keeps the chains), then publishes the seq as
    # *stable* once every earlier seq is sealed too.  A lock-free read
    # pins the stable seq; the stores reconstruct that committed state
    # from their chains.  The pin holds the GC watermark down so the
    # entries the read needs cannot be trimmed out from under it (and a
    # retain-cap trim that gets there anyway surfaces as SnapshotTooOld,
    # answered by retrying fresher).

    @property
    def stable_seq(self) -> int:
        """The newest commit seq a snapshot read may open."""
        with self._state_lock:
            return self._stable_seq

    def _mark_stable(self, seq: int) -> None:
        """Publish *seq* once the commit-seq sequence below it is whole."""
        with self._state_lock:
            self._sealed.add(seq)
            while self._stable_seq + 1 in self._sealed:
                self._sealed.discard(self._stable_seq + 1)
                self._stable_seq += 1

    def _open_snapshot(self) -> tuple:
        """Pin the stable seq; returns ``(token, seq)`` for later close."""
        with self._state_lock:
            self._snapshot_token += 1
            token = self._snapshot_token
            seq = self._stable_seq
            self._active_snapshots[token] = seq
        return token, seq

    def _close_snapshot(self, token: int) -> None:
        with self._state_lock:
            self._active_snapshots.pop(token, None)

    def _gc_watermark(self) -> int:
        """Oldest pinned snapshot seq (stable when no read is in flight)."""
        with self._state_lock:
            if self._active_snapshots:
                return min(self._active_snapshots.values())
            return self._stable_seq

    def _publish(self, files: Optional[list]) -> int:
        """Stamp a durable commit unit's seq, seal *files* at it, and
        publish it stable; returns the seq."""
        if self.wal is not None:
            self.wal.fire(CrashPoint.BEFORE_VERSION_SEAL)
        seq = self._next_commit_seq()
        self._seal_backends(files, seq)
        if self.wal is not None:
            self.wal.fire(CrashPoint.AFTER_VERSION_SEAL)
        self._mark_stable(seq)
        return seq

    def _seal_backends(self, files: Optional[list], seq: int) -> None:
        """Seal pending chain entries at *seq* on every backend (then GC)."""
        watermark = self._gc_watermark()
        for backend in self.controller.backends:
            backend.seal_versions(files, seq, watermark)

    def _discard_pending(self, files: Optional[list]) -> None:
        for backend in self.controller.backends:
            backend.discard_pending(files)

    @staticmethod
    def _request_files(request: Request) -> Optional[list]:
        """The files a mutating request can touch (None = unpinned: any).

        The same granule :meth:`_capture_undo` captures; an unpinned
        mutation holds the global exclusive lock, so sealing every
        pending entry (None) cannot steal another session's.
        """
        if isinstance(request, InsertRequest):
            name = request.record.file_name
            return [name] if name is not None else None
        if isinstance(request, BulkInsertRequest):
            names = {record.file_name for record in request.records}
            return sorted(names) if None not in names else None  # type: ignore[type-var]
        pinned = affected_files(request.query)  # type: ignore[attr-defined]
        return sorted(pinned) if pinned is not None else None

    @staticmethod
    def _session_seal_files(session: KernelSession) -> Optional[list]:
        """The files a committing session's transaction may have mutated.

        Derived from the undo captures — every mutated file was captured
        first, at the same file granule.  A wildcard capture means the
        session held the global exclusive lock, so every pending entry
        anywhere is its own: seal all (None).
        """
        if session.wildcard_backends:
            return None
        return sorted({name for _, name in session.undo})

    def _execute_snapshot_read(
        self, request: Request, session: KernelSession
    ) -> Optional[ExecutionTrace]:
        """Run one retrieval lock-free at the newest stable snapshot.

        Retries at a fresher snapshot when GC trimmed the pinned one
        away mid-read; returns None after :data:`_SNAPSHOT_RETRIES`
        consecutive failures so the caller falls back to a locking
        read (which cannot starve: it holds S locks).
        """
        metrics = self.obs.metrics
        for _ in range(_SNAPSHOT_RETRIES):
            token, seq = self._open_snapshot()
            try:
                with self.obs.tracer.span("kds.execute") as span:
                    trace = self._dispatch(request, session, seq)
                    if span:
                        span.record(
                            simulated_ms=trace.response.total_ms,
                            op=trace.result.operation,
                            records=trace.result.count,
                            session=session.owner,
                            snapshot=seq,
                        )
            except SnapshotTooOld:
                if metrics.enabled:
                    metrics.inc("kds.snapshot_retries")
                continue
            finally:
                self._close_snapshot(token)
            trace.snapshot_seq = seq
            if metrics.enabled:
                metrics.inc("kds.snapshot_reads")
                metrics.set_gauge("kds.stable_seq", seq)
            return trace
        if metrics.enabled:
            metrics.inc("kds.snapshot_fallbacks")
        return None

    # -- catalog ---------------------------------------------------------------

    def define_database(self, name: str, model: str, files: Sequence[str]) -> DatabaseTemplate:
        """Register a database template (the KDM database definition)."""
        if name in self._catalog:
            raise ExecutionError(f"database {name!r} already defined in the kernel")
        template = DatabaseTemplate(name, model, list(files))
        self._catalog[name] = template
        return template

    def database(self, name: str) -> DatabaseTemplate:
        try:
            return self._catalog[name]
        except KeyError as exc:
            raise ExecutionError(f"database {name!r} is not defined in the kernel") from exc

    def databases(self) -> list[DatabaseTemplate]:
        return list(self._catalog.values())

    def drop_database(self, name: str) -> None:
        """Remove a database and delete its files from every backend."""
        template = self.database(name)
        for backend in self.controller.backends:
            for file_name in template.files:
                backend.store.drop_file(file_name)
        # Dropping files bypasses Backend.execute, so the cached pruning
        # summaries no longer describe the stores; rebuild them lazily.
        # It also bypasses placement, so load-tracking policies get the
        # farm's actual distribution to resynchronize against.
        self.controller.invalidate_summaries()
        rebalance = getattr(self.controller.placement, "rebalance", None)
        if rebalance is not None:
            rebalance(self.controller.distribution())
        del self._catalog[name]

    # -- execution ---------------------------------------------------------------

    def execute(
        self, request: Request, session: Optional[KernelSession] = None
    ) -> ExecutionTrace:
        """Execute one ABDL request.

        Aggregate RETRIEVEs and RETRIEVE-COMMON cannot be answered by
        concatenating per-backend partials (an average of averages is
        wrong; join partners may live on different backends), so both are
        evaluated at the controller from broadcast raw retrievals.

        The request runs on *session* (see :meth:`create_session`), or on
        :attr:`default_session` when none is given, under kernel
        concurrency control: two-phase locks, session-owned WAL
        transactions, and commit-order stamping (see
        :meth:`_execute_session`).

        If a worker process dies mid-request under the process engine,
        the kernel *heals* when it safely can — no transaction open
        anywhere, a WAL attached — by respawning the whole farm from
        checkpoint + WAL (see :meth:`heal_workers`) and retrying the
        request once.  Mid-transaction crashes keep their typed
        :class:`~repro.errors.WorkerCrashed` and stop the farm, exactly
        as before: a half-applied transaction is only recoverable by
        full recovery.
        """
        if session is None:
            session = self.default_session
        try:
            return self._execute_session(request, session)
        except WorkerCrashed:
            if not self._try_heal(session):
                self.controller.engine.shutdown()
                raise
            try:
                return self._execute_session(request, session)
            except WorkerCrashed:
                # Crashed again straight after a heal: stop retrying.
                self.controller.engine.shutdown()
                raise

    def _execute_common(
        self,
        request: RetrieveCommonRequest,
        session: KernelSession,
        snapshot: Optional[int] = None,
    ) -> ExecutionTrace:
        left = self.controller.execute(
            RetrieveRequest(request.left_query),
            label=PHASE_COMMON_LEFT,
            session=session,
            snapshot=snapshot,
        )
        right = self.controller.execute(
            RetrieveRequest(request.right_query),
            label=PHASE_COMMON_RIGHT,
            session=session,
            snapshot=snapshot,
        )
        merged = merge_common(
            left.result.raw_records, right.result.raw_records, request
        )
        plain = RetrieveRequest(request.left_query, request.target)
        projected = project(merged, plain)
        result = RequestResult(
            "RETRIEVE-COMMON",
            records=projected,
            raw_records=merged,
            count=len(merged),
        )
        join_ms = (
            len(left.result.raw_records) + len(right.result.raw_records)
        ) * self.controller.timing.merge_record_ms
        response = ResponseTime(
            left.response.total_ms + right.response.total_ms + join_ms,
            left.response.backend_ms + right.response.backend_ms,
            left.response.controller_ms + right.response.controller_ms + join_ms,
        )
        # The two broadcasts stay labelled phases; the per-backend lists
        # carry each backend's total across both (never a flat concat,
        # which would misindex backends and double the apparent farm).
        # The phases are the controller's own, already labelled at the
        # single point the labels were handed down — not re-built here.
        return ExecutionTrace(
            request,
            result,
            response,
            per_backend_ms=[
                l + r for l, r in zip(left.per_backend_ms, right.per_backend_ms)
            ],
            wall_ms=left.wall_ms + right.wall_ms,
            per_backend_wall_ms=[
                l + r
                for l, r in zip(left.per_backend_wall_ms, right.per_backend_wall_ms)
            ],
            phases=[*left.phases, *right.phases],
        )

    def execute_transaction(self, transaction: Transaction) -> list[ExecutionTrace]:
        """Execute an ABDL transaction as one kernel transaction.

        With a WAL attached, a mutating multi-request transaction maps
        onto exactly one WAL transaction (the thesis's transaction
        boundary) on :attr:`default_session`, unless that session
        already has a transaction open.
        """
        mutating = any(
            isinstance(request, _MUTATING_REQUESTS) for request in transaction
        )
        if mutating and self.wal is not None and not self.default_session.in_transaction:
            with self.transaction():
                return [self.execute(request) for request in transaction]
        return [self.execute(request) for request in transaction]

    def _aggregate_from_digests(
        self, request: RetrieveRequest, snapshot: Optional[int] = None
    ) -> Optional[ExecutionTrace]:
        """Answer a MIN/MAX/COUNT request from index digests, or None.

        When :func:`~repro.abdl.aggregates.digest_plan` accepts the
        request and every backend's index can vouch for the file, the
        aggregates are computed from per-backend digest statistics:
        backends holding no slice of the file are skipped at zero
        simulated cost, the rest are charged exactly one disk access,
        and zero records are examined.  MIN/MAX fall back to the scan
        path when any digest reports resident NaNs (the scan evaluator
        folds NaN through ``min``/``max``, whose result depends on input
        order — only a real scan reproduces it).  The returned row is
        bit-identical to the scan path's projection; ``raw_records``
        stays empty, which is safe because aggregates never feed joins.
        """
        if not qc_runtime.config.plan_enabled:
            return None
        plan = digest_plan(request)
        if plan is None:
            return None
        file_name, attributes = plan
        start = time.perf_counter()
        probes = []
        for backend in self.controller.backends:
            # With a snapshot pinned, the digest fast path only answers
            # when the backend's chains show the file live-valid at that
            # seq (digests describe the live store); otherwise fall back
            # to the scan path, which reconstructs the snapshot.
            probe = backend.aggregate_probe(file_name, attributes, snapshot)
            if probe is None:
                return None
            probes.append(probe)
        minmax_attrs = {
            item.attribute
            for item in request.target
            if item.aggregate in ("MIN", "MAX")
        }
        if any(
            digests[attribute].nans
            for digests, _ in probes
            for attribute in minmax_attrs
        ):
            return None
        row = Record()
        for item in request.target:
            assert item.aggregate is not None
            row.set(
                item.output_name,
                merge_digests(item.aggregate, item.attribute, probes),
            )
        result = RequestResult(
            "RETRIEVE",
            records=[row],
            count=sum(count for _, count in probes),
        )
        per_backend_ms = [0.0] * self.controller.backend_count
        per_backend_wall_ms = [0.0] * self.controller.backend_count
        for backend, (_, count) in zip(self.controller.backends, probes):
            if count == 0:
                continue
            elapsed, wall = backend.charge_access()
            per_backend_ms[backend.backend_id] = elapsed
            per_backend_wall_ms[backend.backend_id] = wall
        response = ResponseTime()
        response.add(
            max(per_backend_ms), self.controller.timing.controller_ms(1)
        )
        span = self.obs.tracer.current
        if span:
            span.record(**{"plan.access_path": PHASE_AGGREGATE_INDEX})
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.inc("index.aggregate_hits")
        wall_ms = (time.perf_counter() - start) * 1000.0
        return ExecutionTrace(
            request,
            result,
            response,
            per_backend_ms=per_backend_ms,
            wall_ms=wall_ms,
            per_backend_wall_ms=per_backend_wall_ms,
            phases=[
                BroadcastPhase(
                    PHASE_AGGREGATE_INDEX, per_backend_ms, per_backend_wall_ms
                )
            ],
        )

    def _execute_aggregate(
        self,
        request: RetrieveRequest,
        session: KernelSession,
        snapshot: Optional[int] = None,
    ) -> ExecutionTrace:
        fast = self._aggregate_from_digests(request, snapshot)
        if fast is not None:
            return fast
        raw = RetrieveRequest(request.query, (ALL_ATTRIBUTES,))
        trace = self.controller.execute(raw, session=session, snapshot=snapshot)
        projected = project(trace.result.raw_records, request)
        merged = RequestResult(
            "RETRIEVE",
            records=projected,
            raw_records=trace.result.raw_records,
            count=trace.result.count,
        )
        # Charge extra controller time for the aggregate evaluation pass.
        extra = len(trace.result.raw_records) * self.controller.timing.merge_record_ms
        response = ResponseTime(
            trace.response.total_ms + extra,
            trace.response.backend_ms,
            trace.response.controller_ms + extra,
        )
        return ExecutionTrace(
            request,
            merged,
            response,
            per_backend_ms=trace.per_backend_ms,
            wall_ms=trace.wall_ms,
            per_backend_wall_ms=trace.per_backend_wall_ms,
            phases=trace.phases,
        )

    # -- convenience -------------------------------------------------------------

    def bulk_insert(
        self,
        records: Sequence[Record],
        session: Optional[KernelSession] = None,
    ) -> ExecutionTrace:
        """Insert a record batch as one journaled BULK-INSERT request.

        The batch journals as one WAL record per target backend and
        applies with one store call per backend, while simulated time,
        placement, and the resulting store state are identical to
        inserting the records one request at a time.  The batch runs on
        *session* (default: :attr:`default_session`) under kernel
        concurrency control exactly like any other mutating request
        (file locks, undo capture, commit-order stamping).
        """
        return self.execute(BulkInsertRequest(records), session=session)

    def retrieve_records(self, request: RetrieveRequest) -> list[Record]:
        """Execute a retrieval and return the projected records."""
        return self.execute(request).result.records

    def record_count(self) -> int:
        return self.controller.record_count()

    def reset_clock(self) -> None:
        self.clock = ResponseTime()
        self.requests_executed = 0

    # -- farm healing ------------------------------------------------------------

    def _try_heal(self, session: KernelSession) -> bool:
        """Heal a crashed worker farm if it is safe; False otherwise.

        Safe means: durable state exists (a WAL is attached), and no
        transaction is open anywhere — not the calling session's, not
        any concurrent session's WAL transaction.
        A mid-transaction crash cannot be healed in place, because the
        surviving workers may already hold applies from the doomed
        transaction; only the typed error and full recovery are sound.
        """
        engine = self.controller.engine
        if getattr(engine, "respawn_workers", None) is None:
            return False
        if not getattr(engine, "can_respawn", False):
            return False
        if self.wal is None or session.in_transaction:
            return False
        if self.wal.has_open_transactions:
            return False
        io_lock = getattr(engine, "_io_lock", None)
        lock_ctx = io_lock if io_lock is not None else threading.RLock()
        with lock_ctx:
            # Another session may have healed the farm while we waited
            # for the lock; needs_heal goes False once the farm is whole.
            if getattr(engine, "needs_heal", True):
                self.heal_workers()
        return True

    def heal_workers(self) -> int:
        """Respawn the process-engine farm from durable state.

        Every worker is replaced (fresh process, empty store) — not just
        the dead one, because a survivor may have applied operations
        from a transaction that aborted when the crash surfaced, and
        redoing such a request against its live state would double-apply
        non-idempotent mutations.  The empty farm is then rebuilt to
        exactly the durable baseline: checkpoint snapshot, committed WAL
        tail, runtime-added indexes.  Returns the number of WAL
        transactions replayed.
        """
        from repro.wal.log import CHECKPOINT_NAME
        from repro.wal.reader import read_wal
        from repro.wal.recovery import replay_committed, restore_backend_state

        engine = self.controller.engine
        respawn = getattr(engine, "respawn_workers", None)
        if respawn is None or not getattr(engine, "can_respawn", False):
            raise WalError(
                "farm healing needs a process engine with live workers"
            )
        if self.wal is None:
            raise WalError("farm healing needs an attached WAL")
        if self.wal.has_open_transactions:
            raise WalError("cannot heal the farm with a transaction open")
        io_lock = getattr(engine, "_io_lock", None)
        lock_ctx = io_lock if io_lock is not None else threading.RLock()
        with lock_ctx:
            with self.obs.tracer.span("kds.heal") as span:
                respawn()
                checkpoint = self.wal.directory / CHECKPOINT_NAME
                watermark = restore_backend_state(self.controller, checkpoint)
                view = read_wal(self.wal.directory, self.controller.backend_count)
                replayed = replay_committed(self.controller, view, watermark)
                if self.controller.indexed_attributes:
                    self.controller.add_index(*self.controller.indexed_attributes)
                if span:
                    span.record(replayed=replayed, watermark=watermark)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.inc("kds.worker_heals")
        return replayed

    def shutdown(self) -> None:
        """Release engine resources (worker threads) and WAL file handles."""
        self.controller.shutdown()
        if self.wal is not None:
            self.wal.close()
