"""Controller-side proxies for worker-resident backends.

:class:`ProcessBackend` duck-types :class:`~repro.mbds.backend.Backend`
closely enough that the controller, the KDS, persistence, and recovery
never notice the store lives in another process: every Backend method
they call has a counterpart here that encodes the call, ships it as a
frame over the worker's pipe, and decodes the reply.  :class:`ProcessStore`
does the same for the handful of direct store accesses the upper layers
make (``add_index``, ``all_records``, ``drop_file``, snapshot-style
inspection), so ``backend.store.…`` keeps working too.

Three details carry the engine contract:

* **Split-phase execution** — :meth:`ProcessBackend.start_execute` only
  sends; :meth:`ProcessBackend.finish_execute` receives.  The engine
  sends one request to every target worker before collecting any reply,
  which is what turns N CPU-bound scans into N concurrent processes.
* **Request coalescing** — commands that need no immediate answer
  (WAL replay during recovery) are buffered controller-side and shipped
  as one batch frame, either when the buffer reaches
  :data:`PIPELINE_LIMIT` or just before the next reply-requiring
  command.  A million-op replay costs thousands of frames instead of a
  round trip per op.
* **Summary caching** — pruning consults summaries on every broadcast,
  so the proxy caches the last decoded summary and drops it whenever it
  forwards a write (a mutating request, replay, file restore, or direct
  store edit).  Every store edit in the worker goes through this proxy,
  so the parent-side copy is never stale; the worker's own
  :class:`~repro.mbds.summary.SummaryCache` checks the store's mutation
  epochs and re-digests only the files whose stamp moved.

Workers are daemonic: an abandoned controller (the crash-matrix tests
kill systems mid-transaction without shutdown) cannot leak processes
past interpreter exit.  A dead worker can also be *replaced*:
:meth:`ProcessBackend.respawn` spawns a fresh process (fresh store,
fresh transport) for the same backend id, which is how the kernel heals
a crashed farm from checkpoint + WAL state.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro import errors
from repro.errors import ExecutionError, WorkerCrashed
from repro.ipc import codec
from repro.ipc.transport import PipeTransport
from repro.ipc.worker import config_state, worker_main
from repro.obs import NULL_OBS, ObsSpec, resolve_obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.abdl.ast import Request
    from repro.abdm.plan import AttributeIndexDigest
    from repro.abdm.record import Record
    from repro.mbds.backend import BackendResult, StoreFactory
    from repro.mbds.summary import BackendSummary
    from repro.mbds.timing import TimingModel
    from repro.obs.trace import Span

#: Mutating request operation names (mirrors the WAL's journaled set).
_MUTATING_OPS = ("INSERT", "BULK-INSERT", "DELETE", "UPDATE")

#: Deferred commands buffered per worker before a batch frame is forced.
PIPELINE_LIMIT = 128


def _spawn_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (cheap, inherits the store factory
    without pickling); fall back to the default context elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class ProcessStore:
    """The slice of the :class:`~repro.abdm.store.ABStore` API that upper
    layers reach through ``backend.store``, proxied over the wire."""

    def __init__(self, backend: "ProcessBackend") -> None:
        self._backend = backend

    def add_index(self, attribute: str) -> None:
        self._backend._call({"cmd": "store_add_index", "attribute": attribute})

    def index_snapshot(self) -> dict[str, Any]:
        reply = self._backend._call({"cmd": "store_index_snapshot"})
        return reply["snapshot"]

    def all_records(self) -> Iterator["Record"]:
        reply = self._backend._call({"cmd": "store_all_records"})
        return iter(codec.decode_records(reply["records"]))

    def drop_file(self, name: str) -> None:
        self._backend._summary_cache = None
        self._backend._call({"cmd": "store_drop_file", "file": name})

    def insert(self, record: "Record") -> None:
        self._backend._summary_cache = None
        self._backend._call(
            {"cmd": "store_insert", "records": codec.encode_records([record])}
        )

    def bulk_insert(self, records: Sequence["Record"]) -> int:
        self._backend._summary_cache = None
        reply = self._backend._call(
            {
                "cmd": "store_bulk_insert",
                "records": codec.encode_records(records),
            }
        )
        return reply["count"]

    def count(self, file_name: Optional[str] = None) -> int:
        reply = self._backend._call({"cmd": "store_count", "file": file_name})
        return reply["count"]

    def snapshot(self) -> dict[str, Any]:
        # Marshal frames keep tuples and lists apart, so the reply already
        # has the in-process shape (lists of ``(attribute, value)`` tuples).
        return self._backend._call({"cmd": "store_snapshot"})["snapshot"]


class ProcessBackend:
    """A :class:`~repro.mbds.backend.Backend` living in a worker process."""

    def __init__(
        self,
        engine: Any,
        backend_id: int,
        timing: "TimingModel",
        store_factory: Optional["StoreFactory"] = None,
        latency_scale: float = 0.0,
    ) -> None:
        self.backend_id = backend_id
        self.timing = timing
        self.latency_scale = latency_scale
        self._engine = engine
        self._stopped = False
        self._summary_cache: Optional["BackendSummary"] = None
        # Retained for respawn: a replacement worker must rebuild the
        # same schema (store factory) under the same timing model.
        self._store_factory = store_factory
        self._directory = self._template_directory(store_factory)
        #: Deferred commands awaiting the next batch frame (see _defer).
        self._pending: list[dict[str, Any]] = []
        #: The request the last start_execute shipped: its reply carries
        #: only raw records, and finish_execute projects them through it.
        self._inflight: Optional["Request"] = None
        self._spawn()
        self.store = ProcessStore(self)

    def _spawn(self) -> None:
        context = _spawn_context()
        parent_end, child_end = context.Pipe(duplex=True)
        self._transport = PipeTransport(parent_end)
        self._process = context.Process(
            target=worker_main,
            args=(
                self.backend_id,
                codec.encode_timing(self.timing),
                self._store_factory,
                self.latency_scale,
                config_state(),
                child_end,
            ),
            daemon=True,
            name=f"mbds-backend-{self.backend_id}",
        )
        self._process.start()
        # The worker holds its end now; closing the parent's copy lets a
        # worker death surface as EOF on this side instead of a hang.
        child_end.close()

    def respawn(self) -> None:
        """Replace the worker with a fresh process (empty store).

        Used by farm healing: the caller is responsible for rebuilding
        store contents from durable state (checkpoint + WAL) afterwards.
        Any worker still alive is stopped first, so respawning a full
        farm leaves no orphaned processes.
        """
        if self._process.is_alive():
            self.stop()
        else:
            self._close_transport()
        self._pending = []
        self._inflight = None
        self._summary_cache = None
        self._stopped = False
        self._spawn()

    @staticmethod
    def _template_directory(store_factory: Optional["StoreFactory"]) -> Any:
        """A local directory for decoded summaries (descriptor search).

        Directory definitions are part of the store factory — schema, not
        state — so a template store built from the same factory carries
        the same descriptors the worker's store classifies records by.
        """
        if store_factory is None:
            return None
        return getattr(store_factory(), "directory", None)

    # -- protocol plumbing -----------------------------------------------------

    @property
    def obs(self) -> Any:
        return self._engine.obs if self._engine is not None else NULL_OBS

    def _check_alive(self) -> None:
        if not self._process.is_alive():
            if self._stopped:
                raise ExecutionError(
                    f"backend {self.backend_id}'s worker process is not "
                    "running (engine already shut down?)"
                )
            raise WorkerCrashed(self.backend_id, self._process.exitcode)

    def _send(self, message: dict[str, Any]) -> None:
        self._flush()
        self._check_alive()
        try:
            self._transport.send(message)
        except (BrokenPipeError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None

    def _defer(self, message: dict[str, Any]) -> None:
        """Buffer a command whose reply nobody needs *yet*.

        Deferred commands ship as one batch frame — when the buffer hits
        :data:`PIPELINE_LIMIT`, or right before the next immediate
        command (so ordering is preserved).  Only commands that cannot
        fail in ways the caller must see synchronously belong here;
        today that is WAL ``replay``, whose errors surface at the next
        flush and abort recovery exactly as the per-op round trip did.
        """
        lock = getattr(self._engine, "_io_lock", None)
        if lock is None:
            self._pending.append(message)
            if len(self._pending) >= PIPELINE_LIMIT:
                self._flush()
            return
        with lock:
            self._pending.append(message)
            if len(self._pending) >= PIPELINE_LIMIT:
                self._flush()

    def _flush(self) -> None:
        """Ship and settle any deferred commands (callers hold the lock)."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._check_alive()
        try:
            self._transport.send_batch(batch)
        except (BrokenPipeError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None
        self._await_reply()
        try:
            replies = self._transport.recv_batch()
        except (EOFError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None
        # Account for every reply before raising: the frame is already
        # fully consumed, so the protocol stays in sync even on error.
        failure: Optional[Exception] = None
        for reply in replies:
            error = reply.get("error")
            if error is not None and failure is None:
                failure = self._remote_error(error)
        if failure is not None:
            raise failure

    def _receive(self) -> dict[str, Any]:
        self._await_reply()
        try:
            reply = self._transport.recv()
        except (EOFError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None
        error = reply.get("error")
        if error is not None:
            raise self._remote_error(error)
        return reply

    @staticmethod
    def _remote_error(error: dict[str, Any]) -> Exception:
        exc_type = getattr(errors, error["type"], None)
        if isinstance(exc_type, type) and issubclass(exc_type, Exception):
            return exc_type(error["message"])
        return ExecutionError(f"{error['type']}: {error['message']}")

    def _await_reply(self) -> None:
        """Block until a reply frame is readable — or the worker is dead.

        A blocking ``recv`` would wait forever on a worker that died
        mid-request; polling the pipe lets us notice the death and raise
        a typed :class:`WorkerCrashed` naming the backend instead of
        hanging the whole farm.
        """
        while not self._transport.poll(0.05):
            if not self._process.is_alive():
                if self._transport.poll(0.0):  # reply raced the exit
                    return
                raise WorkerCrashed(self.backend_id, self._process.exitcode)

    def _call(self, message: dict[str, Any]) -> dict[str, Any]:
        # Serialize against in-flight split-phase dispatches: another
        # session's engine.run must not find our reply on the pipe.
        lock = getattr(self._engine, "_io_lock", None)
        if lock is None:
            self._send(message)
            return self._receive()
        with lock:
            self._send(message)
            return self._receive()

    # -- execution (the Backend.execute contract) ------------------------------

    def start_execute(
        self, request: "Request", snapshot: Optional[int] = None
    ) -> None:
        """Ship *request* to the worker without waiting for the reply."""
        if request.operation in _MUTATING_OPS:
            self._summary_cache = None
        message: dict[str, Any] = {
            "cmd": "execute",
            "request": codec.encode_any_request(request),
            "trace": self.obs.tracer.enabled,
        }
        if snapshot is not None:
            message["snapshot"] = snapshot
        self._send(message)
        self._inflight = request

    def finish_execute(self, span: Optional["Span"] = None) -> "BackendResult":
        """Collect the reply for the last :meth:`start_execute`.

        Worker-side spans are grafted under *span* (or the calling
        thread's current span), re-joining the controller's trace tree;
        worker-side counter deltas (qc cache hits/misses and friends)
        are folded into the controller's metrics registry.  The reply
        ships each matching record once; the decoder rebuilds the
        projected ``records`` from them with the in-flight request.
        """
        request, self._inflight = self._inflight, None
        if request is None:
            raise ExecutionError(
                f"backend {self.backend_id}: finish_execute without start_execute"
            )
        reply = self._receive()
        parent = span if span is not None else self.obs.tracer.current
        if reply["spans"] and parent is not None:
            codec.graft_spans(reply["spans"], parent)
        metrics = self.obs.metrics
        for name, delta in reply.get("metrics", {}).items():
            metrics.inc(name, delta)
        return codec.decode_backend_result(reply["result"], request)

    def execute(
        self, request: "Request", snapshot: Optional[int] = None
    ) -> "BackendResult":
        self.start_execute(request, snapshot)
        return self.finish_execute()

    # -- durability support ----------------------------------------------------

    def replay(self, request: "Request") -> None:
        # Recovery replays whole WALs op by op; nobody reads the acks
        # until the next real command, so coalesce them into batch
        # frames instead of paying a round trip per op.
        self._summary_cache = None
        self._defer(
            {"cmd": "replay", "request": codec.encode_any_request(request)}
        )

    def file_names(self) -> list[str]:
        return list(self._call({"cmd": "file_names"})["files"])

    def capture_file(self, file_name: str) -> list:
        reply = self._call({"cmd": "capture_file", "file": file_name})
        return codec.decode_records(reply["records"])

    def restore_file(self, file_name: str, records: list) -> None:
        self._summary_cache = None
        self._call(
            {
                "cmd": "restore_file",
                "file": file_name,
                "records": codec.encode_records(records),
            }
        )

    # -- version chains (MVCC snapshot reads) ----------------------------------

    def seal_versions(
        self, files: Optional[list], seq: int, watermark: int
    ) -> None:
        # A commit-path call whose reply nobody needs: coalesce it like
        # replay.  Ordering is safe because _send flushes the pending
        # batch before any later command on this worker, so a snapshot
        # read opened at this seq always observes the seal first.
        self._defer(
            {
                "cmd": "seal_versions",
                "files": list(files) if files is not None else None,
                "seq": seq,
                "watermark": watermark,
            }
        )

    def discard_pending(self, files: Optional[list] = None) -> None:
        self._defer(
            {
                "cmd": "discard_pending",
                "files": list(files) if files is not None else None,
            }
        )

    # -- content summary (broadcast pruning) -----------------------------------

    def summary(self) -> "BackendSummary":
        if self._summary_cache is None:
            reply = self._call({"cmd": "summary"})
            self._summary_cache = codec.decode_summary(
                reply["summary"], self._directory
            )
        return self._summary_cache

    def summary_rebuild_counts(self) -> dict[str, int]:
        return dict(self._call({"cmd": "rebuild_counts"})["counts"])

    # -- aggregates and accounting ---------------------------------------------

    def charge_access(self) -> tuple[float, float]:
        reply = self._call({"cmd": "charge_access"})
        return reply["elapsed_ms"], reply["wall_ms"]

    def aggregate_probe(
        self,
        file_name: str,
        attributes: Sequence[str],
        snapshot: Optional[int] = None,
    ) -> Optional[tuple[dict[str, "AttributeIndexDigest"], int]]:
        reply = self._call(
            {
                "cmd": "aggregate_probe",
                "file": file_name,
                "attributes": list(attributes),
                "snapshot": snapshot,
            }
        )
        probe = reply["probe"]
        if probe is None:
            return None
        digests = {
            attribute: codec.decode_digest(encoded)
            for attribute, encoded in probe["digests"].items()
        }
        return digests, probe["count"]

    def record_count(self) -> int:
        return self.store.count()

    @property
    def busy_ms(self) -> float:
        return self._call({"cmd": "busy"})["busy_ms"]

    @property
    def busy_wall_ms(self) -> float:
        return self._call({"cmd": "busy"})["busy_wall_ms"]

    def bind_obs(self, obs: ObsSpec) -> None:
        bundle = resolve_obs(obs)
        self._call({"cmd": "bind_obs", "tracing": bundle.tracer.enabled})

    def cache_snapshots(self) -> dict[str, dict[str, Any]]:
        return self._call({"cmd": "cache_snapshots"})["caches"]

    # -- lifecycle -------------------------------------------------------------

    def stop(self) -> None:
        """Stop the worker process (idempotent, tolerates a dead worker)."""
        self._stopped = True
        self._pending = []  # acks nobody will read; the store is going away
        if self._process.is_alive():
            try:
                self._transport.send({"cmd": "stop"})
                self._await_reply()
                self._transport.recv()
            except WorkerCrashed:  # died before acknowledging; that's fine
                pass
            except (OSError, EOFError, BrokenPipeError):  # pragma: no cover
                pass
            self._process.join(timeout=5.0)
        self._close_transport()

    def _close_transport(self) -> None:
        try:
            self._transport.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __repr__(self) -> str:
        state = "alive" if self._process.is_alive() else "stopped"
        return f"ProcessBackend({self.backend_id}, {state})"
