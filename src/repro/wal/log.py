"""The write-ahead log: per-backend JSONL op segments plus a master
transaction log.

Layout of a WAL directory (one per MLDS instance)::

    wal-meta.json               {"format": 2, "backend_count": N, "segment": s}
    master-000000.jsonl         begin / commit / abort records
    backend-000-000000.jsonl    op records journaled for backend 0
    backend-001-000000.jsonl    ...
    checkpoint.mlds.json        last snapshot (written by checkpoint_mlds)

Every mutating kernel request (INSERT / BULK-INSERT / DELETE / UPDATE)
is journaled to the log of each backend that will apply it **before** it
is applied, tagged with the surrounding transaction id and a per-backend
monotonic sequence number.  Every transaction is owned by one kernel
session (see :mod:`repro.mbds.sessions`).  Transaction boundaries live in
the master log: the controller is MBDS's single master, so one
``commit`` record there is the atomic commit point for the whole farm —
a transaction whose commit record is absent (crash before commit, or
explicit abort) is discarded wholesale by recovery, which is what makes
multi-backend mutations atomic.  Commit records carry the transaction's
per-backend record-count *delta* (records inserted minus records
deleted); recovery re-checks that replaying the transaction changed the
farm by exactly that much, so a torn backend log or a non-deterministic
replay is detected rather than silently producing a different database
(the record-count checksum).

Checkpoints (see :mod:`repro.wal.recovery`) write a snapshot and then
call :meth:`WalManager.start_new_segment`, which bumps the segment
number and garbage-collects the old segment files.  Recovery never needs
the truncation to have happened: replay skips transactions at or below
the snapshot's watermark, so stale segments are merely dead weight.

Each record is one JSON line, flushed as written; pass ``sync=True`` to
additionally ``fsync`` every append (slower, closer to real durability —
the overhead benchmark measures both).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import IO, Mapping, Optional, Union

from repro.abdl.ast import BulkInsertRequest, Request
from repro.errors import WalError
from repro.obs import NULL_OBS
from repro.wal.codec import encode_request, is_mutating
from repro.wal.faults import CrashPoint, FaultInjector

#: Metadata file kept at the root of every WAL directory.
META_NAME = "wal-meta.json"
#: Snapshot written by :func:`repro.wal.recovery.checkpoint_mlds`.
CHECKPOINT_NAME = "checkpoint.mlds.json"
#: On-disk WAL format version (independent of the snapshot format).
#: Format 2 commit records carry a per-backend record-count ``delta``.
WAL_FORMAT = 2


def master_segment_name(segment: int) -> str:
    return f"master-{segment:06d}.jsonl"


def backend_segment_name(backend_id: int, segment: int) -> str:
    return f"backend-{backend_id:03d}-{segment:06d}.jsonl"


class _StreamWriter:
    """Append-only JSONL writer for one log stream's current segment."""

    def __init__(self, path: Path, sync: bool) -> None:
        self.path = path
        self.sync = sync
        self.obs = NULL_OBS
        self._handle: Optional[IO[str]] = None

    def append(self, record: dict, sync: Optional[bool] = None) -> None:
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self._handle.flush()
        if self.sync if sync is None else (sync and self.sync):
            self._fsync()

    def sync_now(self) -> None:
        """One explicit fsync — lets a group of appends share a single sync."""
        if self.sync and self._handle is not None:
            self._fsync()

    def _fsync(self) -> None:
        assert self._handle is not None  # only called with an open handle
        obs = self.obs
        obs.metrics.inc("wal.fsyncs")
        if not obs.enabled:
            os.fsync(self._handle.fileno())
            return
        with obs.tracer.span("wal.fsync"):
            start = time.perf_counter()
            os.fsync(self._handle.fileno())
        obs.metrics.observe("wal.fsync_ms", (time.perf_counter() - start) * 1000.0)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class _GroupBatch:
    """One group-commit batch: commit records staged by concurrent
    committers, written and fsynced together by the batch's leader."""

    __slots__ = ("entries", "done", "error")

    def __init__(self) -> None:
        #: (commit record sans seq, txn id, owner) per staged committer.
        self.entries: list[tuple[dict, int, str]] = []
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


class _GroupCommitCoordinator:
    """Batches concurrent committers into one shared flush+fsync.

    The first committer to stage into an open batch becomes its *leader*:
    it sleeps the tunable window (letting concurrent committers pile in),
    seals the batch, and writes every staged commit record — assigning
    master sequence numbers at write time, so they stay monotonic against
    begin/abort records appended in between — with a single fsync at the
    end.  Followers block on the batch's event; a leader failure poisons
    the batch so every waiting committer re-raises instead of hanging on
    a commit that never became durable.
    """

    def __init__(self, window_ms: float) -> None:
        self.window = max(float(window_ms), 0.0) / 1000.0
        self._lock = threading.Lock()
        self._batch: Optional[_GroupBatch] = None

    def join(self, entry: tuple[dict, int, str]) -> tuple[_GroupBatch, bool]:
        """Stage *entry* into the open batch; returns (batch, is_leader)."""
        with self._lock:
            batch = self._batch
            leader = batch is None
            if batch is None:
                batch = _GroupBatch()
                self._batch = batch
            batch.entries.append(entry)
            return batch, leader

    def seal(self, batch: _GroupBatch) -> None:
        """Close *batch* to new joiners (the leader is about to write)."""
        with self._lock:
            if self._batch is batch:
                self._batch = None


class WalManager:
    """Owns one WAL directory: journaling, transactions, segments.

    Every transaction is owned: ``begin(owner)`` tags the begin record
    with a kernel session's name and returns a txn id the session
    threads through ``log_op(..., txn=...)`` and ``commit(txn, ...)`` /
    ``abort(txn)``.  Any number may be open at once (one per owner),
    their ops interleaving freely in the backend streams; the single
    master ``commit`` record remains each transaction's atomic commit
    point, so interleaved commits from different sessions stay atomic
    and recovery never replays an uncommitted session's writes.

    An internal lock serializes appends and counter updates, so many
    kernel sessions can journal concurrently.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        backend_count: int,
        injector: Optional[FaultInjector] = None,
        sync: bool = False,
        group_window_ms: Optional[float] = None,
    ) -> None:
        if backend_count < 1:
            raise WalError("a WAL needs at least one backend")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.backend_count = backend_count
        self.injector = injector or FaultInjector()
        self.sync = sync
        #: Group-commit coordinator, or None for the classic one-commit-
        #: one-fsync path.  ``group_window_ms=0`` enables grouping with no
        #: window wait (batching only what arrives while a flush runs).
        self._group: Optional[_GroupCommitCoordinator] = (
            _GroupCommitCoordinator(group_window_ms)
            if group_window_ms is not None
            else None
        )
        #: Observability bundle; rebound by the controller that owns this
        #: WAL so journaling spans/metrics join the system-wide trace.
        self.obs = NULL_OBS

        meta_path = self.directory / META_NAME
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            if meta.get("format") != WAL_FORMAT:
                raise WalError(
                    f"WAL format {meta.get('format')!r} is not supported "
                    f"(expected {WAL_FORMAT})"
                )
            if meta.get("backend_count") != backend_count:
                raise WalError(
                    f"WAL directory was written for {meta.get('backend_count')} "
                    f"backends, not {backend_count}"
                )
            self.segment = int(meta.get("segment", 0))
            self._resume_counters()
        else:
            self.segment = 0
            self._master_seq = 0
            self._backend_seq = [0] * backend_count
            self._next_txn = 1
            self.last_committed_txn = 0
            self._write_meta()

        self._open_writers()
        #: Every open transaction id -> its owner.
        self._open: dict[int, str] = {}
        #: Owner -> its open transaction id.
        self._owner_txn: dict[str, int] = {}
        #: Serializes appends and counters across concurrent sessions.
        self._mutex = threading.RLock()

    # -- metadata / resume -----------------------------------------------------

    def _write_meta(self) -> None:
        payload = json.dumps(
            {
                "format": WAL_FORMAT,
                "backend_count": self.backend_count,
                "segment": self.segment,
            },
            indent=1,
        )
        tmp = self.directory / (META_NAME + ".tmp")
        tmp.write_text(payload)
        os.replace(tmp, self.directory / META_NAME)

    def _resume_counters(self) -> None:
        """Continue txn/seq numbering after everything already on disk."""
        from repro.wal.reader import read_wal  # local import: reader is read-side

        view = read_wal(self.directory, self.backend_count)
        self._master_seq = view.max_master_seq
        self._backend_seq = [view.max_seq.get(i, 0) for i in range(self.backend_count)]
        self._next_txn = view.max_txn + 1
        self.last_committed_txn = view.last_committed_txn

    def _open_writers(self) -> None:
        self._master = _StreamWriter(
            self.directory / master_segment_name(self.segment), self.sync
        )
        self._backends = [
            _StreamWriter(
                self.directory / backend_segment_name(i, self.segment), self.sync
            )
            for i in range(self.backend_count)
        ]
        self._master.obs = self.obs
        for writer in self._backends:
            writer.obs = self.obs

    def bind_obs(self, obs) -> None:
        """Attach an observability bundle (idempotent, cheap)."""
        self.obs = obs
        self._master.obs = obs
        for writer in self._backends:
            writer.obs = obs

    # -- transactions ----------------------------------------------------------

    @property
    def has_open_transactions(self) -> bool:
        """Is any transaction still open?"""
        with self._mutex:
            return bool(self._open)

    def open_owners(self) -> list[str]:
        """Owners with a transaction currently open (sorted, for errors)."""
        with self._mutex:
            return sorted(self._owner_txn)

    def begin(self, owner: str) -> int:
        """Open *owner*'s transaction; its ops group under it until commit.

        Any number of transactions may be open concurrently, one per
        owner (a kernel session name); thread the returned txn id through
        ``log_op`` / ``commit`` / ``abort``.
        """
        with self._mutex:
            if owner in self._owner_txn:
                raise WalError(
                    f"session {owner!r} already has transaction "
                    f"{self._owner_txn[owner]} open (no nesting)"
                )
            txn = self._next_txn
            self._next_txn += 1
            self._master_seq += 1
            self._master.append(
                {"seq": self._master_seq, "type": "begin", "txn": txn, "owner": owner}
            )
            self._open[txn] = owner
            self._owner_txn[owner] = txn
            return txn

    def _check_open(self, txn: int, verb: str) -> None:
        if txn not in self._open:
            raise WalError(f"transaction {txn} is not open (cannot {verb})")

    def log_op(self, backend_id: int, request: Request, txn: int) -> int:
        """Journal *request* for *backend_id* under transaction *txn*.

        Must be called before the backend applies the request — that is
        the "write-ahead" in write-ahead log.  Returns the op's sequence
        number in the backend's stream.
        """
        if not is_mutating(request):
            raise WalError("only mutating requests are journaled")
        if not 0 <= backend_id < self.backend_count:
            raise WalError(f"no backend {backend_id} in this WAL")
        obs = self.obs
        with obs.tracer.span("wal.append") as span:
            start = time.perf_counter() if obs.enabled else 0.0
            with self._mutex:
                self._check_open(txn, "journal under")
                self.injector.fire(CrashPoint.BEFORE_LOG_APPEND)
                seq = self._backend_seq[backend_id] + 1
                self._backend_seq[backend_id] = seq
                self._backends[backend_id].append(
                    {"seq": seq, "txn": txn, "op": encode_request(request)}
                )
                self.injector.fire(CrashPoint.AFTER_LOG_APPEND)
            if span:
                span.record(backend=backend_id, seq=seq, txn=txn)
        if obs.enabled:
            obs.metrics.inc("wal.ops")
            obs.metrics.observe(
                "wal.append_ms", (time.perf_counter() - start) * 1000.0
            )
        return seq

    def log_bulk(self, backend_id: int, request: BulkInsertRequest, txn: int) -> int:
        """Journal a batch of inserts for *backend_id* as ONE WAL record.

        The whole batch is a single JSON line in the backend's stream —
        one append instead of N — and therefore atomically torn-or-whole
        on crash: recovery either replays all of the batch's records or
        none of them.  Fires the bulk-specific crash points so the crash
        matrix can kill the machine around exactly this append.
        """
        if not is_mutating(request):
            raise WalError("only mutating requests are journaled")
        if not 0 <= backend_id < self.backend_count:
            raise WalError(f"no backend {backend_id} in this WAL")
        obs = self.obs
        with obs.tracer.span("wal.bulk_append") as span:
            start = time.perf_counter() if obs.enabled else 0.0
            with self._mutex:
                self._check_open(txn, "journal under")
                self.injector.fire(CrashPoint.BEFORE_BULK_APPEND)
                seq = self._backend_seq[backend_id] + 1
                self._backend_seq[backend_id] = seq
                self._backends[backend_id].append(
                    {"seq": seq, "txn": txn, "op": encode_request(request)}
                )
                self.injector.fire(CrashPoint.AFTER_BULK_APPEND)
            if span:
                span.record(
                    backend=backend_id,
                    seq=seq,
                    txn=txn,
                    records=len(request.records),
                )
        if obs.enabled:
            obs.metrics.inc("wal.bulk_ops")
            obs.metrics.inc("wal.bulk_records", len(request.records))
            obs.metrics.observe(
                "wal.append_ms", (time.perf_counter() - start) * 1000.0
            )
        return seq

    def commit(self, txn: int, delta: Mapping[int, int]) -> None:
        """Write the commit record — the transaction's atomic commit point.

        *delta* maps backend id to the net record-count change the
        transaction's requests made there (inserts minus deletes; absent
        backends changed by 0).  Each transaction's delta is its own, so
        it stays exact while other sessions commit concurrently;
        recovery re-checks it after replaying the transaction.
        """
        obs = self.obs
        staged: Optional[tuple[dict, int, str]] = None
        with obs.tracer.span("wal.commit") as span:
            start = time.perf_counter() if obs.enabled else 0.0
            with self._mutex:
                self._check_open(txn, "commit")
                if any(not 0 <= b < self.backend_count for b in delta):
                    raise WalError("commit delta names a backend outside this WAL")
                self.injector.fire(CrashPoint.BEFORE_COMMIT)
                owner = self._open[txn]
                record: dict = {
                    "type": "commit",
                    "txn": txn,
                    "delta": [delta.get(b, 0) for b in range(self.backend_count)],
                    "owner": owner,
                }
                if self._group is None:
                    self._master_seq += 1
                    self._master.append({"seq": self._master_seq, **record})
                    if span:
                        span.record(txn=txn)
                    # Watermark semantics: the highest committed id.  Owned
                    # transactions can commit out of id order, and checkpoints
                    # (which require no open transactions) rely on every
                    # id <= watermark being committed-or-aborted.
                    self.last_committed_txn = max(self.last_committed_txn, txn)
                    self._forget(txn, owner)
                    self.injector.fire(CrashPoint.AFTER_COMMIT)
                else:
                    staged = (record, txn, owner)
            if staged is not None:
                # Group commit: stage outside the mutex (waiting with it
                # held would deadlock every other session) and block until
                # the batch leader makes this commit durable.
                batch, leader = self._group.join(staged)
                if leader:
                    if self._group.window:
                        time.sleep(self._group.window)
                    self._group.seal(batch)
                    self._flush_group(batch)
                batch.done.wait()
                if batch.error is not None:
                    raise batch.error
                if span:
                    span.record(txn=txn, group_size=len(batch.entries))
        if obs.enabled:
            obs.metrics.inc("wal.commits")
            obs.metrics.observe(
                "wal.commit_ms", (time.perf_counter() - start) * 1000.0
            )

    def _flush_group(self, batch: _GroupBatch) -> None:
        """Leader-side group flush: write every staged commit, sync once.

        Master sequence numbers are assigned here, at write time, so they
        stay monotonic against begin/abort records appended between stage
        and flush.  Any failure — including an injected crash — poisons
        the batch so every waiting follower re-raises it: after a crash
        the machine is dead for leader and followers alike.
        """
        try:
            with self._mutex:
                self.injector.fire(CrashPoint.BEFORE_GROUP_FSYNC)
                for record, _txn, _owner in batch.entries:
                    self._master_seq += 1
                    self._master.append(
                        {"seq": self._master_seq, **record}, sync=False
                    )
                self._master.sync_now()
                self.injector.fire(CrashPoint.AFTER_GROUP_FSYNC)
                for _record, txn, owner in batch.entries:
                    self.last_committed_txn = max(self.last_committed_txn, txn)
                    self._forget(txn, owner)
                    self.injector.fire(CrashPoint.AFTER_COMMIT)
            self.obs.metrics.inc("wal.group_commits")
            self.obs.metrics.observe("wal.group_size", float(len(batch.entries)))
        except BaseException as exc:
            batch.error = exc
            raise
        finally:
            batch.done.set()

    def abort(self, txn: int) -> None:
        """Mark an open transaction discarded (recovery will skip its ops)."""
        with self._mutex:
            self._check_open(txn, "abort")
            self._master_seq += 1
            owner = self._open[txn]
            self._master.append(
                {"seq": self._master_seq, "type": "abort", "txn": txn, "owner": owner}
            )
            self._forget(txn, owner)
        self.obs.metrics.inc("wal.aborts")

    def _forget(self, txn: int, owner: str) -> None:
        del self._open[txn]
        del self._owner_txn[owner]

    # -- crash points ----------------------------------------------------------

    def fire(self, point: CrashPoint) -> None:
        """Fire a crash point (controller-side hooks route through here)."""
        self.injector.fire(point)

    # -- checkpoint support ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """WAL metadata embedded in a format-2 snapshot (the watermark)."""
        return {"last_txn": self.last_committed_txn, "segment": self.segment}

    def start_new_segment(self) -> None:
        """Begin a fresh segment and garbage-collect the old ones.

        Called by checkpointing after the snapshot is durable.  Recovery
        is correct whether or not the old segments survive (replay skips
        transactions at or below the snapshot watermark), so a crash at
        any point inside this method is harmless.
        """
        with self._mutex:
            if self._open:
                raise WalError("cannot truncate the WAL with a transaction open")
            self.close()
            old_segment = self.segment
            self.segment += 1
            self._write_meta()
            self._open_writers()
            for stale in range(old_segment + 1):
                (self.directory / master_segment_name(stale)).unlink(missing_ok=True)
                for backend_id in range(self.backend_count):
                    (self.directory / backend_segment_name(backend_id, stale)).unlink(
                        missing_ok=True
                    )

    def close(self) -> None:
        """Close file handles (the manager can keep appending afterwards)."""
        with self._mutex:
            self._master.close()
            for writer in self._backends:
                writer.close()

    def __repr__(self) -> str:
        return (
            f"WalManager({str(self.directory)!r}, backends={self.backend_count}, "
            f"segment={self.segment}, next_txn={self._next_txn})"
        )
