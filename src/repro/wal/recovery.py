"""Crash recovery and checkpointing.

Recovery rebuilds an MLDS from its durable state: the latest checkpoint
snapshot plus the WAL tail.  The protocol is the classic redo-only one:

1. load the snapshot (or start empty when none was ever taken), noting
   its transaction watermark — the last committed transaction the
   snapshot already contains;
2. replay every *committed* transaction above the watermark, backend by
   backend in journal order, directly against the backend stores (no
   timing is charged — recovery is not a workload);
3. verify each replayed transaction's record-count checksum: replaying
   it must change every backend's record count by exactly the delta its
   commit record carries;
4. discard everything else: transactions with no commit record (the
   crash beat the commit) and explicitly aborted ones are never applied.

Because each backend's store is a deterministic function of the ops
applied to it, replay is bit-identical to the original execution
regardless of the execution engine the dying system used — Serial,
ThreadPool, and ProcessPool engines journal the same ops in the same
order, as the journal is written by the controller *before* the engine
fans out.  Process-engine recovery needs no cross-process reconciliation
for the same reason: fresh workers are spawned with empty stores, the
snapshot and replay repopulate them through the same proxied calls, and
worker-resident epochs and result caches restart coherent with the
recovered contents.

Checkpointing is snapshot-then-truncate: write the format-2 snapshot
(which embeds the watermark) atomically, then start a fresh WAL segment
and drop the old ones.  A crash anywhere inside checkpointing is safe:
recovery filters replay by the watermark of whichever snapshot survived,
and stale segments are skipped, not double-applied.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import WalError
from repro.wal.codec import decode_request
from repro.wal.faults import CrashPoint, FaultInjector
from repro.wal.log import CHECKPOINT_NAME, WalManager
from repro.wal.reader import WalView, read_backend_count, read_wal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.mlds import MLDS
    from repro.mbds.controller import BackendController


def replay_committed(
    controller: "BackendController", view: WalView, after_txn: int = 0
) -> int:
    """Redo every committed transaction above *after_txn* onto *controller*.

    Returns the number of transactions replayed.  Raises
    :class:`~repro.errors.WalError` when replaying a transaction does not
    change the farm's per-backend record counts by exactly its commit
    record's delta (the record-count checksum).  The running
    distribution is carried forward, so the check costs one
    ``distribution()`` per transaction.
    """
    # Keep placement state consistent with the restored contents, so
    # post-recovery inserts land (and routed requests go) exactly where
    # the uncrashed system would have sent them.  Policies opt in by
    # exposing observe_replay (see repro.mbds.placement).
    observe_replay = getattr(controller.placement, "observe_replay", None)

    replayed = 0
    counts: Optional[list[int]] = None
    for transaction in view.committed:
        if transaction.txn <= after_txn:
            continue
        if counts is None:
            counts = controller.distribution()
        for backend_id in sorted(transaction.ops):
            if backend_id >= controller.backend_count:
                raise WalError(
                    f"transaction {transaction.txn} journals ops for backend "
                    f"{backend_id}, but the farm has {controller.backend_count}"
                )
            backend = controller.backends[backend_id]
            for op in sorted(transaction.ops[backend_id], key=lambda o: o.seq):
                request = decode_request(op.payload)
                backend.replay(request)
                if observe_replay is not None:
                    observe_replay(request, backend_id, controller.backend_count)
        expected = [count + change for count, change in zip(counts, transaction.delta)]
        counts = controller.distribution()
        if counts != expected:
            raise WalError(
                f"record-count checksum mismatch replaying transaction "
                f"{transaction.txn}: expected {expected}, got {counts}"
            )
        replayed += 1
    return replayed


def snapshot_watermark(snapshot_path: Union[str, Path]) -> int:
    """The last committed transaction embedded in a snapshot (0 for v1)."""
    snapshot = json.loads(Path(snapshot_path).read_text())
    wal_meta = snapshot.get("wal") or {}
    return int(wal_meta.get("last_txn", 0))


def restore_backend_state(
    controller: "BackendController", snapshot_path: Union[str, Path, None]
) -> int:
    """Reload backend stores + placement state from a checkpoint snapshot.

    The farm-healing half of :func:`repro.persistence.load_mlds`: the
    caller has just respawned every worker (empty stores), and this
    restores exactly the durable baseline — per-backend record dumps and
    the placement policy's snapshot state — so :func:`replay_committed`
    can redo the WAL tail on top.  Schema-level state (catalog, language
    mappings, store factory) lives outside the farm and needs no repair.

    Returns the snapshot's transaction watermark; 0 when *snapshot_path*
    is None or missing (heal-from-empty: the whole log replays).
    """
    from repro.abdm.record import Record
    from repro.mbds.placement import (
        HashShardPlacement,
        LeastLoadedPlacement,
        RoundRobinPlacement,
    )

    snapshot: dict = {}
    if snapshot_path is not None and Path(snapshot_path).exists():
        snapshot = json.loads(Path(snapshot_path).read_text())
    rows_per_backend = snapshot.get("backends") or []
    if rows_per_backend:
        if len(rows_per_backend) != controller.backend_count:
            raise WalError(
                f"checkpoint snapshot has {len(rows_per_backend)} backends "
                f"but the farm has {controller.backend_count}"
            )
        for backend, rows in zip(controller.backends, rows_per_backend):
            if not rows:
                continue
            backend.store.bulk_insert(
                Record.from_pairs(
                    [(attribute, value) for attribute, value in row["pairs"]],
                    text=row.get("text", ""),
                )
                for row in rows
            )
    # Reset live placement state to the durable baseline: the crashed
    # run's in-memory counters/taints may include routing from work that
    # never committed.  replay_committed's observe_replay hook then
    # re-applies the committed tail's routing effects.
    with controller.placement_lock:
        placement = controller.placement
        state = snapshot.get("placement") or {}
        kind = state.get("kind")
        if isinstance(placement, RoundRobinPlacement):
            placement._counters.clear()
            if kind == "round_robin":
                placement._counters.update(state.get("counters", {}))
        elif isinstance(placement, HashShardPlacement):
            placement._tainted.clear()
            if kind == "hash_shard":
                placement.key_attributes.update(state.get("key_attributes", {}))
                placement._tainted.update(state.get("tainted", ()))
        if isinstance(placement, LeastLoadedPlacement):
            placement.rebalance(controller.distribution())
    wal_meta = snapshot.get("wal") or {}
    return int(wal_meta.get("last_txn", 0))


def recover_mlds(
    wal_dir: Union[str, Path],
    snapshot: Union[str, Path, None] = None,
    *,
    engine=None,
    workers: Optional[int] = None,
    pruning: bool = False,
    placement=None,
    store_factory=None,
    attach_wal: bool = True,
    injector: Optional[FaultInjector] = None,
    obs=None,
) -> "MLDS":
    """Rebuild an :class:`~repro.core.mlds.MLDS` from *wal_dir*.

    *snapshot* defaults to the checkpoint kept inside the WAL directory;
    when neither exists the system is rebuilt from an empty farm by
    replaying the whole log (store contents recover fully; schema
    definitions only exist once a checkpoint has been taken).  With
    *attach_wal* (the default) the recovered system resumes journaling
    to the same directory, with transaction ids continuing after
    everything already on disk.
    """
    from repro.core.mlds import MLDS
    from repro.persistence import load_mlds

    wal_dir = Path(wal_dir)
    backend_count = read_backend_count(wal_dir)
    snapshot_path = Path(snapshot) if snapshot is not None else wal_dir / CHECKPOINT_NAME

    kwargs = dict(
        engine=engine,
        workers=workers,
        pruning=pruning,
        placement=placement,
        store_factory=store_factory,
        obs=obs,
    )
    if snapshot_path.exists():
        mlds = load_mlds(snapshot_path, **kwargs)
        if mlds.kds.controller.backend_count != backend_count:
            raise WalError(
                f"snapshot has {mlds.kds.controller.backend_count} backends "
                f"but the WAL was written for {backend_count}"
            )
        watermark = snapshot_watermark(snapshot_path)
    else:
        mlds = MLDS(backend_count=backend_count, **kwargs)
        watermark = 0

    view = read_wal(wal_dir, backend_count)
    replay_committed(mlds.kds.controller, view, watermark)

    if attach_wal:
        mlds.attach_wal(WalManager(wal_dir, backend_count, injector=injector))
    return mlds


def checkpoint_mlds(mlds: "MLDS", path: Union[str, Path, None] = None) -> Path:
    """Snapshot *mlds* and truncate its WAL (snapshot-then-truncate).

    The snapshot is written atomically (temp file + rename), so a crash
    mid-checkpoint leaves either the old or the new snapshot in place —
    never a torn one — and recovery is correct either way.
    """
    from repro.persistence import save_mlds

    wal = mlds.kds.wal
    if wal is None:
        raise WalError("checkpointing needs a WAL-enabled MLDS")
    if wal.has_open_transactions:
        open_owners = wal.open_owners()
        detail = f" (sessions: {', '.join(open_owners)})" if open_owners else ""
        raise WalError(f"cannot checkpoint with a transaction open{detail}")

    wal.fire(CrashPoint.BEFORE_CHECKPOINT)
    target = Path(path) if path is not None else wal.directory / CHECKPOINT_NAME
    tmp = target.with_name(target.name + ".tmp")
    save_mlds(mlds, tmp)
    os.replace(tmp, target)
    wal.fire(CrashPoint.AFTER_CHECKPOINT_SNAPSHOT)
    wal.start_new_segment()
    wal.fire(CrashPoint.AFTER_CHECKPOINT)
    return target
