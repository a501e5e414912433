"""Saving and loading an MLDS instance.

The thesis's MLDS keeps descriptor and template files on disk (the
ddl_info structures of Figure 4.20); this module provides the modern
equivalent: a JSON snapshot of the whole system — every schema in its
own DDL text, the database-key counters, and the exact per-backend
record contents — restorable into an identical :class:`~repro.core.MLDS`.

.. code-block:: python

    from repro.persistence import save_mlds, load_mlds

    save_mlds(mlds, "university.mlds.json")
    restored = load_mlds("university.mlds.json")

The snapshot restores the *exact* backend partitioning (records are
placed back on their original backend), so simulated response times and
set-iteration orders are reproducible across save/load.

Format history:

* **1** — schemas, timing, key counters, per-backend records.
* **2** — adds ``wal`` (the durability watermark: the last committed
  WAL transaction the snapshot contains, written when the system has a
  write-ahead log attached — see :mod:`repro.wal`) and ``placement``
  (round-robin placement counters, so inserts after a restore land on
  the same backends they would have without the restart).

Version-1 snapshots still load: they simply carry no WAL watermark
(recovery treats them as "replay everything") and no placement counters
(post-restore placement restarts from backend 0, the historical
behavior).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.abdm.record import Record
from repro.core.mlds import MLDS
from repro.errors import MLDSError
from repro.mbds.placement import (
    HashShardPlacement,
    LeastLoadedPlacement,
    RoundRobinPlacement,
)
from repro.mbds.timing import TimingModel

#: Snapshot format version, bumped on incompatible layout changes.
FORMAT_VERSION = 2

#: Snapshot versions :func:`load_mlds` can restore.
SUPPORTED_VERSIONS = (1, 2)


def _dump_records(mlds: MLDS) -> list[list[dict]]:
    """Per-backend record dumps (pairs + textual portion)."""
    dumps: list[list[dict]] = []
    for backend in mlds.kds.controller.backends:
        rows = []
        for record in backend.store.all_records():
            rows.append({"pairs": record.pairs(), "text": record.text})
        dumps.append(rows)
    return dumps


def _placement_state(mlds: MLDS) -> Optional[dict]:
    placement = mlds.kds.controller.placement
    if isinstance(placement, RoundRobinPlacement):
        return {"kind": "round_robin", "counters": dict(placement._counters)}
    if isinstance(placement, LeastLoadedPlacement):
        return {"kind": "least_loaded"}
    if isinstance(placement, HashShardPlacement):
        return {
            "kind": "hash_shard",
            "key_attributes": dict(placement.key_attributes),
            "tainted": sorted(placement.tainted_files),
        }
    return None


def save_mlds(mlds: MLDS, path: Union[str, Path]) -> None:
    """Write a complete JSON snapshot of *mlds* to *path*."""
    timing = mlds.kds.controller.timing
    wal = mlds.kds.wal
    snapshot = {
        "format": FORMAT_VERSION,
        "backend_count": mlds.kds.controller.backend_count,
        "wal": wal.checkpoint_state() if wal is not None else None,
        "placement": _placement_state(mlds),
        "timing": {
            "broadcast_ms": timing.broadcast_ms,
            "access_ms": timing.access_ms,
            "page_scan_ms": timing.page_scan_ms,
            "records_per_page": timing.records_per_page,
            "select_record_ms": timing.select_record_ms,
            "merge_record_ms": timing.merge_record_ms,
            "insert_ms": timing.insert_ms,
        },
        "functional": {
            name: {
                "ddl": schema.render(),
                "key_counters": {
                    entity.name: entity.last_key
                    for entity in schema.entity_types.values()
                },
            }
            for name, schema in mlds._functional.items()
        },
        "network": {
            name: {
                "ddl": schema.render(),
                "key_counters": dict(mlds._network_mappings[name]._key_counters),
            }
            for name, schema in mlds._network.items()
        },
        "relational": {
            name: {
                "ddl": schema.render(),
                "key_counters": dict(mlds._relational_mappings[name]._key_counters),
            }
            for name, schema in mlds._relational.items()
        },
        "hierarchical": {
            name: {
                "ddl": schema.render(),
                "key_counters": dict(mlds._hierarchical_mappings[name]._key_counters),
                "sequence": mlds._hierarchical_mappings[name]._sequence,
            }
            for name, schema in mlds._hierarchical.items()
        },
        "backends": _dump_records(mlds),
    }
    Path(path).write_text(json.dumps(snapshot, indent=1))


def load_mlds(
    path: Union[str, Path],
    *,
    engine=None,
    workers: Optional[int] = None,
    pruning: bool = False,
    placement=None,
    store_factory=None,
    obs=None,
) -> MLDS:
    """Restore an :class:`MLDS` from a snapshot written by :func:`save_mlds`.

    The kernel knobs (*engine*, *workers*, *pruning*, *placement*,
    *store_factory*, *obs*) are not part of the snapshot — they describe
    the machine, not the data — so callers pick them at load time,
    defaulting to the serial, unpruned, untraced, round-robin
    configuration.  The snapshot's placement *state* (round-robin
    counters, hash-shard taints, load counts) is re-applied when the
    chosen policy matches the kind that wrote it.

    Records are restored through each backend's store, which rebuilds
    hash indexes and clustering as it inserts and bumps the mutation
    epochs the pruning summaries are stamped with, so a pruned RETRIEVE
    issued immediately after the load sees the restored contents.
    """
    snapshot = json.loads(Path(path).read_text())
    version = snapshot.get("format")
    if version not in SUPPORTED_VERSIONS:
        raise MLDSError(
            f"snapshot format {version!r} is not supported "
            f"(expected one of {SUPPORTED_VERSIONS})"
        )
    timing = TimingModel(**snapshot["timing"])
    mlds = MLDS(
        backend_count=snapshot["backend_count"],
        timing=timing,
        placement=placement,
        engine=engine,
        workers=workers,
        pruning=pruning,
        store_factory=store_factory,
        obs=obs,
    )
    for name, entry in snapshot["functional"].items():
        schema = mlds.define_functional_database(entry["ddl"])
        for entity_name, last_key in entry["key_counters"].items():
            schema.entity_types[entity_name].last_key = last_key
    for name, entry in snapshot["network"].items():
        mlds.define_network_database(entry["ddl"])
        mlds._network_mappings[name]._key_counters.update(entry["key_counters"])
    for name, entry in snapshot["relational"].items():
        mlds.define_relational_database(entry["ddl"])
        mlds._relational_mappings[name]._key_counters.update(entry["key_counters"])
    for name, entry in snapshot.get("hierarchical", {}).items():
        mlds.define_hierarchical_database(entry["ddl"])
        mapping = mlds._hierarchical_mappings[name]
        mapping._key_counters.update(entry["key_counters"])
        mapping._sequence = entry["sequence"]
    backends = mlds.kds.controller.backends
    if len(snapshot["backends"]) != len(backends):
        raise MLDSError("snapshot backend count does not match")
    for backend, rows in zip(backends, snapshot["backends"]):
        if not rows:
            continue
        # One bulk call per backend: indexes and clustering build
        # collect-then-sort-once instead of per-record, with the exact
        # store state the per-record path produced (see ABStore.bulk_insert).
        backend.store.bulk_insert(
            Record.from_pairs(
                [(attribute, value) for attribute, value in row["pairs"]],
                text=row.get("text", ""),
            )
            for row in rows
        )
    placement_state = snapshot.get("placement")
    restored = mlds.kds.controller.placement
    kind = placement_state.get("kind") if placement_state else None
    if kind == "round_robin" and isinstance(restored, RoundRobinPlacement):
        restored._counters.update(placement_state.get("counters", {}))
    elif kind == "hash_shard" and isinstance(restored, HashShardPlacement):
        restored.key_attributes.update(placement_state.get("key_attributes", {}))
        restored._tainted.update(placement_state.get("tainted", ()))
    if isinstance(restored, LeastLoadedPlacement):
        # Whatever the snapshot said, the true load is what was restored.
        restored.rebalance(mlds.kds.controller.distribution())
    return mlds
