"""Read side of the WAL: parse segments into a replayable view.

The reader is deliberately independent of :class:`~repro.wal.log.WalManager`
— recovery runs against whatever files a crash left behind, so it works
directly from the directory contents:

* every segment of every stream is read, oldest first (stale segments a
  checkpoint did not manage to delete are harmless — replay filters by
  the snapshot watermark);
* the **last line of a stream** may be torn (the crash hit mid-``write``);
  it is dropped.  An undecodable line anywhere *else* is corruption and
  raises :class:`~repro.errors.WalError`, as does a non-monotonic
  sequence number;
* a transaction is **committed** only if its commit record survives in
  the master log.  Ops belonging to uncommitted, aborted, or unknown
  transactions are retained in the view (the write side needs their
  sequence numbers to resume) but excluded from ``committed``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import WalError
from repro.wal.log import META_NAME, WAL_FORMAT

_MASTER_PATTERN = re.compile(r"^master-(\d{6})\.jsonl$")
_BACKEND_PATTERN = re.compile(r"^backend-(\d{3})-(\d{6})\.jsonl$")


@dataclass
class WalOp:
    """One journaled operation in one backend's stream."""

    seq: int
    txn: int
    payload: dict


@dataclass
class WalTransaction:
    """One transaction as reconstructed from the logs."""

    txn: int
    status: str = "open"  # 'open' | 'committed' | 'aborted'
    #: Per-backend record-count change its commit record promises.
    delta: list[int] = field(default_factory=list)
    #: backend id -> ops journaled for it, in sequence order.
    ops: dict[int, list[WalOp]] = field(default_factory=dict)
    #: Owning session name (None until a begin/commit/abort names it).
    owner: Optional[str] = None


@dataclass
class WalView:
    """Everything recovery (and write-side resume) needs from the logs."""

    transactions: dict[int, WalTransaction]
    #: Committed transactions in commit order (the replay order).
    committed: list[WalTransaction]
    max_txn: int
    last_committed_txn: int
    max_master_seq: int
    #: backend id -> highest op sequence number seen.
    max_seq: dict[int, int]


def _read_stream(paths: list[Path], label: str) -> list[dict]:
    """Concatenate the JSONL records of one stream's segments, oldest first.

    Tolerates a torn final line; rejects mid-stream corruption and
    sequence regressions.
    """
    records: list[dict] = []
    lines: list[tuple[Path, str]] = []
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                lines.append((path, line))
    last_seq = 0
    for position, (path, line) in enumerate(lines):
        try:
            record = json.loads(line)
            seq = int(record["seq"])
        except (ValueError, KeyError, TypeError) as exc:
            if position == len(lines) - 1:
                break  # torn tail: the crash hit mid-append; drop it
            raise WalError(f"corrupt {label} record in {path.name}: {line!r}") from exc
        if seq <= last_seq:
            raise WalError(
                f"non-monotonic sequence in {label} ({path.name}): "
                f"{seq} after {last_seq}"
            )
        last_seq = seq
        records.append(record)
    return records


def _segment_files(directory: Path) -> tuple[list[Path], dict[int, list[Path]]]:
    masters: list[tuple[int, Path]] = []
    backends: dict[int, list[tuple[int, Path]]] = {}
    for path in directory.iterdir():
        match = _MASTER_PATTERN.match(path.name)
        if match:
            masters.append((int(match.group(1)), path))
            continue
        match = _BACKEND_PATTERN.match(path.name)
        if match:
            backends.setdefault(int(match.group(1)), []).append(
                (int(match.group(2)), path)
            )
    return (
        [path for _, path in sorted(masters)],
        {
            backend_id: [path for _, path in sorted(entries)]
            for backend_id, entries in backends.items()
        },
    )


def read_backend_count(directory: Union[str, Path]) -> int:
    """The backend count recorded in the WAL directory's metadata."""
    meta_path = Path(directory) / META_NAME
    if not meta_path.exists():
        raise WalError(f"{directory} is not a WAL directory (no {META_NAME})")
    meta = json.loads(meta_path.read_text())
    if meta.get("format") != WAL_FORMAT:
        raise WalError(
            f"WAL format {meta.get('format')!r} is not supported "
            f"(expected {WAL_FORMAT})"
        )
    return int(meta["backend_count"])


def read_wal(directory: Union[str, Path], backend_count: Optional[int] = None) -> WalView:
    """Parse every surviving segment in *directory* into a :class:`WalView`."""
    directory = Path(directory)
    if backend_count is None:
        backend_count = read_backend_count(directory)
    master_paths, backend_paths = _segment_files(directory)

    transactions: dict[int, WalTransaction] = {}
    committed: list[WalTransaction] = []
    max_txn = 0
    last_committed = 0
    max_master_seq = 0
    for record in _read_stream(master_paths, "master"):
        txn_id = int(record["txn"])
        max_txn = max(max_txn, txn_id)
        max_master_seq = max(max_master_seq, int(record["seq"]))
        kind = record.get("type")
        transaction = transactions.setdefault(txn_id, WalTransaction(txn_id))
        if record.get("owner") is not None:
            transaction.owner = str(record["owner"])
        if kind == "begin":
            pass
        elif kind == "commit":
            transaction.status = "committed"
            transaction.delta = list(record["delta"])
            committed.append(transaction)
            # Session-owned transactions can commit out of id order; the
            # watermark is the *highest* committed id (checkpoints only
            # run with no transactions open, so every id at or below it
            # is then committed or aborted).
            last_committed = max(last_committed, txn_id)
        elif kind == "abort":
            transaction.status = "aborted"
        else:
            raise WalError(f"unknown master record type {kind!r}")

    max_seq: dict[int, int] = {}
    for backend_id in range(backend_count):
        paths = backend_paths.get(backend_id, [])
        seq_high = 0
        for record in _read_stream(paths, f"backend {backend_id}"):
            op = WalOp(int(record["seq"]), int(record["txn"]), record["op"])
            seq_high = max(seq_high, op.seq)
            max_txn = max(max_txn, op.txn)
            transaction = transactions.setdefault(op.txn, WalTransaction(op.txn))
            transaction.ops.setdefault(backend_id, []).append(op)
        max_seq[backend_id] = seq_high

    return WalView(
        transactions=transactions,
        committed=committed,
        max_txn=max_txn,
        last_committed_txn=last_committed,
        max_master_seq=max_master_seq,
        max_seq=max_seq,
    )
