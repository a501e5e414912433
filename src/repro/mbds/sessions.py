"""Kernel sessions: one concurrent caller of the shared KDS.

The thesis's whole point is one kernel serving many language interfaces;
a :class:`KernelSession` is the kernel-side identity of one such caller.
It is deliberately dumb — a name plus per-transaction scratch state —
because the policy lives elsewhere: the
:class:`~repro.mbds.locks.LockManager` decides who may proceed, the
:class:`~repro.wal.log.WalManager` owns durability, and
:class:`~repro.mbds.kds.KernelDatabaseSystem` orchestrates both
(``create_session`` / ``session_begin`` / ``session_commit`` /
``session_abort``).

Transaction-scoped fields:

* ``wal_txn`` — the session's open WAL transaction id (None without a
  WAL or outside a transaction).
* ``undo`` — ``(backend_id, file_name) -> pre-image records``, captured
  lazily at the first mutation touching that file in this transaction.
  Undo is file-granular, the same granule the lock manager protects, so
  an abort rebuilds only what the transaction touched.
* ``wildcard_backends`` — backends whose *entire* slice was captured
  because an unpinned mutation could touch any file; on abort, files on
  those backends that were never captured must have been created by
  this transaction and are dropped.
* ``placed`` — ``(file_name, backend_id)`` for every routed INSERT, so
  an abort can also roll back placement-policy counters (keeping future
  placement identical to a history in which the transaction never ran).
* ``delta`` — ``backend_id -> net record-count change`` of the
  transaction's applied requests, written on its commit record as the
  recovery checksum.

Every kernel caller runs on a session: the KDS owns one
``default_session`` for callers that name none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class KernelSession:
    """One concurrent caller's kernel-side state (see module docstring)."""

    owner: str
    #: Per-session lock deadline override (None = the manager's default).
    lock_timeout: Optional[float] = None
    wal_txn: Optional[int] = None
    in_transaction: bool = False
    undo: Dict[Tuple[int, str], list] = field(default_factory=dict)
    wildcard_backends: Set[int] = field(default_factory=set)
    placed: List[Tuple[Optional[str], int]] = field(default_factory=list)
    delta: Dict[int, int] = field(default_factory=dict)
    #: Lifetime accounting (the server's quota bookkeeping reads these).
    requests_executed: int = 0
    commits: int = 0
    aborts: int = 0

    def end_transaction(self) -> None:
        """Drop transaction-scoped state (after commit or abort)."""
        self.wal_txn = None
        self.in_transaction = False
        self.undo = {}
        self.wildcard_backends = set()
        self.placed = []
        self.delta = {}

    def __repr__(self) -> str:
        state = "in txn" if self.in_transaction else "idle"
        return f"KernelSession({self.owner!r}, {state})"
