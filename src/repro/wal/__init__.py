"""Durability for MLDS: write-ahead logging, recovery, fault injection.

The thesis frames every user interaction as a *transaction* against the
kernel (LIL -> KMS -> KC -> KDS); this package makes those transactions
durable.  Every mutating kernel request (INSERT / BULK-INSERT / DELETE
/ UPDATE) is journaled to a per-backend append-only JSONL log **before**
it is applied, grouped under transaction boundaries recorded in a master
log.  Every WAL transaction is owned by one kernel session: a request
outside a session transaction auto-commits as a one-request transaction,
and a multi-request session transaction maps one-to-one onto a WAL
transaction.

Modules:

* :mod:`repro.wal.codec` — exact JSON encoding of the mutating requests;
* :mod:`repro.wal.log` — :class:`WalManager`: segments, sequence
  numbers, owned transaction records, record-count delta checksums;
* :mod:`repro.wal.reader` — crash-tolerant parsing of whatever a dying
  system left on disk;
* :mod:`repro.wal.recovery` — :func:`recover_mlds` (snapshot + redo of
  committed transactions, discard of uncommitted tails) and
  :func:`checkpoint_mlds` (atomic snapshot, then log truncation);
* :mod:`repro.wal.faults` — :class:`CrashPoint` hooks and the
  :class:`FaultInjector` that lets tests kill the system at every
  interesting point and assert atomicity.
"""

from repro.wal.codec import decode_request, encode_request, is_mutating
from repro.wal.faults import CRASH_MATRIX, CrashPoint, FaultInjector, InjectedCrash
from repro.wal.log import CHECKPOINT_NAME, META_NAME, WalManager
from repro.wal.reader import WalView, read_wal

__all__ = [
    "CHECKPOINT_NAME",
    "CRASH_MATRIX",
    "CrashPoint",
    "FaultInjector",
    "InjectedCrash",
    "META_NAME",
    "WalManager",
    "WalView",
    "checkpoint_mlds",
    "decode_request",
    "encode_request",
    "is_mutating",
    "read_wal",
    "recover_mlds",
    "replay_committed",
]

_RECOVERY_NAMES = ("recover_mlds", "checkpoint_mlds", "replay_committed")


def __getattr__(name: str):
    # recovery imports the MLDS facade, which itself imports this package
    # for WalManager; loading it lazily keeps the import graph acyclic.
    if name in _RECOVERY_NAMES:
        from repro.wal import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
