"""WalManager write-side behaviour: journaling, segments, resume, torn tails."""

from __future__ import annotations

import json

import pytest

from repro.core.mlds import MLDS
from repro.errors import WalError
from repro.wal.log import (
    CHECKPOINT_NAME,
    META_NAME,
    WalManager,
    backend_segment_name,
    master_segment_name,
)
from repro.wal.reader import read_backend_count, read_wal

from tests.wal.conftest import delete, insert


def manager(tmp_path, backends=2, **kwargs):
    return WalManager(tmp_path / "wal", backends, **kwargs)


def test_journal_records_land_before_any_apply(tmp_path):
    """The 'write-ahead' property: ops are on disk before the store changes."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    mlds.kds.execute(insert("f", a=1))
    view = read_wal(wal_dir)
    # the auto-committed transaction journaled exactly one op
    assert len(view.committed) == 1
    ops = sum(len(ops) for ops in view.committed[0].ops.values())
    assert ops == 1
    # from an empty farm, the transaction's delta is the whole distribution
    assert view.committed[0].delta == mlds.kds.controller.distribution()
    mlds.kds.shutdown()


def test_explicit_transaction_groups_ops_under_one_commit(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    with mlds.kds.transaction():
        mlds.kds.execute(insert("f", a=1))
        mlds.kds.execute(insert("f", a=2))
        mlds.kds.execute(delete(("a", "=", 1)))
    view = read_wal(wal_dir)
    assert len(view.committed) == 1
    transaction = view.committed[0]
    # two routed inserts plus a delete broadcast to both backends = 4 ops
    assert sum(len(ops) for ops in transaction.ops.values()) == 4
    assert transaction.delta == [0, 1]  # a=1 landed on backend 0 and was deleted
    mlds.kds.shutdown()


def test_abort_is_recorded_and_excluded_from_committed(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("s")
    wal.log_op(0, insert("f", a=1), txn=txn)
    wal.abort(txn)
    view = read_wal(wal.directory)
    assert view.committed == []
    assert view.transactions[1].status == "aborted"
    wal.close()


def test_sequence_numbers_resume_after_reopen(tmp_path):
    wal = manager(tmp_path)
    first = wal.begin("s")
    wal.log_op(0, insert("f", a=1), txn=first)
    wal.log_op(1, insert("f", a=2), txn=first)
    wal.commit(first, {0: 1, 1: 1})
    wal.close()

    resumed = manager(tmp_path)
    second = resumed.begin("s")
    assert second == first + 1
    seq = resumed.log_op(0, insert("f", a=3), txn=second)
    assert seq == 2  # continues backend 0's stream, no reuse
    resumed.commit(second, {0: 1})
    view = read_wal(resumed.directory)
    assert [t.txn for t in view.committed] == [first, second]
    assert view.max_seq[0] == 2
    resumed.close()


def test_reopen_rejects_wrong_backend_count(tmp_path):
    manager(tmp_path, backends=2).close()
    with pytest.raises(WalError):
        manager(tmp_path, backends=3)
    assert read_backend_count(tmp_path / "wal") == 2


def test_torn_final_line_is_dropped(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("s")
    wal.log_op(0, insert("f", a=1), txn=txn)
    wal.commit(txn, {0: 1})
    wal.close()
    master = wal.directory / master_segment_name(0)
    with master.open("a") as handle:
        handle.write('{"seq": 3, "type": "beg')  # the crash hit mid-append
    view = read_wal(wal.directory)
    assert [t.txn for t in view.committed] == [1]


def test_mid_stream_corruption_raises(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("s")
    wal.log_op(0, insert("f", a=1), txn=txn)
    wal.commit(txn, {0: 1})
    wal.close()
    master = wal.directory / master_segment_name(0)
    lines = master.read_text().splitlines()
    lines.insert(1, "not json at all")
    master.write_text("\n".join(lines) + "\n")
    with pytest.raises(WalError):
        read_wal(wal.directory)


def test_non_monotonic_sequence_raises(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("s")
    wal.log_op(0, insert("f", a=1), txn=txn)
    wal.commit(txn, {0: 1})
    wal.close()
    backend_log = wal.directory / backend_segment_name(0, 0)
    line = backend_log.read_text().splitlines()[0]
    with backend_log.open("a") as handle:
        handle.write(line + "\n")  # duplicate seq 1
    with pytest.raises(WalError):
        read_wal(wal.directory)


def test_guard_rails(tmp_path):
    wal = manager(tmp_path)
    with pytest.raises(WalError):
        wal.log_op(0, insert("f", a=1), txn=1)  # no open transaction
    with pytest.raises(WalError):
        wal.commit(1, {})  # nothing to commit
    txn = wal.begin("s")
    with pytest.raises(WalError):
        wal.begin("s")  # no nesting
    with pytest.raises(WalError):
        wal.log_op(5, insert("f", a=1), txn=txn)  # no such backend
    with pytest.raises(WalError):
        from tests.wal.conftest import query
        from repro.abdl.ast import RetrieveRequest

        wal.log_op(0, RetrieveRequest(query(("FILE", "=", "f"))), txn=txn)
    with pytest.raises(WalError):
        wal.commit(txn, {2: 1})  # the delta must name backends of this WAL
    with pytest.raises(WalError):
        wal.start_new_segment()  # not while a transaction is open
    wal.abort(txn)
    wal.close()


def test_start_new_segment_drops_old_files_and_bumps_meta(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("s")
    wal.log_op(0, insert("f", a=1), txn=txn)
    wal.commit(txn, {0: 1})
    old_master = wal.directory / master_segment_name(0)
    assert old_master.exists()
    wal.start_new_segment()
    assert not old_master.exists()
    assert not (wal.directory / backend_segment_name(0, 0)).exists()
    meta = json.loads((wal.directory / META_NAME).read_text())
    assert meta["segment"] == 1
    # numbering continues in the fresh segment
    txn = wal.begin("s")
    assert wal.log_op(0, insert("f", a=2), txn=txn) == 2
    wal.commit(txn, {0: 1})
    view = read_wal(wal.directory)
    assert view.last_committed_txn == 2
    wal.close()


def test_stale_segment_surviving_a_crashed_truncation_is_still_read(tmp_path):
    """Segment GC can die half-done; the reader must union the leftovers."""
    wal = manager(tmp_path, backends=1)
    txn = wal.begin("s")
    wal.log_op(0, insert("f", a=1), txn=txn)
    wal.commit(txn, {0: 1})
    wal.close()
    # simulate: meta bumped to segment 1, old files never unlinked
    meta_path = wal.directory / META_NAME
    meta = json.loads(meta_path.read_text())
    meta["segment"] = 1
    meta_path.write_text(json.dumps(meta))
    resumed = manager(tmp_path, backends=1)
    txn = resumed.begin("s")
    resumed.log_op(0, insert("f", a=2), txn=txn)
    resumed.commit(txn, {0: 1})
    view = read_wal(resumed.directory)
    assert [t.txn for t in view.committed] == [1, 2]
    assert view.max_seq[0] == 2
    resumed.close()
