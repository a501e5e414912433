"""MVCC snapshot reads at the kernel: lock freedom, fallbacks, anomalies.

The contract under test: a session RETRIEVE (outside a write
transaction) pins the newest *stable* commit seq and reconstructs that
committed state without acquiring a single S lock — so it neither
blocks on a writer's X lock nor blocks a writer — while every write
keeps strict 2PL.  The anomaly tests at the bottom pin down what
per-statement snapshots deliberately do NOT give: serializable
multi-statement reads (write skew and phantoms are admitted, exactly as
in every snapshot-isolation system).
"""

from __future__ import annotations

import time

import pytest

from repro.abdl import parse_request
from repro.mbds import KernelDatabaseSystem
from repro.obs import Observability

from tests.wal.conftest import insert


def retrieve(text: str):
    return parse_request(text)


@pytest.fixture()
def kds():
    kds = KernelDatabaseSystem(backend_count=3, obs=Observability())
    for i in range(6):
        kds.execute(insert("f", a=i))
    return kds


class TestSnapshotPath:
    def test_session_retrieve_takes_no_locks(self, kds):
        acquired = kds.locks.stats()["acquired"]  # the seeding inserts' locks
        session = kds.create_session()
        trace = kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=session)
        assert trace.result.count == 6
        assert trace.snapshot_seq == kds.stable_seq
        assert kds.locks.stats()["acquired"] == acquired
        assert kds.obs.metrics.counter_value("kds.snapshot_reads") == 1

    def test_snapshot_read_does_not_block_on_a_writers_x_lock(self, kds):
        writer = kds.create_session("writer")
        reader = kds.create_session("reader")
        kds.session_begin(writer)
        kds.execute(insert("f", a=100), session=writer)  # X on f, held
        start = time.perf_counter()
        trace = kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=reader)
        elapsed = time.perf_counter() - start
        assert trace.result.count == 6  # the uncommitted insert is invisible
        assert elapsed < 1.0  # never parked on the X lock
        assert kds.locks.wait_histograms() == {}
        kds.session_commit(writer)
        after = kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=reader)
        assert after.result.count == 7

    def test_snapshot_read_does_not_block_a_writer(self, kds):
        # The inverse direction: a slow reader holds no S lock, so a
        # writer that arrives mid-read acquires X immediately.
        reader = kds.create_session("reader")
        kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=reader)
        writer = kds.create_session("writer")
        kds.session_begin(writer)
        kds.execute(insert("f", a=100), session=writer)  # no LockTimeout
        kds.session_commit(writer)
        assert kds.locks.stats()["waited"] == 0

    def test_own_writes_force_the_locking_path(self, kds):
        # A transaction that has written must see its own uncommitted
        # rows, which no snapshot contains: reads fall back to locking.
        session = kds.create_session()
        kds.session_begin(session)
        kds.execute(insert("f", a=100), session=session)
        trace = kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=session)
        assert trace.result.count == 7  # read-your-own-writes
        assert trace.snapshot_seq is None
        assert kds.obs.metrics.counter_value("kds.snapshot_reads") == 0
        kds.session_abort(session)

    def test_snapshot_reads_off_restores_locking_reads(self):
        kds = KernelDatabaseSystem(backend_count=2, snapshot_reads=False)
        kds.execute(insert("f", a=1))
        session = kds.create_session()
        trace = kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=session)
        assert trace.snapshot_seq is None
        assert kds.locks.stats()["acquired"] > 0

    def test_aggregates_and_common_take_the_snapshot_path(self, kds):
        acquired = kds.locks.stats()["acquired"]  # the seeding inserts' locks
        session = kds.create_session()
        agg = kds.execute(
            retrieve("RETRIEVE (FILE = f) (COUNT(*))"), session=session
        )
        assert agg.snapshot_seq is not None
        common = kds.execute(
            retrieve("RETRIEVE-COMMON (FILE = f) COMMON (a) (FILE = f) (*)"),
            session=session,
        )
        assert common.snapshot_seq is not None
        assert kds.locks.stats()["acquired"] == acquired

    def test_stable_seq_advances_only_over_contiguous_commits(self, kds):
        base = kds.stable_seq
        first = kds.create_session("first")
        second = kds.create_session("second")
        kds.session_begin(first)
        kds.session_begin(second)
        kds.execute(insert("f", a=100), session=first)
        kds.execute(insert("g", a=200), session=second)
        kds.session_commit(second)
        kds.session_commit(first)
        assert kds.stable_seq == base + 2


class TestDefaultSession:
    def test_uncommitted_default_session_insert_is_invisible(self, kds):
        # A session-less caller's transaction runs on the kernel's default
        # session, so its writes stay out of every snapshot until commit.
        reader = kds.create_session("reader")
        read = retrieve("RETRIEVE (FILE = f) (a)")

        def values(trace):
            return sorted(record.get("a") for record in trace.result.records)

        with pytest.raises(RuntimeError):
            with kds.transaction():
                kds.execute(insert("f", a=100))
                during = kds.execute(read, session=reader)
                raise RuntimeError("abort the transaction")
        after = kds.execute(read, session=reader)
        assert values(during) == list(range(6))
        assert after.snapshot_seq == during.snapshot_seq
        assert values(after) == values(during)


class TestSnapshotAnomalies:
    """What per-statement snapshot isolation admits — by design.

    Each RETRIEVE is internally consistent (one commit seq), but two
    reads in one transaction may use different seqs, and reads do not
    lock what they saw.  These tests *assert the anomalies happen*, so
    a future change that silently strengthens (or weakens) the isolation
    level shows up here.
    """

    def test_write_skew_is_admitted(self):
        # Classic write skew, at the kernel's file lock granularity:
        # invariant "alice_oncall and bob_oncall are never both empty".
        # Both transactions read both rosters at a snapshot where each
        # is covered, then each empties its *own* file — disjoint write
        # sets, so 2PL on the writes never conflicts, and both commit.
        # A serializable system would abort one.
        kds = KernelDatabaseSystem(backend_count=2)
        kds.execute(insert("alice_oncall", doctor="alice"))
        kds.execute(insert("bob_oncall", doctor="bob"))
        alice = kds.create_session("alice")
        bob = kds.create_session("bob")
        kds.session_begin(alice)
        kds.session_begin(bob)
        for session in (alice, bob):
            trace = kds.execute(
                retrieve("RETRIEVE ((FILE = alice_oncall) OR (FILE = bob_oncall)) (*)"),
                session=session,
            )
            assert trace.result.count == 2  # "the other doctor is on call"
        kds.execute(
            parse_request("DELETE ((FILE = alice_oncall) AND (doctor = alice))"),
            session=alice,
        )
        kds.execute(
            parse_request("DELETE ((FILE = bob_oncall) AND (doctor = bob))"),
            session=bob,
        )
        kds.session_commit(alice)
        kds.session_commit(bob)  # no deadlock, no abort: skew admitted
        remaining = kds.execute(
            retrieve("RETRIEVE ((FILE = alice_oncall) OR (FILE = bob_oncall)) (*)")
        )
        assert remaining.result.count == 0  # the invariant is broken

    def test_phantoms_between_statements_are_admitted(self):
        # Two identical reads in one transaction straddle a concurrent
        # committed insert: each read is consistent at its own seq, so
        # the second sees the phantom row the first did not.
        kds = KernelDatabaseSystem(backend_count=2)
        kds.execute(insert("f", a=1))
        reader = kds.create_session("reader")
        kds.session_begin(reader)
        first = kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=reader)
        writer = kds.create_session("writer")
        kds.execute(insert("f", a=2), session=writer)  # auto-commits
        second = kds.execute(retrieve("RETRIEVE (FILE = f) (*)"), session=reader)
        assert first.result.count == 1
        assert second.result.count == 2  # phantom: newer snapshot seq
        assert second.snapshot_seq > first.snapshot_seq
        kds.session_commit(reader)
