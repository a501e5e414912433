"""Kernel sessions: concurrent transactions, undo, and commit ordering.

These tests drive :class:`~repro.mbds.kds.KernelDatabaseSystem`'s
session protocol directly (no server, no language front-ends): locks
scoped to requests or transactions, lazy file-granular undo on abort —
including wildcard captures for unpinned mutations and dropping files a
transaction created — and placement-counter rollback so an aborted
history places future records exactly like one where the transaction
never ran.
"""

from __future__ import annotations

import threading

import pytest

from repro.abdl import parse_request
from repro.abdl.ast import Modifier
from repro.errors import LockTimeout, WalError
from repro.mbds import KernelDatabaseSystem

from tests.wal.conftest import delete, insert, update


def image(kds):
    """Canonical per-backend store contents."""
    return [
        sorted((tuple(r.pairs()), r.text) for r in backend.store.all_records())
        for backend in kds.controller.backends
    ]


@pytest.fixture()
def kds(request):
    """A seeded kernel on the test class's ``engine`` (serial by default)."""
    engine = getattr(request.cls, "engine", "serial")
    kds = KernelDatabaseSystem(backend_count=3, engine=engine)
    for i in range(6):
        kds.execute(insert("f", a=i))
    yield kds
    kds.shutdown()


class TestAutoCommit:
    def test_mutations_get_commit_seqs(self, kds):
        session = kds.create_session()
        first = kds.execute(insert("f", a=100), session=session)
        second = kds.execute(insert("f", a=101), session=session)
        assert first.commit_seq is not None
        assert second.commit_seq == first.commit_seq + 1

    def test_retrieves_are_not_commits(self, kds):
        session = kds.create_session()
        trace = kds.execute(parse_request("RETRIEVE (FILE = f) (*)"), session=session)
        assert trace.commit_seq is None
        assert trace.result.count == 6

    def test_locks_release_after_each_request(self, kds):
        session = kds.create_session()
        kds.execute(insert("f", a=100), session=session)
        assert kds.locks.held_by(session.owner) == {}

    def test_session_results_match_legacy(self):
        legacy = KernelDatabaseSystem(backend_count=3)
        tagged = KernelDatabaseSystem(backend_count=3)
        session = tagged.create_session()
        for target, extra in ((legacy, {}), (tagged, {"session": session})):
            for i in range(5):
                target.execute(insert("f", a=i), **extra)
            target.execute(
                update(Modifier("a", arithmetic="+", operand=10), ("a", ">=", 3)),
                **extra,
            )
            target.execute(delete(("a", "=", 0)), **extra)
        assert image(legacy) == image(tagged)


class TestTransactions:
    def test_commit_returns_global_seq(self, kds):
        session = kds.create_session()
        kds.session_begin(session)
        kds.execute(insert("f", a=100), session=session)
        seq = kds.session_commit(session)
        assert seq >= 1
        assert session.commits == 1
        assert kds.locks.held_by(session.owner) == {}

    def test_nested_begin_rejected(self, kds):
        session = kds.create_session()
        kds.session_begin(session)
        with pytest.raises(WalError):
            kds.session_begin(session)

    def test_commit_without_begin_rejected(self, kds):
        session = kds.create_session()
        with pytest.raises(WalError):
            kds.session_commit(session)

    def test_locks_accumulate_until_commit(self, kds):
        session = kds.create_session()
        kds.session_begin(session)
        kds.execute(insert("f", a=100), session=session)
        assert "f" in kds.locks.held_by(session.owner)
        kds.session_commit(session)
        assert kds.locks.held_by(session.owner) == {}

    def test_writer_blocks_second_writer(self, kds):
        first = kds.create_session()
        second = kds.create_session()
        second.lock_timeout = 0.05
        kds.session_begin(first)
        kds.execute(insert("f", a=100), session=first)
        with pytest.raises(LockTimeout):
            kds.execute(insert("f", a=200), session=second)
        kds.session_commit(first)
        kds.execute(insert("f", a=200), session=second)  # free again

    def test_concurrent_readers_do_not_block(self, kds):
        sessions = [kds.create_session() for _ in range(2)]
        for session in sessions:
            kds.session_begin(session)
        read = parse_request("RETRIEVE (FILE = f) (*)")
        counts = [
            kds.execute(read, session=session).result.count for session in sessions
        ]
        assert counts == [6, 6]
        for session in sessions:
            kds.session_commit(session)


class TestAbortUndo:
    """File-level undo, on the serial engine; the subclasses below rerun
    every case on the thread-pool and process engines."""

    def test_abort_restores_preimage(self, kds):
        before = image(kds)
        session = kds.create_session()
        kds.session_begin(session)
        kds.execute(insert("f", a=100), session=session)
        kds.execute(
            update(Modifier("a", arithmetic="+", operand=1000), ("FILE", "=", "f")),
            session=session,
        )
        kds.execute(delete(("FILE", "=", "f"), ("a", "=", 1002)), session=session)
        kds.session_abort(session)
        assert image(kds) == before
        assert session.aborts == 1
        assert kds.locks.held_by(session.owner) == {}

    def test_abort_drops_created_file(self, kds):
        before = image(kds)
        session = kds.create_session()
        kds.session_begin(session)
        kds.execute(insert("fresh", a=1), session=session)
        kds.execute(insert("fresh", a=2), session=session)
        kds.session_abort(session)
        assert image(kds) == before
        assert all(
            "fresh" not in backend.file_names()
            for backend in kds.controller.backends
        )

    def test_abort_undoes_unpinned_mutation(self, kds):
        # No FILE pin: the wildcard path captures every file on every
        # backend, and abort restores all of them.
        kds.execute(insert("g", b=7))
        before = image(kds)
        session = kds.create_session()
        kds.session_begin(session)
        kds.execute(
            update(Modifier("a", arithmetic="+", operand=1000), ("a", ">=", 0)),
            session=session,
        )
        kds.execute(insert("h", c=1), session=session)  # born inside the txn
        kds.session_abort(session)
        assert image(kds) == before

    def test_abort_rewinds_placement(self, kds):
        # After an aborted two-insert transaction, the next insert must
        # land exactly where it would have without the transaction.
        twin = KernelDatabaseSystem(backend_count=3)
        for i in range(6):
            twin.execute(insert("f", a=i))
        session = kds.create_session()
        kds.session_begin(session)
        kds.execute(insert("f", a=100), session=session)
        kds.execute(insert("f", a=101), session=session)
        kds.session_abort(session)
        kds.execute(insert("f", a=7))
        twin.execute(insert("f", a=7))
        assert image(kds) == image(twin)

    def test_context_manager_aborts_on_error(self, kds):
        before = image(kds)
        session = kds.create_session()
        with pytest.raises(RuntimeError):
            with kds.session_transaction(session):
                kds.execute(insert("f", a=100), session=session)
                raise RuntimeError("boom")
        assert image(kds) == before

    def test_context_manager_commits(self, kds):
        session = kds.create_session()
        with kds.session_transaction(session):
            kds.execute(insert("f", a=100), session=session)
        assert kds.record_count() == 7


class TestAbortUndoThreads(TestAbortUndo):
    engine = "threads"


class TestAbortUndoProcess(TestAbortUndo):
    engine = "process"


class TestConcurrentSessions:
    def test_parallel_writers_to_disjoint_files(self, kds):
        """Writers on different files proceed concurrently under IX."""
        barrier = threading.Barrier(2)
        failures = []

        def writer(name, file_name):
            session = kds.create_session(name)
            try:
                barrier.wait(timeout=5)
                with kds.session_transaction(session):
                    for i in range(5):
                        kds.execute(insert(file_name, a=i), session=session)
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(f"w{i}", f"file{i}"))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures
        assert kds.record_count() == 6 + 10
