"""Group commit and bulk journaling: shared fsyncs, never a torn batch.

Three contracts on top of the PR-5 crash matrix:

* a **bulk batch is atomic in the journal** — one BULK-INSERT log record
  per backend; a crash anywhere around the bulk append loses the whole
  transaction, never applies part of a batch (serial AND process
  engines);
* **concurrent committers sharing one fsync recover independently** —
  each staged commit record stands on its own in the master log, so a
  crash before the shared flush loses all of them and a crash after it
  keeps all of them, with no cross-transaction coupling;
* the **coordinator itself**: batching under a window, sequence numbers
  staying monotonic against interleaved begin/abort records, and a
  leader failure poisoning every follower instead of hanging them.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.mlds import MLDS
from repro.obs import Observability
from repro.wal.faults import CrashPoint, FaultInjector, InjectedCrash
from repro.wal.log import WalManager
from repro.wal.reader import read_wal
from repro.wal.recovery import recover_mlds

from tests.wal.conftest import bulk, farm_image, insert

BACKENDS = 3

ENGINES = [("serial", None), ("process", 2)]


def seed(kds):
    for i in range(6):
        kds.execute(insert("f", a=i))


class TestTornBatch:
    """A bulk batch is journaled whole or not at all."""

    @pytest.mark.parametrize("engine,workers", ENGINES, ids=[e for e, _ in ENGINES])
    @pytest.mark.parametrize(
        "point",
        [CrashPoint.BEFORE_BULK_APPEND, CrashPoint.AFTER_BULK_APPEND],
        ids=lambda p: p.value,
    )
    def test_bulk_crash_never_partially_applies(self, tmp_path, point, engine, workers):
        injector = FaultInjector()
        wal = WalManager(tmp_path / "wal", BACKENDS, injector=injector)
        mlds = MLDS(backend_count=BACKENDS, engine=engine, workers=workers, wal=wal)
        seed(mlds.kds)
        pre = farm_image(mlds)

        injector.arm(point)
        with pytest.raises(InjectedCrash):
            # 9 records spread over all three backends: the batch shards
            # into three per-backend journal records.
            mlds.kds.execute(bulk("f", range(100, 109)))
        wal.close()
        mlds.kds.controller.engine.shutdown()

        recovered = recover_mlds(
            tmp_path / "wal", engine=engine, workers=workers, attach_wal=False
        )
        assert farm_image(recovered) == pre
        for backend in recovered.kds.controller.backends:
            values = [r.get("a") for r in backend.store.all_records()]
            assert not any(v is not None and v >= 100 for v in values)
        recovered.kds.shutdown()

    @pytest.mark.parametrize("engine,workers", ENGINES, ids=[e for e, _ in ENGINES])
    def test_crash_between_backend_shards_discards_them_all(
        self, tmp_path, engine, workers
    ):
        """2 of 3 shard records journaled, then the machine dies: recovery
        must not apply the journaled shards without the third."""
        injector = FaultInjector()
        wal = WalManager(tmp_path / "wal", BACKENDS, injector=injector)
        mlds = MLDS(backend_count=BACKENDS, engine=engine, workers=workers, wal=wal)
        seed(mlds.kds)
        pre = farm_image(mlds)

        injector.arm(CrashPoint.AFTER_BULK_APPEND, hits=2)
        with pytest.raises(InjectedCrash):
            mlds.kds.execute(bulk("f", range(100, 109)))
        wal.close()
        mlds.kds.controller.engine.shutdown()

        recovered = recover_mlds(
            tmp_path / "wal", engine=engine, workers=workers, attach_wal=False
        )
        assert farm_image(recovered) == pre
        recovered.kds.shutdown()


class TestSharedFsyncIndependence:
    """Committers batched into one flush recover as separate transactions."""

    def _commit_pair_concurrently(self, wal):
        """Two owned transactions whose commits race into one group."""
        t_a = wal.begin(owner="alice")
        t_b = wal.begin(owner="bob")
        wal.log_op(0, insert("fa", a=1), txn=t_a)
        wal.log_op(1, insert("fb", b=2), txn=t_b)
        barrier = threading.Barrier(2)
        errors = []
        deltas = {t_a: {0: 1}, t_b: {1: 1}}

        def commit(txn):
            barrier.wait()
            try:
                wal.commit(txn, deltas[txn])
            except BaseException as exc:  # noqa: BLE001 - collected for asserts
                errors.append(exc)

        threads = [threading.Thread(target=commit, args=(t,)) for t in (t_a, t_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return errors

    def test_both_recover_after_shared_flush(self, tmp_path):
        wal = WalManager(tmp_path / "wal", 2, group_window_ms=50.0)
        errors = self._commit_pair_concurrently(wal)
        wal.close()
        assert errors == []
        view = read_wal(tmp_path / "wal")
        assert sorted(t.owner for t in view.committed) == ["alice", "bob"]

    def test_commits_share_a_flush_under_the_window(self, tmp_path):
        obs = Observability()
        wal = WalManager(tmp_path / "wal", 2, group_window_ms=200.0)
        wal.bind_obs(obs)
        errors = self._commit_pair_concurrently(wal)
        wal.close()
        assert errors == []
        registry = obs.metrics.as_dict()
        assert registry["wal.commits"]["value"] == 2.0
        # Both committers fit in the 200ms window: one group, size 2.
        assert registry["wal.group_commits"]["value"] == 1.0
        assert registry["wal.group_size"]["max"] == 2.0

    def test_crash_before_shared_flush_loses_both(self, tmp_path):
        injector = FaultInjector()
        wal = WalManager(
            tmp_path / "wal", 2, injector=injector, group_window_ms=200.0
        )
        injector.arm(CrashPoint.BEFORE_GROUP_FSYNC)
        errors = self._commit_pair_concurrently(wal)
        wal.close()
        # The leader crashed inside the flush; the follower's commit was
        # poisoned rather than left hanging on an event that never sets.
        assert len(errors) == 2
        assert all(isinstance(exc, InjectedCrash) for exc in errors)
        view = read_wal(tmp_path / "wal")
        assert view.committed == []

    def test_crash_after_shared_flush_keeps_both(self, tmp_path):
        injector = FaultInjector()
        wal = WalManager(
            tmp_path / "wal", 2, injector=injector, group_window_ms=200.0
        )
        injector.arm(CrashPoint.AFTER_GROUP_FSYNC)
        errors = self._commit_pair_concurrently(wal)
        wal.close()
        assert len(errors) == 2  # the machine still died mid-commit...
        view = read_wal(tmp_path / "wal")
        # ...but both staged commit records were already durable.
        assert sorted(t.owner for t in view.committed) == ["alice", "bob"]

    def test_sessions_share_fsync_and_recover_independently(self, tmp_path):
        """Kernel-level: concurrent sessions on distinct files group-commit,
        and the recovered farm equals the live one."""
        obs = Observability()
        wal = WalManager(tmp_path / "wal", BACKENDS, sync=True, group_window_ms=25.0)
        mlds = MLDS(backend_count=BACKENDS, wal=wal, obs=obs)
        sessions = [mlds.kds.create_session(f"s{i}") for i in range(4)]
        barrier = threading.Barrier(4)

        def work(i, session):
            barrier.wait()
            mlds.kds.execute(bulk(f"file{i}", range(5)), session=session)

        threads = [
            threading.Thread(target=work, args=(i, s))
            for i, s in enumerate(sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        live = farm_image(mlds)
        registry = obs.metrics.as_dict()
        assert registry["wal.commits"]["value"] == 4.0
        assert registry["wal.group_commits"]["value"] < 4.0  # some sharing
        mlds.kds.shutdown()

        recovered = recover_mlds(tmp_path / "wal", attach_wal=False)
        assert farm_image(recovered) == live
        assert recovered.kds.record_count() == 20
        recovered.kds.shutdown()


class TestCoordinator:
    def test_window_zero_still_commits(self, tmp_path):
        wal = WalManager(tmp_path / "wal", 1, group_window_ms=0.0)
        txn = wal.begin(owner="alice")
        wal.log_op(0, insert("f", a=1), txn=txn)
        wal.commit(txn, {0: 1})
        wal.close()
        assert [t.owner for t in read_wal(tmp_path / "wal").committed] == ["alice"]

    def test_sequences_stay_monotonic_across_interleaved_begins(self, tmp_path):
        """Begin/abort records append immediately; staged commits get their
        seqs at flush time, so the master log must still read cleanly."""
        wal = WalManager(tmp_path / "wal", 1, group_window_ms=0.0)
        for i in range(5):
            txn = wal.begin(owner=f"o{i}")
            wal.log_op(0, insert("f", a=i), txn=txn)
            wal.commit(txn, {0: 1})
        aborted = wal.begin(owner="quitter")
        wal.abort(aborted)
        wal.close()
        view = read_wal(tmp_path / "wal")  # raises on non-monotonic seqs
        assert len(view.committed) == 5

    def test_disabled_group_commit_is_the_default(self, tmp_path):
        obs = Observability()
        wal = WalManager(tmp_path / "wal", 1)
        wal.bind_obs(obs)
        txn = wal.begin(owner="alice")
        wal.log_op(0, insert("f", a=1), txn=txn)
        wal.commit(txn, {0: 1})
        wal.close()
        registry = obs.metrics.as_dict()
        assert "wal.group_commits" not in registry
