"""Worker restart on crash: heal the farm from durable state.

With a WAL attached and no transaction open, a dead worker no longer
kills the farm: the kernel respawns every worker, restores the
checkpoint snapshot, replays the committed WAL tail, re-adds runtime
indexes, and retries the request — callers never see the crash.  The
whole farm is replaced (not just the dead worker) because a survivor
may hold applies from a transaction that aborted when the crash
surfaced; rebuilding all workers from the durable baseline is the only
state that is provably consistent.

Mid-transaction crashes keep PR 7's contract: typed
:class:`~repro.errors.WorkerCrashed`, farm shutdown, recovery via
:func:`~repro.wal.recovery.recover_mlds`.
"""

from __future__ import annotations

import pytest

from repro.abdl import parse_request
from repro.core.mlds import MLDS
from repro.errors import WorkerCrashed
from repro.wal.recovery import checkpoint_mlds, recover_mlds

from tests.wal.conftest import farm_image, insert


def kill_backend(mlds, backend_id):
    process = mlds.kds.controller.backends[backend_id]._process
    process.kill()
    process.join(timeout=10)


def retrieve_all(kds):
    trace = kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
    return sorted(
        (tuple(record.pairs()), record.text) for record in trace.result.records
    )


@pytest.fixture()
def durable(tmp_path):
    mlds = MLDS(backend_count=3, engine="process", wal=tmp_path / "wal")
    for i in range(9):
        mlds.kds.execute(insert("f", a=i))
    yield mlds
    mlds.kds.shutdown()


class TestTransparentHeal:
    def test_retrieve_succeeds_after_worker_death(self, durable):
        before = retrieve_all(durable.kds)
        kill_backend(durable, 1)
        assert retrieve_all(durable.kds) == before
        assert all(
            backend._process.is_alive()
            for backend in durable.kds.controller.backends
        )

    def test_heal_restores_checkpoint_plus_wal_tail(self, durable, tmp_path):
        checkpoint_mlds(durable)
        durable.kds.execute(insert("f", a=99))  # tail beyond the checkpoint
        before = farm_image(durable)
        kill_backend(durable, 0)
        retrieve_all(durable.kds)  # triggers the heal
        assert farm_image(durable) == before

    def test_mutations_after_heal_are_durable(self, durable):
        kill_backend(durable, 2)
        retrieve_all(durable.kds)  # the first request to reach it heals
        durable.kds.execute(insert("f", a=100))
        healed = farm_image(durable)
        assert sum(len(rows) for rows in healed) == 10
        wal_dir = durable.kds.wal.directory
        durable.kds.shutdown()
        # Crash-restart from disk sees exactly what the healed farm held.
        recovered = recover_mlds(wal_dir)
        try:
            assert farm_image(recovered) == healed
        finally:
            recovered.kds.shutdown()

    def test_healed_farm_matches_never_crashed_farm(self, durable, tmp_path):
        kill_backend(durable, 1)
        # Both inserts route to backend 0 and commit while backend 1 is
        # dead; the read reaches it, heals, and replays them.
        durable.kds.execute(insert("f", a=50))
        durable.kds.execute(insert("g", b=1))
        retrieve_all(durable.kds)

        reference = MLDS(backend_count=3, wal=tmp_path / "ref")
        for i in range(9):
            reference.kds.execute(insert("f", a=i))
        reference.kds.execute(insert("f", a=50))
        reference.kds.execute(insert("g", b=1))
        try:
            assert farm_image(durable) == farm_image(reference)
        finally:
            reference.kds.shutdown()

    def test_heal_reapplies_runtime_indexes(self, durable):
        durable.kds.controller.add_index("a")
        kill_backend(durable, 0)
        retrieve_all(durable.kds)  # triggers the heal
        assert durable.kds.controller.indexed_attributes == ["a"]
        summary = durable.kds.controller.backends[0].execute(
            parse_request("RETRIEVE (FILE = f) (*)")
        )
        # The respawned worker answered — and add_index ran against it
        # without raising, so index-backed lookups keep working.
        assert summary is not None

    def test_heal_counts_surface_in_metrics(self, tmp_path):
        from repro.obs import Observability

        mlds = MLDS(
            backend_count=2,
            engine="process",
            wal=tmp_path / "wal",
            obs=Observability(tracing=True),
        )
        try:
            mlds.kds.execute(insert("f", a=1))
            kill_backend(mlds, 0)
            retrieve_all(mlds.kds)
            assert mlds.obs.metrics.counter_value("kds.worker_heals") == 1
        finally:
            mlds.kds.shutdown()


class TestHealIneligible:
    def test_mid_transaction_crash_keeps_typed_error(self, durable):
        durable.kds.session_begin(durable.kds.default_session)
        durable.kds.execute(insert("f", a=200))
        kill_backend(durable, 1)
        with pytest.raises(WorkerCrashed) as exc:
            durable.kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert exc.value.backend_id == 1
        # No heal: the farm was shut down, PR 7 style.
        assert all(
            not backend._process.is_alive()
            for backend in durable.kds.controller.backends
        )

    def test_no_wal_means_no_heal(self):
        mlds = MLDS(backend_count=2, engine="process")
        try:
            mlds.kds.execute(insert("f", a=1))
            kill_backend(mlds, 0)
            with pytest.raises(WorkerCrashed):
                mlds.kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        finally:
            mlds.kds.shutdown()

    def test_second_crash_right_after_heal_gives_up(self, durable, monkeypatch):
        kill_backend(durable, 1)
        original = durable.kds.heal_workers

        def heal_then_rekill():
            replayed = original()
            kill_backend(durable, 1)  # the freshly healed worker dies too
            return replayed

        monkeypatch.setattr(durable.kds, "heal_workers", heal_then_rekill)
        with pytest.raises(WorkerCrashed):
            durable.kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
