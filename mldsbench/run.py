"""The MLDS benchmark: one workload, end-to-end metrics or the traced ledger.

Run from the repository root::

    python3 mldsbench/run.py --workload read-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), then drives the seeded statement stream in a closed loop for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` drives
the stream untraced for half the time on one fresh system, then the same
number of statements on a second fresh system with every layer entry
point wrapped (see :mod:`ledger`), and prints the per-layer metrics.  Every reply is checked
against the generated data; the last line of output is one JSON object,
and any mismatch makes the exit status non-zero.  Workload parameters
and the reason each workload exists live in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"mldsbench: no MLDS sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ledger as ledger_mod  # noqa: E402
import statements as st  # noqa: E402
import systems  # noqa: E402
from repro.wal.recovery import recover_mlds  # noqa: E402

SETUP_REPEATS = 3
#: Scratch space (WAL directories, span files) inside the checkout.
WORK = ROOT / ".mldsbench"
#: Statements generated ahead of timing; the stream wraps around if a
#: run outpaces it.
READ_CYCLES = 4000
WRITE_OPS_PER_CLIENT = 20000
#: Longest a client thread may take past its deadline before the run fails.
CLIENT_TIMEOUT_S = 120


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Outcome:
    """Counts of attempted and failed statements, with failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def fail(self, note: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)

    def add(self, attempted: int) -> None:
        with self._lock:
            self.attempted += attempted


# -- read workloads ---------------------------------------------------------------------


def run_statement(system, kinds, statement, outcome: Outcome) -> float:
    """Run one statement, check its reply, and return its latency (s)."""
    session = system.sessions[statement.language]
    start = perf_counter()
    try:
        results = session.run(statement.text)
    except Exception as exc:  # a failed statement is counted, not fatal
        outcome.fail(f"{statement.text!r} raised {exc!r}")
        return perf_counter() - start
    elapsed = perf_counter() - start
    observed = kinds.observe(statement.kind, results)
    if observed != statement.expected:
        outcome.fail(f"{statement.text!r} returned {observed!r}, expected {statement.expected!r}")
    return elapsed


def drive_reads(system, kinds, stream, outcome, deadline=None, count=None):
    """Closed loop over *stream*: until *deadline* (finishing the cycle in
    progress) or for exactly *count* statements.  Returns the per-statement
    latencies (s), each with its statement, and the wall time."""
    cycle = len(st.CYCLE)
    samples = []
    start = perf_counter()
    index = 0
    while True:
        if count is not None and index >= count:
            break
        if count is None and index % cycle == 0 and perf_counter() >= deadline:
            break
        statement = stream[index % len(stream)]
        samples.append((statement, run_statement(system, kinds, statement, outcome)))
        index += 1
    wall = perf_counter() - start
    outcome.add(len(samples))
    return samples, wall


def check_read_totals(system, data, outcome) -> None:
    """Whole-database checks after the timed phase: faculty per rank."""
    daplex = system.sessions["daplex"]
    for rank, expected in sorted(st.faculty_per_rank(data).items()):
        rows = daplex.run(f"FOR EACH f IN faculty SUCH THAT rank(f) = '{rank}' PRINT f;")[0].rows
        if len(rows) != expected:
            outcome.fail(f"{len(rows)} faculty of rank {rank}, expected {expected}")


def read_properties(system, caches_before, engines_before) -> dict:
    caches_after = ledger_mod.cache_layers(system.mlds.kds.controller.cache_snapshots())
    before = ledger_mod.cache_layers(caches_before)
    return {
        "qc.result_hit_ratio": ledger_mod.hit_ratio(before["result"], caches_after["result"]),
        "kms.translate_hit_ratio": ledger_mod.translate_hit_ratio(engines_before),
    }


def translation_baselines(system) -> dict:
    baselines = {}
    for session in system.sessions.values():
        snapshot = ledger_mod.translation_snapshot(session.engine)
        if snapshot is not None:
            baselines[id(session.engine)] = (session.engine, snapshot)
    return baselines


def setup_reads(spec, data, kinds, warm, outcome):
    """Build the read system and run the untimed warm-up on it."""
    system = systems.build_read_system(spec, data)
    try:
        for statement in warm:
            run_statement(system, kinds, statement, outcome)
    except BaseException:
        system.close()
        raise
    return system


def read_workload(name, spec, seed, seconds, trace, outcome, report):
    data = systems.generate_read_data(spec["databases"], seed)
    kinds = st.ReadKinds(data)
    stream, warm = st.read_stream(kinds, seed, READ_CYCLES, spec["working_set_per_kind"])
    setup = lambda: setup_reads(spec, data, kinds, warm, outcome)  # noqa: E731
    if trace:
        return traced_reads(name, setup, kinds, stream, data, seconds, outcome)

    system, setup_times = timed_setups(setup)
    try:
        kds = system.mlds.kds
        caches_before = kds.controller.cache_snapshots()
        engines_before = translation_baselines(system)
        kds.reset_clock()
        samples, wall = drive_reads(
            system, kinds, stream, outcome, deadline=perf_counter() + seconds
        )
        rss = systems.peak_rss_mb()
        report["properties"] = read_properties(system, caches_before, engines_before)
        check_read_totals(system, data, outcome)
    finally:
        system.close()

    latencies = [lat * 1000.0 for _s, lat in samples]
    metrics = common_metrics(setup_times, latencies, wall, rss)
    for language in st.LANGUAGES:
        own = [lat * 1000.0 for s, lat in samples if s.language == language]
        report["extra"][f"{language}_p50_ms"] = metric(statistics.median(own), "ms")
    for kind in dict.fromkeys(kind for _language, kind in st.CYCLE):
        own = [lat * 1000.0 for s, lat in samples if s.kind == kind]
        report["extra"][f"{kind}_p50_ms"] = metric(statistics.median(own), "ms")
    return metrics


def traced_reads(name, setup, kinds, stream, data, seconds, outcome):
    """Untraced then traced, each on a fresh system, over the same statements."""
    system = setup()
    try:
        kds = system.mlds.kds
        kds.reset_clock()
        untraced, untraced_wall = drive_reads(
            system, kinds, stream, outcome, deadline=perf_counter() + seconds / 2
        )
        untraced_sim = kds.clock.total_ms
        check_read_totals(system, data, outcome)
    finally:
        system.close()

    count = len(untraced)
    system = setup()
    try:
        kds = system.mlds.kds
        ledger, (_samples, traced_wall), before, after = ledger_pass(
            kds, lambda: drive_reads(system, kinds, stream, outcome, count=count)
        )
        traced_sim = kds.clock.total_ms
    finally:
        system.close()
    if traced_sim != untraced_sim:
        outcome.fail(
            f"simulated time moved under tracing: {traced_sim!r} ms traced, "
            f"{untraced_sim!r} ms untraced"
        )
    ledger.write(WORK / f"spans-{name}.jsonl")
    return ledger_mod.layer_metrics(
        ledger,
        before,
        after,
        sim_ms_per_stmt=traced_sim / count,
        overhead_ratio=traced_wall / untraced_wall,
    )


# -- the served write workload ------------------------------------------------------


#: Statements that carry SQL text (COMMIT carries none).
SQL_CALLS = ("select", "update", "insert")


class ClientLog:
    """What one client saw: call latencies, acknowledged commits, reads."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, float]] = []
        self.commits: list[tuple[int, st.WriteOp]] = []
        self.reads: list[tuple[int, list]] = []
        self.ops = 0


def timed(log: ClientLog, kind: str, *calls):
    """Make the *calls* (callable, args...) in turn, timed as one statement.

    A transaction's BEGIN is timed with its first statement, as a client
    library that opens transactions implicitly would send them, so every
    round trip belongs to exactly one statement.
    """
    start = perf_counter()
    for call, *args in calls:
        value = call(*args)
    log.calls.append((kind, perf_counter() - start))
    return value


def drive_client(system, index, ops, log, outcome, deadline=None, count=None):
    client = system.clients[index]
    session = system.sessions[index]
    position = 0
    while True:
        if count is not None and position >= count:
            break
        if count is None and perf_counter() >= deadline:
            break
        op = ops[position]
        position += 1
        text = st.sql_text(op)
        try:
            if op.kind == "select":
                rows = timed(log, "select", (client.execute, session, text))
                log.reads.append((op.key, rows))
                continue
            try:
                timed(log, op.kind, (client.begin,), (client.execute, session, text))
            except Exception:
                client.abort()
                raise
            log.commits.append((timed(log, "commit", (client.commit,)), op))
        except Exception as exc:  # counted as a failed statement
            outcome.fail(f"{text!r} raised {exc!r}")
    log.ops = position


def drive_writes(system, streams, outcome, deadline=None, counts=None):
    """Both clients' closed loops, one thread each, from each stream's start."""
    logs = [ClientLog() for _ in streams]
    threads = [
        threading.Thread(
            target=drive_client,
            args=(system, i, streams[i], logs[i], outcome, deadline),
            kwargs={"count": None if counts is None else counts[i]},
            daemon=True,
        )
        for i in range(len(streams))
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CLIENT_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish in time")
    wall = perf_counter() - start
    outcome.add(sum(len(log.calls) for log in logs))
    return logs, wall


def check_reads(initial, streams, logs, outcome) -> None:
    """A read must return the key's loaded value or one some update wrote to it."""
    for log in logs:
        for key, rows in log.reads:
            qty = _read_qty(rows)
            if qty is None:
                outcome.fail(f"read of id {key} returned {rows!r}")
                continue
            if qty == initial.get(key):
                continue
            client, index = divmod(qty, 1_000_000)
            writer = (
                streams[client - 1][index]
                if 1 <= client <= len(streams) and index < len(streams[client - 1])
                else None
            )
            if writer is None or writer.kind != "update" or writer.key != key:
                outcome.fail(f"read of id {key} returned qty {qty}, which no write produced")


def _read_qty(rows):
    if len(rows) != 1 or len(rows[0].get("rows", [])) != 1:
        return None
    return rows[0]["rows"][0].get("qty")


def wal_size(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def verify_durability(system, initial, logs, outcome, recoveries: int) -> list[float]:
    """Live table == acknowledged commits in commit_seq order == recovered table.

    Returns the wall time of each recovery into a fresh system.
    """
    expected = st.replay_commits(initial, [c for log in logs for c in log.commits])
    live = systems.table_contents(system.mlds)
    if live != expected:
        outcome.fail(f"live table differs from the acknowledged commits in {_diff(live, expected)}")
    system.close()
    times = []
    for _ in range(recoveries):
        start = perf_counter()
        recovered = recover_mlds(system.wal_dir, attach_wal=False)
        times.append(perf_counter() - start)
        try:
            contents = systems.table_contents(recovered)
        finally:
            recovered.kds.shutdown()
        if contents != expected:
            outcome.fail(f"recovered table differs in {_diff(contents, expected)}")
    return times


def _diff(got: dict, expected: dict) -> str:
    keys = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
    return f"{len(keys)} rows, e.g. ids {keys[:3]}"


def write_workload(name, spec, seed, seconds, trace, outcome, report):
    rows = spec["databases"]["shop"]["rows"]
    initial = systems.generate_shop_rows(rows, random.Random(seed))
    streams = [
        st.write_stream(seed, client, rows, WRITE_OPS_PER_CLIENT, rows)
        for client in range(spec["clients"])
    ]
    wal_dir = WORK / f"wal-{name}-{seed}"
    try:
        if trace:
            return traced_writes(name, spec, seconds, initial, streams, wal_dir, outcome)
        return timed_writes(spec, seconds, initial, streams, wal_dir, outcome, report)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def setup_writes(spec, initial, wal_dir, outcome):
    """Build the served system and read one row through each client."""
    system = systems.build_served_system(spec, initial, wal_dir)
    try:
        for client, session in zip(system.clients, system.sessions):
            rows = client.execute(session, "SELECT qty FROM item WHERE id = 0")
            if _read_qty(rows) != initial[0]:
                outcome.fail(f"warm-up read returned {rows!r}")
    except BaseException:
        system.close()
        raise
    return system


def timed_writes(spec, seconds, initial, streams, wal_dir, outcome, report):
    system, setup_times = timed_setups(lambda: setup_writes(spec, initial, wal_dir, outcome))
    try:
        locks_before = ledger_mod.lock_counters(system.mlds.kds.locks)
        logs, wall = drive_writes(system, streams, outcome, deadline=perf_counter() + seconds)
        rss = systems.peak_rss_mb()
        locks_after = ledger_mod.lock_counters(system.mlds.kds.locks)
    except BaseException:
        system.close()
        raise
    recover_times = verify_durability(system, initial, logs, outcome, SETUP_REPEATS)
    check_reads(initial, streams, logs, outcome)

    calls = [(kind, lat * 1000.0) for log in logs for kind, lat in log.calls]
    commits = [lat for kind, lat in calls if kind == "commit"]
    txns = len(commits)
    metrics = common_metrics(setup_times, [lat for _kind, lat in calls], wall, rss)
    report["extra"].update(
        sql_p50_ms=metric(
            statistics.median(lat for kind, lat in calls if kind in SQL_CALLS), "ms"
        ),
        commit_p50_ms=metric(statistics.median(commits), "ms"),
        commit_p95_ms=metric(percentile(commits, 95), "ms"),
        recover_s=metric(statistics.median(recover_times), "s"),
    )
    for kind in SQL_CALLS:
        own = [lat for k, lat in calls if k == kind]
        if own:
            report["extra"][f"{kind}_p50_ms"] = metric(statistics.median(own), "ms")
    report["properties"] = {
        "locks.waits_per_txn": (locks_after["waits"] - locks_before["waits"]) / max(txns, 1),
        "locks.wait_ms_per_txn": (locks_after["wait_ms"] - locks_before["wait_ms"]) / max(txns, 1),
    }
    return metrics


def traced_writes(name, spec, seconds, initial, streams, wal_dir, outcome):
    """Untraced then traced, each on a fresh system, over the same operations."""
    system = setup_writes(spec, initial, wal_dir, outcome)
    try:
        first, untraced_wall = drive_writes(
            system, streams, outcome, deadline=perf_counter() + seconds / 2
        )
    except BaseException:
        system.close()
        raise
    verify_durability(system, initial, first, outcome, 1)
    check_reads(initial, streams, first, outcome)

    counts = [log.ops for log in first]
    system = setup_writes(spec, initial, wal_dir, outcome)
    try:
        kds = system.mlds.kds
        shed_before = system.server.stats()["admission"]["shed_total"]
        wal_before = wal_size(wal_dir)
        ledger, (second, traced_wall), before, after = ledger_pass(
            kds, lambda: drive_writes(system, streams, outcome, counts=counts)
        )
        sim_ms = kds.clock.total_ms
        wal_bytes = wal_size(wal_dir) - wal_before
        shed = system.server.stats()["admission"]["shed_total"] - shed_before
    except BaseException:
        system.close()
        raise
    verify_durability(system, initial, second, outcome, 1)
    check_reads(initial, streams, second, outcome)
    ledger.write(WORK / f"spans-{name}.jsonl")
    stmts = ledger_mod.SpanTotals(ledger.spans).outer_count["core"]
    return ledger_mod.layer_metrics(
        ledger,
        before,
        after,
        sim_ms_per_stmt=sim_ms / stmts if stmts else 0.0,
        overhead_ratio=traced_wall / untraced_wall,
        wal_bytes=wal_bytes,
        server_shed=shed,
        client_execute_s=sum(
            lat for log in second for kind, lat in log.calls if kind in SQL_CALLS
        ),
    )


# -- shared ---------------------------------------------------------------------------


def timed_setups(setup):
    """Set up SETUP_REPEATS times; keep the last system and every duration."""
    times = []
    for attempt in range(SETUP_REPEATS):
        start = perf_counter()
        system = setup()
        times.append(perf_counter() - start)
        if attempt < SETUP_REPEATS - 1:
            system.close()
    return system, times


def ledger_pass(kds, run):
    """Run *run* with every layer entry point wrapped.

    Returns the ledger, what *run* returned, and the program's own
    counters (qc caches, lock manager) before and after.
    """
    def counters():
        return {
            "caches": kds.controller.cache_snapshots(),
            "locks": ledger_mod.lock_counters(kds.locks),
        }

    ledger = ledger_mod.Ledger()
    before = counters()
    kds.reset_clock()
    ledger_mod.install(ledger)
    try:
        result = run()
    finally:
        ledger.remove()
    return ledger, result, before, counters()


def common_metrics(setup_times, latencies, wall, rss) -> dict:
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "stmt_per_s": metric(len(latencies) / wall, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_p95_ms": metric(percentile(latencies, 95), "ms"),
        "rss_mb": metric(rss, "MB"),
    }


WORKLOADS = {"read-mix": read_workload, "read-hot": read_workload, "write-served": write_workload}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE / "workloads.json").read_text())[args.workload]
    WORK.mkdir(exist_ok=True)
    outcome = Outcome()
    report = {"extra": {}, "properties": {}}
    metrics = WORKLOADS[args.workload](
        args.workload, spec, args.seed, args.seconds, bool(args.trace), outcome, report
    )
    if args.trace:
        metrics = {name: metric(value, unit) for name, (unit, value) in metrics.items()}
    failed = outcome.failed
    report["extra"]["error_ratio"] = metric(failed / max(outcome.attempted, 1), "ratio")
    for name, value in {**metrics, **report["extra"]}.items():
        print(f"{args.workload:13s} {name:32s} {value['value']:14.6f} {value['unit']}")
    for name, value in report["properties"].items():
        print(f"{args.workload:13s} property {name:23s} {value:14.6f}")
    for note in outcome.notes:
        print(f"FAILED: {note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
