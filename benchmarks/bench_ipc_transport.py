"""IPC transport: binary framed pipes vs the JSON SimpleQueue baseline.

The ProcessPoolEngine's per-command cost used to be dominated by the
transport itself: every command JSON-encoded into a string, pickled by
``SimpleQueue``, and answered the same way — two serializations and a
queue wakeup per direction, per command.  The framed transport
(:mod:`repro.ipc.transport`) replaces that with one length-prefixed
marshal frame per message over a raw duplex pipe, interns repeated
strings within a frame, and — the big lever — coalesces a whole
dispatch round into one frame each way.

This benchmark drives a real child process over three paths with the
command shape the proxy sends and the reply frame a worker sends: a real
backend's ``(*)`` RETRIEVE result through
:func:`repro.ipc.codec.encode_backend_result` (one record batch):

* ``json_queue``   — the pre-framing baseline, reconstructed here:
  JSON strings over a ``SimpleQueue`` pair, one round trip per command;
* ``binary_single`` — one marshal-framed message per command (same
  round-trip count, C-speed bodies, no pickle-the-string layer);
* ``binary_batch``  — commands coalesced ``--batch`` per frame, replies
  batched back, the proxy's deferred-dispatch shape.

**Gate**: amortized per-command overhead on the coalesced path must be
at least ``--min-ratio`` (default 3x) below the JSON queue baseline for
the small-reply workload (the shape replay/journal traffic takes).

Run standalone (writes ``BENCH_ipc.json``)::

    PYTHONPATH=src python benchmarks/bench_ipc_transport.py
"""

from __future__ import annotations

import argparse
import copy
import json
import multiprocessing
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.abdl import parse_request
from repro.ipc import codec
from repro.ipc.transport import PipeTransport
from repro.mbds.backend import Backend
from repro.mbds.timing import TimingModel

#: Command shape: what the proxy sends per broadcast execute.
COMMAND = {
    "cmd": "execute",
    "request": {
        "op": "RETRIEVE",
        "query": [[["FILE", "=", "student"], ["gpa", ">=", 3.5]]],
        "target": ["name", "gpa", "advisor"],
        "by": None,
    },
    "label": "broadcast",
}


def make_reply(records: int) -> dict:
    """The worker's reply to a ``(*)`` RETRIEVE selecting *records* rows.

    A real backend runs the request and the production codec encodes
    the result, so the frame is byte-for-byte what a worker sends.
    """
    backend = Backend(0, TimingModel())
    for i in range(records):
        backend.execute(
            parse_request(
                f"INSERT (<FILE, student>, <ID, {i}>, <name, 'student-{i}'>, "
                f"<gpa, {2.0 + (i % 20) / 10.0}>, <advisor, 'faculty-{i % 17}'>)"
            )
        )
    result = backend.execute(parse_request("RETRIEVE (FILE = student) (*)"))
    return {
        "result": codec.encode_backend_result(result),
        "spans": [],
        "metrics": {},
    }


def queue_child(requests, responses, reply_records: int) -> None:
    """The pre-framing worker loop: JSON strings over SimpleQueues."""
    reply = json.dumps(make_reply(reply_records))
    while True:
        message = json.loads(requests.get())
        if message.get("cmd") == "stop":
            responses.put(json.dumps({"ok": True}))
            return
        responses.put(reply)


def pipe_child(connection, reply_records: int) -> None:
    """The framed worker loop: singles and batches over one pipe.

    Batch replies are *distinct* objects (as a real worker would build),
    so marshal's identity-based reference table cannot collapse the
    whole reply frame into one definition + refs.
    """
    transport = PipeTransport(connection)
    reply = make_reply(reply_records)
    batch_replies: list = []
    while True:
        is_batch, message = transport.recv_any()
        if is_batch:
            if len(batch_replies) != len(message):
                batch_replies = [
                    copy.deepcopy(reply) for _ in range(len(message))
                ]
            transport.send_batch(batch_replies)
            continue
        if message.get("cmd") == "stop":
            transport.send({"ok": True})
            return
        transport.send(reply)


def bench_queue(commands: int, warmup: int, reply_records: int) -> float:
    """Per-command microseconds for the JSON SimpleQueue baseline."""
    context = multiprocessing.get_context()
    requests: multiprocessing.SimpleQueue = context.SimpleQueue()
    responses: multiprocessing.SimpleQueue = context.SimpleQueue()
    child = context.Process(
        target=queue_child,
        args=(requests, responses, reply_records),
        daemon=True,
    )
    child.start()
    try:
        for _ in range(warmup):
            requests.put(json.dumps(COMMAND))
            json.loads(responses.get())
        start = time.perf_counter()
        for _ in range(commands):
            requests.put(json.dumps(COMMAND))
            json.loads(responses.get())
        elapsed = time.perf_counter() - start
    finally:
        requests.put(json.dumps({"cmd": "stop"}))
        responses.get()
        child.join(timeout=10)
    return elapsed / commands * 1e6


def bench_pipe(
    commands: int,
    warmup: int,
    reply_records: int,
    batch: int,
) -> float:
    """Per-command microseconds over the framed transport.

    *batch* = 1 sends one frame per command; larger values coalesce
    that many commands per frame, replies batched back.
    """
    context = multiprocessing.get_context()
    parent_end, child_end = context.Pipe(duplex=True)
    child = context.Process(
        target=pipe_child, args=(child_end, reply_records), daemon=True
    )
    child.start()
    child_end.close()
    transport = PipeTransport(parent_end)
    # Distinct command objects per slot, as real deferred dispatch holds:
    # marshal's identity refs may dedup the shared strings, not the dicts.
    frame = [copy.deepcopy(COMMAND) for _ in range(batch)]
    try:
        for _ in range(max(warmup // max(batch, 1), 1)):
            if batch > 1:
                transport.send_batch(frame)
                transport.recv_batch()
            else:
                transport.send(COMMAND)
                transport.recv()
        rounds = commands // batch
        start = time.perf_counter()
        if batch > 1:
            for _ in range(rounds):
                transport.send_batch(frame)
                transport.recv_batch()
        else:
            for _ in range(rounds):
                transport.send(COMMAND)
                transport.recv()
        elapsed = time.perf_counter() - start
    finally:
        transport.send({"cmd": "stop"})
        transport.recv()
        child.join(timeout=10)
        transport.close()
    return elapsed / (rounds * batch) * 1e6


def bench_scenario(
    name: str, reply_records: int, commands: int, warmup: int, batch: int
) -> dict:
    row = {"scenario": name, "reply_records": reply_records}
    row["json_queue_us"] = bench_queue(commands, warmup, reply_records)
    row["binary_single_us"] = bench_pipe(commands, warmup, reply_records, batch=1)
    row["binary_batch_us"] = bench_pipe(
        commands, warmup, reply_records, batch=batch
    )
    row["ratio_single"] = row["json_queue_us"] / max(row["binary_single_us"], 1e-9)
    row["ratio_batch"] = row["json_queue_us"] / max(row["binary_batch_us"], 1e-9)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", type=int, default=4096)
    parser.add_argument("--warmup", type=int, default=256)
    parser.add_argument(
        "--batch",
        type=int,
        default=128,
        help="commands coalesced per frame on the batch path (the proxy's "
        "PIPELINE_LIMIT default)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=3.0,
        help="required json_queue/binary_batch per-command overhead ratio "
        "on the small-reply workload (0 disables)",
    )
    parser.add_argument("--out", default="BENCH_ipc.json")
    args = parser.parse_args(argv)

    scenarios = [
        ("small_reply", 2),
        ("bulk_reply", 200),
    ]
    rows = [
        bench_scenario(name, records, args.commands, args.warmup, args.batch)
        for name, records in scenarios
    ]

    print("=== IPC transport  per-command round-trip overhead (us) ===")
    header = (
        f"{'scenario':>12}  {'json queue':>10}  {'bin single':>10}  "
        f"{'bin batch':>10}  {'batch x':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['scenario']:>12}  {row['json_queue_us']:>10.1f}  "
            f"{row['binary_single_us']:>10.1f}  {row['binary_batch_us']:>10.1f}  "
            f"{row['ratio_batch']:>8.2f}"
        )

    gated = rows[0]
    report = {
        "benchmark": "ipc_transport",
        "commands": args.commands,
        "batch": args.batch,
        "min_ratio": args.min_ratio,
        "overhead_gate_enforced": args.min_ratio > 0,
        "gate_ratio": round(gated["ratio_batch"], 3),
        "rows": [
            {
                key: round(value, 3) if isinstance(value, float) else value
                for key, value in row.items()
            }
            for row in rows
        ],
    }
    if args.min_ratio <= 0:
        report["skipped_reason"] = "overhead gate disabled (--min-ratio 0)"
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_ratio > 0 and gated["ratio_batch"] < args.min_ratio:
        print(
            f"FAIL: coalesced binary path is only {gated['ratio_batch']:.2f}x "
            f"below the JSON queue baseline, needs {args.min_ratio}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
