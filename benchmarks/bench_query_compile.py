"""Query compilation: compiled vs interpreted scans on the University workload.

PR 4's tentpole claim: flattening DNF queries into matcher closures
(:mod:`repro.qc.compile`) makes the kernel scan loop meaningfully faster
while staying **bit-identical** — same records, same order, same
simulated timing-model figures.  This benchmark holds both halves:

* **fidelity** — every request is executed once on a system whose compile
  caches are sized 0 (the interpreted matcher) and once on an identical
  system that compiles; the simulated ``ResponseTime`` totals and the full
  record lists (pairs + text, in order) must match exactly, else the run
  fails immediately;
* **speed** — the same retrieval set is timed interleaved (min-of-N,
  round-robin across modes so CPU drift hits both alike); the gate
  requires ``interpreted wall / compiled wall >= --min-speedup``
  (default 1.5, the ISSUE's line).

A third, ungated row times the epoch-guarded backend result cache on the
same workload for context (it short-circuits the scan entirely, so its
speedup is workload-dependent and usually much larger).

Run standalone (writes ``BENCH_compile.json``)::

    PYTHONPATH=src python benchmarks/bench_query_compile.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.abdl.ast import ALL_ATTRIBUTES, RetrieveRequest
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.core.mlds import MLDS
from repro.qc import runtime as qc_runtime
from repro.university import generate_university, load_university


#: Cache sizes per mode.  A size is fixed when its cache is built, so each
#: mode gets its own system, loaded with the same data.
MODES = {
    "interpreted": {"compile": 0, "result": 0},
    "compiled": {"result": 0},
    "result_cache": {},
}


def build_system(backends: int, persons: int, courses: int) -> MLDS:
    mlds = MLDS(backend_count=backends)
    data = generate_university(persons=persons, courses=courses, departments=4, seed=7)
    load_university(mlds, data)
    return mlds


def build_modes(backends: int, persons: int, courses: int) -> dict[str, MLDS]:
    """One identically loaded system per mode, built under its sizes."""
    systems = {}
    for mode, sizes in MODES.items():
        qc_runtime.reset()
        qc_runtime.config.sizes.update(sizes)
        systems[mode] = build_system(backends, persons, courses)
    qc_runtime.reset()
    return systems


def build_requests() -> list[RetrieveRequest]:
    """A mixed retrieval set over the University files.

    Equality, range, negation, and multi-clause (OR) shapes, all pinned
    to real files so the scans they cost are the scans a session issues.
    """

    def q(*predicates: Predicate) -> Query:
        return Query.conjunction(list(predicates))

    requests: list[Query] = []
    for major in ("computer science", "mathematics", "physics", "engineering"):
        requests.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("major", "=", major),
                Predicate("gpa", ">=", 3.8),
            )
        )
        requests.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("major", "=", major),
                Predicate("gpa", ">=", 2.0),
                Predicate("gpa", "<", 2.4),
            )
        )
    for age in (22, 30, 41, 57):
        requests.append(q(Predicate("FILE", "=", "person"), Predicate("age", "=", age)))
        requests.append(
            q(
                Predicate("FILE", "=", "person"),
                Predicate("age", ">=", age),
                Predicate("age", "<", age + 3),
            )
        )
    for semester in ("fall", "winter", "spring", "summer"):
        requests.append(
            q(
                Predicate("FILE", "=", "course"),
                Predicate("semester", "=", semester),
                Predicate("credits", ">", 3),
            )
        )
        requests.append(
            q(
                Predicate("FILE", "=", "course"),
                Predicate("semester", "!=", semester),
                Predicate("credits", ">", 2),
                Predicate("dept", "=", "computer_science"),
            )
        )
    # Multi-clause disjunctions (one per file pair).
    requests.append(
        Query(
            (
                Conjunction(
                    [Predicate("FILE", "=", "student"), Predicate("gpa", ">", 3.5)]
                ),
                Conjunction(
                    [Predicate("FILE", "=", "person"), Predicate("age", ">", 60)]
                ),
            )
        )
    )
    requests.append(
        Query(
            (
                Conjunction(
                    [Predicate("FILE", "=", "course"), Predicate("credits", "=", 4)]
                ),
                Conjunction(
                    [Predicate("FILE", "=", "course"), Predicate("credits", "=", 1)]
                ),
            )
        )
    )
    return [RetrieveRequest(query, [ALL_ATTRIBUTES]) for query in requests]


def run_once(mlds: MLDS, requests: list[RetrieveRequest]) -> list[dict]:
    """Execute the set once, returning per-request fidelity fingerprints."""
    out = []
    for request in requests:
        trace = mlds.kds.execute(request)
        out.append(
            {
                "request": request.render(),
                "simulated_ms": trace.response.total_ms,
                "records": [
                    (tuple(r.pairs()), r.text) for r in trace.result.records
                ],
            }
        )
    return out


def check_fidelity(systems: dict[str, MLDS], requests: list[RetrieveRequest]) -> dict:
    """Interpreted vs compiled: simulated times and records bit-identical."""
    interpreted = run_once(systems["interpreted"], requests)
    compiled = run_once(systems["compiled"], requests)
    mismatches = []
    for left, right in zip(interpreted, compiled):
        if left["simulated_ms"] != right["simulated_ms"]:
            mismatches.append(("simulated_ms", left["request"]))
        if left["records"] != right["records"]:
            mismatches.append(("records", left["request"]))
    return {
        "requests": len(requests),
        "simulated_identical": not any(kind == "simulated_ms" for kind, _ in mismatches),
        "records_identical": not any(kind == "records" for kind, _ in mismatches),
        "mismatches": [f"{kind}: {req}" for kind, req in mismatches[:5]],
    }


def time_modes(
    systems: dict[str, MLDS], requests: list[RetrieveRequest], rounds: int, repeat: int
) -> dict[str, float]:
    """Min-of-N interleaved wall times for the three modes."""
    best = {mode: float("inf") for mode in systems}
    # Warm-up: populate compile and result caches so steady-state is
    # measured for every mode (the first compile/fill is one-off cost).
    for mlds in systems.values():
        for request in requests:
            mlds.kds.execute(request)
    for _ in range(repeat):
        for mode, mlds in systems.items():
            start = time.perf_counter()
            for _ in range(rounds):
                for request in requests:
                    mlds.kds.execute(request)
            best[mode] = min(best[mode], time.perf_counter() - start)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", type=int, default=2)
    parser.add_argument(
        "--persons",
        type=int,
        default=800,
        help="University population size (persons; courses scale along)",
    )
    parser.add_argument("--courses", type=int, default=120)
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="passes over the request set per timed sample",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="timed samples per mode; the minimum is reported",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="required interpreted/compiled wall-time ratio (0 disables)",
    )
    parser.add_argument("--out", default="BENCH_compile.json")
    args = parser.parse_args(argv)

    print(
        f"loading University population per mode (persons={args.persons}, "
        f"courses={args.courses}, backends={args.backends})..."
    )
    systems = build_modes(args.backends, args.persons, args.courses)
    requests = build_requests()

    fidelity = check_fidelity(systems, requests)
    fidelity_ok = fidelity["simulated_identical"] and fidelity["records_identical"]
    print(
        f"fidelity over {fidelity['requests']} requests: "
        f"simulated_identical={fidelity['simulated_identical']} "
        f"records_identical={fidelity['records_identical']}"
    )

    best = time_modes(systems, requests, args.rounds, args.repeat)
    n = len(requests) * args.rounds
    speedup = best["interpreted"] / max(best["compiled"], 1e-9)
    cache_speedup = best["interpreted"] / max(best["result_cache"], 1e-9)

    print("=== query compilation (University workload) ===")
    header = f"{'mode':>13}  {'wall s':>9}  {'req/s':>9}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for mode in ("interpreted", "compiled", "result_cache"):
        ratio = best["interpreted"] / max(best[mode], 1e-9)
        print(
            f"{mode:>13}  {best[mode]:>9.4f}  {n / max(best[mode], 1e-9):>9.0f}  "
            f"{ratio:>7.2f}x"
        )

    report = {
        "benchmark": "query_compile",
        "backends": args.backends,
        "persons": args.persons,
        "courses": args.courses,
        "requests": len(requests),
        "rounds": args.rounds,
        "repeat": args.repeat,
        "min_speedup": args.min_speedup,
        "fidelity": fidelity,
        "wall_s": best,
        "compiled_speedup_x": speedup,
        "result_cache_speedup_x": cache_speedup,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    for mlds in systems.values():
        mlds.kds.shutdown()
    failed = False
    if not fidelity_ok:
        print(
            f"FAIL: compiled results diverge from interpreted: "
            f"{fidelity['mismatches']}",
            file=sys.stderr,
        )
        failed = True
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(
            f"FAIL: compiled speedup {speedup:.2f}x is below "
            f"--min-speedup {args.min_speedup}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
