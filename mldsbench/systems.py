"""The databases each workload runs on, built through the public MLDS API.

Every population is generated from the run's seed, so the statement
streams in :mod:`statements` can derive each reply they expect from the
same generated data.  File names are prefixed per database because the
kernel's file namespace is shared by every database it hosts.
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import MLDS
from repro.server import Authenticator, Credential, MLDSServer, ServerClient
from repro.university import UniversityData, generate_university, load_university
from repro.wal.log import WalManager
from repro.wal.recovery import checkpoint_mlds

REGISTRAR_DDL = """
DATABASE registrar;
CREATE TABLE r_student (sid INT, sname CHAR(30), major CHAR(20), PRIMARY KEY (sid));
CREATE TABLE r_course (cid INT, title CHAR(40), credits INT, PRIMARY KEY (cid));
CREATE TABLE r_enroll (sid INT, cid INT, grade CHAR(2), points FLOAT,
                       PRIMARY KEY (sid, cid));
"""

SCHOOL_DDL = """
DATABASE school;
SEGMENT s_dept ROOT (dname CHAR(20), budget INT);
SEGMENT s_course UNDER s_dept (title CHAR(40), credits INT);
SEGMENT s_offering UNDER s_course (semester CHAR(6), instructor CHAR(30));
"""

SHOP_DDL = """
DATABASE shop;
CREATE TABLE item (id INT, qty INT, PRIMARY KEY (id));
"""

_MAJORS = ("cs", "math", "physics", "oceanography", "ops_research")
_GRADES = (("A", 4.0), ("B", 3.0), ("C", 2.0), ("D", 1.0), ("F", 0.0))
_SEMESTERS = ("fall", "winter", "spring", "summer")

#: Bearer token the benchmark's server clients authenticate with.
TOKEN = "mldsbench"


# -- generated populations ----------------------------------------------------


@dataclass
class Registrar:
    """A generated relational registrar (rows as column dicts)."""

    students: list[dict]
    courses: list[dict]
    enrollments: list[dict]


@dataclass
class School:
    """A generated dept -> course -> offering hierarchy.

    ``offerings[(dname, title)]`` lists each course's offerings in
    insertion (hierarchic) order.
    """

    departments: list[dict]
    courses: dict[str, list[dict]]
    offerings: dict[tuple[str, str], list[dict]]


@dataclass
class ReadData:
    """Everything a read workload's databases are loaded from."""

    university: UniversityData
    registrar: Registrar
    school: School


def generate_registrar(spec: dict, rng: random.Random) -> Registrar:
    students = [
        {"sid": sid, "sname": f"pupil_{sid}", "major": rng.choice(_MAJORS)}
        for sid in range(spec["students"])
    ]
    courses = [
        {"cid": cid, "title": f"course_{cid}", "credits": rng.randint(1, 5)}
        for cid in range(spec["courses"])
    ]
    enrollments = []
    for student in students:
        for cid in rng.sample(range(spec["courses"]), spec["enrollments_per_student"]):
            grade, points = rng.choice(_GRADES)
            enrollments.append(
                {"sid": student["sid"], "cid": cid, "grade": grade, "points": points}
            )
    return Registrar(students, courses, enrollments)


def generate_school(spec: dict, rng: random.Random) -> School:
    departments, courses, offerings = [], {}, {}
    for d in range(spec["departments"]):
        dname = f"dept_{d}"
        departments.append({"dname": dname, "budget": rng.randint(50, 500)})
        courses[dname] = []
        for c in range(spec["courses_per_department"]):
            title = f"c{d}_{c}"
            courses[dname].append({"title": title, "credits": rng.randint(1, 5)})
            offerings[(dname, title)] = [
                {"semester": rng.choice(_SEMESTERS), "instructor": f"inst_{rng.randrange(500)}"}
                for _ in range(spec["offerings_per_course"])
            ]
    return School(departments, courses, offerings)


def generate_read_data(databases: dict, seed: int) -> ReadData:
    rng = random.Random(seed)
    university = databases["university"]
    return ReadData(
        generate_university(
            persons=university["persons"],
            courses=university["courses"],
            departments=university["departments"],
            seed=seed,
        ),
        generate_registrar(databases["registrar"], rng),
        generate_school(databases["school"], rng),
    )


# -- loading -------------------------------------------------------------------


def bulk_load_table(mlds: MLDS, database: str, table: str, rows: list[dict]) -> None:
    """Insert *rows* as one kernel BULK-INSERT, keyed as SQL INSERT keys them.

    The SQL INSERT path probes the primary key with a full scan per row,
    which would make set-up quadratic in the table size; the generators
    already guarantee unique keys, so the rows go in as one batch built
    by the same relational mapping the SQL engine uses.
    """
    mapping = mlds.open_sql_session(database).engine.mapping
    records = [mapping.build_record(table, mapping.mint_key(table), row) for row in rows]
    mlds.kds.bulk_insert(records)


def load_school(mlds: MLDS, school: School) -> None:
    """Insert the school segment by segment through DL/I ISRT calls."""
    mlds.define_hierarchical_database(SCHOOL_DDL)
    dli = mlds.open_dli_session("school")
    for dept in school.departments:
        dname = dept["dname"]
        dli.run(f"FLD dname = '{dname}'; FLD budget = {dept['budget']}")
        _isrt(dli, "ISRT s_dept")
        for course in school.courses[dname]:
            title = course["title"]
            dli.run(f"FLD title = '{title}'; FLD credits = {course['credits']}")
            _isrt(dli, f"ISRT s_dept(dname = '{dname}') s_course")
            for offering in school.offerings[(dname, title)]:
                dli.run(
                    f"FLD semester = '{offering['semester']}'; "
                    f"FLD instructor = '{offering['instructor']}'"
                )
                _isrt(
                    dli,
                    f"ISRT s_dept(dname = '{dname}') s_course(title = '{title}') s_offering",
                )


def _isrt(dli, call: str) -> None:
    result = dli.execute(call)
    if not result.ok:
        raise RuntimeError(f"set-up call {call!r} failed with status {result.status!r}")


@dataclass
class ReadSystem:
    """One MLDS hosting the three read databases, with a session per language."""

    mlds: MLDS
    sessions: dict[str, Any]

    def close(self) -> None:
        self.mlds.kds.shutdown()


def build_read_system(spec: dict, data: ReadData) -> ReadSystem:
    mlds = MLDS(backend_count=spec["backends"], engine=spec["engine"])
    try:
        load_university(mlds, data.university)
        mlds.define_relational_database(REGISTRAR_DDL)
        registrar = data.registrar
        bulk_load_table(mlds, "registrar", "r_student", registrar.students)
        bulk_load_table(mlds, "registrar", "r_course", registrar.courses)
        bulk_load_table(mlds, "registrar", "r_enroll", registrar.enrollments)
        load_school(mlds, data.school)
        sessions = {
            "codasyl": mlds.open_codasyl_session("university", user="bench"),
            "daplex": mlds.open_daplex_session("university", user="bench"),
            "sql": mlds.open_sql_session("registrar", user="bench"),
            "dli": mlds.open_dli_session("school", user="bench"),
        }
    except BaseException:
        mlds.kds.shutdown()
        raise
    return ReadSystem(mlds, sessions)


# -- the served write system ----------------------------------------------------


def generate_shop_rows(rows: int, rng: random.Random) -> dict[int, int]:
    return {key: rng.randrange(1000) for key in range(rows)}


@dataclass
class ServedSystem:
    """An MLDSServer over a WAL-backed shop table, with connected clients."""

    mlds: MLDS
    wal: WalManager
    wal_dir: Path
    server: MLDSServer
    handle: Any
    clients: list[ServerClient] = field(default_factory=list)
    sessions: list[str] = field(default_factory=list)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.handle.stop()
        self.wal.close()
        self.mlds.kds.shutdown()


def build_served_system(spec: dict, rows: dict[int, int], wal_dir: Path) -> ServedSystem:
    """Load the table, then attach the WAL, checkpoint, serve and connect.

    The checkpoint gives recovery the schema and the loaded rows, so the
    WAL itself holds only the timed phase's transactions.
    """
    if wal_dir.exists():
        shutil.rmtree(wal_dir)
    backends = spec["backends"]
    mlds = MLDS(backend_count=backends, engine=spec["engine"])
    mlds.define_relational_database(SHOP_DDL)
    bulk_load_table(
        mlds, "shop", "item", [{"id": key, "qty": qty} for key, qty in rows.items()]
    )
    wal = WalManager(wal_dir, backends, sync=True, group_window_ms=0)
    mlds.attach_wal(wal)
    checkpoint_mlds(mlds)
    authenticator = Authenticator()
    authenticator.register(
        Credential(token=TOKEN, user="bench", max_sessions=spec["clients"] + 1)
    )
    server = MLDSServer(mlds, authenticator)
    handle = server.serve_in_thread()
    system = ServedSystem(mlds, wal, wal_dir, server, handle)
    try:
        for _ in range(spec["clients"]):
            client = ServerClient(handle.host, handle.port)
            system.clients.append(client)
            client.auth(TOKEN)
            system.sessions.append(client.open("sql", "shop"))
    except BaseException:
        system.close()
        raise
    return system


def table_contents(mlds: MLDS) -> dict[int, int]:
    rows = mlds.open_sql_session("shop").execute("SELECT id, qty FROM item").rows
    return {row["id"]: row["qty"] for row in rows}


# -- memory ----------------------------------------------------------------------


def _hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        if child.pid is not None:
            try:
                kib += _hwm_kib(child.pid)
            except OSError:
                continue
    return kib / 1024.0
