"""Statement streams and the replies they must produce.

A read-workload statement is one LIL call: the text goes to one
session's ``run``, and the reply is the list of results it returns.
Each kind renders its text from a key and derives the expected reply
from the generated data, so every reply is checked against the
generators rather than against another run of the system.

The stream repeats a fixed cycle of kinds (:data:`CYCLE`); only the keys
come from the seed.  Nine statements per cycle, and an odd count per
language where a language has several kinds, keep every median inside
one kind's latency distribution instead of on the edge between two; on
read-hot the overall median is the middle of the single DL/I kind.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

from systems import ReadData

#: (language, kind) in the order one cycle issues them.
CYCLE = (
    ("codasyl", "codasyl_point"),
    ("sql", "sql_point"),
    ("daplex", "daplex_path"),
    ("codasyl", "codasyl_rank"),
    ("sql", "sql_join"),
    ("dli", "dli_path"),
    ("codasyl", "codasyl_point"),
    ("sql", "sql_group"),
    ("daplex", "daplex_path"),
)

LANGUAGES = ("codasyl", "daplex", "sql", "dli")

#: Students per DAPLEX key: a kind's cost grows with its reply, so every
#: key of a kind is chosen to return the same number of rows.
DAPLEX_ROWS = 2


@dataclass(frozen=True)
class Statement:
    language: str
    kind: str
    text: str
    expected: Any


def _values(result) -> tuple:
    return tuple(sorted(result.values.items()))


def _rows(rows: list[dict], columns: tuple) -> tuple:
    return tuple(sorted(tuple(row[c] for c in columns) for row in rows))


class ReadKinds:
    """Key pools, renderers and observers for the read statement kinds."""

    def __init__(self, data: ReadData) -> None:
        self.data = data
        persons = data.university.persons
        self._rank_of = {f"person${i + 1}": p.rank for i, p in enumerate(persons) if p.is_faculty}
        students = [p for p in persons if p.is_student]
        self._pair_rows: dict[tuple, list] = {}
        for person in students:
            pair = (person.gpa, person.major)
            advisor = persons[person.advisor_index]
            dept = data.university.departments[advisor.dept_index]
            self._pair_rows.setdefault(pair, []).append(
                (person.name, person.gpa, advisor.name, dept.dname)
            )
        registrar = data.registrar
        self._students = {s["sid"]: s for s in registrar.students}
        self._enrolled: dict[int, list[dict]] = {}
        for row in registrar.enrollments:
            self._enrolled.setdefault(row["cid"], []).append(row)
        self.pools: dict[str, list] = {
            "codasyl_point": [i for i, p in enumerate(persons) if p.is_student],
            "codasyl_rank": sorted({p.rank for p in persons if p.is_faculty}),
            "daplex_path": sorted(
                pair for pair, rows in self._pair_rows.items() if len(rows) == DAPLEX_ROWS
            ),
            "sql_point": sorted(self._students),
            "sql_join": sorted(self._enrolled),
            "sql_group": sorted(self._enrolled),
            "dli_path": sorted(data.school.offerings),
        }

    # -- rendering: (text, expected) per kind ------------------------------------

    def render(self, language: str, kind: str, key) -> Statement:
        text, expected = getattr(self, f"_render_{kind}")(key)
        return Statement(language, kind, text, expected)

    def observe(self, kind: str, results: list) -> Any:
        """The part of a reply the expected value describes."""
        return getattr(self, f"_observe_{kind}")(results)

    def _render_codasyl_point(self, index: int):
        university = self.data.university
        person = university.persons[index]
        advisor = university.persons[person.advisor_index]
        key = f"person${index + 1}"
        text = (
            f"MOVE '{person.name}' TO name IN person; "
            "FIND ANY person USING name IN person; GET person; "
            "FIND FIRST student WITHIN person_student; GET student; "
            "FIND OWNER WITHIN advisor; GET faculty"
        )
        expected = (
            {"person": key, "name": person.name, "age": person.age},
            {"student": key, "major": person.major, "gpa": person.gpa},
            {"faculty": f"person${person.advisor_index + 1}", "rank": advisor.rank},
        )
        return text, (True, tuple(tuple(sorted(e.items())) for e in expected))

    def _observe_codasyl_point(self, results):
        gets = tuple(_values(r) for r in results if r.statement.startswith("GET"))
        return all(r.ok for r in results), gets

    def _render_codasyl_rank(self, rank: str):
        text = (
            f"MOVE '{rank}' TO rank IN faculty; "
            "FIND ANY faculty USING rank IN faculty; GET faculty"
        )
        return text, (True, rank, rank)

    def _observe_codasyl_rank(self, results):
        values = results[-1].values
        return (
            all(r.ok for r in results),
            values.get("rank"),
            self._rank_of.get(values.get("faculty")),
        )

    def _render_daplex_path(self, pair):
        gpa, major = pair
        text = (
            f"FOR EACH s IN student SUCH THAT gpa(s) = {gpa} AND major(s) = '{major}' "
            "PRINT name(s), gpa(s), name(advisor(s)), dname(dept(advisor(s)));"
        )
        return text, tuple(sorted(self._pair_rows[pair]))

    def _observe_daplex_path(self, results):
        return _rows(
            results[0].rows,
            ("name(s)", "gpa(s)", "name(advisor(s))", "dname(dept(advisor(s)))"),
        )

    def _render_sql_point(self, sid: int):
        student = self._students[sid]
        text = f"SELECT sname, major FROM r_student WHERE sid = {sid}"
        return text, ((student["sname"], student["major"]),)

    def _observe_sql_point(self, results):
        return _rows(results[0].rows, ("sname", "major"))

    def _render_sql_join(self, cid: int):
        text = (
            "SELECT sname, grade FROM r_student, r_enroll "
            f"WHERE r_student.sid = r_enroll.sid AND cid = {cid}"
        )
        rows = [(self._students[e["sid"]]["sname"], e["grade"]) for e in self._enrolled[cid]]
        return text, tuple(sorted(rows))

    def _observe_sql_join(self, results):
        return _rows(results[0].rows, ("sname", "grade"))

    def _render_sql_group(self, cid: int):
        text = (
            "SELECT grade, COUNT(*), AVG(points) FROM r_enroll "
            f"WHERE cid = {cid} GROUP BY grade"
        )
        groups: dict[str, list[float]] = {}
        for row in self._enrolled[cid]:
            groups.setdefault(row["grade"], []).append(row["points"])
        rows = [
            (grade, len(points), round(sum(points) / len(points), 9))
            for grade, points in groups.items()
        ]
        return text, tuple(sorted(rows))

    def _observe_sql_group(self, results):
        return tuple(
            sorted(
                (row["grade"], row["COUNT(*)"], round(row["AVG(points)"], 9))
                for row in results[0].rows
            )
        )

    def _render_dli_path(self, key):
        dname, title = key
        offerings = self.data.school.offerings[key]
        credits = next(
            c["credits"] for c in self.data.school.courses[dname] if c["title"] == title
        )
        calls = [f"GU s_dept(dname = '{dname}') s_course(title = '{title}')"]
        calls += ["GNP s_offering"] * (len(offerings) + 1)
        expected = [(True, (("credits", credits), ("title", title)))]
        expected += [(True, tuple(sorted(o.items()))) for o in offerings]
        expected.append((False, ()))
        return "; ".join(calls), tuple(expected)

    def _observe_dli_path(self, results):
        return tuple(
            (r.ok, tuple(sorted(r.fields.items())) if r.ok else ()) for r in results
        )


def read_stream(
    kinds: ReadKinds, seed: int, cycles: int, working_set: int | None
) -> tuple[list[Statement], list[Statement]]:
    """The timed stream and its untimed warm-up, both drawn from *seed*.

    The stream is *cycles* repetitions of :data:`CYCLE`.  With
    *working_set*, each kind draws from that many keys only, and the
    warm-up issues every one of them, so the stream's distinct statements
    are cached before timing starts; without it every key of the kind's
    pool is eligible and the warm-up issues one statement per kind.
    """
    rng = random.Random(seed)
    if working_set:
        pools = {
            kind: rng.sample(pool, min(working_set, len(pool)))
            for kind, pool in kinds.pools.items()
        }
        warm_keys = pools
    else:
        pools = kinds.pools
        warm_keys = {kind: [rng.choice(pool)] for kind, pool in pools.items()}
    language_of = {kind: language for language, kind in CYCLE}
    warm = [
        kinds.render(language_of[kind], kind, key)
        for kind, keys in warm_keys.items()
        for key in keys
    ]
    stream = [
        kinds.render(language, kind, rng.choice(pools[kind]))
        for _ in range(cycles)
        for language, kind in CYCLE
    ]
    return stream, warm


def faculty_per_rank(data: ReadData) -> dict[str, int]:
    return dict(Counter(p.rank for p in data.university.persons if p.is_faculty))


# -- the served write mix -------------------------------------------------------

#: One client's cycle of operations: 50% reads, 40% updates, 10% inserts.
WRITE_CYCLE = ("select", "update", "select", "update", "select",
               "update", "select", "update", "select", "insert")


@dataclass(frozen=True)
class WriteOp:
    kind: str
    key: int
    value: int


def write_stream(
    seed: int, client: int, rows: int, ops: int, new_key_base: int
) -> list[WriteOp]:
    """*ops* operations for one client.

    Update values encode (client, op index) so the final table tells
    which acknowledged commit wrote each row; insert keys come from a
    range of the client's own so two clients never collide.
    """
    rng = random.Random((seed << 8) ^ (client + 1))
    stream = []
    inserted = 0
    for index in range(ops):
        kind = WRITE_CYCLE[index % len(WRITE_CYCLE)]
        value = 1_000_000 * (client + 1) + index
        if kind == "insert":
            key = new_key_base + client * 1_000_000 + inserted
            inserted += 1
        else:
            key = rng.randrange(rows)
        stream.append(WriteOp(kind, key, value))
    return stream


def sql_text(op: WriteOp) -> str:
    if op.kind == "select":
        return f"SELECT qty FROM item WHERE id = {op.key}"
    if op.kind == "update":
        return f"UPDATE item SET qty = {op.value} WHERE id = {op.key}"
    return f"INSERT INTO item VALUES ({op.key}, {op.value})"


def replay_commits(initial: dict[int, int], commits: list[tuple[int, WriteOp]]) -> dict[int, int]:
    """The table after applying acknowledged commits in commit_seq order."""
    table = dict(initial)
    for _seq, op in sorted(commits, key=lambda item: item[0]):
        table[op.key] = op.value
    return table

