"""KMS translation caches: currency-independent statement translations only."""

from __future__ import annotations

import pytest

from repro import MLDS
from repro.university import generate_university, load_university


SQL_DDL = """
DATABASE registrar;
CREATE TABLE student (sid INT, sname CHAR(30), major CHAR(20), PRIMARY KEY (sid));
"""


@pytest.fixture()
def university():
    mlds = MLDS(backend_count=2)
    load_university(mlds, generate_university(persons=24, courses=8, seed=13))
    return mlds


class TestFindAnyAdapterCache:
    def test_find_any_query_is_shared(self, university):
        adapter = university.open_codasyl_session("university").engine.adapter
        assert adapter.caches_translations
        first = adapter.find_any_query("student")
        second = adapter.find_any_query("student")
        assert first is second
        snap = adapter.translation_cache_snapshot()
        assert snap["misses"] == 1
        assert snap["hits"] == 1

    def test_uwa_values_are_part_of_the_key(self, university):
        from repro.abdm.predicate import Predicate

        adapter = university.open_codasyl_session("university").engine.adapter
        by_name = adapter.find_any_query("person", [Predicate("name", "=", "Ann")])
        other = adapter.find_any_query("person", [Predicate("name", "=", "Bob")])
        assert by_name is not other
        assert by_name.render() != other.render()

    def test_disabled_flag_bypasses(self, university, config):
        config.sizes["translate"] = 0
        adapter = university.open_codasyl_session("university").engine.adapter
        first = adapter.find_any_query("student")
        second = adapter.find_any_query("student")
        assert first is not second
        assert first == second
        assert adapter.translation_cache_snapshot()["misses"] == 0

    def test_invalidate_drops_entries(self, university):
        adapter = university.open_codasyl_session("university").engine.adapter
        adapter.find_any_query("student")
        adapter.invalidate_translations()
        adapter.find_any_query("student")
        assert adapter.translation_cache_snapshot()["misses"] == 2

    def test_fresh_session_has_a_fresh_cache(self, university):
        # Sessions opened after a schema (re)load never see stale entries:
        # every session constructs its own adapter and cache.
        first = university.open_codasyl_session("university").engine.adapter
        first.find_any_query("student")
        second = university.open_codasyl_session("university").engine.adapter
        assert second.translation_cache_snapshot()["size"] == 0

    def test_find_any_results_identical_with_and_without_cache(self, university, config):
        session = university.open_codasyl_session("university")
        text = (
            "MOVE 'computer science' TO major IN student\n"
            "FIND ANY student USING major IN student\n"
            "GET"
        )
        cached = session.run(text)
        config.sizes["translate"] = 0
        uncached = university.open_codasyl_session("university").run(text)
        assert [(r.status, r.dbkey, r.values) for r in cached] == [
            (r.status, r.dbkey, r.values) for r in uncached
        ]


class TestSqlPlanCache:
    def test_repeated_select_reuses_plan(self):
        mlds = MLDS(backend_count=2)
        mlds.define_relational_database(SQL_DDL)
        session = mlds.open_sql_session("registrar")
        session.run("INSERT INTO student VALUES (1, 'Ann', 'cs');")
        query = "SELECT sname FROM student WHERE major = 'cs'"
        first = session.execute(query)
        second = session.execute(query)
        assert first.rows == second.rows
        snap = session.engine.translation_cache_snapshot()
        assert snap["misses"] == 1
        assert snap["hits"] == 1

    def test_plan_reuse_does_not_leak_column_mutation(self):
        # GROUP BY inserts the group column; a cached plan must not
        # accumulate it across executions.
        mlds = MLDS(backend_count=2)
        mlds.define_relational_database(SQL_DDL)
        session = mlds.open_sql_session("registrar")
        session.run(
            "INSERT INTO student VALUES (1, 'Ann', 'cs');"
            "INSERT INTO student VALUES (2, 'Bob', 'cs');"
        )
        query = "SELECT major, COUNT(*) FROM student GROUP BY major"
        first = session.execute(query)
        second = session.execute(query)
        assert first.columns == second.columns
        assert first.rows == second.rows


class TestDaplexSplitCache:
    def test_repeated_for_each_reuses_split(self, university):
        session = university.open_daplex_session("university")
        statement = (
            "FOR EACH s IN student SUCH THAT major(s) = 'computer science' "
            "PRINT gpa(s);"
        )
        first = session.execute(statement)
        second = session.execute(statement)
        assert first.rows == second.rows
        snap = session.engine.translation_cache_snapshot()
        assert snap["hits"] >= 1

    def test_invalidate_translations(self, university):
        session = university.open_daplex_session("university")
        statement = "FOR EACH s IN student SUCH THAT gpa(s) > 2.0 PRINT gpa(s);"
        session.execute(statement)
        session.engine.invalidate_translations()
        assert session.engine.translation_cache_snapshot()["size"] == 0
        after = session.execute(statement)
        assert after.rows
