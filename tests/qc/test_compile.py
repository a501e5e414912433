"""Compiled matchers agree with the interpreted path, byte for byte."""

from __future__ import annotations

import pytest

from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.qc.compile import CompiledQuery, compile_query


def record(**attrs) -> Record:
    return Record.from_pairs(attrs.items())


# (query, record) pairs covering every operator/domain corner the
# interpreted comparator (repro.abdm.values.compare) defines.
CASES = [
    (Query.single("a", "=", 1), record(a=1)),
    (Query.single("a", "=", 1), record(a=2)),
    (Query.single("a", "=", 1), record(b=1)),            # attribute absent
    (Query.single("a", "=", 1.0), record(a=1)),          # int/float equality
    (Query.single("a", "=", "x"), record(a="x")),
    (Query.single("a", "=", "1"), record(a=1)),          # mixed domains unequal
    (Query.single("a", "=", None), record(a=None)),      # null equals only null
    (Query.single("a", "=", None), record(a=0)),
    (Query.single("a", "!=", 1), record(a=2)),
    (Query.single("a", "!=", 1), record(b=2)),           # absent: no match even for !=
    (Query.single("a", "!=", None), record(a=1)),
    (Query.single("a", "<", 5), record(a=3)),
    (Query.single("a", "<", 5), record(a=5)),
    (Query.single("a", "<", 5), record(a="3")),          # str vs num incomparable
    (Query.single("a", "<", "m"), record(a="b")),        # string ordering
    (Query.single("a", ">=", 5.0), record(a=5)),
    (Query.single("a", ">", None), record(a=1)),         # null never comparable
    (Query.single("a", "<=", float("nan")), record(a=1)),
    (Query((Conjunction(()),)), record(a=1)),            # empty clause: matches all
    (Query(()), record(a=1)),                            # empty query: matches none
    (
        Query.conjunction(
            [Predicate("a", "=", 1), Predicate("b", ">", 2), Predicate("c", "!=", "x")]
        ),
        record(a=1, b=3, c="y"),
    ),
    (
        Query(
            (
                Conjunction([Predicate("a", "=", 1)]),
                Conjunction([Predicate("b", "<", 0)]),
            )
        ),
        record(b=-1),
    ),
]


@pytest.mark.parametrize("query,rec", CASES)
def test_compiled_agrees_with_interpreted(query, rec):
    assert compile_query(query).matches(rec) == query.matches(rec)


def test_compiled_query_exposes_source():
    query = Query.single("a", "=", 1)
    compiled = compile_query(query)
    assert isinstance(compiled, CompiledQuery)
    assert compiled.query is query
    assert compiled.source == query.render()


def test_store_matcher_caches_compilations():
    store = ABStore()
    query = Query.single("a", "=", 1)
    first = store.matcher(query)
    second = store.matcher(Query.single("a", "=", 1))  # equal, distinct object
    assert first.__self__ is second.__self__  # same CompiledQuery reused
    snap = store.cache_snapshot()
    assert snap["misses"] == 1
    assert snap["hits"] == 1


def test_store_matcher_distinguishes_empty_query_from_empty_clause():
    # Both render "()" — one matches nothing, the other everything.
    store = ABStore()
    rec = record(a=1)
    match_none = store.matcher(Query(()))
    match_all = store.matcher(Query((Conjunction(()),)))
    assert match_none is not match_all
    assert not match_none(rec)
    assert match_all(rec)


def test_disabled_compile_falls_back_to_interpreted(config):
    query = Query.single("a", "=", 1)
    config.sizes["compile"] = 0
    store = ABStore()
    assert store.matcher(query) == query.matches
    assert store.cache_snapshot()["misses"] == 0
    config.reset()
    assert ABStore().matcher(query) != query.matches


def test_zero_size_compile_cache_disables_compilation(config):
    config.sizes["compile"] = 0
    store = ABStore()
    query = Query.single("a", "=", 1)
    assert store.matcher(query) == query.matches


def test_store_find_results_identical_with_and_without_compile(config):
    store = ABStore()
    for i in range(20):
        store.insert(record(FILE="f", n=i, parity=i % 2))
    query = Query.conjunction(
        [Predicate("FILE", "=", "f"), Predicate("parity", "=", 0), Predicate("n", ">", 4)]
    )
    compiled = [r.pairs() for r in store.find(query)]
    config.sizes["compile"] = 0
    interpreting = ABStore()
    for abrecord in store.all_records():
        interpreting.insert(abrecord.copy())
    interpreted = [r.pairs() for r in interpreting.find(query)]
    assert interpreting.matcher(query) == query.matches
    assert compiled == interpreted
