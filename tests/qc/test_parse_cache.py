"""Bounded memoization of ABDL and network-DML parsing."""

from __future__ import annotations

from repro.abdl.parser import parse_request
from repro.network import dml
from repro.qc import runtime as qc_runtime


ABDL = "RETRIEVE ((FILE = 'course') AND (credits > 2)) (*)"
DML = "FIND ANY course USING title IN course"


def test_parse_request_memoizes_exact_text():
    first = parse_request(ABDL)
    second = parse_request(ABDL)
    assert first is second
    assert parse_request(ABDL + " ") is not first  # exact text only
    cache = qc_runtime.request_parse_cache
    assert cache.hits == 1
    assert cache.misses == 2


def test_parse_request_bypasses_when_disabled():
    qc_runtime.apply_sizes("parse=0")
    first = parse_request(ABDL)
    second = parse_request(ABDL)
    assert first is not second
    assert first == second
    assert qc_runtime.request_parse_cache.misses == 0


def test_dml_statement_memoizes():
    first = dml.parse_statement(DML)
    second = dml.parse_statement(DML)
    assert first is second
    assert qc_runtime.dml_parse_cache.hits == 1


def test_dml_transaction_returns_fresh_list():
    text = DML + "\nGET"
    first = dml.parse_transaction(text)
    second = dml.parse_transaction(text)
    assert first is not second          # callers may mutate their list
    assert first == second
    assert [a is b for a, b in zip(first, second)] == [True, True]


def test_dml_statement_and_transaction_keys_do_not_collide():
    # The same source text parsed as a statement and as a transaction
    # must not serve each other's cached value.
    statement = dml.parse_statement(DML)
    transaction = dml.parse_transaction(DML)
    assert isinstance(transaction, list)
    assert transaction[0] is not None
    assert statement is not transaction


def test_parse_caches_respect_resize_to_zero(config):
    qc_runtime.apply_sizes("parse=0")
    first = parse_request(ABDL)
    second = parse_request(ABDL)
    assert first is not second
