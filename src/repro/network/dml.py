"""CODASYL-DML statements: ASTs and parser.

MLDS restricts itself to the DML subset of the thesis (Chapter II.B.2):
FIND (six variants), GET (three forms), STORE, CONNECT, DISCONNECT,
MODIFY and ERASE [ALL].  The host-language MOVE statement is also parsed,
since the thesis's transactions use it to initialize the user work area
before FIND ANY / STORE:

.. code-block:: text

    MOVE 'Advanced Database' TO title IN course
    FIND ANY course USING title IN course
    FIND CURRENT student WITHIN person_student
    FIND DUPLICATE WITHIN dept USING rank IN faculty
    FIND FIRST student WITHIN person_student
    FIND NEXT student WITHIN person_student
    FIND OWNER WITHIN advisor
    FIND student WITHIN advisor CURRENT USING major IN student
    GET
    GET student
    GET name, major IN student
    STORE course
    CONNECT support_staff TO supervisor
    DISCONNECT support_staff FROM supervisor
    MODIFY course
    MODIFY title, credits IN course
    ERASE course
    ERASE ALL course

Statements are newline- or semicolon-separated; ``parse_statement``
handles a single statement, ``parse_transaction`` a sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.abdm.values import Value
from repro.errors import ParseError
from repro.lang.lexer import Lexer, TokenStream, TokenType
from repro.qc.lru import MISSING
from repro.qc import runtime as qc_runtime


class Position(enum.Enum):
    """Positional FIND selector."""

    FIRST = "FIRST"
    LAST = "LAST"
    NEXT = "NEXT"
    PRIOR = "PRIOR"


class Statement:
    """Base class for DML statements."""

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class MoveStatement(Statement):
    """``MOVE value TO item IN record`` — host-language UWA assignment."""

    value: Value
    item: str
    record: str

    def render(self) -> str:
        from repro.abdm.values import render as render_value

        return f"MOVE {render_value(self.value)} TO {self.item} IN {self.record}"


@dataclass(frozen=True)
class FindAny(Statement):
    """``FIND ANY record USING item_1, ..., item_n IN record``."""

    record: str
    items: tuple[str, ...]

    def __init__(self, record: str, items: Sequence[str]) -> None:
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "items", tuple(items))

    def render(self) -> str:
        return f"FIND ANY {self.record} USING {', '.join(self.items)} IN {self.record}"


@dataclass(frozen=True)
class FindCurrent(Statement):
    """``FIND CURRENT record WITHIN set`` — currency bookkeeping only."""

    record: str
    set_name: str

    def render(self) -> str:
        return f"FIND CURRENT {self.record} WITHIN {self.set_name}"


@dataclass(frozen=True)
class FindDuplicate(Statement):
    """``FIND DUPLICATE WITHIN set USING items IN record``."""

    set_name: str
    items: tuple[str, ...]
    record: str

    def __init__(self, set_name: str, items: Sequence[str], record: str) -> None:
        object.__setattr__(self, "set_name", set_name)
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "record", record)

    def render(self) -> str:
        return (
            f"FIND DUPLICATE WITHIN {self.set_name} "
            f"USING {', '.join(self.items)} IN {self.record}"
        )


@dataclass(frozen=True)
class FindPositional(Statement):
    """``FIND FIRST/LAST/NEXT/PRIOR record WITHIN set``."""

    position: Position
    record: str
    set_name: str

    def render(self) -> str:
        return f"FIND {self.position.value} {self.record} WITHIN {self.set_name}"


@dataclass(frozen=True)
class FindOwner(Statement):
    """``FIND OWNER WITHIN set``."""

    set_name: str

    def render(self) -> str:
        return f"FIND OWNER WITHIN {self.set_name}"


@dataclass(frozen=True)
class FindWithinCurrent(Statement):
    """``FIND record WITHIN set CURRENT USING items IN record``."""

    record: str
    set_name: str
    items: tuple[str, ...]

    def __init__(self, record: str, set_name: str, items: Sequence[str]) -> None:
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "set_name", set_name)
        object.__setattr__(self, "items", tuple(items))

    def render(self) -> str:
        return (
            f"FIND {self.record} WITHIN {self.set_name} CURRENT "
            f"USING {', '.join(self.items)} IN {self.record}"
        )


@dataclass(frozen=True)
class Get(Statement):
    """The three GET forms: bare, ``GET record``, ``GET items IN record``."""

    record: Optional[str] = None
    items: tuple[str, ...] = ()

    def __init__(self, record: Optional[str] = None, items: Sequence[str] = ()) -> None:
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "items", tuple(items))

    def render(self) -> str:
        if self.items:
            return f"GET {', '.join(self.items)} IN {self.record}"
        if self.record:
            return f"GET {self.record}"
        return "GET"


@dataclass(frozen=True)
class Store(Statement):
    """``STORE record`` — create a record from the UWA template."""

    record: str

    def render(self) -> str:
        return f"STORE {self.record}"


@dataclass(frozen=True)
class Connect(Statement):
    """``CONNECT record TO set_1, ..., set_n``."""

    record: str
    sets: tuple[str, ...]

    def __init__(self, record: str, sets: Sequence[str]) -> None:
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "sets", tuple(sets))

    def render(self) -> str:
        return f"CONNECT {self.record} TO {', '.join(self.sets)}"


@dataclass(frozen=True)
class Disconnect(Statement):
    """``DISCONNECT record FROM set_1, ..., set_n``."""

    record: str
    sets: tuple[str, ...]

    def __init__(self, record: str, sets: Sequence[str]) -> None:
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "sets", tuple(sets))

    def render(self) -> str:
        return f"DISCONNECT {self.record} FROM {', '.join(self.sets)}"


@dataclass(frozen=True)
class Modify(Statement):
    """``MODIFY record`` or ``MODIFY items IN record``."""

    record: str
    items: tuple[str, ...] = ()

    def __init__(self, record: str, items: Sequence[str] = ()) -> None:
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "items", tuple(items))

    def render(self) -> str:
        if self.items:
            return f"MODIFY {', '.join(self.items)} IN {self.record}"
        return f"MODIFY {self.record}"


@dataclass(frozen=True)
class Erase(Statement):
    """``ERASE record`` or ``ERASE ALL record``."""

    record: str
    all: bool = False

    def render(self) -> str:
        return f"ERASE ALL {self.record}" if self.all else f"ERASE {self.record}"


AnyStatement = Union[
    MoveStatement,
    FindAny,
    FindCurrent,
    FindDuplicate,
    FindPositional,
    FindOwner,
    FindWithinCurrent,
    Get,
    Store,
    Connect,
    Disconnect,
    Modify,
    Erase,
]

_KEYWORDS = (
    "MOVE",
    "TO",
    "IN",
    "FIND",
    "ANY",
    "CURRENT",
    "DUPLICATE",
    "WITHIN",
    "USING",
    "FIRST",
    "LAST",
    "NEXT",
    "PRIOR",
    "OWNER",
    "GET",
    "STORE",
    "CONNECT",
    "DISCONNECT",
    "FROM",
    "MODIFY",
    "ERASE",
    "ALL",
    "NULL",
)

_SYMBOLS = (",", ";", "(", ")", "-", ".")

_lexer = Lexer(_KEYWORDS, _SYMBOLS)


def parse_statement(text: str) -> Statement:
    """Parse a single DML statement.

    Memoized on exact source text (statements are immutable ASTs; the
    engines read them without mutation).
    """
    cache = qc_runtime.dml_parse_cache
    key = ("stmt", text)
    cached = cache.get(key)
    if cached is not MISSING:
        return cached
    statement = _parse_statement_text(text)
    cache.put(key, statement)
    return statement


def _parse_statement_text(text: str) -> Statement:
    stream = TokenStream(_lexer.tokenize(text))
    statement = _parse_statement(stream)
    stream.accept_symbol(";")
    stream.expect_eof()
    return statement


def parse_transaction(text: str) -> list[Statement]:
    """Parse a sequence of statements separated by newlines or semicolons.

    Memoized like :func:`parse_statement`; the cache stores a tuple and
    hands each caller a fresh list so callers may extend/slice freely.
    """
    cache = qc_runtime.dml_parse_cache
    key = ("txn", text)
    cached = cache.get(key)
    if cached is not MISSING:
        return list(cached)
    statements = _parse_transaction_text(text)
    cache.put(key, tuple(statements))
    return statements


def _parse_transaction_text(text: str) -> list[Statement]:
    stream = TokenStream(_lexer.tokenize(text))
    statements: list[Statement] = []
    while not stream.at_end():
        statements.append(_parse_statement(stream))
        stream.accept_symbol(";")
    return statements


def _parse_statement(stream: TokenStream) -> Statement:
    if stream.accept_keyword("MOVE"):
        return _parse_move(stream)
    if stream.accept_keyword("FIND"):
        return _parse_find(stream)
    if stream.accept_keyword("GET"):
        return _parse_get(stream)
    if stream.accept_keyword("STORE"):
        return Store(stream.expect_ident("record name").text)
    if stream.accept_keyword("CONNECT"):
        record = stream.expect_ident("record name").text
        stream.expect_keyword("TO")
        return Connect(record, _parse_name_list(stream))
    if stream.accept_keyword("DISCONNECT"):
        record = stream.expect_ident("record name").text
        stream.expect_keyword("FROM")
        return Disconnect(record, _parse_name_list(stream))
    if stream.accept_keyword("MODIFY"):
        return _parse_modify(stream)
    if stream.accept_keyword("ERASE"):
        if stream.accept_keyword("ALL"):
            return Erase(stream.expect_ident("record name").text, all=True)
        return Erase(stream.expect_ident("record name").text)
    raise stream.error("expected a CODASYL-DML statement")


def _parse_move(stream: TokenStream) -> MoveStatement:
    token = stream.current
    value: Value
    if token.type is TokenType.STRING or token.type is TokenType.NUMBER:
        stream.advance()
        value = token.value  # type: ignore[assignment]
    elif stream.accept_symbol("-"):
        number = stream.current
        if number.type is not TokenType.NUMBER:
            raise stream.error("expected a number after unary minus")
        stream.advance()
        value = -number.value  # type: ignore[operator]
    elif stream.accept_keyword("NULL"):
        value = None
    else:
        raise stream.error("expected a literal value after MOVE")
    stream.expect_keyword("TO")
    item = stream.expect_ident("data item name").text
    stream.expect_keyword("IN")
    record = stream.expect_ident("record name").text
    return MoveStatement(value, item, record)


def _parse_find(stream: TokenStream) -> Statement:
    if stream.accept_keyword("ANY"):
        record = stream.expect_ident("record name").text
        stream.expect_keyword("USING")
        items = _parse_name_list(stream)
        stream.expect_keyword("IN")
        in_record = stream.expect_ident("record name").text
        if in_record != record:
            raise ParseError(
                f"FIND ANY {record} names a different record in its USING clause "
                f"({in_record})"
            )
        return FindAny(record, items)
    if stream.accept_keyword("CURRENT"):
        record = stream.expect_ident("record name").text
        stream.expect_keyword("WITHIN")
        return FindCurrent(record, stream.expect_ident("set name").text)
    if stream.accept_keyword("DUPLICATE"):
        stream.expect_keyword("WITHIN")
        set_name = stream.expect_ident("set name").text
        stream.expect_keyword("USING")
        items = _parse_name_list(stream)
        stream.expect_keyword("IN")
        record = stream.expect_ident("record name").text
        return FindDuplicate(set_name, items, record)
    if stream.at_keyword("FIRST", "LAST", "NEXT", "PRIOR"):
        position = Position[stream.advance().text]
        record = stream.expect_ident("record name").text
        stream.expect_keyword("WITHIN")
        return FindPositional(position, record, stream.expect_ident("set name").text)
    if stream.accept_keyword("OWNER"):
        stream.expect_keyword("WITHIN")
        return FindOwner(stream.expect_ident("set name").text)
    # FIND record WITHIN set CURRENT USING items IN record
    record = stream.expect_ident("record name").text
    stream.expect_keyword("WITHIN")
    set_name = stream.expect_ident("set name").text
    stream.expect_keyword("CURRENT")
    stream.expect_keyword("USING")
    items = _parse_name_list(stream)
    stream.expect_keyword("IN")
    in_record = stream.expect_ident("record name").text
    if in_record != record:
        raise ParseError(
            f"FIND {record} WITHIN {set_name} CURRENT names a different record "
            f"in its USING clause ({in_record})"
        )
    return FindWithinCurrent(record, set_name, items)


#: Keywords that begin a statement; a bare GET is followed by one of these
#: (or by end of input) in a multi-statement transaction.
_STATEMENT_STARTERS = (
    "MOVE",
    "FIND",
    "GET",
    "STORE",
    "CONNECT",
    "DISCONNECT",
    "MODIFY",
    "ERASE",
)


def _parse_get(stream: TokenStream) -> Get:
    token = stream.current
    if (
        token.type is TokenType.EOF
        or stream.at_symbol(";")
        or stream.at_keyword(*_STATEMENT_STARTERS)
    ):
        return Get()
    first = stream.expect_ident("record or data item name").text
    if stream.at_symbol(",") or stream.at_keyword("IN"):
        items = [first]
        while stream.accept_symbol(","):
            items.append(stream.expect_ident("data item name").text)
        stream.expect_keyword("IN")
        record = stream.expect_ident("record name").text
        return Get(record, items)
    return Get(first)


def _parse_modify(stream: TokenStream) -> Modify:
    first = stream.expect_ident("record or data item name").text
    if stream.at_symbol(",") or stream.at_keyword("IN"):
        items = [first]
        while stream.accept_symbol(","):
            items.append(stream.expect_ident("data item name").text)
        stream.expect_keyword("IN")
        record = stream.expect_ident("record name").text
        return Modify(record, items)
    return Modify(first)


def _parse_name_list(stream: TokenStream) -> list[str]:
    names = [stream.expect_ident("name").text]
    while stream.accept_symbol(","):
        names.append(stream.expect_ident("name").text)
    return names
