"""Attribute-based records: ordered keyword lists plus a textual portion.

An ABDM record (thesis Figure 2.3) is a sequence of *keywords* — attribute
/value pairs — with at most one keyword per attribute, followed by an
optional free-text portion.  Keyword order is meaningful to the mappings:
the first pair is always ``(FILE, file-name)`` and, for records transformed
from a functional database, the second pair carries the record's database
key (``(entity-type, unique-key)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.abdm.values import Value, render

#: The distinguished attribute naming the file a record belongs to.
FILE_ATTRIBUTE = "FILE"


@dataclass(frozen=True)
class Keyword:
    """A single attribute-value pair."""

    attribute: str
    value: Value

    def render(self) -> str:
        """Render as ABDL keyword text, e.g. ``<title, 'Advanced Database'>``."""
        return f"<{self.attribute}, {render(self.value)}>"


class Record:
    """An ABDM record: ordered keywords plus an optional textual portion.

    The class enforces the at-most-one-keyword-per-attribute rule and keeps
    both the insertion order (for rendering and for the FILE/dbkey
    conventions) and a hash index (for predicate evaluation).
    """

    __slots__ = ("_order", "_index", "text")

    def __init__(
        self,
        keywords: Iterable[Keyword] = (),
        text: str = "",
    ) -> None:
        self._order: list[str] = []
        self._index: dict[str, Value] = {}
        self.text = text
        for keyword in keywords:
            self.set(keyword.attribute, keyword.value)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Value]], text: str = "") -> "Record":
        """Build a record from ``(attribute, value)`` tuples."""
        record = cls.__new__(cls)
        record._order = []
        record._index = {}
        record.text = text
        for attribute, value in pairs:
            if attribute not in record._index:
                record._order.append(attribute)
            record._index[attribute] = value
        return record

    @classmethod
    def from_shape(
        cls, order: Sequence[str], values: Iterable[Value], text: str = ""
    ) -> "Record":
        """Build a record from an attribute order and its values.

        The inverse of :meth:`shape`: *order* must name each attribute
        once, and *values* holds one value per attribute in that order.
        """
        record = cls.__new__(cls)
        record._order = list(order)
        record._index = dict(zip(order, values))
        record.text = text
        return record

    def shape(self) -> tuple[tuple[str, ...], list[Value]]:
        """Return ``(attribute order, values in that order)``."""
        index = self._index
        return tuple(self._order), [index[a] for a in self._order]

    # -- mapping-style access -------------------------------------------------

    def set(self, attribute: str, value: Value) -> None:
        """Set (or overwrite) the keyword for *attribute*."""
        if attribute not in self._index:
            self._order.append(attribute)
        self._index[attribute] = value

    def get(self, attribute: str, default: Value = None) -> Value:
        """Return the value paired with *attribute*, or *default*."""
        return self._index.get(attribute, default)

    def __getitem__(self, attribute: str) -> Value:
        return self._index[attribute]

    def keyword_map(self) -> dict[str, Value]:
        """The live attribute→value dict backing this record.

        This is the fast accessor compiled matchers evaluate against.
        Callers must treat it as read-only; mutate via :meth:`set` /
        :meth:`remove` so insertion order stays consistent.
        """
        return self._index

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._index

    def remove(self, attribute: str) -> None:
        """Drop the keyword for *attribute* if present."""
        if attribute in self._index:
            del self._index[attribute]
            self._order.remove(attribute)

    @property
    def attributes(self) -> list[str]:
        """Attribute names in insertion order."""
        return list(self._order)

    def keywords(self) -> Iterator[Keyword]:
        """Iterate the keywords in insertion order."""
        for attribute in self._order:
            yield Keyword(attribute, self._index[attribute])

    def pairs(self) -> list[tuple[str, Value]]:
        """Return ``(attribute, value)`` tuples in insertion order."""
        return [(a, self._index[a]) for a in self._order]

    # -- conventions ----------------------------------------------------------

    @property
    def file_name(self) -> Optional[str]:
        """The value of the FILE keyword, if any."""
        value = self._index.get(FILE_ATTRIBUTE)
        return value if isinstance(value, str) else None

    def copy(self) -> "Record":
        """Return an independent copy of this record."""
        twin = Record.__new__(Record)
        twin._order = list(self._order)
        twin._index = dict(self._index)
        twin.text = self.text
        return twin

    # -- dunder helpers -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.pairs() == other.pairs() and self.text == other.text

    def __hash__(self) -> int:
        return hash((tuple(self.pairs()), self.text))

    def __repr__(self) -> str:
        body = ", ".join(k.render() for k in self.keywords())
        if self.text:
            return f"Record({body} | {self.text!r})"
        return f"Record({body})"

    def render(self) -> str:
        """Render in ABDL insert-body form: ``(<a1, v1>, <a2, v2>, ...)``."""
        return "(" + ", ".join(k.render() for k in self.keywords()) + ")"
