"""Per-backend content summaries for broadcast pruning.

MBDS broadcasts every non-INSERT request to every backend, and each
backend charges at least one disk access even when its slice cannot
possibly hold a qualifying record.  A :class:`BackendSummary` is the
controller-side digest of one backend's store that lets the controller
skip such backends entirely:

* **file names** — the files with at least one resident record.  A
  clause whose ``FILE =`` pins name files absent from the backend cannot
  select anything there.
* **descriptor-id sets** — when the backend runs a
  :class:`~repro.abdm.directory.ClusteredStore`, the per-file,
  per-directory-attribute union of descriptor ids over its non-empty
  clusters.  A clause whose descriptor search is incompatible with every
  resident cluster cannot select anything either.
* **value ranges** — per file, per attribute, the observed min/max per
  order domain plus null/NaN presence (:class:`AttributeRange`).  A
  clause containing ``GPA >= 3.5`` cannot select anything on a backend
  whose resident GPA values top out at 3.1 — no directory required.

All three checks are *relaxations* of the store's own record matching
(file bucketing, cluster compatibility, :mod:`repro.abdm.values`
predicate semantics), so pruning can never change a request's result —
it only removes backends whose contribution would have been empty.
Pruned backends are charged zero simulated time, which is exactly what
the paper's directory is for: spend a cheap descriptor search to avoid
an expensive record scan.

Summaries are built lazily from the store and cached **per file** by
:class:`SummaryCache`, each digest stamped with the file's mutation
epochs (:meth:`~repro.abdm.store.ABStore.epoch_signature`) — the same
staleness rule the result cache uses.  Every store edit bumps an epoch,
whether it came through a request, replay, an abort's file restore or
a direct ``backend.store`` call, so a digest can never outlive the
contents it describes, and a write to ``COURSE`` never forces
re-summarizing ``STUDENT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.abdm.directory import ClusteredStore, Directory
from repro.abdm.predicate import Conjunction, Query
from repro.abdm.store import ABStore
from repro.abdm.values import Value, compare, is_nan, order_domain


@dataclass(frozen=True)
class AttributeRange:
    """Observed value extent of one attribute within one file.

    Min/max are tracked per order domain (numbers and strings order
    independently); *has_null* / *has_nan* record the presence of values
    that no ordering predicate can select.
    """

    num_min: Value = None
    num_max: Value = None
    str_min: Optional[str] = None
    str_max: Optional[str] = None
    has_null: bool = False
    has_nan: bool = False

    def may_satisfy(self, operator: str, value: Value) -> bool:
        """False only when *no* resident value can satisfy the predicate.

        Mirrors :func:`repro.abdm.values.compare`: ``=`` needs the query
        value inside the matching domain's extent (null only when nulls
        are resident; NaN equals nothing); ordering operators need the
        domain extent to reach past the bound; ``!=`` is conservatively
        satisfiable whenever the attribute is resident at all.
        """
        if operator == "!=":
            return True
        if operator == "=":
            if value is None:
                return self.has_null
            if is_nan(value):
                return False
            domain = order_domain(value)
            if domain == "num":
                return self.num_min is not None and bool(
                    self.num_min <= value <= self.num_max  # type: ignore[operator]
                )
            if domain == "str":
                return self.str_min is not None and bool(
                    self.str_min <= value <= self.str_max  # type: ignore[operator]
                )
            return False
        domain = order_domain(value)
        if domain is None:
            return False  # ordering against null/NaN never holds
        if domain == "num":
            if self.num_min is None:
                return False
            bound = self.num_min if operator in ("<", "<=") else self.num_max
        else:
            if self.str_min is None:
                return False
            bound = self.str_min if operator in ("<", "<=") else self.str_max
        return compare(bound, value, operator)


class _RangeBuilder:
    """Mutable accumulator behind :class:`AttributeRange`."""

    __slots__ = ("num_min", "num_max", "str_min", "str_max", "has_null", "has_nan")

    def __init__(self) -> None:
        self.num_min: Value = None
        self.num_max: Value = None
        self.str_min: Optional[str] = None
        self.str_max: Optional[str] = None
        self.has_null = False
        self.has_nan = False

    def observe(self, value: Value) -> None:
        if value is None:
            self.has_null = True
            return
        if is_nan(value):
            self.has_nan = True
            return
        if isinstance(value, str):
            if self.str_min is None or value < self.str_min:
                self.str_min = value
            if self.str_max is None or value > self.str_max:
                self.str_max = value
            return
        if self.num_min is None or value < self.num_min:  # type: ignore[operator]
            self.num_min = value
        if self.num_max is None or value > self.num_max:  # type: ignore[operator]
            self.num_max = value

    def freeze(self) -> AttributeRange:
        return AttributeRange(
            self.num_min,
            self.num_max,
            self.str_min,
            self.str_max,
            self.has_null,
            self.has_nan,
        )


@dataclass(frozen=True)
class FileSummary:
    """Digest of one resident file: record count, value ranges, descriptors."""

    records: int
    ranges: Mapping[str, AttributeRange]
    descriptors: Optional[tuple[frozenset[int], ...]] = None

    @classmethod
    def of_file(cls, store: ABStore, file_name: str) -> "FileSummary":
        builders: dict[str, _RangeBuilder] = {}
        records = 0
        for record in store.file(file_name):
            records += 1
            for attribute, value in record.keyword_map().items():
                builder = builders.get(attribute)
                if builder is None:
                    builder = builders[attribute] = _RangeBuilder()
                builder.observe(value)
        descriptors = (
            store.file_descriptor_ids(file_name)
            if isinstance(store, ClusteredStore)
            else None
        )
        ranges = {attr: builder.freeze() for attr, builder in builders.items()}
        return cls(records, ranges, descriptors)

    def allows(self, clause: Conjunction) -> bool:
        """False only when no resident record can satisfy every predicate."""
        for predicate in clause:
            attr_range = self.ranges.get(predicate.attribute)
            if attr_range is None:
                # No resident record carries the attribute, and an absent
                # keyword satisfies no predicate — != included.
                return False
            if not attr_range.may_satisfy(predicate.operator, predicate.value):
                return False
        return True


@dataclass(frozen=True)
class BackendSummary:
    """What one backend's slice can possibly answer."""

    #: Files with at least one resident record.
    files: frozenset[str]
    #: The directory clustering the store, when it has one.
    directory: Optional[Directory] = None
    #: Per resident file, its digest (ranges + descriptor-id sets).
    file_summaries: Mapping[str, FileSummary] = field(default_factory=dict)

    @classmethod
    def of_store(cls, store: ABStore) -> "BackendSummary":
        """Digest *store* into a summary (uncached; see SummaryCache)."""
        return SummaryCache().summarize(store)

    def may_match(self, query: Query) -> bool:
        """False only when *no* record of the backend can satisfy *query*."""
        if not self.files:
            return False
        return any(self._clause_may_match(clause) for clause in query)

    def _clause_may_match(self, clause: Conjunction) -> bool:
        pinned = clause.file_names()
        if pinned:
            names = [name for name in pinned if name in self.files]
        else:
            names = list(self.files)
        if not names:
            return False
        constraints = None
        if self.directory is not None:
            searched = self.directory.descriptor_search(clause)
            if any(allowed is not None for allowed in searched):
                constraints = searched
        for name in names:
            summary = self.file_summaries.get(name)
            if summary is None:
                # No digest for this file: cannot prune it.
                return True
            if constraints is not None and summary.descriptors is not None:
                compatible = all(
                    allowed is None or (allowed & summary.descriptors[index])
                    for index, allowed in enumerate(constraints)
                )
                if not compatible:
                    continue
            if summary.allows(clause):
                return True
        return False


class SummaryCache:
    """Per-file memo of :class:`FileSummary` digests, stamped by epoch.

    One instance lives on each backend.  :meth:`summarize` re-digests
    only the files whose ``epoch_signature`` stamp moved since their
    digest was built, so the cost of a mutation is proportional to the
    files it touched, not to the whole slice, and no caller ever has to
    invalidate anything.  *rebuild_counts* records how often each file
    was digested — the regression tests use it to prove a write to one
    file does not re-summarize the others.
    """

    def __init__(self) -> None:
        self._files: dict[str, tuple[tuple, FileSummary]] = {}
        self._stamp: Optional[tuple] = None
        self._summary: Optional[BackendSummary] = None
        self.rebuild_counts: dict[str, int] = {}

    def summarize(self, store: ABStore) -> BackendSummary:
        """Digest *store*, reusing every per-file summary still current."""
        stamp = store.epoch_signature()
        if self._summary is not None and stamp == self._stamp:
            return self._summary
        files: dict[str, tuple[tuple, FileSummary]] = {}
        for name in store.file_names():
            if store.count(name) == 0:
                continue
            file_stamp = store.epoch_signature([name])
            cached = self._files.get(name)
            if cached is None or cached[0] != file_stamp:
                cached = (file_stamp, FileSummary.of_file(store, name))
                self.rebuild_counts[name] = self.rebuild_counts.get(name, 0) + 1
            files[name] = cached
        self._files = files
        directory = store.directory if isinstance(store, ClusteredStore) else None
        summaries = {name: summary for name, (_, summary) in files.items()}
        self._stamp = stamp
        self._summary = BackendSummary(frozenset(summaries), directory, summaries)
        return self._summary


def affected_files(query: Query) -> Optional[frozenset[str]]:
    """The files a mutation through *query* can touch (None = unknown).

    A query whose every clause pins ``FILE`` can only touch the pinned
    files; any unpinned clause makes the whole slice suspect.
    """
    names: set[str] = set()
    for clause in query:
        pinned = clause.file_names()
        if not pinned:
            return None
        names.update(pinned)
    return frozenset(names)
