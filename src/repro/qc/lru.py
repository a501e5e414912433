"""A small, thread-safe, bounded LRU cache with hit/miss/eviction counters.

Every cache layer in :mod:`repro.qc` — compiled queries, parse memos,
KMS translation memos, backend result caches — is an :class:`LRUCache`.
The cache keeps its own local counters (always, for ``.caches`` and the
tests) and mirrors them into an :class:`~repro.obs.metrics.MetricsRegistry`
when one is bound, under ``<prefix>.hits`` / ``.misses`` / ``.evictions``
— so an instrumented run sees every cache layer in one registry export.

A cache with ``maxsize <= 0`` is disabled: :meth:`get` always misses
(without counting) and :meth:`put` is a no-op.  Size is the only on/off
switch a cache has — consumers that bypass a disabled layer check
:attr:`LRUCache.enabled` — so ``--cache-sizes layer=0`` turns a layer
off and nothing else does.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Union

from repro.obs.metrics import MetricsRegistry, NULL_METRICS, NullMetrics

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(
        self,
        maxsize: int,
        prefix: str = "qc.cache",
        metrics: Union[MetricsRegistry, NullMetrics] = NULL_METRICS,
    ) -> None:
        self.maxsize = int(maxsize)
        self.prefix = prefix
        self._metrics = metrics
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def bind_metrics(self, metrics: Union[MetricsRegistry, NullMetrics]) -> None:
        """Mirror this cache's counters into *metrics* from now on."""
        self._metrics = metrics

    # -- hot path --------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The cached value for *key*, or :data:`MISSING`."""
        if self.maxsize <= 0:
            return MISSING
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is MISSING:
                self.misses += 1
                self._metrics.inc(f"{self.prefix}.misses")
                return MISSING
            self._data.move_to_end(key)
            self.hits += 1
            self._metrics.inc(f"{self.prefix}.hits")
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry when full."""
        if self.maxsize <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                self._metrics.inc(f"{self.prefix}.evictions")

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are cumulative)."""
        with self._lock:
            self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Change the bound; shrinking evicts LRU entries to fit."""
        with self._lock:
            self.maxsize = int(maxsize)
            if self.maxsize <= 0:
                self._data.clear()
                return
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                self._metrics.inc(f"{self.prefix}.evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def snapshot(self) -> dict[str, Any]:
        """Counters and occupancy, JSON-ready (the ``.caches`` command)."""
        with self._lock:
            return {
                "prefix": self.prefix,
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return (
            f"LRUCache({self.prefix}, {len(self)}/{self.maxsize}, "
            f"{self.hits}h/{self.misses}m/{self.evictions}e)"
        )
