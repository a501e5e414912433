"""Process-wide configuration and shared caches for the qc subsystem.

Four cache layers hang off this module:

``compile``
    Per-store LRUs of :class:`~repro.qc.compile.CompiledQuery` keyed on the
    rendered query (created via :func:`new_cache`).
``parse``
    Module-global memos for ABDL request parsing and network-DML statement
    parsing, keyed on exact source text (:data:`request_parse_cache`,
    :data:`dml_parse_cache`).
``translate``
    Per-adapter/engine LRUs of statement→ABDL translations (created via
    :func:`new_cache`; they die with their session, so a schema reload —
    which always opens fresh sessions — naturally invalidates them).
``result``
    Per-backend RETRIEVE result caches guarded by mutation epochs
    (created via :func:`new_cache`).

:class:`QCConfig` is a mutable singleton (:data:`config`) so the CLI's
``--cache-sizes`` flag, the benchmarks and the tests can size layers
without threading a config object through every constructor.  A cache's
size is its only on/off switch: a layer sized 0 takes the uncached path
(for ``compile``, the interpreted matcher).  Sizes are read when a cache
is built, so a mode change means building a new system after setting
:attr:`QCConfig.sizes`; only the process-global parse caches are resized
in place (:func:`apply_sizes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from repro.qc.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry, NullMetrics

#: Default LRU bounds per cache layer.
DEFAULT_SIZES = {
    "compile": 256,
    "parse": 512,
    "translate": 256,
    "result": 128,
}

#: Layer names accepted by ``--cache-sizes`` and :meth:`QCConfig.set_sizes`.
LAYERS = tuple(DEFAULT_SIZES)


@dataclass
class QCConfig:
    """LRU bounds for every cache layer, plus the planning baseline switch."""

    #: Access-path planning over attribute indexes.  Off, every indexed
    #: store falls back to the compiled full scan — the ablation baseline
    #: bench_range_index.py and the planner tests measure against.
    plan_enabled: bool = True
    sizes: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_SIZES))

    def size(self, layer: str) -> int:
        return self.sizes.get(layer, DEFAULT_SIZES.get(layer, 0))

    def set_sizes(self, spec: str) -> None:
        """Apply a ``layer=size,layer=size`` spec (the --cache-sizes flag).

        A size of 0 disables that layer's caches created afterwards.
        """
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad cache-size entry {part!r} (want layer=size)")
            layer, _, raw = part.partition("=")
            layer = layer.strip()
            if layer not in DEFAULT_SIZES:
                raise ValueError(f"unknown cache layer {layer!r} (known: {', '.join(LAYERS)})")
            self.sizes[layer] = int(raw)

    def reset(self) -> None:
        self.plan_enabled = True
        self.sizes = dict(DEFAULT_SIZES)


#: The process-wide configuration singleton.
config = QCConfig()


def new_cache(layer: str, prefix: str | None = None) -> LRUCache:
    """Create a cache for *layer* sized from the current config."""
    return LRUCache(config.size(layer), prefix=prefix or f"qc.{layer}")


#: Global memo for ``abdl.parser.parse_request`` (exact source text → AST).
request_parse_cache = new_cache("parse", prefix="qc.parse.abdl")

#: Global memo for ``network.dml`` statement/transaction parsing.
dml_parse_cache = new_cache("parse", prefix="qc.parse.dml")

_GLOBAL_CACHES = (request_parse_cache, dml_parse_cache)


def apply_sizes(spec: str) -> None:
    """Apply a ``--cache-sizes`` spec, resizing the live global caches.

    Per-store/engine/backend caches created *after* this call pick the
    new bounds up from the config; the process-global parse caches
    already exist and are resized in place.
    """
    config.set_sizes(spec)
    for cache in _GLOBAL_CACHES:
        cache.resize(config.size("parse"))


def bind_metrics(metrics: Union["MetricsRegistry", "NullMetrics"]) -> None:
    """Mirror the global parse caches into *metrics*.

    Last caller wins — with several instrumented MLDS instances in one
    process, the global parse-layer counters land in the most recently
    bound registry (per-store and per-backend caches are bound per
    instance and unaffected).
    """
    for cache in _GLOBAL_CACHES:
        cache.bind_metrics(metrics)


def global_snapshots() -> list[dict[str, object]]:
    """Snapshots of the process-global caches (for ``.caches``)."""
    return [cache.snapshot() for cache in _GLOBAL_CACHES]


def reset() -> None:
    """Restore defaults and empty the global caches (test isolation)."""
    from repro.obs.metrics import NULL_METRICS

    config.reset()
    for cache in _GLOBAL_CACHES:
        cache.clear()
        cache.resize(config.size("parse"))
        cache.bind_metrics(NULL_METRICS)
        cache.hits = cache.misses = cache.evictions = 0
