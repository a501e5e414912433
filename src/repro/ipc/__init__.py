"""Cross-process messaging for the MBDS process-parallel engine.

The :class:`~repro.mbds.engine.ProcessPoolEngine` runs each backend's
:class:`~repro.abdm.store.ABStore` in a persistent worker process and
talks to it over one duplex pipe.  Everything that crosses the process
boundary is a JSON-shaped value (dicts, lists, strings, numbers, bools,
None) — the same discipline the WAL already imposes on journaled
mutations — so backend state is fully message-passing-clean: no live
object, lock, or cache ever crosses.

* :mod:`repro.ipc.codec` — the message codec: requests (extending the
  WAL's mutating-request codec to retrievals), results, scan statistics,
  pruning summaries, index digests, and trace spans, each to and from
  its JSON-shaped form.  Every record list (replies, file pre-images,
  store dumps, inserts) crosses as one shape-interned record batch, and
  a RETRIEVE reply carries each matching record once: the proxy
  re-projects ``records`` from ``raw_records``.
* :mod:`repro.ipc.transport` — :class:`~repro.ipc.transport.PipeTransport`,
  which frames those values onto the pipe (a 7-byte header and a
  :mod:`marshal` body, singly or as a coalesced batch).
* :mod:`repro.ipc.worker` — the worker process main loop.
* :mod:`repro.ipc.proxy` — :class:`~repro.ipc.proxy.ProcessBackend`, the
  controller-side stand-in that speaks the protocol while duck-typing
  :class:`~repro.mbds.backend.Backend`.
"""

from repro.ipc.codec import decode_any_request, encode_any_request
from repro.ipc.proxy import ProcessBackend

__all__ = ["ProcessBackend", "decode_any_request", "encode_any_request"]
