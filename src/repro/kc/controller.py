"""The Kernel Controller (KC).

KC sits between the kernel mapping subsystem and the kernel database
system: every ABDL request the translation produces passes through KC for
execution (thesis I.B.1).  This implementation additionally keeps a
*request log* — the rendered text of every request executed on behalf of
the run-unit — which is how the test suite asserts that a CODASYL-DML
statement translated into exactly the ABDL the thesis's chapters show.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.mbds.sessions import KernelSession

from repro.abdl.ast import (
    ALL_ATTRIBUTES,
    Request,
    RetrieveRequest,
    TargetItem,
)
from repro.abdl.executor import RequestResult
from repro.abdm.predicate import Query
from repro.abdm.record import Record
from repro.mbds.kds import KernelDatabaseSystem


class KernelController:
    """Executes ABDL requests on the shared KDS for one run-unit.

    Every request executes under kernel concurrency control — two-phase
    locks and session-owned WAL transactions — on *session* (see
    :meth:`repro.mbds.kds.KernelDatabaseSystem.create_session`), so many
    run-units can share the kernel simultaneously.  Without one, the
    run-unit runs on the kernel's ``default_session``.
    """

    def __init__(
        self,
        kds: KernelDatabaseSystem,
        session: Optional["KernelSession"] = None,
    ) -> None:
        self.kds = kds
        self.session = session
        #: Rendered text of every request executed (oldest first).
        self.request_log: list[str] = []

    @property
    def obs(self):
        """The kernel's observability bundle (shared across run-units)."""
        return self.kds.obs

    def execute(self, request: Request) -> RequestResult:
        """Execute one request, logging its ABDL text."""
        with self.obs.tracer.span("kc.dispatch") as span:
            rendered = request.render()
            self.request_log.append(rendered)
            result = self.kds.execute(request, session=self.session).result
            if span:
                span.record(abdl=rendered)
        return result

    def retrieve(
        self,
        query: Query,
        target: Sequence[TargetItem] = (ALL_ATTRIBUTES,),
        by: Optional[str] = None,
    ) -> list[Record]:
        """Convenience retrieval returning the projected records."""
        return self.execute(RetrieveRequest(query, target, by)).records

    def last_requests(self, count: int) -> list[str]:
        """The most recent *count* logged request texts."""
        return self.request_log[-count:]

    def clear_log(self) -> None:
        self.request_log.clear()
