"""The MLDS facade and Language Interface Layer (LIL).

:class:`MLDS` is the top of the system (thesis Figure 1.1): it owns the
shared kernel (MBDS behind the KDS interface), the catalog of loaded
database schemas, and the LIL logic for opening user sessions.

The LIL behaviour this thesis adds (Chapter V's opening paragraphs): when
a CODASYL-DML user names a database, LIL searches the *network* schemas
first; if the name is instead found among the *functional* schemas, LIL
transforms the functional schema into a network schema (cached — the
transformation is deterministic) and hands the user a session whose KMS
translates against the AB(functional) database.  The user never needs to
know which kind of database answered.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.errors import SchemaError
from repro.functional.daplex import parse_schema as parse_daplex
from repro.functional.model import FunctionalSchema
from repro.kc.controller import KernelController
from repro.kms.functional_adapter import FunctionalTargetAdapter
from repro.kms.network_adapter import NetworkTargetAdapter
from repro.kms.dli_engine import DliEngine
from repro.kms.sql_engine import SqlEngine
from repro.core.loader import FunctionalLoader, NetworkLoader
from repro.core.session import CodasylSession, DaplexSession, DliSession, SqlSession
from repro.mapping.fun_to_abdm import ABFunctionalMapping
from repro.mapping.fun_to_net import NetworkTransformation, transform_schema
from repro.mapping.net_to_abdm import ABNetworkMapping
from repro.mapping.hie_to_abdm import ABHierarchicalMapping
from repro.mapping.hie_to_rel import HierarchicalSqlEngine
from repro.mapping.rel_to_abdm import ABRelationalMapping
from repro.mbds.kds import KernelDatabaseSystem
from repro.mbds.sessions import KernelSession
from repro.mbds.timing import TimingModel
from repro.obs import ObsSpec
from repro.network.ddl import parse_network_schema
from repro.hierarchical.dli import parse_hierarchical_schema
from repro.hierarchical.model import HierarchicalSchema
from repro.relational.model import RelationalSchema
from repro.relational.sql import parse_relational_schema
from repro.network.model import NetworkSchema
from repro.wal.log import WalManager


class MLDS:
    """The Multi-Lingual Database System.

    One shared kernel database system serves every language interface
    (thesis Figure 1.2).  Databases are defined through their native
    model (DAPLEX DDL or CODASYL schema DDL), loaded through the
    corresponding loader, and then processed through any session the LIL
    can map — including CODASYL-DML sessions over functional databases,
    the thesis's contribution.
    """

    def __init__(
        self,
        backend_count: int = 4,
        timing: Optional[TimingModel] = None,
        placement=None,
        store_factory=None,
        engine=None,
        workers: Optional[int] = None,
        pruning: bool = False,
        latency_scale: float = 0.0,
        wal: Union[None, str, Path, WalManager] = None,
        obs: ObsSpec = None,
        lock_timeout: float = 10.0,
        version_retain: Optional[int] = None,
    ) -> None:
        """*store_factory* optionally replaces each backend's plain scan
        store, e.g. with a directory-clustered
        :class:`~repro.abdm.directory.ClusteredStore` (see the directory
        ablation benchmark for the payoff).  *placement* picks the record
        placement policy (round-robin by default; see
        :mod:`repro.mbds.placement` — :class:`HashShardPlacement` adds
        single-backend request routing).  *engine*/*workers* pick the
        kernel's wall-clock dispatch strategy ('serial', 'threads', or
        'process'); *pruning* enables summary-based broadcast pruning
        (see :mod:`repro.mbds.engine` and :mod:`repro.mbds.summary`).
        *latency_scale* makes each backend emulate its disk stalls in
        real time (see :class:`~repro.mbds.backend.Backend`), and
        *lock_timeout* bounds how long a kernel session waits for a
        lock before :class:`~repro.errors.LockTimeout` (see
        :mod:`repro.mbds.locks`).
        *wal* enables durability: pass a directory path (or a prepared
        :class:`~repro.wal.log.WalManager`) and every mutating kernel
        request is journaled there before it is applied (see
        :mod:`repro.wal`).  *obs* attaches an
        :class:`~repro.obs.Observability` bundle — request tracing,
        metrics, and the slow log — shared by every layer beneath this
        facade; the default is the no-op null bundle.
        *version_retain* caps the per-file version-chain depth kept for
        the kernel's lock-free MVCC snapshot reads (see
        :class:`~repro.mbds.kds.KernelDatabaseSystem`)."""
        if wal is not None and not isinstance(wal, WalManager):
            wal = WalManager(Path(wal), backend_count)
        self.kds = KernelDatabaseSystem(
            backend_count,
            timing,
            placement=placement,
            store_factory=store_factory,
            engine=engine,
            workers=workers,
            pruning=pruning,
            latency_scale=latency_scale,
            wal=wal,
            obs=obs,
            lock_timeout=lock_timeout,
            version_retain=version_retain,
        )
        self._functional: dict[str, FunctionalSchema] = {}
        self._network: dict[str, NetworkSchema] = {}
        self._relational: dict[str, RelationalSchema] = {}
        self._hierarchical: dict[str, HierarchicalSchema] = {}
        self._network_mappings: dict[str, ABNetworkMapping] = {}
        self._hierarchical_mappings: dict[str, ABHierarchicalMapping] = {}
        self._relational_mappings: dict[str, ABRelationalMapping] = {}
        self._transformations: dict[str, NetworkTransformation] = {}

    @property
    def obs(self):
        """The system-wide observability bundle (see :mod:`repro.obs`)."""
        return self.kds.obs

    def attach_wal(self, wal: WalManager) -> None:
        """Wire a write-ahead log into an already-built system.

        Used by :func:`repro.wal.recovery.recover_mlds` so a recovered
        system resumes journaling to the directory it was rebuilt from.
        """
        self.kds.controller.wal = wal
        if self.obs.enabled:
            wal.bind_obs(self.obs)

    # -- database definition (the KMS's first task) ---------------------------------

    def define_functional_database(
        self,
        schema: Union[str, FunctionalSchema],
    ) -> FunctionalSchema:
        """Define a functional database from DAPLEX DDL text or a schema."""
        if isinstance(schema, str):
            schema = parse_daplex(schema)
        self._check_name_free(schema.name)
        mapping = ABFunctionalMapping(schema)
        self.kds.define_database(schema.name, "functional", mapping.file_names())
        self._functional[schema.name] = schema
        return schema

    def define_network_database(
        self,
        schema: Union[str, NetworkSchema],
    ) -> NetworkSchema:
        """Define a network database from CODASYL DDL text or a schema."""
        if isinstance(schema, str):
            schema = parse_network_schema(schema)
        self._check_name_free(schema.name)
        self.kds.define_database(schema.name, "network", list(schema.records))
        self._network[schema.name] = schema
        self._network_mappings[schema.name] = ABNetworkMapping(schema)
        return schema

    def define_relational_database(
        self,
        schema: Union[str, RelationalSchema],
    ) -> RelationalSchema:
        """Define a relational database from CREATE TABLE DDL or a schema."""
        if isinstance(schema, str):
            schema = parse_relational_schema(schema)
        self._check_name_free(schema.name)
        self.kds.define_database(schema.name, "relational", list(schema.relations))
        self._relational[schema.name] = schema
        self._relational_mappings[schema.name] = ABRelationalMapping(schema)
        return schema

    def define_hierarchical_database(
        self,
        schema: Union[str, HierarchicalSchema],
    ) -> HierarchicalSchema:
        """Define a hierarchical database from DL/I DDL text or a schema."""
        if isinstance(schema, str):
            schema = parse_hierarchical_schema(schema)
        self._check_name_free(schema.name)
        self.kds.define_database(schema.name, "hierarchical", list(schema.segments))
        self._hierarchical[schema.name] = schema
        self._hierarchical_mappings[schema.name] = ABHierarchicalMapping(schema)
        return schema

    def _check_name_free(self, name: str) -> None:
        if (
            name in self._functional
            or name in self._network
            or name in self._relational
            or name in self._hierarchical
        ):
            raise SchemaError(f"database {name!r} is already defined")

    # -- catalog ----------------------------------------------------------------------

    def functional_schema(self, name: str) -> FunctionalSchema:
        try:
            return self._functional[name]
        except KeyError as exc:
            raise SchemaError(f"no functional database named {name!r}") from exc

    def network_schema(self, name: str) -> NetworkSchema:
        try:
            return self._network[name]
        except KeyError as exc:
            raise SchemaError(f"no network database named {name!r}") from exc

    def relational_schema(self, name: str) -> RelationalSchema:
        try:
            return self._relational[name]
        except KeyError as exc:
            raise SchemaError(f"no relational database named {name!r}") from exc

    def hierarchical_schema(self, name: str) -> HierarchicalSchema:
        try:
            return self._hierarchical[name]
        except KeyError as exc:
            raise SchemaError(f"no hierarchical database named {name!r}") from exc

    def database_names(self) -> list[str]:
        return sorted(
            [
                *self._functional,
                *self._network,
                *self._relational,
                *self._hierarchical,
            ]
        )

    def transformation(self, name: str) -> NetworkTransformation:
        """The (cached) functional-to-network transformation for *name*."""
        cached = self._transformations.get(name)
        if cached is None:
            cached = transform_schema(self.functional_schema(name))
            self._transformations[name] = cached
        return cached

    # -- loading ------------------------------------------------------------------------

    def functional_loader(self, name: str) -> FunctionalLoader:
        """A loader for the functional database *name* (the DAPLEX path)."""
        return FunctionalLoader(self.functional_schema(name), KernelController(self.kds))

    def network_loader(self, name: str) -> NetworkLoader:
        """A loader for the network database *name* (the native path)."""
        return NetworkLoader(
            self.network_schema(name),
            KernelController(self.kds),
            self._network_mappings[name],
        )

    # -- the LIL: opening sessions ----------------------------------------------------------

    def create_kernel_session(self, name: Optional[str] = None) -> KernelSession:
        """Register a concurrent kernel session (see ``kernel_session=``).

        Pass the returned session to any ``open_*_session`` call to run
        that run-unit under kernel concurrency control; several run-units
        (even in different languages) may share one kernel session, and
        several kernel sessions may drive the kernel simultaneously.
        """
        return self.kds.create_session(name)

    def open_codasyl_session(
        self,
        database: str,
        user: str = "user",
        kernel_session: Optional[KernelSession] = None,
    ) -> CodasylSession:
        """Open a CODASYL-DML session on *database*.

        LIL searches the network schemas first; when the name belongs to a
        functional database instead, the schema transformer runs (once)
        and the session is wired to the modified, AB(functional)-target
        KMS — Chapter V's opening flow.
        """
        kc = KernelController(self.kds, kernel_session)
        if database in self._network:
            adapter = NetworkTargetAdapter(
                self._network[database], kc, self._network_mappings[database]
            )
            return CodasylSession(user, database, adapter, "network")
        if database in self._functional:
            transformation = self.transformation(database)
            adapter = FunctionalTargetAdapter(transformation, kc)
            return CodasylSession(user, database, adapter, "functional")
        raise SchemaError(
            f"database {database!r} is not defined (neither network nor functional)"
        )

    def open_daplex_session(
        self,
        database: str,
        user: str = "user",
        kernel_session: Optional[KernelSession] = None,
    ) -> DaplexSession:
        """Open a native DAPLEX session on the functional database *database*.

        This is MLDS's functional language interface — the path the
        thesis assumes exists (the database's defining interface); the
        CODASYL-DML path reaches the same AB(functional) records.
        """
        schema = self.functional_schema(database)
        return DaplexSession(
            user, database, schema, KernelController(self.kds, kernel_session)
        )

    def open_sql_session(
        self,
        database: str,
        user: str = "user",
        kernel_session: Optional[KernelSession] = None,
    ) -> SqlSession:
        """Open a SQL session on *database*.

        Native relational databases get the full SQL engine.  When the
        name belongs to a *hierarchical* database, the LIL builds its
        relational view and hands back the read-mostly Zawis interface —
        the second cross-model pair of the MMDS roadmap (thesis VII.B).
        """
        kc = KernelController(self.kds, kernel_session)
        if database in self._relational:
            engine = SqlEngine(
                self._relational[database], kc, self._relational_mappings[database]
            )
            return SqlSession(user, database, engine)
        if database in self._hierarchical:
            engine = HierarchicalSqlEngine(self._hierarchical[database], kc)
            return SqlSession(user, database, engine)
        # Raise the standard error for unknown/foreign databases.
        self.relational_schema(database)
        raise AssertionError("unreachable")  # pragma: no cover

    def open_dli_session(
        self,
        database: str,
        user: str = "user",
        kernel_session: Optional[KernelSession] = None,
    ) -> DliSession:
        """Open a DL/I session on the hierarchical database *database*."""
        schema = self.hierarchical_schema(database)
        engine = DliEngine(
            schema,
            KernelController(self.kds, kernel_session),
            self._hierarchical_mappings[database],
        )
        return DliSession(user, database, engine)

    def __repr__(self) -> str:
        return (
            f"MLDS({self.kds.controller.backend_count} backends, "
            f"{len(self._network)} network + {len(self._functional)} functional "
            f"+ {len(self._relational)} relational databases)"
        )
