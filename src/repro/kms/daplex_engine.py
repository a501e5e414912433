"""The DAPLEX language interface: DML execution over AB(functional).

This is the functional side of MLDS (Figure 1.2): DAPLEX statements are
translated into ABDL requests against the same AB(functional) database
the CODASYL-DML interface manipulates — so the two user languages
genuinely share one kernel database, which the integration tests verify
by updating through one interface and observing through the other.

Translation outline:

* ``FOR EACH t SUCH THAT ...`` — comparisons over functions *declared on
  the iterated type* compile into the RETRIEVE's query; comparisons over
  inherited functions or nested paths are evaluated per candidate with
  auxiliary retrieves (value inheritance walks the supertype chain via
  the shared database key);
* ``PRINT`` projects paths the same way, one output row per entity;
* ``LET fn(x) = v`` becomes ``UPDATE ((FILE = type) AND (type = key))
  (fn = v)`` against the declaring type's file;
* ``FOR A NEW`` mints a key (base entity) or extends a supertype entity
  selected by the OF clause (subtype), then INSERTs the built records;
* ``DESTROY`` enforces the DAPLEX reference constraint (abort when the
  entity is a function value anywhere) and deletes the entity's records
  from the named type and every subtype below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.abdl.ast import DeleteRequest, InsertRequest, Modifier, UpdateRequest
from repro.abdm.predicate import Predicate, Query
from repro.abdm.values import Value, compare
from repro.errors import ConstraintViolation, ExecutionError, SchemaError, TranslationError
from repro.functional import daplex_dml as dml
from repro.functional.model import Function, FunctionalSchema
from repro.kc.controller import KernelController
from repro.mapping.fun_to_abdm import ABFunctionalMapping
from repro.qc.lru import MISSING
from repro.qc import runtime as qc_runtime


@dataclass
class DaplexResult:
    """Outcome of one DAPLEX statement."""

    statement: str
    rows: list[dict[str, Value]] = field(default_factory=list)
    touched: int = 0  # entities created / updated / destroyed
    requests: list[str] = field(default_factory=list)


class DaplexEngine:
    """Executes parsed DAPLEX DML against one functional database."""

    def __init__(self, schema: FunctionalSchema, kc: KernelController) -> None:
        self.schema = schema
        self.kc = kc
        self.mapping = ABFunctionalMapping(schema)
        # SUCH THAT→(kernel query, post-filter) translation cache, keyed
        # on (type name, rendered condition) — pure in the schema, which
        # is fixed for the engine's lifetime.
        self._splits = qc_runtime.new_cache("translate", prefix="qc.translate")
        if kc.obs.enabled:
            self._splits.bind_metrics(kc.obs.metrics)

    def invalidate_translations(self) -> None:
        """Drop cached condition splits (schema change)."""
        self._splits.clear()

    def translation_cache_snapshot(self) -> dict[str, object]:
        return self._splits.snapshot()

    # -- public API -----------------------------------------------------------------

    def execute(self, statement: dml.DaplexStatement | str) -> DaplexResult:
        if isinstance(statement, str):
            statement = dml.parse_statement(statement)
        with self.kc.obs.tracer.span("kms.translate") as span:
            log_start = len(self.kc.request_log)
            if isinstance(statement, dml.ForEach):
                result = self._for_each(statement)
            elif isinstance(statement, dml.ForNew):
                result = self._for_new(statement)
            else:
                raise TranslationError(f"unknown statement {type(statement).__name__}")
            result.requests = self.kc.request_log[log_start:]
            if span:
                span.record(
                    language="daplex",
                    statement=type(statement).__name__,
                    requests=len(result.requests),
                )
        return result

    def run(self, text: str) -> list[DaplexResult]:
        return [self.execute(s) for s in dml.parse_program(text)]

    # -- FOR EACH -------------------------------------------------------------------

    def _for_each(self, statement: dml.ForEach) -> DaplexResult:
        type_name = statement.type_name
        if not self.schema.is_entity_name(type_name):
            raise SchemaError(f"{type_name!r} is not an entity type or subtype")
        direct, deferred = self._split_condition(statement, type_name)
        candidates = self._candidates(type_name, direct)
        result = DaplexResult(statement.type_name)
        for dbkey in candidates:
            if not self._deferred_holds(deferred, type_name, dbkey):
                continue
            for action in statement.actions:
                if isinstance(action, dml.PrintAction):
                    row = {
                        expr.render(): self._evaluate_print(expr, type_name, dbkey)
                        for expr in action.expressions
                    }
                    result.rows.append(row)
                elif isinstance(action, dml.LetAction):
                    self._let(action, type_name, dbkey)
                    result.touched += 1
                elif isinstance(action, dml.DestroyAction):
                    self._destroy(type_name, dbkey)
                    result.touched += 1
                else:
                    raise TranslationError(f"unknown action {type(action).__name__}")
        return result

    def _split_condition(
        self,
        statement: dml.ForEach,
        type_name: str,
    ) -> tuple[Optional[Query], Optional[dml.Condition]]:
        """Divide the SUCH THAT clause into kernel query and post-filter.

        Only a purely conjunctive condition whose every comparison is a
        direct (non-inherited, non-nested) function of the iterated type
        can compile entirely into the RETRIEVE; any other shape keeps the
        whole condition as a per-candidate filter.  A mixed conjunction
        pushes its direct comparisons down *and* re-checks the rest.
        """
        condition = statement.condition
        if condition is None:
            return None, None
        if len(condition.clauses) != 1:
            return None, condition  # disjunctions filter post-hoc
        use_cache = self._splits.enabled
        key = (type_name, condition.render()) if use_cache else None
        if use_cache:
            cached = self._splits.get(key)
            if cached is not MISSING:
                return cached
        node = self.schema.entity_or_subtype(type_name)
        direct_names = {f.name for f in node.functions if not f.set_valued}
        predicates = []
        leftovers = []
        for comparison in condition.clauses[0]:
            if (
                len(comparison.path.functions) == 1
                and comparison.path.functions[0] in direct_names
            ):
                predicates.append(
                    Predicate(comparison.path.functions[0], comparison.operator, comparison.value)
                )
            else:
                leftovers.append(comparison)
        direct_query = None
        if predicates:
            direct_query = Query.conjunction(
                [Predicate("FILE", "=", type_name), *predicates]
            )
        deferred = dml.Condition([leftovers]) if leftovers else None
        if use_cache:
            self._splits.put(key, (direct_query, deferred))
        return direct_query, deferred

    def _candidates(self, type_name: str, direct: Optional[Query]) -> list[str]:
        query = direct or Query.single("FILE", "=", type_name)
        records = self.kc.retrieve(query)
        key_attribute = self.mapping.dbkey_attribute(type_name)
        seen: list[str] = []
        for record in records:
            key = record.get(key_attribute)
            if isinstance(key, str) and key not in seen:
                seen.append(key)
        return seen

    def _deferred_holds(
        self,
        deferred: Optional[dml.Condition],
        type_name: str,
        dbkey: str,
    ) -> bool:
        if deferred is None:
            return True
        for clause in deferred.clauses:
            if all(
                compare(
                    self._evaluate_path(c.path, type_name, dbkey),
                    c.value,
                    c.operator,
                )
                for c in clause
            ):
                return True
        return False

    # -- path evaluation (value inheritance) ----------------------------------------------

    def _declaring_type(self, type_name: str, function_name: str) -> tuple[str, Function]:
        """The type (self or ancestor) declaring *function_name*."""
        for candidate in [type_name, *self.schema.supertype_chain(type_name)]:
            node = self.schema.entity_or_subtype(candidate)
            function = node.function(function_name)
            if function is not None:
                return candidate, function
        raise SchemaError(f"{type_name!r} has no function {function_name!r}")

    def _raw_function_values(
        self,
        type_name: str,
        function_name: str,
        dbkey: str,
    ) -> list[Value]:
        """Distinct non-null fn(entity) values (one element unless fn is
        multi-valued), read from the declaring type's file."""
        declaring, _ = self._declaring_type(type_name, function_name)
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", declaring),
                    Predicate(declaring, "=", dbkey),
                ]
            )
        )
        values: list[Value] = []
        for record in records:
            value = record.get(function_name)
            if value is not None and value not in values:
                values.append(value)
        return values

    def _function_value(self, type_name: str, function_name: str, dbkey: str) -> Value:
        """Read fn(entity), walking up the ISA chain for inherited functions."""
        declaring, function = self._declaring_type(type_name, function_name)
        if function.set_valued:
            # Multi-valued: render the distinct values as a joined list.
            values = self._raw_function_values(type_name, function_name, dbkey)
            return ", ".join(str(v) for v in values) if values else None
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", declaring),
                    Predicate(declaring, "=", dbkey),
                ]
            )
        )
        return records[0].get(function_name) if records else None

    def _evaluate_print(self, expr, type_name: str, dbkey: str) -> Value:
        """Evaluate a PRINT expression: a path or an aggregate over one."""
        if isinstance(expr, dml.AggregateExpr):
            return self._evaluate_aggregate(expr, type_name, dbkey)
        return self._evaluate_path(expr, type_name, dbkey)

    def _evaluate_aggregate(
        self,
        expr: "dml.AggregateExpr",
        type_name: str,
        dbkey: str,
    ) -> Value:
        """COUNT/TOTAL/AVERAGE/MAXIMUM/MINIMUM over a function application.

        The outermost function of the path supplies the value set (its
        distinct values across the entity's duplicated AB records); inner
        steps must be single-valued entity navigation.
        """
        path = expr.path
        if not path.functions:
            raise TranslationError("aggregates need a function application")
        current_type = type_name
        current_key: Value = dbkey
        for function_name in reversed(path.functions[1:]):
            if not isinstance(current_key, str):
                return None
            _, function = self._declaring_type(current_type, function_name)
            if function.set_valued:
                raise TranslationError(
                    f"{function_name!r} is multi-valued; only the outermost "
                    f"function of an aggregate may be"
                )
            if not function.is_entity_valued:
                raise TranslationError(
                    f"{function_name!r} is scalar and cannot be dereferenced"
                )
            current_key = self._function_value(current_type, function_name, current_key)
            current_type = function.range_type_name or ""
        if not isinstance(current_key, str):
            return None
        values = self._raw_function_values(current_type, path.functions[0], current_key)
        if expr.operator == "COUNT":
            return len(values)
        numeric = [v for v in values if isinstance(v, (int, float))]
        if not numeric:
            return None
        if expr.operator == "TOTAL":
            return sum(numeric)
        if expr.operator == "AVERAGE":
            return sum(numeric) / len(numeric)
        if expr.operator == "MAXIMUM":
            return max(numeric)
        return min(numeric)

    def _evaluate_path(self, path: dml.FunctionPath, type_name: str, dbkey: str) -> Value:
        if not path.functions:
            return dbkey
        current_type = type_name
        current_key: Value = dbkey
        # Apply innermost-first; entity-valued steps switch the type.
        for index, function_name in enumerate(reversed(path.functions)):
            if not isinstance(current_key, str):
                return None
            declaring, function = self._declaring_type(current_type, function_name)
            value = self._function_value(current_type, function_name, current_key)
            is_last = index == len(path.functions) - 1
            if function.is_entity_valued and not is_last:
                current_type = function.range_type_name or ""
                current_key = value
            elif is_last:
                return value
            else:
                raise TranslationError(
                    f"{function_name!r} is scalar and cannot be dereferenced further"
                )
        return current_key

    # -- LET ----------------------------------------------------------------------------

    def _let(self, action: dml.LetAction, type_name: str, dbkey: str) -> None:
        if len(action.path.functions) != 1:
            raise TranslationError("LET assigns a direct function of the loop variable")
        function_name = action.path.functions[0]
        declaring, function = self._declaring_type(type_name, function_name)
        if function.is_entity_valued and action.value is not None:
            if not isinstance(action.value, str):
                raise SchemaError(
                    f"{function_name!r} is entity-valued; LET takes a database key"
                )
        self.kc.execute(
            UpdateRequest(
                Query.conjunction(
                    [
                        Predicate("FILE", "=", declaring),
                        Predicate(declaring, "=", dbkey),
                    ]
                ),
                Modifier(function_name, value=action.value),
            )
        )

    # -- FOR A NEW ------------------------------------------------------------------------

    def _for_new(self, statement: dml.ForNew) -> DaplexResult:
        type_name = statement.type_name
        values: dict[str, Value] = {}
        for action in statement.lets:
            if len(action.path.functions) != 1:
                raise TranslationError("FOR A NEW LET assigns a direct function")
            values[action.path.functions[0]] = action.value
        node = self.schema.entity_or_subtype(type_name)
        known = {f.name for f in node.functions}
        for name in values:
            if name not in known:
                raise SchemaError(f"{type_name!r} declares no function {name!r}")
        if type_name in self.schema.entity_types:
            if statement.selector is not None:
                raise TranslationError(
                    f"{type_name!r} is a base entity type; the OF clause applies "
                    f"to subtypes"
                )
            dbkey = self.schema.entity_types[type_name].next_key()
        else:
            dbkey = self._select_supertype_entity(statement)
        self._check_uniqueness(type_name, values)
        for record in self.mapping.build_records(type_name, dbkey, values):
            self.kc.execute(InsertRequest(record))
        result = DaplexResult(type_name, touched=1)
        result.rows.append({type_name: dbkey})
        return result

    def _select_supertype_entity(self, statement: dml.ForNew) -> str:
        subtype = self.schema.subtypes[statement.type_name]
        if statement.selector is None:
            raise TranslationError(
                f"{statement.type_name!r} is a subtype; FOR A NEW needs an "
                f"OF <supertype> SUCH THAT clause"
            )
        selector = statement.selector
        if selector.type_name not in (
            subtype.supertypes[0],
            *self.schema.supertype_chain(statement.type_name),
        ):
            raise SchemaError(
                f"{selector.type_name!r} is not a supertype of {statement.type_name!r}"
            )
        probe = dml.ForEach(selector.type_name, selector.type_name, selector.condition, [])
        direct, deferred = self._split_condition(probe, selector.type_name)
        keys = [
            key
            for key in self._candidates(selector.type_name, direct)
            if self._deferred_holds(deferred, selector.type_name, key)
        ]
        if len(keys) != 1:
            raise ExecutionError(
                f"the OF clause selected {len(keys)} {selector.type_name!r} "
                f"entities; FOR A NEW needs exactly one"
            )
        dbkey = keys[0]
        existing = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", statement.type_name),
                    Predicate(statement.type_name, "=", dbkey),
                ]
            )
        )
        if existing:
            raise ConstraintViolation(
                f"entity {dbkey!r} is already a {statement.type_name!r}"
            )
        return dbkey

    def _check_uniqueness(self, type_name: str, values: dict[str, Value]) -> None:
        for constraint in self.schema.uniqueness:
            if constraint.within != type_name:
                continue
            predicates = [Predicate("FILE", "=", type_name)]
            complete = True
            for item in constraint.functions:
                if values.get(item) is None:
                    complete = False
                    break
                predicates.append(Predicate(item, "=", values[item]))
            if complete and self.kc.retrieve(Query.conjunction(predicates)):
                raise ConstraintViolation(
                    f"FOR A NEW {type_name}: UNIQUE "
                    f"{', '.join(constraint.functions)} violated"
                )

    # -- DESTROY ----------------------------------------------------------------------------

    def _destroy(self, type_name: str, dbkey: str) -> None:
        # DAPLEX constraint: abort when the entity is referenced by any
        # database function (the rule the thesis's ERASE honours).
        for holder_name in self.schema.type_names():
            holder = self.schema.entity_or_subtype(holder_name)
            for function in holder.functions:
                if not function.is_entity_valued:
                    continue
                range_name = function.range_type_name or ""
                hierarchy = {type_name, *self.schema.hierarchy_below(type_name)}
                chain = {range_name, *self.schema.supertype_chain(type_name)}
                if range_name not in hierarchy and range_name not in chain:
                    continue
                found = self.kc.retrieve(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", holder_name),
                            Predicate(function.name, "=", dbkey),
                        ]
                    )
                )
                if found:
                    raise ConstraintViolation(
                        f"DESTROY {type_name} {dbkey}: referenced by "
                        f"{holder_name}.{function.name}"
                    )
        # Delete the entity from this type and its whole subtype hierarchy.
        for member in self.schema.hierarchy_below(type_name):
            self.kc.execute(
                DeleteRequest(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", member),
                            Predicate(member, "=", dbkey),
                        ]
                    )
                )
            )
