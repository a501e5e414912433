"""Broadcast pruning: summaries skip impossible backends, never change results."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.abdl import parse_request
from repro.abdm import ClusteredStore, Directory, Record
from repro.mbds import BackendController, BackendSummary, KernelDatabaseSystem


def insert_text(file_name, key, **extra):
    pairs = [f"<FILE, {file_name}>", f"<{file_name}, {key}>"]
    pairs.extend(f"<{k}, {v}>" for k, v in extra.items())
    return "INSERT (" + ", ".join(pairs) + ")"


class TestFilePruning:
    def test_backends_without_the_file_are_skipped(self):
        controller = BackendController(4, pruning=True)
        # Two records in file 'a': round-robin lands them on backends 0, 1.
        controller.execute(parse_request(insert_text("a", "a$0")))
        controller.execute(parse_request(insert_text("a", "a$1")))
        trace = controller.execute(parse_request("RETRIEVE (FILE = a) (*)"))
        assert trace.result.count == 2
        assert trace.per_backend_ms[0] > 0.0
        assert trace.per_backend_ms[1] > 0.0
        assert trace.per_backend_ms[2:] == [0.0, 0.0]

    def test_pruned_backends_charge_zero_simulated_time(self):
        pruned = BackendController(4, pruning=True)
        unpruned = BackendController(4, pruning=False)
        for controller in (pruned, unpruned):
            controller.execute(parse_request(insert_text("a", "a$0")))
        pruned_trace = pruned.execute(parse_request("RETRIEVE (FILE = ghost) (*)"))
        unpruned_trace = unpruned.execute(parse_request("RETRIEVE (FILE = ghost) (*)"))
        assert pruned_trace.result.count == unpruned_trace.result.count == 0
        assert pruned_trace.response.backend_ms == 0.0
        # Without pruning every backend still pays its disk access.
        assert unpruned_trace.response.backend_ms > 0.0

    def test_all_pruned_broadcast_yields_empty_result(self):
        controller = BackendController(3, pruning=True)
        controller.execute(parse_request(insert_text("a", "a$0")))
        trace = controller.execute(parse_request("DELETE (FILE = ghost)"))
        assert trace.result.operation == "DELETE"
        assert trace.result.count == 0
        assert trace.per_backend_ms == [0.0, 0.0, 0.0]

    def test_mutations_invalidate_summaries(self):
        controller = BackendController(2, pruning=True)
        controller.execute(parse_request(insert_text("a", "a$0", x=1)))
        # Prime the summary caches with a broadcast.
        assert controller.execute(parse_request("RETRIEVE (FILE = a) (*)")).result.count == 1
        # New file lands on a backend whose summary was already cached.
        controller.execute(parse_request(insert_text("b", "b$0")))
        trace = controller.execute(parse_request("RETRIEVE (FILE = b) (*)"))
        assert trace.result.count == 1

    def test_delete_empties_file_then_prunes(self):
        controller = BackendController(2, pruning=True)
        controller.execute(parse_request(insert_text("a", "a$0")))
        controller.execute(parse_request("DELETE (FILE = a)"))
        trace = controller.execute(parse_request("RETRIEVE (FILE = a) (*)"))
        assert trace.result.count == 0
        assert trace.response.backend_ms == 0.0


@pytest.mark.parametrize("engine", ["serial", "process"])
class TestDirectStoreEdits:
    """Summaries follow store edits that bypass ``Backend.execute``."""

    def build(self, engine):
        controller = BackendController(2, engine=engine, pruning=True)
        controller.execute(parse_request(insert_text("a", "a$0")))
        # Build the summaries before editing a store behind their back.
        assert controller.execute(parse_request("RETRIEVE (FILE = a) (*)")).result.count == 1
        return controller

    def test_direct_insert_is_visible_to_pruned_retrieve(self, engine):
        controller = self.build(engine)
        try:
            controller.backends[1].store.insert(
                Record.from_pairs([("FILE", "b"), ("b", "b$0")])
            )
            trace = controller.execute(parse_request("RETRIEVE (FILE = b) (*)"))
            assert trace.result.count == 1
        finally:
            controller.shutdown()

    def test_dropped_file_stops_matching(self, engine):
        controller = self.build(engine)
        try:
            controller.backends[0].store.drop_file("a")
            trace = controller.execute(parse_request("RETRIEVE (FILE = a) (*)"))
            assert trace.result.count == 0
            assert trace.response.backend_ms == 0.0
        finally:
            controller.shutdown()


class TestDescriptorPruning:
    class SplitByX:
        """Places records with x < 50 on backend 0, the rest on backend 1."""

        def place(self, record, backend_count):
            return 0 if (record.get("x") or 0) < 50 else 1 % backend_count

    @staticmethod
    def make_directory():
        directory = Directory()
        directory.add_ranges("x", 0, 100, 4)
        return directory

    def build(self, pruning):
        directory = self.make_directory()
        controller = BackendController(
            2,
            placement=self.SplitByX(),
            store_factory=lambda: ClusteredStore(directory),
            pruning=pruning,
        )
        for i in range(40):
            controller.execute(
                parse_request(insert_text("data", f"d${i}", x=(i * 7) % 100))
            )
        return controller

    def test_incompatible_descriptors_prune_the_backend(self):
        controller = self.build(pruning=True)
        trace = controller.execute(
            parse_request("RETRIEVE ((FILE = data) AND (x = 3)) (*)")
        )
        # x = 3 classifies into the [0, 25] descriptor: only backend 0 has it.
        assert trace.per_backend_ms[1] == 0.0
        assert trace.per_backend_ms[0] > 0.0

    def test_descriptor_pruning_preserves_results(self):
        pruned = self.build(pruning=True)
        unpruned = self.build(pruning=False)
        for text in (
            "RETRIEVE ((FILE = data) AND (x = 3)) (*)",
            "RETRIEVE ((FILE = data) AND (x < 30)) (*)",
            "RETRIEVE ((FILE = data) AND (x >= 80)) (*)",
            "DELETE ((FILE = data) AND (x = 21))",
            "RETRIEVE (FILE = data) (*)",
        ):
            left = pruned.execute(parse_request(text))
            right = unpruned.execute(parse_request(text))
            assert [r.pairs() for r in left.result.records] == [
                r.pairs() for r in right.result.records
            ]
            assert left.result.count == right.result.count


class TestDropDatabaseInvalidation:
    def test_drop_database_invalidates_summaries(self):
        kds = KernelDatabaseSystem(backend_count=2, pruning=True)
        kds.define_database("uni", "functional", ["course"])
        kds.execute(parse_request(insert_text("course", "c$0")))
        kds.execute(parse_request(insert_text("course", "c$1")))
        # Prime summaries, then drop the database behind the backends' backs.
        assert kds.execute(parse_request("RETRIEVE (FILE = course) (*)")).result.count == 2
        kds.drop_database("uni")
        trace = kds.execute(parse_request("RETRIEVE (FILE = course) (*)"))
        assert trace.result.count == 0
        # Stale summaries would still broadcast; fresh ones prune everything.
        assert trace.response.backend_ms == 0.0

    def test_database_recreated_after_drop_is_visible(self):
        kds = KernelDatabaseSystem(backend_count=2, pruning=True)
        kds.define_database("uni", "functional", ["course"])
        kds.execute(parse_request(insert_text("course", "c$0")))
        kds.drop_database("uni")
        kds.define_database("uni", "functional", ["course"])
        kds.execute(parse_request(insert_text("course", "c$9")))
        assert kds.execute(parse_request("RETRIEVE (FILE = course) (*)")).result.count == 1


class TestSummary:
    def test_summary_of_empty_backend_matches_nothing(self):
        from repro.abdm import ABStore, Query

        summary = BackendSummary.of_store(ABStore())
        assert not summary.may_match(Query.single("FILE", "=", "a"))

    def test_summary_without_directory_prunes_on_value_ranges(self):
        from repro.abdm import ABStore, Query, Record

        store = ABStore()
        store.insert(Record.from_pairs([("FILE", "a"), ("x", 1)]))
        summary = BackendSummary.of_store(store)
        # PR 5: value-range summaries prune without a directory — the
        # resident x extent is [1, 1], so neither 999 nor x > 5 can match.
        assert not summary.may_match(Query.single("x", "=", 999))
        assert not summary.may_match(Query.single("x", ">", 5))
        assert summary.may_match(Query.single("x", "=", 1))
        assert summary.may_match(Query.single("x", "<=", 3))
        # != stays conservative: any resident value may differ.
        assert summary.may_match(Query.single("x", "!=", 1))
        # An attribute no resident record carries satisfies nothing.
        assert not summary.may_match(Query.single("ghost", "!=", 1))
        assert not summary.may_match(Query.single("FILE", "=", "b"))


# -- property: pruning never changes results ---------------------------------

FILES = ("alpha", "beta")

records_strategy = st.lists(
    st.tuples(
        st.sampled_from(FILES),
        st.integers(min_value=0, max_value=99),
        st.sampled_from(["red", "green", "blue"]),
    ),
    min_size=0,
    max_size=30,
)

predicates_strategy = st.sampled_from(
    [
        "(FILE = alpha)",
        "(FILE = beta)",
        "((FILE = alpha) AND (x = 7))",
        "((FILE = alpha) AND (x < 40))",
        "((FILE = beta) AND (x >= 60))",
        "((FILE = alpha) AND (color = 'red'))",
        "(((FILE = alpha) AND (x = 7)) OR ((FILE = beta) AND (x = 7)))",
        "(FILE = gamma)",
        "(x > 50)",
    ]
)


@settings(max_examples=40, deadline=None)
@given(rows=records_strategy, query=predicates_strategy)
def test_pruning_never_changes_results(rows, query):
    def build(pruning):
        directory = Directory()
        directory.add_ranges("x", 0, 100, 5)
        controller = BackendController(
            3, store_factory=lambda: ClusteredStore(directory), pruning=pruning
        )
        for index, (file_name, x, color) in enumerate(rows):
            controller.execute(
                parse_request(insert_text(file_name, f"r${index}", x=x, color=f"'{color}'"))
            )
        return controller

    pruned = build(True).execute(parse_request(f"RETRIEVE {query} (*)"))
    unpruned = build(False).execute(parse_request(f"RETRIEVE {query} (*)"))
    assert [r.pairs() for r in pruned.result.records] == [
        r.pairs() for r in unpruned.result.records
    ]
    assert pruned.result.count == unpruned.result.count
