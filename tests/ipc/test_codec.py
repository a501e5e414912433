"""The wire codec must invert itself exactly — through real JSON text.

Every round trip here goes ``encode → json.dumps → json.loads → decode``
so the tests prove JSON-cleanliness, not just structural symmetry.  The
bit-identity contract of the process engine rests on these inversions:
floats (including NaN), null values, record text, span trees, and the
timing model must all survive the pipe untouched, and a backend reply
that ships only raw records must decode to the in-process result.
"""

from __future__ import annotations

import json
import math

from repro.abdl import parse_request
from repro.abdm.directory import Directory
from repro.abdm.plan import AttributeIndexDigest
from repro.abdm.record import Record
from repro.ipc import codec
from repro.mbds.backend import Backend
from repro.mbds.summary import AttributeRange, BackendSummary, FileSummary
from repro.mbds.timing import TimingModel
from repro.obs.trace import Span


def through_json(payload):
    return json.loads(json.dumps(payload))


class TestRequests:
    REQUESTS = (
        "INSERT (<FILE, f>, <f, v$1>, <x, 3>)",
        "DELETE ((FILE = f) AND (x >= 2))",
        "UPDATE ((FILE = f) AND (x = 1)) (x = x + 10)",
        "RETRIEVE ((FILE = f) AND (x > 0)) (x) BY x",
        "RETRIEVE ((FILE = a) OR (FILE = b)) (*)",
        "RETRIEVE-COMMON ((FILE = a) AND (x = 1)) COMMON (k) (FILE = b) (*)",
    )

    def test_all_five_kinds_roundtrip(self):
        for text in self.REQUESTS:
            request = parse_request(text)
            decoded = codec.decode_any_request(
                through_json(codec.encode_any_request(request))
            )
            assert type(decoded) is type(request)
            assert decoded.render() == request.render()

    def test_retrieve_preserves_target_and_by(self):
        request = parse_request("RETRIEVE (FILE = f) (x, MAX(y)) BY x")
        decoded = codec.decode_any_request(
            through_json(codec.encode_any_request(request))
        )
        assert decoded.by == "x"
        assert [(t.attribute, t.aggregate) for t in decoded.target] == [
            (t.attribute, t.aggregate) for t in request.target
        ]


def batch_roundtrip(records):
    return codec.decode_records(through_json(codec.encode_records(records)))


def loaded_backend():
    """A real backend holding two files, mixed record shapes and text."""
    backend = Backend(2, TimingModel())
    backend.store.add_index("x")
    for i in range(12):
        backend.execute(
            parse_request(
                f"INSERT (<FILE, f>, <f, f${i}>, <x, {i % 4}>, <y, {i * 0.75}>)"
            )
        )
    backend.execute(parse_request("INSERT (<FILE, f>, <f, f$99>, <z, 'odd'>)"))
    backend.store.insert(
        Record.from_pairs([("FILE", "f"), ("x", 1), ("y", 2.5)], text="noted")
    )
    for i in range(4):
        backend.execute(parse_request(f"INSERT (<FILE, g>, <g, g${i}>, <x, {i}>)"))
    return backend


#: RETRIEVE shapes whose ``records`` the receiver rebuilds by projection.
RESULT_REQUESTS = (
    "RETRIEVE (FILE = f) (*)",
    "RETRIEVE ((FILE = f) AND (x >= 2)) (x, y)",
    "RETRIEVE (FILE = f) (y, z) BY x",
    "RETRIEVE (FILE = f) (COUNT(*), AVG(y), MAX(z)) BY x",
    "RETRIEVE (FILE = f) (SUM(y))",
    "RETRIEVE ((FILE = f) AND (x = 77)) (COUNT(*))",
    "RETRIEVE-COMMON (FILE = f) COMMON (x) (FILE = g) (f, g)",
    "UPDATE ((FILE = g) AND (x = 0)) (x = x + 10)",
    "DELETE ((FILE = g) AND (x = 3))",
)


class TestRecordsAndResults:
    def test_record_roundtrips_value_domain(self):
        record = Record.from_pairs(
            [("FILE", "f"), ("i", 3), ("f2", 3.5), ("s", "str"), ("n", None)],
            text="the textual portion",
        )
        (decoded,) = batch_roundtrip([record])
        assert decoded == record
        assert decoded.text == record.text

    def test_nan_survives_the_wire(self):
        record = Record.from_pairs([("FILE", "f"), ("x", float("nan"))])
        (decoded,) = batch_roundtrip([record])
        ((_, value),) = [p for p in decoded.pairs() if p[0] == "x"]
        assert math.isnan(value)

    def test_float_bit_identity(self):
        values = (0.1, 1e-17, 2**53 + 1.0, -0.0, 1.0000000000000002)
        records = [Record.from_pairs([("FILE", "f"), ("x", v)]) for v in values]
        for value, decoded in zip(values, batch_roundtrip(records)):
            ((_, out),) = [p for p in decoded.pairs() if p[0] == "x"]
            assert repr(out) == repr(value)

    def test_backend_result_roundtrips_scan_stats(self):
        backend = loaded_backend()
        results = []
        for text in RESULT_REQUESTS:
            request = parse_request(text)
            result = backend.execute(request)
            decoded = codec.decode_backend_result(
                through_json(codec.encode_backend_result(result)), request
            )
            assert decoded == result, text
            assert [r.text for r in decoded.result.raw_records] == [
                r.text for r in result.result.raw_records
            ]
            results.append(result)
        # Every access path the scan statistics count was taken.
        for stat in ("index_hits", "range_hits", "fallback_scans"):
            assert any(getattr(result, stat) for result in results), stat

    def test_batch_interns_shapes_and_drops_empty_text(self):
        records = [
            Record.from_pairs([("FILE", "f"), ("x", 1)]),
            Record.from_pairs([("FILE", "f"), ("y", 2)]),
            Record.from_pairs([("FILE", "f"), ("x", 3)]),
        ]
        batch = codec.encode_records(records)
        assert batch == {
            "shapes": [["FILE", "x"], ["FILE", "y"]],
            "ids": [0, 1, 0],
            "values": [["f", 1], ["f", 2], ["f", 3]],
        }
        records[1].text = "t"
        assert codec.encode_records(records)["text"] == ["", "t", ""]

    def test_reply_ships_each_record_once(self):
        backend = loaded_backend()
        payload = codec.encode_backend_result(
            backend.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        )
        assert "records" not in payload["result"]
        assert len(payload["result"]["raw_records"]["values"]) == 14


class TestImagesSummariesDigests:
    def test_summary_roundtrips_minus_directory(self):
        summary = BackendSummary(
            frozenset({"f"}),
            None,
            {
                "f": FileSummary(
                    5,
                    {
                        "x": AttributeRange(0, 9, None, None, False, True),
                        "s": AttributeRange(None, None, "a", "zz", True, False),
                    },
                    None,
                )
            },
        )
        decoded = codec.decode_summary(
            through_json(codec.encode_summary(summary))
        )
        assert decoded == summary

    def test_clustered_summary_reattaches_lent_directory(self):
        directory = Directory()
        directory.add_ranges("x", 0, 100, 4)
        summary = BackendSummary(
            frozenset({"f"}),
            directory,
            {"f": FileSummary(2, {}, (frozenset({0, 1}), frozenset({3})))},
        )
        decoded = codec.decode_summary(
            through_json(codec.encode_summary(summary)), directory
        )
        assert decoded.directory is directory
        assert decoded.file_summaries == summary.file_summaries

    def test_digest_roundtrips(self):
        digest = AttributeIndexDigest(
            entries=7, nulls=1, nans=1, distinct=4, num_min=0, num_max=9,
            str_min="a", str_max="q",
        )
        decoded = codec.decode_digest(through_json(codec.encode_digest(digest)))
        assert decoded == digest


class TestSpans:
    def build_tree(self):
        root = Span("backend[0].retrieve")
        root.simulated_ms = 4.5
        root.wall_ms = 0.2
        root.attrs["records_examined"] = 9
        child = Span("qc.compile", root)
        child.simulated_ms = 0.0
        child.wall_ms = 0.05
        child.attrs["source"] = "(FILE = f)"
        grand = Span("qc.compile.codegen", child)
        grand.wall_ms = 0.01
        return root

    def test_span_tree_roundtrips(self):
        root = self.build_tree()
        decoded = codec.decode_span(through_json(codec.encode_span(root)))

        def shape(span):
            return (
                span.name,
                span.simulated_ms,
                span.wall_ms,
                dict(span.attrs),
                [shape(c) for c in span.children],
            )

        assert shape(decoded) == shape(root)

    def test_graft_attaches_under_parent(self):
        root = self.build_tree()
        parent = Span("backend[0].retrieve")
        codec.graft_spans(through_json([codec.encode_span(c) for c in root.children]), parent)
        assert [c.name for c in parent.children] == ["qc.compile"]
        assert parent.children[0].children[0].name == "qc.compile.codegen"
        assert parent.children[0].parent is parent


class TestTiming:
    def test_timing_model_roundtrips(self):
        timing = TimingModel()
        decoded = codec.decode_timing(through_json(codec.encode_timing(timing)))
        assert decoded == timing

    def test_custom_timing_roundtrips_floats(self):
        timing = TimingModel(broadcast_ms=0.125, page_scan_ms=1.0 / 3.0)
        decoded = codec.decode_timing(through_json(codec.encode_timing(timing)))
        assert repr(decoded.page_scan_ms) == repr(timing.page_scan_ms)
        assert decoded == timing
