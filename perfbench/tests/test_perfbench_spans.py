"""Self-time arithmetic and span recording."""

import asyncio
import contextvars
import threading

import pytest

from perfbench.spans import (
    OP,
    Span,
    SpanRecorder,
    chrome_trace,
    covered_length,
    layer_self_times,
    self_times,
)


def span(name, start, end, sid, parent=None, op=0):
    return Span(name, start, end, sid, parent, op, 1)


def test_covered_length_merges_overlaps():
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered_length([(0, 10), (2, 3)]) == pytest.approx(10.0)
    assert covered_length([]) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(OP, 0.0, 10.0, 0),
        span("core.a", 1.0, 5.0, 1, parent=0),
        span("core.b", 3.0, 7.0, 2, parent=0),  # overlaps core.a by 2
        span("traffic.c", 4.0, 6.0, 3, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 6.0)  # children cover [1, 7]
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(2.0)


def test_children_are_clipped_to_their_parent():
    spans = [span(OP, 0.0, 4.0, 0), span("core.a", 3.0, 6.0, 1, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_self_times_add_up_to_op_time():
    spans = [
        span(OP, 0.0, 10.0, 0),
        span("runs.run", 0.5, 9.5, 1, parent=0),
        span("core.saturation", 1.0, 4.0, 2, parent=1),
        span("core.graph_solve", 2.0, 3.0, 3, parent=2),
        span("traffic.flows", 5.0, 8.0, 4, parent=1),
        span(OP, 20.0, 21.0, 5, op=1),
        span("ignored", 30.0, 40.0, 6, op=None),
    ]
    per_layer, unattributed, op_s = layer_self_times(spans)
    assert op_s == pytest.approx(11.0)
    assert unattributed == pytest.approx(1.0 + 1.0)
    assert per_layer == pytest.approx({"runs": 3.0, "core": 3.0, "traffic": 3.0})
    assert sum(per_layer.values()) + unattributed == pytest.approx(op_s)


def test_recorder_links_parents_and_ops():
    rec = SpanRecorder()
    inner = rec.wrap("core.inner", lambda: 1)
    with rec.span(OP, op=7):
        with rec.span("runs.outer"):
            inner()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["core.inner"].parent == by_name["runs.outer"].sid
    assert by_name["runs.outer"].parent == by_name[OP].sid
    assert {s.op for s in rec.spans} == {7}
    events = chrome_trace(rec.spans)["traceEvents"]
    assert [e["name"] for e in events] == [OP, "runs.outer", "core.inner"]
    assert all(e["ph"] == "X" for e in events)


def test_recorder_follows_async_tasks_and_copied_contexts():
    rec = SpanRecorder()

    async def request(op):
        with rec.span(OP, op=op):
            await asyncio.sleep(0.001)
            ctx = contextvars.copy_context()
            t = threading.Thread(target=ctx.run, args=(rec.wrap("runs.solve", lambda: None),))
            t.start()
            t.join(5)
            assert not t.is_alive()

    async def main():
        await asyncio.gather(request(1), request(2))

    asyncio.run(main())
    solves = [s for s in rec.spans if s.name == "runs.solve"]
    ops = {s.sid: s.op for s in rec.spans if s.name == OP}
    assert sorted(s.op for s in solves) == [1, 2]
    assert all(ops[s.parent] == s.op for s in solves)
