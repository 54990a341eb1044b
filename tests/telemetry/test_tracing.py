"""Tracer semantics: nesting, propagation contexts, determinism, errors."""

import pytest

from repro.common.clock import SimClock
from repro.telemetry.tracing import SpanEvent, TraceContext, Tracer


def make_tracer() -> tuple[Tracer, SimClock]:
    clock = SimClock()
    return Tracer(clock=clock), clock


def test_nested_spans_share_a_trace_and_link_parent():
    tracer, clock = make_tracer()
    with tracer.span("outer") as outer:
        clock.advance(1.0)
        with tracer.span("inner") as inner:
            clock.advance(0.5)
    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.start == 0.0 and outer.end == 1.5
    assert inner.duration == pytest.approx(0.5)


def test_sibling_roots_get_fresh_traces():
    tracer, __ = make_tracer()
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    assert len(tracer.trace_ids()) == 2


def test_ids_are_deterministic_sequence_numbers():
    for _ in range(2):  # two fresh tracers produce identical ids
        tracer, __ = make_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.span_id for s in tracer.spans] == ["s000001", "s000002"]
        assert tracer.spans[0].trace_id == "t0001"


def test_explicit_parent_context_wins_over_stack():
    tracer, __ = make_tracer()
    remote = TraceContext(trace_id="t0042", span_id="s000099")
    with tracer.span("local"):
        with tracer.span("continuation", parent=remote) as span:
            pass
    assert span.trace_id == "t0042"
    assert span.parent_id == "s000099"


def test_exception_marks_span_error_and_propagates():
    tracer, __ = make_tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    span = tracer.spans[0]
    assert span.status == "error"
    assert span.error == "RuntimeError"
    assert span.end is not None  # closed despite the exception


def test_record_span_for_precomputed_intervals():
    tracer, clock = make_tracer()
    clock.advance(2.0)
    span = tracer.record_span("transit", start=1.0, end=1.8, kind="block")
    assert span.start == 1.0 and span.end == pytest.approx(1.8)
    assert span.attributes["kind"] == "block"
    assert tracer.current_span() is None  # not left on the stack


def test_end_clamps_to_start():
    tracer, clock = make_tracer()
    clock.advance(5.0)
    span = tracer.start_span("s", start=9.0)
    tracer.end_span(span)  # clock.now (5.0) < start
    assert span.end == span.start


def test_attributes_and_events_pass_redaction():
    tracer, __ = make_tracer()
    with tracer.span("apply", buyer_passport="P-1") as span:
        tracer.add_event(span, "kyc", ssn_number="000-11-2222")
    assert "P-1" not in str(span.attributes)
    assert span.attributes["buyer_passport"].startswith("[REDACTED:")
    event = span.events[0]
    assert "000-11-2222" not in str(event.attributes)


def test_current_context_reflects_stack_top():
    tracer, __ = make_tracer()
    assert tracer.current_context() is None
    with tracer.span("a") as a:
        assert tracer.current_context() == a.context()
        assert TraceContext.from_tuple(a.context().as_tuple()) == a.context()
    assert tracer.current_context() is None


def test_queries_find_and_group_spans():
    tracer, __ = make_tracer()
    with tracer.span("x"):
        with tracer.span("y"):
            pass
    with tracer.span("x"):
        pass
    assert len(tracer.find_spans("x")) == 2
    first_trace = tracer.trace_ids()[0]
    assert {s.name for s in tracer.spans_of(first_trace)} == {"x", "y"}
    assert all(isinstance(d, dict) for d in tracer.to_dicts())


def test_span_records_have_no_instance_dict():
    tracer, __ = make_tracer()
    with tracer.span("op") as span:
        tracer.add_event(span, "hop")
    for record in (span, span.events[0], span.context()):
        assert not hasattr(record, "__dict__")
    assert isinstance(span.events[0], SpanEvent)


def test_span_to_dict_with_zero_one_and_two_events():
    tracer, clock = make_tracer()
    dicts = []
    for count in range(3):
        with tracer.span("op", channel="c", size=count) as span:
            for index in range(count):
                clock.advance(0.5)
                tracer.add_event(span, f"e{index}", hop=index)
            clock.advance(1.0)
        dicts.append(span.to_dict())

    def expected(number, start, end, attributes, events):
        return {
            "name": "op", "trace_id": f"t{number:04d}",
            "span_id": f"s{number:06d}", "parent_id": None,
            "start": start, "end": end, "duration": end - start,
            "attributes": attributes, "events": events,
            "status": "ok", "error": None,
        }

    assert dicts == [
        expected(1, 0.0, 1.0, {"channel": "c", "size": 0}, []),
        expected(2, 1.0, 2.5, {"channel": "c", "size": 1}, [
            {"time": 1.5, "name": "e0", "attributes": {"hop": 0}},
        ]),
        expected(3, 2.5, 4.5, {"channel": "c", "size": 2}, [
            {"time": 3.0, "name": "e0", "attributes": {"hop": 0}},
            {"time": 3.5, "name": "e1", "attributes": {"hop": 1}},
        ]),
    ]
    assert isinstance(dicts[0]["events"], list)
