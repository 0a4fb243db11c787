"""Telemetry spans and events: an injected clock, counters, JSONL export,
and the DSE run summary built on them."""

import json

import pytest

from repro.core.telemetry import TELEMETRY_SCHEMA_VERSION, Telemetry
from repro.dse import trace_summary


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, start=100.0):
        self.time = start

    def __call__(self):
        return self.time

    def advance(self, seconds):
        self.time += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def telemetry(clock):
    return Telemetry(clock=clock)


def test_span_measures_duration_on_the_injected_clock(telemetry, clock):
    with telemetry.span("work", family="cfu1") as span:
        clock.advance(2.5)
    assert len(telemetry.spans) == 1
    assert telemetry.spans[0].duration == 2.5
    assert telemetry.spans[0].attrs == {"family": "cfu1"}
    assert span.start == 0.0  # relative to the telemetry's epoch


def test_span_accepts_late_attributes(telemetry, clock):
    with telemetry.span("trial") as span:
        span.attrs["cache_hit"] = True
    assert telemetry.spans[0].attrs["cache_hit"] is True


def test_span_recorded_even_when_body_raises(telemetry, clock):
    with pytest.raises(ValueError):
        with telemetry.span("boom"):
            clock.advance(1.0)
            raise ValueError("worker died")
    assert len(telemetry.spans) == 1
    assert telemetry.spans[0].duration == 1.0


def test_record_span_for_externally_timed_work(telemetry, clock):
    clock.advance(10.0)
    span = telemetry.record_span("trial", 3.0, family="none", fit=False)
    assert span.duration == 3.0
    assert span.start == 7.0  # ended "now", started duration ago
    assert telemetry.spans == [span]


def test_record_span_clamp_preserves_duration(telemetry, clock):
    """A duration longer than the clock's history used to be silently
    shortened; now the duration is kept, start clamps to 0, and the
    span is marked clamped."""
    clock.advance(2.0)
    span = telemetry.record_span("long_trial", 5.0)
    assert span.duration == 5.0          # the measurement is the datum
    assert span.start == 0.0
    assert span.attrs["clamped"] is True
    # In-range spans are untouched and unmarked.
    clock.advance(10.0)
    ok = telemetry.record_span("ok_trial", 3.0)
    assert ok.start == 9.0
    assert "clamped" not in ok.attrs


def test_counters_accumulate(telemetry):
    telemetry.counter("dse_cache_hits").inc()
    telemetry.counter("dse_cache_hits").add(2)
    telemetry.counter("dse_fit_rejects").inc()
    assert {s.name: s.value for s in telemetry.series()} == {
        "dse_cache_hits": 3, "dse_fit_rejects": 1}


def test_events_carry_time_and_attrs(telemetry, clock):
    clock.advance(4.0)
    telemetry.event("progress", family="cfu2", completed=8, budget=30)
    assert telemetry.events[0]["time"] == 4.0
    assert telemetry.events[0]["family"] == "cfu2"
    assert telemetry.events[0]["completed"] == 8


def test_records_interleave_spans_and_events_in_completion_order(telemetry,
                                                                clock):
    telemetry.event("family_start", family="none")
    with telemetry.span("trial"):
        clock.advance(1.0)
    telemetry.event("family_done", family="none")
    records = telemetry.records()
    assert records[0]["type"] == "trace"
    kinds = [(r["type"], r["name"]) for r in records[1:]]
    assert kinds == [("event", "family_start"), ("span", "trial"),
                     ("event", "family_done")]


def test_export_jsonl_round_trips(telemetry, clock, tmp_path):
    telemetry.event("family_start", family="cfu1")
    with telemetry.span("trial", family="cfu1") as span:
        clock.advance(0.5)
        span.attrs["fit"] = True
    telemetry.counter("dse_cache_misses").inc()
    path = tmp_path / "trace.jsonl"
    count = telemetry.export_jsonl(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == count == 3
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "trace"
    assert records[0]["schema"] == TELEMETRY_SCHEMA_VERSION
    assert records[0]["series"] == [{"name": "dse_cache_misses",
                                     "labels": [], "kind": "counter",
                                     "value": 1}]
    span_records = [r for r in records if r["type"] == "span"]
    assert span_records[0]["family"] == "cfu1"
    assert span_records[0]["fit"] is True
    assert span_records[0]["duration"] == 0.5


def test_summary_reports_hit_rate_and_rejects(telemetry):
    telemetry.counter("dse_cache_hits").add(3)
    telemetry.counter("dse_cache_misses").inc()
    telemetry.counter("dse_fit_rejects").add(2)
    text = trace_summary(telemetry)
    assert "3 hits / 1 misses" in text
    assert "75.0% hit rate" in text
    assert "fit rejects: 2" in text


def test_summary_with_no_lookups_does_not_divide_by_zero(telemetry):
    assert "0.0% hit rate" in trace_summary(telemetry)
