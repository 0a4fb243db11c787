"""One telemetry object per run: labelled series, spans and events.

Every layer of the deploy -> profile -> optimize loop reports into a
:class:`Telemetry`:

- **series** record *how much* happened: monotonic counters,
  last-value gauges and bucketed histograms, keyed by name plus a
  sorted label set.  Names carry their layer as a prefix
  (``dse_cache_hits``, ``sim_instructions``, ``session_runs``), so
  series from different layers never collide.  Each subsystem feeds
  them through an ``export_metrics(telemetry, **labels)`` hook;
- **spans** record *when*: named, attribute-tagged durations on a
  monotonic clock (wall-clock changes cannot corrupt timings);
- **events** are point-in-time progress markers (per-family study
  progress, study start/end).

Series snapshot to a plain JSON-serializable dict (the ``GET /metrics``
body of both servers).  A whole run exports as JSON Lines: a header
record carrying that snapshot, then every span and event in completion
order.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

TELEMETRY_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (cycles-ish magnitudes).
DEFAULT_BUCKETS = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)


def _label_key(labels):
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Scalar:
    """A series holding one number."""

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = tuple(labels)
        self.value = 0

    def _state(self):
        return {"value": self.value}

    def _restore(self, state):
        self.value = state["value"]


class Counter(_Scalar):
    """A monotonically increasing tally."""

    kind = "counter"

    def add(self, amount=1):
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount
        return self.value

    def inc(self):
        return self.add(1)


class Gauge(_Scalar):
    """A last-value-wins measurement."""

    kind = "gauge"

    def set(self, value):
        self.value = value
        return self.value


class Histogram:
    """A bucketed distribution (one count per upper bound, plus overflow)."""

    kind = "histogram"

    def __init__(self, name, labels=(), buckets=DEFAULT_BUCKETS):
        self.name = name
        self.labels = tuple(labels)
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # last = +inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1
        return self.count

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def _state(self):
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "total": self.total, "count": self.count}

    def _restore(self, state):
        self.buckets = tuple(state["buckets"])
        self.counts = list(state["counts"])
        self.total = state["total"]
        self.count = state["count"]


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


@dataclass
class Span:
    """One timed region; ``attrs`` may be filled in while it is open."""

    name: str
    start: float                      # seconds since the telemetry's epoch
    duration: float = 0.0
    attrs: dict = field(default_factory=dict)

    def record(self):
        record = {"type": "span", "name": self.name,
                  "start": round(self.start, 9),
                  "duration": round(self.duration, 9)}
        record.update(self.attrs)
        return record


class Telemetry:
    """Every series, span and event of one run.

    ``clock`` is injectable for tests; it must be monotonic.  Span and
    event times are relative to the object's construction instant.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._epoch = clock()
        self._series = {}
        self.spans = []
        self.events = []
        self._records = []            # spans + events in completion order

    # --- series -----------------------------------------------------------------
    def _get(self, cls, name, labels, **kwargs):
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = cls(name, labels=key[1], **kwargs)
            self._series[key] = series
        elif not isinstance(series, cls):
            raise TypeError(
                f"metric {name!r} already registered as {series.kind}, "
                f"not {cls.kind}")
        return series

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, buckets=DEFAULT_BUCKETS, **labels):
        return self._get(Histogram, name, labels, buckets=buckets)

    def value(self, name, **labels):
        """The current value of a counter/gauge (KeyError if absent)."""
        return self._series[(name, _label_key(labels))].value

    def series(self):
        """Every series, deterministically ordered by (name, labels)."""
        return [self._series[key] for key in sorted(self._series)]

    def __len__(self):
        return len(self._series)

    def __contains__(self, name):
        return any(key[0] == name for key in self._series)

    # --- spans and events -------------------------------------------------------
    def now(self):
        """Seconds since the epoch (monotonic)."""
        return self._clock() - self._epoch

    @contextmanager
    def span(self, name, **attrs):
        """Time a region: ``with telemetry.span("trial", family=f) as s: ...``.

        The yielded :class:`Span` accepts late attributes
        (``s.attrs["cache_hit"] = True``) until the block exits.
        """
        span = Span(name=name, start=self.now(), attrs=dict(attrs))
        try:
            yield span
        finally:
            span.duration = self.now() - span.start
            self._finish(span)

    def record_span(self, name, duration, **attrs):
        """Record an externally-timed span (e.g. measured in a worker
        process) as ending now.

        A worker-measured duration can exceed this object's lifetime
        (the work started before the epoch).  The start is floored at
        the epoch, but the true duration is preserved and the record is
        marked ``clamped`` so consumers can tell the start time is
        approximate rather than silently mis-dated.
        """
        start = self.now() - duration
        span = Span(name=name, start=max(0.0, start),
                    duration=duration, attrs=dict(attrs))
        if start < 0.0:
            span.attrs["clamped"] = True
        self._finish(span)
        return span

    def _finish(self, span):
        self.spans.append(span)
        self._records.append(span.record())

    def event(self, name, **attrs):
        record = {"type": "event", "name": name, "time": round(self.now(), 9)}
        record.update(attrs)
        self.events.append(record)
        self._records.append(record)
        return record

    # --- snapshot and export ----------------------------------------------------
    def snapshot(self):
        """The series as a plain dict (JSON-serializable, schema-versioned)."""
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "series": [
                {"name": series.name, "labels": list(series.labels),
                 "kind": series.kind, **series._state()}
                for series in self.series()
            ],
        }

    @classmethod
    def from_snapshot(cls, data):
        """Series restored from a :meth:`snapshot` (or an export header)."""
        if data.get("schema") != TELEMETRY_SCHEMA_VERSION:
            raise ValueError(f"unsupported metrics schema {data.get('schema')!r}")
        telemetry = cls()
        for item in data["series"]:
            series = _KINDS[item["kind"]](
                item["name"], labels=tuple(tuple(p) for p in item["labels"]))
            series._restore(item)
            telemetry._series[(series.name, series.labels)] = series
        return telemetry

    def records(self):
        """A header carrying the series snapshot, then every span and
        event record in completion order."""
        header = {"type": "trace", "spans": len(self.spans),
                  "events": len(self.events), **self.snapshot()}
        return [header] + list(self._records)

    def export_jsonl(self, path):
        """Write :meth:`records` as JSON Lines; returns the record count."""
        records = self.records()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def summary(self):
        lines = [f"telemetry: {len(self._series)} series, "
                 f"{len(self.spans)} spans, {len(self.events)} events"]
        for series in self.series():
            labels = ",".join(f"{k}={v}" for k, v in series.labels)
            tag = f"{series.name}{{{labels}}}" if labels else series.name
            if isinstance(series, Histogram):
                lines.append(f"  {tag:48s} n={series.count} "
                             f"mean={series.mean:,.1f}")
            else:
                value = series.value
                shown = f"{value:,}" if isinstance(value, int) else f"{value:,.2f}"
                lines.append(f"  {tag:48s} {shown}")
        return "\n".join(lines)
