"""Per-layer figures from a traced pass.

Input: the spans and events ``traced_serve.py`` wrote, the measured
window, and what the client and ``/proc`` saw over the same window.
Only spans that *start* inside the window count.  Every ``*_ms`` figure
is milliseconds of that layer per client request in the window, so the
figures of one workload add up against its mean request latency;
``*_self_ms`` subtracts the time covered by the span's children.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from harness import Metric, percentile

#: (metric, unit) of every per-layer figure, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("aio.transport_ms", "ms"),
    ("aio.snapshot_hit_ratio", "ratio"),
    ("core.parse_ms", "ms"),
    ("core.encode_ms", "ms"),
    ("hosting.lock_wait_p99_ms", "ms"),
    ("hosting.get_ms", "ms"),
    ("hosting.create_self_ms", "ms"),
    ("hosting.evictions", "count/op"),
    ("hosting.rehydrations", "count/op"),
    ("durability.wal_append_ms", "ms"),
    ("durability.snapshot_ms", "ms"),
    ("durability.snapshots", "count/op"),
    ("durability.recover_ms", "ms"),
    ("durability.fsyncs", "count/op"),
    ("durability.write_bytes_per_op", "B/op"),
    ("session.detect_ms", "ms"),
    ("session.report_ms", "ms"),
    ("session.violations_per_detect", "count"),
    ("relational.rows_added", "count/op"),
    ("relational.extend_rows_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.layout_ms", "ms"),
    ("engine.kernel_ms", "ms"),
    ("engine.execute_self_ms", "ms"),
    ("delta.build_ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.decode_ms", "ms"),
    ("repair.urepair_ms", "ms"),
    ("repair.residual_detect_ms", "ms"),
    ("process.cpu_ms_per_op", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

#: span names summed into each plain time figure
_TIME_SPANS: Dict[str, Tuple[str, ...]] = {
    "core.parse_ms": ("core.parse",),
    "core.encode_ms": ("core.encode",),
    "hosting.get_ms": ("hosting.get",),
    "durability.wal_append_ms": ("durability.log_apply", "durability.log_undo"),
    "durability.snapshot_ms": ("durability.snapshot",),
    "durability.recover_ms": ("durability.recover",),
    "session.detect_ms": ("session.detect",),
    "session.report_ms": ("session.report",),
    "relational.extend_rows_ms": ("relational.extend_rows",),
    "engine.plan_ms": ("engine.plan",),
    "engine.layout_ms": ("engine.layout",),
    "engine.kernel_ms": ("engine.kernel",),
    "delta.build_ms": ("delta.build",),
    "delta.apply_ms": ("delta.apply",),
    "delta.decode_ms": ("delta.decode",),
    "repair.urepair_ms": ("repair.urepair",),
}

#: span names whose self time is reported
_SELF_SPANS = {
    "hosting.create_self_ms": "hosting.create",
    "engine.execute_self_ms": "engine.execute",
}


class Window:
    """What the client measured over the traced window."""

    def __init__(
        self,
        start: float,
        end: float,
        latencies: List[float],
        detects: int,
        counters: Dict[str, int],
        cpu_ms_per_op: float,
        write_bytes: int,
        late: List[float],
    ) -> None:
        self.start = start
        self.end = end
        self.latencies = latencies
        self.detects = detects
        self.counters = counters
        #: server CPU per request, from the untraced pass (no span cost)
        self.cpu_ms_per_op = cpu_ms_per_op
        self.write_bytes = write_bytes
        self.late = late


def load(path: Path) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def _self_times(spans: List[List[Any]]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals.

    Children run on the parent's thread, nested inside it, so they never
    overlap one another and a plain sum is their union.
    """
    child_time: Dict[int, float] = {}
    for _id, parent, _name, start, end, _tag in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        span[0]: (span[4] - span[3]) - child_time.get(span[0], 0.0)
        for span in spans
    }


def per_layer(trace: Dict[str, Any], window: Window, overhead: float) -> List[Metric]:
    """Every figure of :data:`PER_LAYER` for one traced window."""
    every = trace["spans"]
    by_id = {span[0]: span for span in every}
    spans = [s for s in every if window.start <= s[3] <= window.end]
    events = [e for e in trace["events"] if window.start <= e[1] <= window.end]
    requests = max(len(window.latencies), 1)
    values: Dict[str, float] = {}

    def total(names: Tuple[str, ...]) -> float:
        return sum(s[4] - s[3] for s in spans if s[2] in names)

    for metric, names in _TIME_SPANS.items():
        values[metric] = total(names) * 1e3 / requests
    self_times = _self_times(every)
    for metric, name in _SELF_SPANS.items():
        values[metric] = sum(self_times[s[0]] for s in spans if s[2] == name) * 1e3 / requests

    handles = [s for s in spans if s[2] == "core.handle"]
    values["aio.transport_ms"] = (
        sum(window.latencies) - total(("core.handle",))
    ) * 1e3 / requests
    detect_handles = sum(1 for s in handles if str(s[5]).endswith("/detect"))
    values["aio.snapshot_hit_ratio"] = (
        1.0 - detect_handles / window.detects if window.detects else 0.0
    )
    waits = [e[2] * 1e3 for e in events if e[0] == "hosting.lock_wait"]
    values["hosting.lock_wait_p99_ms"] = percentile(waits, 99.0) if waits else 0.0
    values["hosting.evictions"] = window.counters["evicted"] / requests
    values["hosting.rehydrations"] = window.counters["rehydrated"] / requests
    values["durability.snapshots"] = (
        sum(1 for s in spans if s[2] == "durability.snapshot") / requests
    )
    values["durability.fsyncs"] = (
        sum(1 for s in spans if s[2] in ("os.fsync", "os.fdatasync")) / requests
    )
    values["durability.write_bytes_per_op"] = window.write_bytes / requests
    detects = [s for s in spans if s[2] == "session.detect" and s[5] is not None]
    values["session.violations_per_detect"] = (
        sum(s[5] for s in detects) / len(detects) if detects else 0.0
    )
    values["relational.rows_added"] = (
        sum(1 for e in events if e[0] == "relational.add") / requests
    )
    residual = [
        s for s in spans
        if s[2] == "engine.detect" and s[1] in by_id
        and by_id[s[1]][2] == "session.repair"
    ]
    values["repair.residual_detect_ms"] = (
        sum(s[4] - s[3] for s in residual) * 1e3 / requests
    )
    values["process.cpu_ms_per_op"] = window.cpu_ms_per_op
    values["loadgen.late_p99_ms"] = (
        percentile([x * 1e3 for x in window.late], 99.0) if window.late else 0.0
    )
    values["trace.overhead_ratio"] = overhead
    return [
        Metric(name, values[name], unit, len(window.latencies))
        for name, unit in PER_LAYER
    ]
