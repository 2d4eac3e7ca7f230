"""End-to-end benchmark of the served ``/v1`` constraint service.

Run from the repository root::

    python3 perfbench/run.py --workload batch_clean --seed 1 --seconds 30 --trace 0

Each run boots ``repro serve`` as a child process (durable ``--state-dir``,
fdatasync per write, ``--snapshot-every 64``), drives one workload over
keep-alive HTTP from this process, checks every served result byte for
byte against an offline ``Session``, prints a report, and prints as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs an untraced and a traced pass of half the length each and reports
the per-layer metrics (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: end-to-end metric → the workload figure it reports, per workload
END_TO_END: Dict[str, Dict[str, str]] = {
    "batch_clean": {
        "write_p50_ms": "create_p50_ms",
        "read_p50_ms": "detect_p50_ms",
        "job_p50_ms": "job_p50_ms",
    },
    "edit_stream": {
        "write_p50_ms": "apply_p50_ms",
        "read_p50_ms": "detect_after_write_p50_ms",
        "job_p50_ms": "job_p50_ms",
    },
    "tenant_mix": {
        "write_p50_ms": "apply_p50_ms",
        "read_p50_ms": "detect_p50_ms",
        "job_p50_ms": "request_p50_ms",
    },
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch_clean", "edit_stream", "tenant_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's inputs")
    return parser.parse_args(argv)


class Measured:
    """One server process's pass: set-up times, window, readings."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.window = (0.0, 0.0)
        self.rss_mb = 0.0
        self.state_bytes_per_row = 0.0
        self.counters: Dict[str, int] = {}
        self.cpu_seconds = 0.0
        self.write_bytes = 0
        self.pass_: Any = None


def _counters(port: int) -> Dict[str, int]:
    from harness import Conn

    conn = Conn(port)
    try:
        status, body = conn.call("GET", "/v1/metrics")
    finally:
        conn.close()
    document = json.loads(body)
    return {
        "evicted": document["sessions"]["evicted_total"],
        "rehydrated": document["durability"].get("rehydrated_total", 0),
    }


def _freeze(inputs: Any) -> Any:
    """Move the built inputs out of the client's garbage collector, so a
    collection during the window does not walk them."""
    gc.collect()
    gc.freeze()
    return inputs


def _measure(
    pass_type: Any,
    inputs: Any,
    root: Path,
    work: Path,
    seconds: float,
    repeats: int,
    spans: Optional[Path] = None,
) -> Measured:
    """Set up ``repeats`` times (keeping the last server), then measure."""
    from harness import ServerChild

    out = Measured()
    for attempt in range(repeats):
        started = time.perf_counter()
        server = ServerChild(root, work, f"pass{attempt}",
                             max_sessions=inputs.max_sessions,
                             spans_path=spans)
        try:
            current = pass_type(inputs, server)
            current.setup()
            out.setups.append(time.perf_counter() - started)
        except BaseException:
            server.stop()
            server.cleanup()
            raise
        if attempt < repeats - 1:
            current.close()
            server.stop(graceful=False)  # only its set-up time is kept
            server.cleanup()
    try:
        before = _counters(server.port)
        cpu, written = server.cpu_seconds(), server.write_bytes()
        start = time.perf_counter()
        current.run(start + seconds)
        end = time.perf_counter()
        out.window = (start, end)
        out.cpu_seconds = server.cpu_seconds() - cpu
        out.write_bytes = server.write_bytes() - written
        after = _counters(server.port)
        out.counters = {k: after[k] - before[k] for k in before}
        out.rss_mb = server.peak_rss_mb()
        out.state_bytes_per_row = current.state_bytes_per_row()
        current.finish()
    finally:
        current.close()
        server.stop()
        server.cleanup()
    current.verify()
    out.pass_ = current
    return out


def _end_to_end(measured: Measured) -> List[Any]:
    from harness import Metric

    figures = measured.pass_.metrics()
    figures.append(Metric("server_rss_mb", measured.rss_mb, "MB", 1, "VmHWM"))
    figures.append(Metric("state_bytes_per_row", measured.state_bytes_per_row,
                          "B/row", 1, "state dir bytes per live row"))
    figures.append(Metric(
        "setup_s", statistics.median(measured.setups), "s", len(measured.setups),
        "median of " + ", ".join(f"{s:.3f}" for s in measured.setups)))
    return figures


def _overhead(
    plain: Dict[str, List[float]], traced: Dict[str, List[float]]
) -> float:
    """Traced over untraced time: per-verb medians, weighted by the
    untraced pass's verb counts (robust to a few slow outliers)."""
    base = total = 0.0
    for verb, values in plain.items():
        if traced.get(verb):
            base += len(values) * statistics.median(values)
            total += len(values) * statistics.median(traced[verb])
    return total / base


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    from harness import BenchError, environment
    from layers import Window, load, per_layer
    from workloads import SIZES, WORKLOADS

    pass_type = WORKLOADS[args.workload]
    size = SIZES[args.size]
    work = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            half = args.seconds / 2
            inputs = _freeze(pass_type.Inputs(args.seed, size, half))
            plain = _measure(pass_type, inputs, root, work, half, 1)
            spans = work / "spans.json"
            traced = _measure(pass_type, inputs, root, work, half, 1, spans)
            passes = [plain, traced]
            overhead = _overhead(plain.pass_.samples, traced.pass_.samples)
            window = Window(
                traced.window[0], traced.window[1],
                traced.pass_.service, traced.pass_.detects,
                traced.counters,
                plain.cpu_seconds * 1e3 / max(len(plain.pass_.service), 1),
                traced.write_bytes, traced.pass_.late,
            )
            figures = per_layer(load(spans), window, overhead)
            reported = {f.name: f for f in figures}
        else:
            inputs = _freeze(pass_type.Inputs(args.seed, size, args.seconds))
            measured = _measure(pass_type, inputs, root, work, args.seconds,
                                SETUP_REPEATS)
            passes = [measured]
            figures = _end_to_end(measured)
            by_name = {f.name: f for f in figures}
            reported = {
                slot: by_name[source]
                for slot, source in END_TO_END[args.workload].items()
            }
            for shared in ("setup_s", "server_rss_mb", "state_bytes_per_row"):
                reported[shared] = by_name[shared]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for figure in figures:
        print(figure.line())
    mismatches = [m for p in passes for m in p.pass_.mismatches]
    attempted = sum(p.pass_.attempted for p in passes)
    failed = sum(p.pass_.failed for p in passes)
    for message in mismatches:
        print(f"MISMATCH {message}")
    correct = not mismatches and failed == 0
    print(f"correctness: {'ok' if correct else 'FAILED'} "
          f"({attempted} requests, {failed} failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": figure.value, "unit": figure.unit}
            for name, figure in reported.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
