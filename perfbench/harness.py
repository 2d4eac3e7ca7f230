"""Process, HTTP and statistics plumbing shared by the workloads.

:class:`ServerChild` boots ``repro serve`` (or the tracing launcher
``perfbench/traced_serve.py``) as a child process on an ephemeral port
and stops it with SIGINT, the same path as Ctrl-C, so the server
flushes every session before it exits.  :class:`Conn` is one keep-alive
HTTP/1.1 connection that times each request from the moment it is sent
(or from its due time, for open-loop traffic) to the last response byte.
"""

from __future__ import annotations

import http.client
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: durable write policy the benchmark measures: the server's defaults
SNAPSHOT_EVERY = 64
FLUSH_POLICY = (
    f"fdatasync per WAL append (server default), snapshot every "
    f"{SNAPSHOT_EVERY} WAL records"
)

#: environment switches that would replace production defaults
_UNSET_ENV = ("REPRO_STORAGE", "REPRO_DEFAULT_SHARDS", "REPRO_PIN_WORKERS")

_HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """A failure that aborts the run (the process exits nonzero)."""


# --------------------------------------------------------------------------
# the server child
# --------------------------------------------------------------------------


class ServerChild:
    """One ``repro serve`` process with its own durable state directory."""

    def __init__(
        self,
        root: Path,
        work: Path,
        name: str,
        max_sessions: int = 64,
        spans_path: Optional[Path] = None,
    ) -> None:
        self.state_dir = work / f"{name}-state"
        self.log_path = work / f"{name}-server.log"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        serve_args = [
            "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--quiet",
            "--state-dir", str(self.state_dir),
            "--snapshot-every", str(SNAPSHOT_EVERY),
            "--max-sessions", str(max_sessions),
            "--data-root", str(work),
        ]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            argv = [
                sys.executable, str(_HERE / "traced_serve.py"),
                "--spans", str(spans_path), "--", *serve_args,
            ]
        env = {k: v for k, v in os.environ.items() if k not in _UNSET_ENV}
        src = str(root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=str(root), env=env,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.pid = self.proc.pid
        self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        marker = b"listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = self.log_path.read_bytes()
            at = text.find(marker)
            if at >= 0:
                tail = text[at + len(marker):]
                digits = tail[: len(tail) - len(tail.lstrip(b"0123456789"))]
                if digits and len(tail) > len(digits):
                    return int(digits)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(
            "server did not start:\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    # -- /proc readings ----------------------------------------------------

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        # fields after the parenthesised command name; utime/stime are
        # the 12th/13th of those (clock ticks)
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def write_bytes(self) -> int:
        for line in self._proc("io").splitlines():
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
        return 0

    def state_bytes(self) -> int:
        return sum(
            p.stat().st_size for p in self.state_dir.rglob("*") if p.is_file()
        )

    # -- shutdown ------------------------------------------------------------

    def stop(self, graceful: bool = True) -> None:
        """SIGINT (graceful flush), then wait; SIGKILL if it hangs, or at
        once when ``graceful`` is false (a server whose state is thrown away)."""
        if self.proc.poll() is None and not graceful:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)


# --------------------------------------------------------------------------
# keep-alive HTTP
# --------------------------------------------------------------------------


class Conn:
    """One keep-alive connection; every call returns (status, body)."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self._http = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )
        self._headers = {"Content-Type": "application/json"}

    def call(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        self._http.request(method, path, body=body, headers=self._headers)
        response = self._http.getresponse()
        return response.status, response.read()

    def timed(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        since: Optional[float] = None,
    ) -> Tuple[int, bytes, float]:
        """``(status, body, seconds)`` timed from ``since`` (default: now)."""
        started = time.perf_counter() if since is None else since
        status, data = self.call(method, path, body)
        return status, data, time.perf_counter() - started

    def close(self) -> None:
        self._http.close()


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Metric:
    """One named figure with its unit and the samples behind it."""

    __slots__ = ("name", "value", "unit", "samples", "note")

    def __init__(
        self, name: str, value: float, unit: str, samples: int, note: str = ""
    ) -> None:
        self.name = name
        self.value = value
        self.unit = unit
        self.samples = samples
        self.note = note

    def line(self) -> str:
        text = f"{self.name:<32} {self.value:>14.4f} {self.unit:<8} n={self.samples}"
        return f"{text}  {self.note}" if self.note else text


def latency_metrics(
    prefix: str, seconds: List[float], want_tail: Optional[float] = None
) -> List[Metric]:
    """``<prefix>_p50_ms`` plus a tail figure in milliseconds.

    ``want_tail`` names the tail the workload promises (p90, p99); when
    the run has too few samples for it, the highest percentile with ten
    samples beyond it is reported instead, and the note says so.
    """
    if not seconds:
        raise BenchError(f"no {prefix} samples were timed")
    ms = [s * 1e3 for s in seconds]
    out = [Metric(f"{prefix}_p50_ms", percentile(ms, 50.0), "ms", len(ms))]
    if want_tail is None:
        return out
    # the highest percentile that still has ten samples beyond it
    tail = 100.0 * (1.0 - 10.0 / len(ms))
    name = f"{prefix}_p{want_tail:g}_ms"
    if tail >= want_tail:
        out.append(Metric(name, percentile(ms, want_tail), "ms", len(ms)))
    elif tail >= 50.0:
        out.append(Metric(name, percentile(ms, tail), "ms", len(ms),
                          f"only {len(ms)} samples: this is p{tail:.1f}"))
    else:
        out.append(Metric(name, percentile(ms, want_tail), "ms", len(ms),
                          "too few samples for any tail: shown, not valid"))
    return out


def calibration_ms() -> float:
    """A fixed pure-Python loop, timed: the host-speed yardstick."""
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def environment() -> Dict[str, Any]:
    """Host facts a later absolute budget is normalized by."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "calibration_ms": round(calibration_ms(), 4),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "flush_policy": FLUSH_POLICY,
    }
