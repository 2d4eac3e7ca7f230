"""Run ``repro serve`` with spans recorded around each layer's entry points.

Usage (the benchmark starts it; the arguments after ``--`` are the
``repro.cli`` arguments)::

    PYTHONPATH=src python3 perfbench/traced_serve.py --spans OUT.json -- \\
        serve --port 0 --state-dir STATE ...

Before ``serve()`` starts, the public functions listed in :data:`SPANS`
are replaced, in every loaded ``repro`` module that holds them, by a
wrapper that records ``(id, parent, name, start, end, tag)``.  Parents
come from a per-thread stack, so a span's children are the wrapped calls
it made on the same thread; ``start``/``end`` are ``time.perf_counter()``
readings, which share one clock with the benchmark process.  Spans stay
in memory and are written to ``--spans`` when the server shuts down.
No file of the package is modified.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (span name, module, attribute path) of every timed entry point
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("core.handle", "repro.server.core", "ServiceCore.handle"),
    ("core.parse", "repro.server.core", "parse_body_bytes"),
    ("core.encode", "repro.server.core", "ServiceCore.render_json"),
    ("hosting.get", "repro.server.hosting", "SessionManager.get"),
    ("hosting.create", "repro.server.hosting", "SessionManager.create"),
    ("durability.log_apply", "repro.server.durability", "SessionJournal.log_apply"),
    ("durability.log_undo", "repro.server.durability", "SessionJournal.log_undo"),
    ("durability.snapshot", "repro.server.durability", "SessionJournal.write_snapshot"),
    ("durability.recover", "repro.server.durability", "SessionStore.recover"),
    ("session.detect", "repro.session", "Session.detect"),
    ("session.repair", "repro.session", "Session.repair"),
    ("session.report", "repro.session", "ViolationReport.to_dict"),
    ("relational.extend_rows", "repro.relational.instance", "RelationInstance.extend_rows"),
    ("engine.detect", "repro.cfd.detect", "detect_violations"),
    ("engine.plan", "repro.engine.planner", "plan_detection"),
    ("engine.layout", "repro.engine.kernels", "build_layout"),
    ("engine.kernel", "repro.engine.kernels", "task_flags"),
    ("engine.execute", "repro.engine.executor", "execute_plan"),
    ("delta.build", "repro.engine.delta", "DeltaEngine.__init__"),
    ("delta.apply", "repro.engine.delta", "DeltaEngine.apply"),
    ("delta.decode", "repro.engine.delta", "Changeset.from_dict"),
    ("repair.urepair", "repro.repair.urepair", "repair_cfds"),
    ("os.fsync", "os", "fsync"),
    ("os.fdatasync", "os", "fdatasync"),
)

#: entry points recorded as point events (name, time, value) — no span
EVENTS: Tuple[Tuple[str, str, str], ...] = (
    ("relational.add", "repro.relational.instance", "RelationInstance.add"),
    ("hosting.lock_wait", "repro.server.hosting", "HostedSession.note_lock_wait"),
)


class Tracer:
    """In-memory span and event store, safe to append from any thread."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, Any]] = []
        self.events: List[Tuple[str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tag = _TAGGERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                self.spans.append((
                    span_id, parent, name, started, ended,
                    tag(args, result) if tag is not None else None,
                ))

        return wrapper

    def event(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        value = _EVENT_VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.events.append((
                name, time.perf_counter(),
                value(args) if value is not None else 1.0,
            ))
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


def _handle_tag(args: Sequence[Any], result: Any) -> Any:
    # ServiceCore.handle(self, method, target, read_body)
    return f"{args[1]} {args[2]}"


def _detect_tag(args: Sequence[Any], result: Any) -> Any:
    return len(result.violations) if result is not None else None


_TAGGERS: Dict[str, Callable[[Sequence[Any], Any], Any]] = {
    "core.handle": _handle_tag,
    "session.detect": _detect_tag,
}

_EVENT_VALUES: Dict[str, Callable[[Sequence[Any]], float]] = {
    # HostedSession.note_lock_wait(self, seconds)
    "hosting.lock_wait": lambda args: float(args[1]),
}


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw)`` for ``module:path``; ``raw`` keeps the
    staticmethod/classmethod descriptor when the owner is a class."""
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, raw


def _patch(owner: Any, attribute: str, raw: Any, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    if isinstance(raw, staticmethod):
        setattr(owner, attribute, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(make(raw.__func__)))
    elif isinstance(owner, type):
        setattr(owner, attribute, make(raw))
    else:
        wrapped = make(raw)
        # a module-level function: rebind it in every module that
        # imported the name, not only where it is defined
        for module in list(sys.modules.values()):
            if module is None:
                continue
            name = getattr(module, "__name__", "")
            if name != owner.__name__ and not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)


def install(tracer: Tracer) -> None:
    """Load the server's modules, then wrap every entry point."""
    for module in (
        "repro.cli", "repro.server", "repro.server.aio", "repro.session",
        "repro.engine.executor", "repro.engine.kernels", "repro.engine.delta",
        "repro.engine.indexes", "repro.repair.urepair", "repro.cfd.detect",
    ):
        importlib.import_module(module)
    for name, module, path in SPANS:
        owner, attribute, raw = _resolve(module, path)
        _patch(owner, attribute, raw, functools.partial(tracer.span, name))
    for name, module, path in EVENTS:
        owner, attribute, raw = _resolve(module, path)
        _patch(owner, attribute, raw, functools.partial(tracer.event, name))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="output JSON path")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tmp = args.spans + ".tmp"
        tracer.dump(tmp)
        os.replace(tmp, args.spans)


if __name__ == "__main__":
    sys.exit(main())
