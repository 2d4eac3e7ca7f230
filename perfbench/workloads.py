"""The three served workloads: inputs, set-up, the timed loop, the check.

Every workload is split the same way:

* ``Pass.Inputs(seed, size, seconds)`` builds all inputs from the seed —
  request bodies are encoded to bytes here, before any clock starts;
* a fresh ``Pass`` per server process runs ``setup`` (creates and
  warm-up, timed as part of ``setup_s``), ``run`` (the measured window),
  ``finish`` (untimed final reads) and ``verify`` (the byte-for-byte
  check against an offline :class:`~repro.session.Session`, run after
  the server has stopped).

``batch_clean`` and ``edit_stream`` are closed loops with one client;
``tenant_mix`` is an open loop of Poisson arrivals over two connections.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from harness import BenchError, Conn, Metric, ServerChild, latency_metrics

#: workload sizes: "full" is the benchmark, "tiny" the smoke test;
#: ``stream_changesets_per_s`` sizes edit_stream's fixed amount of work,
#: changesets per second of ``--seconds``, independent of server speed
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "batch_rows": 10_000,
        "stream_rows": 50_000,
        "tenants": 200,
        "tenant_rate": 150.0,
        "tenant_max_sessions": 32,
        "stream_changesets_per_s": 100 / 3,
    },
    "tiny": {
        "batch_rows": 400,
        "stream_rows": 1_000,
        "tenants": 12,
        "tenant_rate": 60.0,
        "tenant_max_sessions": 4,
        "stream_changesets_per_s": 50,
    },
}

_DETECT_FULL = b'{"include_violations": true}'
_DETECT_SUMMARY = b'{"include_violations": false}'
_REPAIR_U = b'{"strategy": "u", "adopt": false}'


def _ok(status: int) -> bool:
    return 200 <= status < 300


def _render(document: Dict[str, Any]) -> bytes:
    """The exact bytes the service writes for ``document``."""
    from repro.server.core import ServiceCore

    return ServiceCore.render_json(document)


#: share of rows that get one corrupted cell, as in ``generate_customers``
_ERROR_RATE = 0.03
#: the cells an injected error corrupts, in turn
_DIRTY_ATTRS = ("city", "street", "zip")
#: leading share of rows that is never corrupted nor edited
_CLEAN_HEAD = 0.05


class _Pool:
    """A set with O(1) uniform picks (swap-remove list plus index map)."""

    def __init__(self, items: Any = ()) -> None:
        self.items: List[Any] = list(items)
        self.at: Dict[Any, int] = {x: i for i, x in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def add(self, item: Any) -> None:
        self.at[item] = len(self.items)
        self.items.append(item)

    def remove(self, item: Any) -> None:
        index = self.at.pop(item)
        last = self.items.pop()
        if index < len(self.items):
            self.items[index] = last
            self.at[last] = index

    def pick(self, rng: random.Random) -> Any:
        return self.items[rng.randrange(len(self.items))]


class CustomerData:
    """Seeded ``customer`` rows with an exact, evenly split error count.

    ``generate_customers`` corrupts each row with probability 3%, so the
    number and kind of errors vary with the seed; and a corrupted row
    that happens to lead its (CC, zip) or (CC, AC) group is paired by the
    detector with every other member of the group, which can double one
    seed's violations.  Here the rows are generated clean, exactly 3% get
    one corrupted cell (city, street and zip in turn, corrupted the way
    the generator does it), and the first 5% of rows, which lead every
    group, are never corrupted or edited.  Seeds then differ in which
    rows are dirty, not in how much work they make.
    """

    def __init__(self, rows: int, seed: int) -> None:
        from repro.workloads.customer import CustomerConfig, generate_customers

        generated = generate_customers(
            CustomerConfig(n_tuples=rows, error_rate=0.0, seed=seed))
        relation = generated.db.relation("customer")
        self.schema = generated.db.schema
        self.attrs: List[str] = list(relation.schema.attribute_names)
        self.rows: List[Tuple[Any, ...]] = [
            tuple(t.as_dict()[a] for a in self.attrs) for t in relation
        ]
        self.rng = random.Random(seed ^ 0xC1EA)
        self.cities = sorted({row[self.index("city")] for row in self.rows})
        zips: Dict[Any, set] = {}
        for row in self.rows:
            zips.setdefault(row[self.index("CC")], set()).add(row[self.index("zip")])
        self.zips = {cc: sorted(codes) for cc, codes in zips.items()}
        self.head = int(rows * _CLEAN_HEAD)
        #: dirty row → the clean row it was corrupted from
        self.clean_of: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        victims = self.rng.sample(range(self.head, rows), round(rows * _ERROR_RATE))
        for k, index in enumerate(victims):
            clean = self.rows[index]
            self.rows[index] = self.corrupt(clean, _DIRTY_ATTRS[k % len(_DIRTY_ATTRS)])

    def index(self, attr: str) -> int:
        """Position of ``attr`` in a row tuple."""
        return self.attrs.index(attr)

    def corrupt(self, row: Tuple[Any, ...], attr: str) -> Tuple[Any, ...]:
        """``row`` with one cell corrupted; remembered in ``clean_of``."""
        from repro.workloads.noise import pick_other, typo

        i = self.index(attr)
        value = row[i]
        if attr == "city":
            dirty = pick_other(value, self.cities, self.rng)
        elif attr == "street":
            dirty = value
            while dirty == value:
                dirty = typo(value, self.rng)
        else:
            dirty = pick_other(value, self.zips[row[self.index("CC")]], self.rng)
        out = row[:i] + (dirty,) + row[i + 1:]
        self.clean_of[out] = row
        return out

    def row_dict(self, row: Tuple[Any, ...]) -> Dict[str, Any]:
        return dict(zip(self.attrs, row))

    def create_document(self) -> Dict[str, Any]:
        """A ``POST /v1/sessions`` body: schema, the three CFDs, all rows."""
        from repro.rules_json import database_schema_to_dict, rules_to_list
        from repro.workloads.customer import CustomerWorkload

        return {
            "schema": database_schema_to_dict(self.schema),
            "rules": rules_to_list(CustomerWorkload.cfds()),
            "data": {"customer": [self.row_dict(row) for row in self.rows]},
        }


def _offline_session(create_body: bytes) -> Any:
    """The offline twin of a wire create, built the way the server builds it."""
    from repro.relational.instance import DatabaseInstance
    from repro.rules_json import database_schema_from_dict, rules_from_list
    from repro.session import Session

    document = json.loads(create_body)
    schema = database_schema_from_dict(document["schema"])
    db = DatabaseInstance(schema)
    for name, rows in document["data"].items():
        relation = db.relation(name)
        for row in rows:
            relation.add(row)
    return Session.from_instance(db, rules_from_list(document["rules"], schema))


class PassBase:
    """State shared by every workload's pass over one server process."""

    #: per-verb latency samples (seconds) from the measured window
    samples: Dict[str, List[float]]

    def __init__(self, inputs: Any, server: ServerChild) -> None:
        self.inputs = inputs
        self.server = server
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.detects = 0
        self.mismatches: List[str] = []
        self.conns: List[Conn] = []
        #: seconds per unit of user-visible work (a job, a cycle, a request)
        self.jobs: List[float] = []
        #: send-to-last-byte seconds of every request in the window
        self.service: List[float] = []
        #: how late each open-loop request was sent (closed loops: none)
        self.late: List[float] = []

    def connect(self) -> Conn:
        conn = Conn(self.server.port)
        self.conns.append(conn)
        return conn

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns.clear()

    def live_rows(self) -> int:
        raise NotImplementedError

    def state_bytes_per_row(self) -> float:
        return self.server.state_bytes() / self.live_rows()

    def record(
        self, verb: str, status: int, seconds: float,
        service: Optional[float] = None,
    ) -> None:
        """One request: ``seconds`` as the workload times it, ``service``
        from send to last byte when that differs (open-loop lateness)."""
        self.samples.setdefault(verb, []).append(seconds)
        self.service.append(seconds if service is None else service)
        self.attempted += 1
        if not _ok(status):
            self.failed += 1

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)


# --------------------------------------------------------------------------
# batch_clean
# --------------------------------------------------------------------------


class BatchInputs:
    max_sessions = 64

    def __init__(self, seed: int, size: Dict[str, Any], seconds: float) -> None:
        data = CustomerData(size["batch_rows"], seed)
        self.rows = len(data.rows)
        self.create_body = json.dumps(data.create_document()).encode("utf-8")


class BatchPass(PassBase):
    """Create → full detect → U-repair (adopt=false) → delete, in a loop."""

    Inputs = BatchInputs
    inputs: BatchInputs

    def __init__(self, inputs: BatchInputs, server: ServerChild) -> None:
        super().__init__(inputs, server)
        self.conn = self.connect()
        self.detect_bodies: set = set()
        self.repair_bodies: set = set()
        self.footprint = 0.0

    def _job(self, timed: bool) -> None:
        conn = self.conn
        status, body, seconds = conn.timed("POST", "/v1/sessions", self.inputs.create_body)
        if not _ok(status):
            raise BenchError(f"batch_clean create failed: {status} {body[:200]!r}")
        session = json.loads(body)["session"]
        verbs = [("create", status, seconds)]
        status, detect, seconds = conn.timed(
            "POST", f"/v1/sessions/{session}/detect", _DETECT_FULL)
        verbs.append(("detect", status, seconds))
        status, repair, seconds = conn.timed(
            "POST", f"/v1/sessions/{session}/repair", _REPAIR_U)
        verbs.append(("repair", status, seconds))
        if not timed:
            # durable footprint of one live 10k-row session (gen-0 snapshot)
            self.footprint = self.server.state_bytes() / self.inputs.rows
        status, _, seconds = conn.timed("DELETE", f"/v1/sessions/{session}")
        verbs.append(("delete", status, seconds))
        self.detect_bodies.add(detect)
        self.repair_bodies.add(repair)
        if timed:
            self.detects += 1
            for verb, code, took in verbs:
                self.record(verb, code, took)
            self.jobs.append(sum(took for _, _, took in verbs))

    def setup(self) -> None:
        self._job(timed=False)  # warm-up job: imports, kernels, allocator

    def run(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            self._job(timed=True)

    def finish(self) -> None:
        pass

    def state_bytes_per_row(self) -> float:
        """One live session's durable footprint, taken before its delete."""
        return self.footprint

    def verify(self) -> None:
        session = _offline_session(self.inputs.create_body)
        try:
            detect = _render(session.detect().to_dict(include_violations=True))
            repair = session.repair("u", adopt=False)
            repair_doc = _render(repair.to_dict())
        finally:
            session.close()
        self.expect(self.detect_bodies == {detect},
                    "batch_clean: served detect bytes differ from the offline Session")
        self.expect(self.repair_bodies == {repair_doc},
                    f"batch_clean: served repair document differs from the "
                    f"offline Session (offline cost {repair.cost!r})")

    def metrics(self) -> List[Metric]:
        out = latency_metrics("job", self.jobs)
        out += latency_metrics("create", self.samples["create"])
        out += latency_metrics("detect", self.samples["detect"])
        out += latency_metrics("repair", self.samples["repair"])
        out += latency_metrics("delete", self.samples["delete"])
        return out


# --------------------------------------------------------------------------
# edit_stream
# --------------------------------------------------------------------------

#: edit kinds and their weights within a changeset; an update either
#: corrupts a clean row or restores a dirty one, with equal weight, so the
#: share of dirty rows (and the violation count) stays level over a run
_EDIT_KINDS = ("insert", "delete", "corrupt", "restore")
_EDIT_WEIGHTS = (1.0, 1.0, 1.0, 1.0)


#: applies between two detects in the edit stream
_DETECT_EVERY = 10


class StreamInputs:
    """One 50k-row session plus a seeded stream of small changesets.

    The changesets are generated from a client-side copy of the rows
    (set semantics, as the server applies them), never from the server.
    """

    max_sessions = 64

    def __init__(self, seed: int, size: Dict[str, Any], seconds: float) -> None:
        data = CustomerData(size["stream_rows"], seed)
        # a fixed amount of work (1000 changesets at 30 s), whatever the
        # server's speed; a multiple of the detect cadence
        cycles = max(1, round(seconds * size["stream_changesets_per_s"] / _DETECT_EVERY))
        changesets = cycles * _DETECT_EVERY + 1  # +1: the set-up apply
        document = data.create_document()
        document["id"] = "stream"
        self.create_body = json.dumps(document).encode("utf-8")
        self.changesets, self.final_rows = _edit_stream(data, changesets)


def _edit_stream(data: CustomerData, count: int) -> Tuple[List[bytes], List[int]]:
    """``count`` encoded changesets, plus the live row count after each.

    Inserts copy the place (CC, AC, zip, street, city) of a clean row
    under a fresh phone number; deletes and updates never touch the clean
    leading rows (:class:`CustomerData`)."""
    rng = data.rng
    editable = _Pool(data.rows[data.head:])
    dirty = _Pool(data.clean_of)
    protected = data.head
    next_phone = max(row[data.index("phn")] for row in data.rows) + 1
    phone, name = data.index("phn"), data.index("name")
    names = sorted({row[name] for row in data.rows})

    def replace(old: Tuple[Any, ...], new: Tuple[Any, ...]) -> Dict[str, Any]:
        editable.remove(old)
        editable.add(new)  # phones are unique: the new row never collides
        cells = {a: v for a, v, w in zip(data.attrs, new, old) if v != w}
        return {"op": "update", "relation": "customer",
                "row": data.row_dict(old), "cells": cells}

    bodies: List[bytes] = []
    counts: List[int] = []
    for _ in range(count):
        ops: List[Dict[str, Any]] = []
        for _ in range(rng.randrange(1, 9)):
            kind = rng.choices(_EDIT_KINDS, weights=_EDIT_WEIGHTS)[0]
            victim = editable.pick(rng)
            if kind == "insert":
                values = list(data.clean_of.get(victim, victim))
                values[phone] = next_phone
                values[name] = rng.choice(names)
                next_phone += 1
                row = tuple(values)
                editable.add(row)
                ops.append({"op": "insert", "relation": "customer",
                            "row": data.row_dict(row)})
            elif kind == "delete":
                editable.remove(victim)
                if victim in data.clean_of:
                    dirty.remove(victim)
                    del data.clean_of[victim]
                ops.append({"op": "delete", "relation": "customer",
                            "row": data.row_dict(victim)})
            elif kind == "restore" and len(dirty):
                victim = dirty.pick(rng)
                dirty.remove(victim)
                ops.append(replace(victim, data.clean_of.pop(victim)))
            else:
                while victim in data.clean_of:
                    victim = editable.pick(rng)
                row = data.corrupt(victim, rng.choice(_DIRTY_ATTRS))
                dirty.add(row)
                ops.append(replace(victim, row))
        bodies.append(json.dumps({"ops": ops}).encode("utf-8"))
        counts.append(protected + len(editable))
    return bodies, counts


class StreamPass(PassBase):
    """Small applies; after every 10th, one uncached detect and two repeats.

    The window is a fixed amount of work: every pre-generated changeset is
    sent, so a faster server ends sooner instead of running out of input.
    """

    Inputs = StreamInputs
    inputs: StreamInputs

    def __init__(self, inputs: StreamInputs, server: ServerChild) -> None:
        super().__init__(inputs, server)
        self.conn = self.connect()
        self.applied = 0
        self.final_detect = b""

    def _apply(self) -> Tuple[int, float]:
        body = self.inputs.changesets[self.applied]
        status, data, seconds = self.conn.timed(
            "POST", "/v1/sessions/stream/apply", body)
        if not _ok(status):
            raise BenchError(f"edit_stream apply failed: {status} {data[:200]!r}")
        self.applied += 1
        return status, seconds

    def setup(self) -> None:
        status, body = self.conn.call("POST", "/v1/sessions", self.inputs.create_body)
        if not _ok(status):
            raise BenchError(f"edit_stream create failed: {status} {body[:200]!r}")
        self.conn.call("POST", "/v1/sessions/stream/detect", _DETECT_FULL)
        self._apply()  # builds the delta engine lazily

    def run(self, deadline: float) -> None:
        # the inputs, not the deadline, bound the window (as in tenant_mix)
        conn = self.conn
        path = "/v1/sessions/stream/detect"
        cycle = 0.0
        while self.applied < len(self.inputs.changesets):
            status, seconds = self._apply()
            self.record("apply", status, seconds)
            cycle += seconds
            if (self.applied - 1) % _DETECT_EVERY == 0:  # the set-up apply is 0
                status, _, seconds = conn.timed("POST", path, _DETECT_FULL)
                self.record("detect_after_write", status, seconds)
                cycle += seconds
                for _ in range(2):
                    status, _, seconds = conn.timed("POST", path, _DETECT_FULL)
                    self.record("cached_detect", status, seconds)
                    cycle += seconds
                self.detects += 3
                self.jobs.append(cycle)
                cycle = 0.0

    def finish(self) -> None:
        status, self.final_detect = self.conn.call(
            "POST", "/v1/sessions/stream/detect", _DETECT_FULL)
        self.expect(_ok(status), f"edit_stream final detect failed: {status}")

    def live_rows(self) -> int:
        return self.inputs.final_rows[self.applied - 1]

    def verify(self) -> None:
        from repro.engine.delta import Changeset

        session = _offline_session(self.inputs.create_body)
        try:
            for body in self.inputs.changesets[: self.applied]:
                session.apply(Changeset.from_dict(json.loads(body)))
            expected = _render(session.detect().to_dict(include_violations=True))
        finally:
            session.close()
        self.expect(self.final_detect == expected,
                    f"edit_stream: final detect after {self.applied} changesets "
                    "differs from the offline replay")

    def metrics(self) -> List[Metric]:
        out = latency_metrics("job", self.jobs)
        out += latency_metrics("apply", self.samples["apply"], 99.0)
        out += latency_metrics("detect_after_write", self.samples["detect_after_write"], 90.0)
        out += latency_metrics("cached_detect", self.samples["cached_detect"])
        return out


# --------------------------------------------------------------------------
# tenant_mix
# --------------------------------------------------------------------------

#: verb mix of the open loop
_VERBS = ("detect", "apply", "undo")
_VERB_WEIGHTS = (0.65, 0.30, 0.05)
#: undo tokens the client keeps per tenant (the server keeps 32)
_UNDO_DEPTH = 16
#: Zipf exponent of tenant popularity
_ZIPF = 1.1
#: the stated latency limit on request p99
_P99_LIMIT_MS = 50.0


class TenantOp:
    __slots__ = ("due", "tenant", "verb", "body")

    def __init__(self, due: float, tenant: str, verb: str, body: bytes) -> None:
        self.due = due
        self.tenant = tenant
        self.verb = verb
        self.body = body


class TenantInputs:
    """200 soak tenants and a Poisson schedule of verbs against them.

    The schedule is simulated against one offline shadow session per
    tenant while it is generated, so every apply targets rows that will
    exist when it is served, and every undo names the tenant's newest
    unreverted apply.  The per-tenant histories feed the final check.
    """

    CONNECTIONS = 2

    def __init__(self, seed: int, size: Dict[str, Any], seconds: float) -> None:
        from repro.workloads.stream import StreamConfig, stream_edits
        from repro.workloads.tenants import make_tenants, zipf_weights

        self.rate = size["tenant_rate"]
        self.max_sessions = size["tenant_max_sessions"]
        self.specs = make_tenants(size["tenants"], seed)
        self.create_bodies = [
            json.dumps(spec.creation_document()).encode("utf-8") for spec in self.specs
        ]
        weights = zipf_weights(len(self.specs), _ZIPF)
        rng = random.Random(seed ^ 0x7E4A47)
        shadows: Dict[int, Any] = {}
        stacks: Dict[int, List[Any]] = {}
        self.histories: Dict[str, List[Tuple[Any, ...]]] = {
            spec.tenant_id: [] for spec in self.specs
        }
        #: ops per connection; a tenant always uses the same connection
        self.schedule: List[List[TenantOp]] = [[] for _ in range(self.CONNECTIONS)]
        indices = range(len(self.specs))
        due = 0.0
        while True:
            due += rng.expovariate(self.rate)
            if due >= seconds:
                break
            index = rng.choices(indices, weights=weights)[0]
            spec = self.specs[index]
            verb = rng.choices(_VERBS, weights=_VERB_WEIGHTS)[0]
            shadow = shadows.get(index)
            if shadow is None:
                shadow = shadows[index] = spec.build_session()
            stack = stacks.setdefault(index, [])
            history = self.histories[spec.tenant_id]
            body = _DETECT_FULL if rng.random() < 0.5 else _DETECT_SUMMARY
            if verb == "apply":
                changeset = next(stream_edits(shadow.database, StreamConfig(
                    n_batches=1, batch_size=rng.randrange(1, 9),
                    seed=rng.randrange(1 << 30))))
                if len(changeset):
                    document = changeset.to_dict()
                    stack.append(shadow.apply(changeset).undo)
                    del stack[:-_UNDO_DEPTH]
                    history.append(("apply", document))
                    body = json.dumps(document).encode("utf-8")
                else:
                    verb = "detect"
            elif verb == "undo":
                if stack:
                    undo = stack.pop()
                    shadow.apply(undo)
                    history.append(("apply", undo.to_dict()))
                    body = b""  # the token is only known at run time
                else:
                    verb = "detect"
            self.schedule[index % self.CONNECTIONS].append(
                TenantOp(due, spec.tenant_id, verb, body))
        self.final_rows = sum(
            (shadows[i].database.total_tuples() if i in shadows
             else sum(len(rows) for rows in spec.data.values()))
            for i, spec in enumerate(self.specs)
        )
        for shadow in shadows.values():
            shadow.close()


class TenantPass(PassBase):
    """Open-loop Poisson traffic, two connections, latency from due time."""

    Inputs = TenantInputs
    inputs: TenantInputs

    def __init__(self, inputs: TenantInputs, server: ServerChild) -> None:
        super().__init__(inputs, server)
        self.final_detects: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._errors: List[str] = []

    def setup(self) -> None:
        conn = self.connect()
        for body in self.inputs.create_bodies:
            status, data = conn.call("POST", "/v1/sessions", body)
            if not _ok(status):
                raise BenchError(f"tenant create failed: {status} {data[:200]!r}")
        # warm the hottest tenants, hottest last, so they are resident
        hot = self.inputs.specs[: self.inputs.max_sessions]
        for spec in reversed(hot):
            conn.call("POST", f"/v1/sessions/{spec.tenant_id}/detect", _DETECT_FULL)

    def _drive(self, ops: List[TenantOp], start: float) -> None:
        conn = Conn(self.server.port)
        tokens: Dict[str, List[str]] = {}
        samples: List[Tuple[str, int, float, float]] = []
        late: List[float] = []
        try:
            for op in ops:
                due = start + op.due
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                path = f"/v1/sessions/{op.tenant}/{op.verb}"
                body = op.body
                if op.verb == "undo":
                    body = json.dumps({"token": tokens[op.tenant].pop()}).encode()
                sent = time.perf_counter()
                late.append(max(0.0, sent - due))
                status, data, seconds = conn.timed("POST", path, body, since=due)
                samples.append((op.verb, status, seconds, seconds - (sent - due)))
                if op.verb == "apply" and _ok(status):
                    stack = tokens.setdefault(op.tenant, [])
                    stack.append(json.loads(data)["undo_token"])
                    del stack[:-_UNDO_DEPTH]
        except Exception as exc:  # surfaced by run(); the thread must end
            with self._lock:
                self._errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            conn.close()
            with self._lock:
                self.late.extend(late)
                for verb, status, seconds, service in samples:
                    self.record(verb, status, seconds, service)
                    self.jobs.append(seconds)
                    self.detects += verb == "detect"

    def run(self, deadline: float) -> None:
        # the schedule, not the deadline, bounds the window: every op the
        # seed generated is sent, however late the server makes it
        start = time.perf_counter() + 0.05
        threads = [
            threading.Thread(target=self._drive, args=(ops, start))
            for ops in self.inputs.schedule
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        if any(thread.is_alive() for thread in threads):
            raise BenchError("tenant_mix drivers did not finish")
        if self._errors:
            raise BenchError("tenant_mix driver failed: " + self._errors[0])

    def finish(self) -> None:
        conn = self.connect()
        for spec in self.inputs.specs:
            status, body = conn.call(
                "POST", f"/v1/sessions/{spec.tenant_id}/detect", _DETECT_FULL)
            self.expect(_ok(status), f"{spec.tenant_id}: final detect {status}")
            self.final_detects[spec.tenant_id] = body

    def live_rows(self) -> int:
        return self.inputs.final_rows

    def verify(self) -> None:
        from repro.workloads.soak import replay_detect

        for spec in self.inputs.specs:
            expected = _render(replay_detect(spec, self.inputs.histories[spec.tenant_id]))
            self.expect(self.final_detects.get(spec.tenant_id) == expected,
                        f"tenant_mix: {spec.tenant_id} detect differs from replay_detect")

    def metrics(self) -> List[Metric]:
        out = latency_metrics("request", self.jobs, 99.0)
        met = out[1].value <= _P99_LIMIT_MS and not self.failed
        out[1].note = (f"{out[1].note}  limit p99 <= {_P99_LIMIT_MS:g} ms: "
                       f"{'met' if met else 'MISSED'}").strip()
        out += latency_metrics("apply", self.samples["apply"], 99.0)
        out += latency_metrics("detect", self.samples["detect"])
        out.append(Metric("offered_rate", self.inputs.rate, "1/s",
                          len(self.jobs), "Poisson arrivals, fixed"))
        return out


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

#: workload name → its pass type; ``Pass.Inputs(seed, size, seconds)``
#: builds the inputs, shared by every pass of one run
WORKLOADS: Dict[str, Any] = {
    "batch_clean": BatchPass,
    "edit_stream": StreamPass,
    "tenant_mix": TenantPass,
}
