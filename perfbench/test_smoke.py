"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root (it is outside the tier-1 ``tests/`` tree)::

    python -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced; the last output line must carry
exactly the metrics ``BENCHMARK.json`` names, with their units, and the
byte-for-byte check must have run and passed.  Each workload's check
must fail on a wrong served result, and a directory without the package
must exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "3", "--trace", str(trace),
         "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("correctness: ok") for line in lines)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    environment = json.loads(
        next(line for line in lines if line.startswith("environment "))
        .split(" ", 1)[1]
    )
    assert {"calibration_ms", "nproc", "python", "numpy", "flush_policy"} <= set(environment)


def _workloads() -> Any:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))
    return workloads


class NoServer:
    port = 1  # never contacted: verify() only compares bytes


def test_tampered_result_fails_the_check() -> None:
    w = _workloads()
    check = w.BatchPass(w.BatchInputs(5, w.SIZES["tiny"], 1.0), NoServer())
    check.detect_bodies = {b'{"wire_version": 1, "total": 0}\n'}
    check.repair_bodies = {b"{}\n"}
    check.verify()
    assert len(check.mismatches) == 2


def test_stream_final_detect_is_compared() -> None:
    from repro.engine.delta import Changeset

    w = _workloads()
    inputs = w.StreamInputs(5, w.SIZES["tiny"], 1.0)
    check = w.StreamPass(inputs, NoServer())
    check.applied = 3
    session = w._offline_session(inputs.create_body)
    try:
        for body in inputs.changesets[:3]:
            session.apply(Changeset.from_dict(json.loads(body)))
        check.final_detect = w._render(session.detect().to_dict(include_violations=True))
    finally:
        session.close()
    check.verify()
    assert check.mismatches == []
    check.applied = 2  # the same bytes no longer match the replay
    check.verify()
    assert len(check.mismatches) == 1


def test_tenant_detects_are_compared() -> None:
    from repro.workloads.soak import replay_detect

    w = _workloads()
    inputs = w.TenantInputs(5, w.SIZES["tiny"], 1.0)
    check = w.TenantPass(inputs, NoServer())
    check.final_detects = {
        spec.tenant_id: w._render(replay_detect(spec, inputs.histories[spec.tenant_id]))
        for spec in inputs.specs
    }
    check.verify()
    assert check.mismatches == []
    first = inputs.specs[0].tenant_id
    check.final_detects[first] = b'{"wire_version": 1, "total": 0}\n'
    check.verify()
    assert len(check.mismatches) == 1 and first in check.mismatches[0]


def test_without_the_package_exits_nonzero(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "batch_clean", 0)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
