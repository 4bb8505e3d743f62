"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the default ``pytest`` collection: the
smoke runs start child processes and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import (  # noqa: E402
    Span,
    coverage,
    layer_self_seconds,
    outermost_seconds,
    self_times,
)

WORKLOADS = ("sweep_st64", "serve_phased64", "scale_1024")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- span arithmetic ----------------------------------------------------------


def _tree() -> list[Span]:
    """op [0,10] > solve [1,4] > step [2,3]; op > remote solve [3,6]
    (an executor-thread child overlapping its sibling); and a nested
    same-name span under step."""
    return [
        Span("op", 0.0, 10.0, parent=-1, req="r"),
        Span("sched.solve", 1.0, 4.0, parent=0, req="r"),
        Span("sched.step", 2.0, 3.0, parent=1, req="r"),
        Span("sched.solve", 3.0, 6.0, parent=0, req="r"),
        Span("sched.step", 2.25, 2.75, parent=2, req="r"),
        Span("cache.sketch", 12.0, 13.0, parent=-1, req=None),
    ]


def test_self_time_subtracts_union_of_children():
    assert self_times(_tree()) == [5.0, 2.0, 0.5, 3.0, 0.5, 1.0]


def test_layer_self_time_sums_per_layer():
    assert layer_self_seconds(_tree()) == {"op": 5.0, "sched": 6.0, "cache": 1.0}


def test_outermost_skips_nested_same_name():
    assert outermost_seconds(_tree(), "sched.step") == (1.0, 1)
    assert outermost_seconds(_tree(), "sched.solve") == (6.0, 2)


def test_coverage_is_descendant_union_over_op_time():
    assert coverage(_tree()) == pytest.approx(0.5)


# -- smoke runs ---------------------------------------------------------------


def _assert_declared(result: dict, kind: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric_and_repeats(workload):
    first = _result(_run(workload, 0))
    second = _result(_run(workload, 0))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        _assert_declared(result, "end_to_end")
        assert all(m["value"] != 0 for m in result["metrics"].values())
    for name in ("modeled_mcyc", "modeled_quality"):
        assert first["metrics"][name] == second["metrics"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_per_layer_metric(workload):
    result = _result(_run(workload, 1))
    assert result["correct"]
    _assert_declared(result, "per_layer")
    assert result["metrics"]["trace.coverage"]["value"] > 0.5


def test_serve_fails_delta_requests_that_went_out_full(monkeypatch):
    """A delta chip whose requests all fall back to full telemetry fails
    each of them, although every reply is still correct."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import serve
    from repro.service import ServiceClient

    blob = serve.offline_telemetry(5, 1.0)
    monkeypatch.setattr(ServiceClient, "place_delta", ServiceClient.place)
    result = serve.run_pass(blob, 5, 1.0)
    assert result.failed == serve.CHIPS // 2 * serve.epochs(1.0)
    assert all("fell back to full" in error for error in result.errors)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = _run("sweep_st64", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
