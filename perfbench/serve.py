"""``serve_phased64``: a fleet of 64-tile phased chips against one
``CoSchedService`` (incremental strategy, two workers, one process).

Open loop: chip *c* is due to send its epoch-*k* telemetry at
``t0 + (c / CHIPS + k - 1) * PERIOD_S``, so requests arrive evenly at
:data:`RATE_PER_S` in total, about 40% of the 76 replies/s a two-core
2.1 GHz host serves when every chip sends back to back.  A chip whose
previous reply is late sends as soon as it arrives, and every latency
counts from the request's due time, so a stall shows in the requests
queued behind it.  Even-numbered chips
stream ``place_delta`` telemetry, odd-numbered chips send full
``place`` telemetry, so a gain on one path that costs the other shows;
an even chip's request that fell back to full telemetry fails its check.

The telemetry is made before timing starts, in a child process: a warm
offline ``ReconfigEngine`` (same strategy) plus ``EpochEngine`` per
chip.  That keeps ``run_epoch`` client work off the service's event
loop, keeps the offline solves from warming this process's caches, and
gives the solution every reply must equal bitwise.  The time goes to
``service`` admission/wait/delta patching, ``sched`` incremental
re-solves and ``cache`` sketches; ``nuca`` sharing and ``runner`` are
bypassed.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from typing import NamedTuple

from common import INTERVAL_MS, PassResult, ordered_mean
from layers import op_span, tracing

CHIPS = 8
TILES = 64
#: Offered load, replies per second over the whole fleet.
RATE_PER_S = 32.0
PERIOD_S = CHIPS / RATE_PER_S
EPOCH_CYCLES = 200e6
STRATEGY = "incremental"
WORKERS = 2


class Record(NamedTuple):
    """One timed request: times on ``perf_counter``, *previous* is when
    the chip's previous reply arrived, *path* is ``"delta"`` or
    ``"full"``, *reply* a ``PlacementReply`` or the ``ServiceError``."""

    chip: int
    epoch: int
    due: float
    sent: float
    arrived: float
    previous: float
    path: str
    reply: object


def epochs(seconds: float) -> int:
    """Timed epochs per chip."""
    return max(2, round(seconds * RATE_PER_S / CHIPS))


def _build_chip(seed: int, index: int):
    from repro.experiments.scalability import scaled_mesh_config
    from repro.nuca.base import build_problem
    from repro.sim.engine import EpochEngine
    from repro.workloads.mixes import random_phased_mix

    mix = random_phased_mix(TILES, seed, index)
    return EpochEngine(mix, build_problem(mix, scaled_mesh_config(TILES)))


def _wire_copy(problem):
    """A new problem object over the same content, with none of the memos
    earlier solves attached to *problem* (what a deserialized request
    would carry)."""
    from repro.sched.problem import PlacementProblem

    return PlacementProblem(
        config=problem.config,
        topology=problem.topology,
        vcs=list(problem.vcs),
        threads=list(problem.threads),
        mem_latency=problem.mem_latency,
    )


def offline_telemetry(seed: int, seconds: float) -> bytes:
    """Every chip's telemetry for epochs 0..E, with the warm offline
    engine's solution and the modeled IPC per tile for each."""
    from repro.sched.engine import ReconfigEngine

    fleet = []
    for index in range(CHIPS):
        sim = _build_chip(seed, index)
        engine = ReconfigEngine(STRATEGY)
        chip = {"problems": [], "solutions": [], "ipc_per_tile": []}
        for _ in range(epochs(seconds) + 1):
            problem = sim.current_problem()
            chip["problems"].append(_wire_copy(problem))
            solved = engine.solve(problem)
            chip["solutions"].append(solved.solution)
            epoch = sim.run_epoch(solved.solution, EPOCH_CYCLES)
            chip["ipc_per_tile"].append(epoch.aggregate_ipc / TILES)
        fleet.append(chip)
    return pickle.dumps(fleet, protocol=pickle.HIGHEST_PROTOCOL)


def setup(seed: int) -> None:
    """Set-up as a user pays it: imports, the fleet's chips, a started
    service, and every chip's first-contact full solve."""
    from repro.service import CoSchedService, ServiceClient

    sims = [_build_chip(seed, index) for index in range(CHIPS)]

    async def first_contact():
        async with CoSchedService(strategy=STRATEGY, workers=WORKERS) as service:
            await asyncio.gather(*(
                ServiceClient(service, f"chip-{index}").place(
                    sim.current_problem()
                )
                for index, sim in enumerate(sims)
            ))

    asyncio.run(first_contact())


async def _serve(fleet, seconds: float, tracer):
    from repro.service import CoSchedService, ServiceClient, ServiceError

    records = []
    failures = []
    async with CoSchedService(strategy=STRATEGY, workers=WORKERS) as service:
        clients = [ServiceClient(service, f"chip-{i}") for i in range(CHIPS)]
        first = await asyncio.gather(*(
            client.place(chip["problems"][0])
            for client, chip in zip(clients, fleet)
        ))
        for index, reply in enumerate(first):
            if not (reply.ok and reply.solution == fleet[index]["solutions"][0]):
                failures.append(f"chip-{index} first contact differs")
        engines = [service.pool.slot(c.chip_id).engine for c in clients]

        async def drive(index: int, t0: float) -> None:
            client = clients[index]
            send = client.place_delta if index % 2 == 0 else client.place
            problems = fleet[index]["problems"]
            previous = t0
            for k in range(1, epochs(seconds) + 1):
                due = t0 + (index / CHIPS + k - 1) * PERIOD_S
                wait = due - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                sent = time.perf_counter()
                req = f"{client.chip_id}/{k}"
                deltas = client.telemetry_stats["delta"]
                try:
                    with op_span(tracer, req) as span:
                        if tracer is not None:
                            tracer.remote[id(engines[index])] = (req, span)
                        reply = await send(problems[k])
                except ServiceError as exc:
                    reply = exc
                arrived = time.perf_counter()
                # The path the telemetry really took: place_delta falls
                # back to a full place() when it cannot send a delta.
                path = "delta" if client.telemetry_stats["delta"] > deltas else "full"
                records.append(
                    Record(index, k, due, sent, arrived, previous, path, reply)
                )
                previous = arrived

        with tracing(tracer):
            t0 = time.perf_counter() + 0.01
            await asyncio.gather(*(drive(i, t0) for i in range(CHIPS)))
            wall = time.perf_counter() - t0
    return records, failures, wall


def run_pass(blob: bytes, seed: int, seconds: float, tracer=None) -> PassResult:
    fleet = pickle.loads(blob)
    records, failures, wall = asyncio.run(_serve(fleet, seconds, tracer))
    records.sort(key=lambda r: (r.chip, r.epoch))
    result = PassResult(ops=len(records), failed=0, wall_s=wall)
    for message in failures:
        result.fail(message)
    lags, ipc = [], []
    for r in records:
        latency_ms = (r.arrived - r.due) * 1e3
        result.latencies_ms.append(latency_ms)
        lags.append(max(0.0, r.sent - max(r.due, r.previous)) * 1e3)
        ipc.append(fleet[r.chip]["ipc_per_tile"][r.epoch])
        where = f"chip-{r.chip} epoch {r.epoch}"
        if not getattr(r.reply, "ok", False):
            result.fail(f"{where}: {r.reply!r:.200}")
        elif r.reply.solution != fleet[r.chip]["solutions"][r.epoch]:
            result.fail(f"{where}: reply differs from offline")
        elif r.chip % 2 == 0 and r.path != "delta":
            result.fail(f"{where}: delta telemetry fell back to full")
        else:
            result.modeled_mcyc.append(r.reply.modeled_mcycles)
            if latency_ms <= INTERVAL_MS:
                result.on_time += 1
    result.modeled_quality = ordered_mean(ipc)
    result.layer_metrics["service.gen_lag_ms"] = (ordered_mean(lags), "ms")
    if tracer is not None:
        result.layer_metrics.update(_service_metrics(records, tracer))
    return result


def _service_metrics(records, tracer) -> dict[str, tuple[float, str]]:
    """Per-request service metrics, split by the telemetry path each
    request took."""
    by_req: dict[str, dict[str, float]] = {}
    for span in tracer.recorder.spans:
        if span.req is not None and span.name in ("service.submit", "sched.solve"):
            slot = by_req.setdefault(span.req, {})
            slot[span.name] = slot.get(span.name, 0.0) + span.duration
    out: dict[str, tuple[float, str]] = {}
    for kind in ("delta", "full"):
        submit, server, wait = [], [], []
        for r in records:
            if r.path != kind or not getattr(r.reply, "ok", False):
                continue
            spans = by_req.get(f"chip-{r.chip}/{r.epoch}", {})
            submit.append(spans.get("service.submit", 0.0) * 1e3)
            server.append(r.reply.latency_s * 1e3)
            wait.append((r.reply.latency_s - spans.get("sched.solve", 0.0)) * 1e3)
        for name, values in (
            ("submit_ms", submit), ("server_latency_ms", server),
            ("wait_ms", wait),
        ):
            out[f"service.{kind}.{name}"] = (
                ordered_mean(values) if values else 0.0, "ms"
            )
    sizes = list(tracer.telemetry_bytes.values())
    out["service.telemetry_bytes"] = (
        ordered_mean(sizes) if sizes else 0.0, "bytes"
    )
    return out
