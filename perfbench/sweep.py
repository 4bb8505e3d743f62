"""``sweep_st64``: Fig 11 sweeps of 64 single-threaded apps.

Closed loop, one client, one thread: the sequence is a fixed list of
``fig11`` sweeps run back to back through ``Session(jobs=1)`` with no
result cache, each of :data:`MIXES_PER_SWEEP` mixes and its own seed
derived from the workload seed.  This is the paper-figure path; its
time goes to the ``nuca`` sharing fixed point, ``model`` evaluation and
the ``runner`` mega-batch.  It bypasses ``service``, sketches and split
solves.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

from common import INTERVAL_MCYCLES, PassResult, ordered_mean
from layers import op_span, tracing

APPS = 64
MIXES_PER_SWEEP = 8
#: Host rate the sequence length is sized by (mixes per second); fixed,
#: so one ``--seconds`` value always means the same work.
NOMINAL_MIXES_PER_S = 10.0


def sweep_seeds(seed: int, seconds: float) -> list[int]:
    count = max(1, round(seconds * NOMINAL_MIXES_PER_S / MIXES_PER_SWEEP))
    return [seed * 1000 + i for i in range(count)]


def setup(seed: int):
    """Session plus the cold first sweep (its own seed, never re-run)."""
    from repro.api import Session

    session = Session(jobs=1)
    session.run("fig11", mixes=MIXES_PER_SWEEP, seed=seed * 1000 + 999)
    return session


def check_ordering(result) -> str | None:
    """Fig 11's ordering on one sweep: CDCS > Jigsaw > R-NUCA > 1."""
    ws = {s: result.gmean_speedup(s) for s in result.schemes()}
    jigsaw_best = max(ws["Jigsaw+C"], ws["Jigsaw+R"])
    jigsaw_worst = min(ws["Jigsaw+C"], ws["Jigsaw+R"])
    if ws["CDCS"] > jigsaw_best and jigsaw_worst > ws["R-NUCA"] > 1.0:
        return None
    return "Fig 11 ordering broken: " + ", ".join(
        f"{s} {v:.4f}" for s, v in ws.items()
    )


def check_mega_matches_per_mix(sweep_seed: int, mixes: int, record) -> str | None:
    """The first mix of a mega-batched sweep equals the per-mix path
    (``evaluate_mix`` behind one job run on its own), bitwise."""
    from repro.config import default_config
    from repro.experiments.sweeps import mix_record, sweep_jobs

    job = sweep_jobs(default_config(), APPS, mixes, sweep_seed)[0]
    if job.execute() == mix_record(record.result, 0):
        return None
    return f"sweep seed {sweep_seed}: mega-batch mix 0 != evaluate_mix"


@contextmanager
def cdcs_mcycles():
    """Record the modeled Mcycles of every CDCS reconfiguration run in
    the block, read off the scheme's public ``SchemeResult.step_cycles``
    (a sweep solves one CDCS per mix, in mix order)."""
    from repro.nuca.cdcs import Cdcs

    original = Cdcs.__dict__["run"]
    mcycles: list[float] = []

    def run(scheme, problem):
        result = original(scheme, problem)
        if result.name == "CDCS":
            mcycles.append(sum(result.step_cycles.values()) / 1e6)
        return result

    Cdcs.run = run
    try:
        yield mcycles
    finally:
        Cdcs.run = original


def run_pass(session, seed: int, seconds: float, tracer=None) -> PassResult:
    seeds = sweep_seeds(seed, seconds)
    mixes = MIXES_PER_SWEEP
    records = []
    with cdcs_mcycles() as cdcs_mcyc, tracing(tracer):
        start = time.perf_counter()
        for index, sweep_seed in enumerate(seeds):
            with op_span(tracer, f"sweep{index}"):
                records.append(
                    session.run("fig11", mixes=mixes, seed=sweep_seed)
                )
        wall = time.perf_counter() - start

    result = PassResult(ops=len(seeds) * mixes, failed=0, wall_s=wall)
    if len(cdcs_mcyc) != result.ops:
        result.fail(f"{len(cdcs_mcyc)} CDCS solves for {result.ops} mixes")
    result.modeled_mcyc = cdcs_mcyc
    result.on_time = sum(1 for m in cdcs_mcyc if m <= INTERVAL_MCYCLES)
    cdcs_speedups = []
    for sweep_seed, record in zip(seeds, records):
        error = check_ordering(record.result)
        if error is not None:
            result.fail(f"sweep seed {sweep_seed}: {error}", count=mixes)
        cdcs_speedups.extend(record.result.speedups["CDCS"])
    error = check_mega_matches_per_mix(seeds[0], mixes, records[0])
    if error is not None:
        result.fail(error)
    # Gmean as exp(mean(log)) over an ordered sum: exact per seed.
    result.modeled_quality = math.exp(
        ordered_mean([math.log(s) for s in cdcs_speedups])
    )
    return result
