"""``scale_1024``: one 1024-tile phased chip, closed loop, in-process.

Each op is one epoch: ``current_problem`` -> hierarchical
``ReconfigEngine.solve`` -> ``run_epoch``, back to back on one thread.
This is the paper's scaling claim (Table 3): the reconfiguration must
fit the 50 Mcycle interval as the chip grows.  Its time goes to the
``sched`` hierarchical split/solve/stitch, dense ``geometry`` and the
``sim``/``model`` epoch evaluation.  It bypasses ``service``, ``nuca``
and ``runner``.
"""

from __future__ import annotations

import time

from common import INTERVAL_MCYCLES, PassResult, ordered_mean
from layers import op_span, tracing

TILES = 1024
#: Modeled cycles per epoch; long enough that phases flip between solves.
EPOCH_CYCLES = 200e6
#: Host seconds per epoch the sequence length is sized by (fixed).
NOMINAL_EPOCH_S = 0.9


def epochs(seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_EPOCH_S))


def setup(seed: int):
    """The chip, its engine, and the cold first epoch."""
    from repro.experiments.scalability import scaled_mesh_config
    from repro.nuca.base import build_problem
    from repro.sched.engine import ReconfigEngine
    from repro.sim.engine import EpochEngine
    from repro.workloads.mixes import random_phased_mix

    mix = random_phased_mix(TILES, seed, 0)
    sim = EpochEngine(mix, build_problem(mix, scaled_mesh_config(TILES)))
    engine = ReconfigEngine("hierarchical")
    sim.run_epoch(engine.solve(sim.current_problem()).solution, EPOCH_CYCLES)
    return sim, engine


def check_epoch(problem, result) -> str | None:
    """Every thread placed on its own core, every bank within capacity,
    and the reconfiguration inside the interval."""
    solution = result.solution
    threads = {t.thread_id for t in problem.threads}
    cores = solution.thread_cores
    if set(cores) != threads or len(set(cores.values())) != len(cores):
        return "threads unplaced or sharing a core"
    usage = solution.bank_usage(problem.topology.tiles)
    if max(usage) > problem.bank_bytes * (1 + 1e-9):
        return f"bank over capacity: {max(usage)} > {problem.bank_bytes}"
    mcyc = result.modeled_cycles() / 1e6
    if mcyc > INTERVAL_MCYCLES:
        return f"critical path {mcyc:.2f} Mcycles > {INTERVAL_MCYCLES}"
    return None


def run_pass(state, seed: int, seconds: float, tracer=None) -> PassResult:
    sim, engine = state
    n = epochs(seconds)
    outcomes = []
    with tracing(tracer):
        start = time.perf_counter()
        for index in range(n):
            with op_span(tracer, f"epoch{index}"):
                problem = sim.current_problem()
                solved = engine.solve(problem)
                epoch = sim.run_epoch(solved.solution, EPOCH_CYCLES)
            outcomes.append((problem, solved, epoch))
        wall = time.perf_counter() - start

    result = PassResult(ops=n, failed=0, wall_s=wall)
    ipc_per_tile = []
    for index, (problem, solved, epoch) in enumerate(outcomes):
        error = check_epoch(problem, solved)
        if error is None:
            result.on_time += 1
        else:
            result.fail(f"epoch {index}: {error}")
        result.modeled_mcyc.append(solved.modeled_cycles() / 1e6)
        ipc_per_tile.append(epoch.aggregate_ipc / problem.topology.tiles)
    result.modeled_quality = ordered_mean(ipc_per_tile)
    return result
