"""``PlacementProblem.accessors_of``: the lazy per-problem accessor index
equals the per-VC thread scan it replaced — same entries, same order —
on every kind of problem the pipeline builds: chip problems, hierarchical
region sub-problems, and the service's delta-patched problems.
"""

import asyncio
import pickle

import repro.sched.engine as engine_mod
from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.sched.engine import ReconfigEngine
from repro.service import CoSchedService, ServiceClient, problem_digest
from repro.sim.engine import EpochEngine
from repro.workloads.mixes import (
    random_multithreaded_mix,
    random_phased_mix,
    random_single_threaded_mix,
)


def _scan(problem, vc_id):
    """The definition: one pass over the threads per query."""
    out = {}
    for t in problem.threads:
        rate = t.vc_accesses.get(vc_id, 0.0)
        if rate > 0:
            out[t.thread_id] = rate
    return out


def _assert_index_matches(problem):
    ids = {vc.vc_id for vc in problem.vcs}
    ids |= {vc_id for t in problem.threads for vc_id in t.vc_accesses}
    ids.add(max(ids, default=0) + 1)  # a VC nobody accesses
    for vc_id in sorted(ids):
        got = problem.accessors_of(vc_id)
        assert list(got.items()) == list(_scan(problem, vc_id).items())


def test_index_matches_scan_on_built_problems():
    config = small_test_config(4, 4)
    for mix in (
        random_single_threaded_mix(12, 3, 0),
        random_multithreaded_mix(2, 5, 0),
        random_phased_mix(8, 42, 0),
    ):
        _assert_index_matches(build_problem(mix, config))


def test_index_matches_scan_on_region_sub_problems(monkeypatch):
    seen = []
    split = engine_mod._split_solve
    leaves = engine_mod._map_region_solves

    def spy_split(problem, *args, **kwargs):
        seen.append(problem)
        return split(problem, *args, **kwargs)

    def spy_leaves(subs, *args, **kwargs):
        seen.extend(subs)
        return leaves(subs, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "_split_solve", spy_split)
    monkeypatch.setattr(engine_mod, "_map_region_solves", spy_leaves)
    problem = build_problem(
        random_single_threaded_mix(48, 7, 3), small_test_config(8, 8)
    )
    ReconfigEngine("hierarchical", leaf_tiles=4).solve(problem)
    assert len(seen) > 4  # the chip, the inner regions and the leaves
    for sub in seen:
        _assert_index_matches(sub)


def test_index_matches_scan_on_delta_patched_problems():
    mix = random_phased_mix(8, 42, 0)
    sim = EpochEngine(mix, build_problem(mix, small_test_config(4, 4)))
    offline = ReconfigEngine("incremental")

    async def scenario():
        patched = []
        async with CoSchedService(strategy="incremental") as service:
            client = ServiceClient(service, "chip-0")
            for epoch in range(5):
                problem = sim.current_problem()
                if epoch == 0:
                    await client.place(problem)
                else:
                    await client.place_delta(problem)
                    patched.append(service.pool.slot("chip-0").engine.state.problem)
                sim.run_epoch(offline.solve(problem).solution, 200e6)
        return patched

    patched = asyncio.run(scenario())
    assert patched
    for problem in patched:
        _assert_index_matches(problem)


def test_index_stays_out_of_pickles_and_digests():
    problem = build_problem(
        random_single_threaded_mix(8, 1, 0), small_test_config(4, 4)
    )
    digest = problem_digest(problem)
    bare = pickle.dumps(problem)
    _assert_index_matches(problem)  # builds the index
    assert problem_digest(problem) == digest
    assert pickle.dumps(problem) == bare
    _assert_index_matches(pickle.loads(bare))
