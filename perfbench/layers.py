"""Traced mode: wrap each layer's public entry points in spans.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install`
replaces the public functions and methods listed in :data:`FUNCTIONS`
and :data:`METHODS` with wrappers that open a span around each call,
and :meth:`Tracer.uninstall` puts the originals back.  A function is
replaced in its defining module *and* in every loaded ``repro`` module
that imported it by name, so ``from x import f`` call sites are traced
too.  Install after the workload's imports, so no module binds a name
after the swap.

Besides spans, the wrappers read counts off public results where the
work happens: per-step wall time and modeled cycles from every
:class:`~repro.sched.reconfigure.ReconfigResult`, and dirty/total VC
counts from every incremental dirty-set probe.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from spans import SpanRecorder, layer_self_seconds, outermost_seconds

#: The Fig 4 steps plus the split strategies' stitch pass.
STEPS = (
    "allocation", "vc_placement", "thread_placement", "data_placement",
    "stitch",
)

#: Layers whose self time is reported (``self.<layer>_ms``).
LAYERS = ("runner", "nuca", "model", "sched", "cache", "service", "sim")

#: (module, function name, span name).
FUNCTIONS = (
    ("repro.nuca.sharing", "solve_sharing_plans", "nuca.sharing"),
    ("repro.cache.sketch", "problem_sketch_bank", "cache.sketch"),
    ("repro.service.messages", "build_delta", "service.build_delta"),
)

#: (module, class, method names, span name).
METHODS = (
    ("repro.runner.pool", "ProcessPoolRunner", ("map",), "runner.map"),
    ("repro.nuca.snuca", "SNuca", ("run", "sharing_stage", "finish_sharing"),
     "nuca.scheme_run"),
    ("repro.nuca.rnuca", "RNuca", ("run", "sharing_stage", "finish_sharing"),
     "nuca.scheme_run"),
    ("repro.nuca.jigsaw", "Jigsaw", ("run",), "nuca.scheme_run"),
    ("repro.nuca.cdcs", "Cdcs", ("run",), "nuca.scheme_run"),
    ("repro.model.system", "AnalyticSystem", ("alone_performance",),
     "model.alone"),
    ("repro.model.system", "AnalyticSystem",
     ("evaluate", "evaluate_solution", "evaluate_solutions_batch"),
     "model.evaluate"),
    ("repro.sched.engine", "ReconfigEngine", ("solve",), "sched.solve"),
    ("repro.sched.engine", "IncrementalSolve",
     ("dirty_vcs", "dirty_vcs_from_sketches"), "sched.dirty"),
    ("repro.service.server", "CoSchedService", ("submit",), "service.submit"),
    ("repro.sim.engine", "EpochEngine", ("run_epoch",), "sim.run_epoch"),
    ("repro.sim.engine", "EpochEngine", ("current_problem",), "sim.snapshot"),
)


class Tracer:
    """Span recorder plus the counters read off public results."""

    def __init__(self):
        self.recorder = SpanRecorder()
        #: id(ReconfigEngine) -> (op id, span index) of the request the
        #: engine is serving; the service solves on executor threads, so
        #: the serving workload links those spans to their request here.
        self.remote: dict[int, tuple[str, int]] = {}
        self.step_seconds: dict[str, float] = defaultdict(float)
        self.step_cycles: dict[str, float] = defaultdict(float)
        self.dirty_vcs = 0
        self.probed_vcs = 0
        #: op id -> modeled wire bytes of the telemetry it submitted.
        self.telemetry_bytes: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        # The after-hooks update shared counters from the solve threads.
        self._lock = threading.Lock()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        recorder = self.recorder
        after = {
            "sched.solve": self._after_solve,
            "sched.dirty": self._after_dirty,
            "service.submit": self._after_submit,
        }.get(span_name)
        remote = self.remote
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            req = parent = None
            if span_name == "sched.solve" and recorder.current() < 0:
                req, parent = remote.get(id(args[0]), (None, None))
            index = recorder.open(span_name, req, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                with lock:
                    after(args, result, recorder.spans[index])
            return result

        return wrapper

    def _after_solve(self, args, result, span) -> None:
        for step, seconds in result.wall_seconds.items():
            self.step_seconds[step] += seconds
        for step, cycles in result.step_cycles().items():
            self.step_cycles[step] += cycles

    def _after_dirty(self, args, result, span) -> None:
        self.dirty_vcs += len(result)
        self.probed_vcs += len(args[2].vcs)

    def _after_submit(self, args, result, span) -> None:
        from repro.service.messages import telemetry_bytes

        self.telemetry_bytes[span.req] = telemetry_bytes(args[1])

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapped = self._wrap(original, span_name)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if getattr(loaded, attr, None) is original:
                    self._undo.append((loaded, attr, original))
                    setattr(loaded, attr, wrapped)
        for module_name, class_name, methods, span_name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- metrics -------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times are milliseconds per op."""
        spans = self.recorder.spans
        per_op = 1e3 / max(ops, 1)
        out: dict[str, tuple[float, str]] = {}

        def timed(name: str, metric: str) -> int:
            seconds, count = outermost_seconds(spans, name)
            out[metric] = (seconds * per_op, "ms")
            return count

        timed("runner.map", "runner.map_ms")
        out["nuca.sharing_calls"] = (
            float(timed("nuca.sharing", "nuca.sharing_ms")), "count"
        )
        timed("nuca.scheme_run", "nuca.scheme_run_ms")
        timed("model.alone", "model.alone_ms")
        timed("model.evaluate", "model.evaluate_ms")
        out["sched.solves"] = (
            float(timed("sched.solve", "sched.solve_ms")), "count"
        )
        for step in STEPS:
            ms = self.step_seconds.get(step, 0.0) * per_op
            mcyc = self.step_cycles.get(step, 0.0) / 1e6 / max(ops, 1)
            out[f"sched.{step}_ms"] = (ms, "ms")
            out[f"sched.{step}_mcyc"] = (mcyc, "Mcycles")
            out[f"sched.{step}_ms_per_mcyc"] = (
                ms / mcyc if mcyc > 0 else 0.0, "ms/Mcycle"
            )
        timed("sched.dirty", "sched.dirty_ms")
        out["sched.dirty_frac"] = (
            self.dirty_vcs / self.probed_vcs if self.probed_vcs else 0.0,
            "fraction",
        )
        timed("cache.sketch", "cache.sketch_ms")
        timed("service.build_delta", "service.build_delta_ms")
        timed("sim.run_epoch", "sim.run_epoch_ms")
        timed("sim.snapshot", "sim.snapshot_ms")
        own = layer_self_seconds(spans)
        for layer in LAYERS:
            out[f"self.{layer}_ms"] = (own.get(layer, 0.0) * per_op, "ms")
        return out


@contextmanager
def tracing(tracer: Tracer | None):
    """Trace the block with *tracer*; a plain block when it is None."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def op_span(tracer: Tracer | None, req: str):
    """The root span of one op; no span when untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.recorder.span("op", req=req)
