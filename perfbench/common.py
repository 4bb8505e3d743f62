"""Helpers shared by the workloads: host calibration, statistics, memory,
and the result record every workload returns."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

#: One reconfiguration interval: 50 Mcycles at the chip's 2 GHz clock.
INTERVAL_MCYCLES = 50.0
CLOCK_GHZ = 2.0


def mcycles_to_ms(mcycles: float) -> float:
    """Modeled runtime of *mcycles* on the 2 GHz chip, in ms."""
    return mcycles / CLOCK_GHZ


INTERVAL_MS = mcycles_to_ms(INTERVAL_MCYCLES)


def calibration_ms() -> float:
    """Time one fixed loop of interpreter and NumPy work.

    The loop touches nothing in ``src/``, so its time moves only with the
    host: a slow verdict next to a slow calibration is a slow host.
    """
    import numpy as np

    start = time.perf_counter()
    values = np.arange(20_000, dtype=np.float64)
    total = 0.0
    for i in range(20_000):
        total += i * 0.5
    for _ in range(20):
        total += float(np.sort(values[::-1])[3])
    return (time.perf_counter() - start) * 1e3


def calibrate(repeats: int = 25) -> list[float]:
    return [calibration_ms() for _ in range(repeats)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank *q*-quantile (0 < q <= 1) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def ordered_mean(values: list[float]) -> float:
    """Mean as an ordered Python sum: bitwise repeatable for one order."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassResult:
    """What one timed pass over a workload's fixed sequence produced."""

    ops: int
    failed: int
    wall_s: float
    #: Per-op latency samples in ms (serve only).
    latencies_ms: list[float] = field(default_factory=list)
    on_time: int = 0
    #: Modeled reconfiguration Mcycles, one per op, in op order.
    modeled_mcyc: list[float] = field(default_factory=list)
    modeled_quality: float = 0.0
    #: Failed-check descriptions (first few kept).
    errors: list[str] = field(default_factory=list)
    #: Extra per-layer metrics the workload measures itself.
    layer_metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def throughput(self) -> float:
        return self.ops / self.wall_s

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric but ``setup_s`` and ``peak_rss_mib``.

        Where a workload has no control plane in the reconfiguration path
        (sweep, scale), the chip's wait for its placement is the modeled
        reconfiguration runtime, so the latency metrics are taken from
        the modeled Mcycles: there they mirror ``modeled_mcyc`` and carry
        no host time (every workload prints every end-to-end metric).
        The serving workload fills *latencies_ms* with host time from
        each request's due time.
        """
        latencies = self.latencies_ms or [
            mcycles_to_ms(m) for m in self.modeled_mcyc
        ]
        return {
            "throughput_per_s": (self.throughput, "1/s"),
            "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
            "latency_p90_ms": (percentile(latencies, 0.90), "ms"),
            "on_time_frac": (self.on_time / self.ops, "fraction"),
            "modeled_mcyc": (ordered_mean(self.modeled_mcyc), "Mcycles"),
            "modeled_quality": (self.modeled_quality, "ratio"),
        }
