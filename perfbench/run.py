"""The repo benchmark: one command per workload, checked outputs, one
JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_st64 --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's fixed sequence untraced and prints the
end-to-end metrics; ``--trace 1`` runs it untraced and then traced in a
fresh child process (``--child traced``), and prints the per-layer
metrics (see ``perfbench/README.md``).  Human-
readable lines go first; the last line of standard output is the JSON
result.  The exit code is 0 only when every output check passed.

Set-up is measured in fresh child processes of this script (``--child
setup``), six times, half before the timed passes and half after so the
samples span the run, and reported as the median; the serving
workload's telemetry is made in another child (``--child telemetry``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()

import scale  # noqa: E402  (sibling modules; they import nothing from src/)
import serve  # noqa: E402
import sweep  # noqa: E402
from common import calibrate, peak_rss_mib  # noqa: E402
from layers import Tracer  # noqa: E402
from spans import coverage  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150
SPAN_DIR = ROOT / ".perfbench"


WORKLOAD_MODULES = {
    "sweep_st64": sweep, "serve_phased64": serve, "scale_1024": scale,
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--child", choices=("setup", "telemetry", "traced"), default=None,
        help=argparse.SUPPRESS,
    )
    return parser.parse_args(argv)


def _child(args: argparse.Namespace, mode: str, stdin: bytes = b"") -> bytes:
    """Run this script as a child in *mode*; returns its stdout."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--child", mode,
    ]
    done = subprocess.run(
        command, input=stdin, capture_output=True, timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise RuntimeError(f"child {mode} exited {done.returncode}")
    return done.stdout


def _last_json(output: bytes) -> dict:
    return json.loads(output.decode().strip().splitlines()[-1])


def _run_child(args: argparse.Namespace) -> int:
    module = WORKLOAD_MODULES[args.workload]
    if args.child == "telemetry":
        sys.stdout.buffer.write(module.offline_telemetry(args.seed, args.seconds))
        return 0
    if args.child == "traced":
        print(json.dumps(_traced_pass(args, module, sys.stdin.buffer.read())))
        return 0
    start = time.perf_counter()
    import repro.api  # noqa: F401  (the package import every entry point pays)

    import_s = time.perf_counter() - start
    module.setup(args.seed)
    # START is taken before this script's own imports, so setup_s runs from
    # interpreter start-up to the first op a timed pass would run.
    print(json.dumps({
        "setup_s": time.perf_counter() - START,
        "import_s": import_s,
    }))
    return 0


def _timed_pass(args: argparse.Namespace, module, telemetry: bytes, tracer=None):
    state = telemetry or module.setup(args.seed)
    result = module.run_pass(state, args.seed, args.seconds, tracer)
    if hasattr(state, "close"):
        state.close()
    return result


def _traced_pass(args: argparse.Namespace, module, telemetry: bytes) -> dict:
    """The traced pass and its per-layer metrics.  It runs in a fresh
    process, as the untraced pass does, so neither pass finds the
    program's process-wide memos filled by the other."""
    from repro.geometry.mesh import geometry_allocation_stats

    tracer = Tracer()
    result = _timed_pass(args, module, telemetry, tracer)
    tracer.recorder.write(
        SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    )
    metrics = tracer.metrics(result.ops)
    metrics.update(_layer_defaults())
    metrics.update(result.layer_metrics)
    metrics["geometry.cached_mib"] = (
        geometry_allocation_stats().cached_bytes / 2**20, "MiB"
    )
    metrics["trace.coverage"] = (coverage(tracer.recorder.spans), "fraction")
    return {
        "ops": result.ops, "failed": result.failed, "errors": result.errors,
        "throughput": result.throughput, "metrics": metrics,
    }


def _setups(args: argparse.Namespace, count: int) -> list[dict]:
    return [_last_json(_child(args, "setup")) for _ in range(count)]


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child is not None:
        return _run_child(args)

    module = WORKLOAD_MODULES[args.workload]
    calib_start = calibrate()
    setups = _setups(args, SETUP_SAMPLES // 2)

    # The serving pass starts its own service and makes first contact;
    # its state is the telemetry, which every pass replays.
    telemetry = b""
    if args.workload == "serve_phased64":
        telemetry = _child(args, "telemetry")
    untraced = _timed_pass(args, module, telemetry)
    traced = None
    if args.trace:
        traced = _last_json(_child(args, "traced", telemetry))
    setups += _setups(args, SETUP_SAMPLES - len(setups))
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)
    calib_end = calibrate()

    attempted, failed = untraced.ops, untraced.failed
    errors = list(untraced.errors)
    if traced is not None:
        attempted += traced["ops"]
        failed += traced["failed"]
        errors += traced["errors"]
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = failed == 0
    calib_ms = statistics.median(calib_start + calib_end)
    calib_drift = statistics.median(calib_end) / statistics.median(calib_start)

    print(
        f"perfbench {args.workload} seed={args.seed} ops={untraced.ops} "
        f"wall={untraced.wall_s:.3f}s setup samples="
        + ",".join(f"{s['setup_s']:.3f}" for s in setups)
    )
    print(f"  {'error_frac':40s} {failed / attempted:14.6g} fraction")
    print(f"  {'host.calib_ms':40s} {calib_ms:14.6g} ms")

    if traced is None:
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update(untraced.end_to_end())
        metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        metrics = {name: metrics[name] for name in _declared("end_to_end")}
    else:
        metrics = {"api.import_s": (import_s, "s")}
        metrics.update(
            (name, tuple(value)) for name, value in traced["metrics"].items()
        )
        metrics.update({
            "host.calib_ms": (calib_ms, "ms"),
            "host.calib_drift": (calib_drift, "ratio"),
            "trace.untraced_throughput_per_s": (untraced.throughput, "1/s"),
            "trace.traced_throughput_per_s": (traced["throughput"], "1/s"),
            "trace.overhead_frac": (
                1.0 - traced["throughput"] / untraced.throughput, "fraction"
            ),
        })
        metrics = {name: metrics[name] for name in _declared("per_layer")}
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def _layer_defaults() -> dict[str, tuple[float, str]]:
    """Zeros for the service metrics a workload that bypasses the
    service never measures."""
    out = {"service.gen_lag_ms": (0.0, "ms"), "service.telemetry_bytes": (0.0, "bytes")}
    for kind in ("delta", "full"):
        for name in ("submit_ms", "server_latency_ms", "wait_ms"):
            out[f"service.{kind}.{name}"] = (0.0, "ms")
    return out


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
