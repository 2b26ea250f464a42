"""One workload in one process: set up, warm up, time passes, print JSON.

Started by ``run.py``, which pins the numeric libraries to one thread and
puts the checkout's ``src`` on ``PYTHONPATH``. With ``--setup-only`` the
worker stops after warm-up and reports only its set-up time. Otherwise it
times passes over the workload's item list until ``--seconds`` would be
exceeded (at least ``MIN_PASSES``) and prints one JSON object on stdout.

``--trace 0`` gives the end-to-end metrics. ``op_p50_ms`` and ``op_tail_ms``
are the median and the ``TAIL_PERCENTILE`` percentile over the items of each
item's median time over the passes. ``setup_s`` is raw here; the factor that
scales it is in the info (``setup_scale``). ``--trace 1`` runs
each item plain and under the span wrappers and gives the per-layer metrics:
per-pass medians of span counts and self times, module rollups, ratios, the
pass time no span covers, and the tracing overhead.

The host this benchmark was tuned on (2 shared vCPUs) changes speed by up to
1.6x for minutes at a time, which spread the results of ten runs by up to half
their median. The end-to-end item times are therefore scaled to a reference host
speed: fixed numpy kernels, independent of polybell, are timed between items
every ``CALIBRATE_EVERY_S``, and each item's wall time is multiplied by the
kernels' time on a reference host over the median of their last few times.
The workload names its kernels: small SVDs, for the library's mix of numpy
calls and Python, and elementwise passes over a large array, for the
memory-bound CHSH scan. The raw wall times are reported next to the scaled
ones in the info line.

Start-up work (loading modules, building inputs) does not follow the kernels
from one second to the next, but it does follow their drift over minutes.
The launcher therefore takes the median of several set-ups, some before and
some after the measuring worker, and scales it by all the kernels' factor
over the whole measuring run (``setup_scale``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict, deque
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import TARGETS, Tracer, span_names

MIN_PASSES = 3
TAIL_PERCENTILE = 90.0
MIN_TRACE_PASSES = 2
TRACE_CHUNKS = 32
MAX_REPORTED_FAILURES = 5

CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW = 5
_KERNEL_MATRIX = np.arange(27.0 * 12.0).reshape(27, 12) % 7.0 + np.eye(27, 12)
_KERNEL_VECTOR = np.array([1.0, 2.0, 3.0])
_KERNEL_BLOCK = np.zeros((64, 128, 128))


def _compute_kernel() -> None:
    """Small SVDs and vector checks: the library's mix of numpy calls and Python."""
    for _ in range(30):
        np.linalg.svd(_KERNEL_MATRIX)
        np.allclose(_KERNEL_VECTOR, _KERNEL_VECTOR + 1e-12)
        np.abs(_KERNEL_VECTOR - _KERNEL_VECTOR).max()


def _memory_kernel() -> None:
    """Elementwise passes over an 8 MB array, like one block of the n = 128 CHSH scan."""
    np.add(_KERNEL_BLOCK, 1.0, out=_KERNEL_BLOCK)
    np.abs(_KERNEL_BLOCK, out=_KERNEL_BLOCK)


# name -> (kernel, its time on the reference host)
KERNELS = {"compute": (_compute_kernel, 0.002), "memory": (_memory_kernel, 0.002)}


class HostSpeed:
    """Factors that scale a wall time to the reference host speed.

    Every kernel in ``KERNELS`` is timed at each calibration; item times are
    scaled by the ones the workload names (``kernels``), whose work is like
    its items'.
    """

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = kernels
        self.recent = {name: deque(maxlen=CALIBRATION_WINDOW) for name in KERNELS}
        self.kernel_s: dict[str, list[float]] = {name: [] for name in KERNELS}
        self._scale = 1.0
        self._due = 0.0

    def scale(self) -> float:
        """Time the kernels when due; return the current item scale factor."""
        if perf_counter() >= self._due:
            for name, elapsed in _time_kernels().items():
                self.recent[name].append(elapsed)
                self.kernel_s[name].append(elapsed)
            self._scale = _factor(self.kernels, self.recent)
            self._due = perf_counter() + CALIBRATE_EVERY_S
        return self._scale

    def overall(self, kernels: tuple[str, ...] | None = None) -> float:
        """The scale factor over every timing so far, of ``kernels`` or the item kernels."""
        return _factor(kernels or self.kernels, self.kernel_s)


def _time_kernels() -> dict[str, float]:
    times = {}
    for name, (kernel, _) in KERNELS.items():
        t0 = perf_counter()
        kernel()
        times[name] = perf_counter() - t0
    return times


def _factor(kernels: tuple[str, ...], times) -> float:
    return (sum(KERNELS[name][1] for name in kernels)
            / sum(statistics.median(times[name]) for name in kernels))


class Pass:
    """Timings and failures of one pass over the item list.

    ``samples`` and ``time_s`` are scaled to the reference host speed when
    the pass ran with a ``HostSpeed``; ``raw_s`` is the unscaled total.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.time_s = 0.0
        self.raw_s = 0.0
        self.wall_s = 0.0
        self.failures: list[str] = []

    def add(self, other: "Pass") -> None:
        """Count another part of the same pass into this one."""
        self.samples += other.samples
        self.time_s += other.time_s
        self.raw_s += other.raw_s
        self.wall_s += other.wall_s
        self.failures += other.failures


def run_pass(items, speed: HostSpeed | None = None) -> Pass:
    """Time each item's call; check its result outside the timed region.

    A raising item or a failed check counts as a failure and the pass goes on.
    """
    result = Pass()
    start = perf_counter()
    for item in items:
        scale = speed.scale() if speed else 1.0
        t0 = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a failing item is data, not a crash
            dt = perf_counter() - t0
            result.failures.append(f"{item.label}: raised {exc!r}")
        else:
            dt = perf_counter() - t0
            try:
                ok = item.check(out)
            except Exception as exc:
                ok = False
                result.failures.append(f"{item.label}: check raised {exc!r}")
            else:
                if not ok:
                    result.failures.append(f"{item.label}: wrong result")
        result.samples.append(dt * scale)
        result.time_s += dt * scale
        result.raw_s += dt
    result.wall_s = perf_counter() - start
    return result


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of the samples and how many lie beyond it."""
    ordered = sorted(samples)
    # The small offset keeps float error (99.9 / 100 * 10000 > 9990) off the rank.
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def keep_passing(done: int, minimum: int, elapsed: float, last: float,
                 seconds: float) -> bool:
    """Repeat until ``minimum`` rounds, then while another round fits ``seconds``."""
    return done < minimum or elapsed + last <= seconds


def end_to_end(workload, warm: Pass, speed: HostSpeed, seconds: float,
               setup_s: float) -> dict:
    passes: list[Pass] = []
    start = perf_counter()
    while keep_passing(len(passes), MIN_PASSES, perf_counter() - start,
                       passes[-1].wall_s if passes else 0.0, seconds):
        gc.collect()
        passes.append(run_pass(workload.items, speed))
    samples = [s for p in passes for s in p.samples]
    # Each item's median over the passes: a stall in one pass moves no item.
    per_item = [statistics.median(p.samples[k] for p in passes)
                for k in range(len(workload.items))]
    failures = [f for p in [warm] + passes for f in p.failures]
    tail_value, tail_beyond = tail(per_item, TAIL_PERCENTILE)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (statistics.median(p.time_s for p in passes), "s"),
        "op_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (1.0 - sum(len(p.failures) for p in passes) / len(samples),
                         "fraction"),
    }
    info = {
        "passes": len(passes),
        "items_per_pass": len(workload.items),
        "samples": len(samples),
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_tail_items_beyond": tail_beyond,
        "sweep_s_per_pass": [p.time_s for p in passes],
        "raw_sweep_s": statistics.median(p.raw_s for p in passes),
        "host_speed_scale": speed.overall(),
        "setup_scale": speed.overall(tuple(KERNELS)),
        "kernel_timings": len(speed.kernel_s["compute"]),
    }
    return result(metrics, info, len(warm.samples) + len(samples), failures)


def traced(workload, warm: Pass, seconds: float) -> dict:
    """Per-layer metrics: rounds of one plain and one traced pass, interleaved.

    Each round splits the item list into ``TRACE_CHUNKS`` chunks and runs
    every chunk twice, once plain and once under the span wrappers, switching
    which goes first from chunk to chunk. Every round is still one traced pass
    over all items, and the tracing overhead compares raw times taken a few
    milliseconds apart, so a change of host speed affects both sides alike.
    """
    tracer = Tracer()
    size = max(1, len(workload.items) // TRACE_CHUNKS)
    chunks = [workload.items[k:k + size] for k in range(0, len(workload.items), size)]
    plain: list[Pass] = []
    spans: list[Pass] = []
    per_pass: list[dict[str, float]] = []
    start = perf_counter()
    last = 0.0
    while keep_passing(len(spans), MIN_TRACE_PASSES, perf_counter() - start, last, seconds):
        round_start = perf_counter()
        gc.collect()
        tracer.reset()
        plain.append(Pass())
        spans.append(Pass())
        for k, chunk in enumerate(chunks):
            for tracing in ((False, True) if k % 2 == 0 else (True, False)):
                if not tracing:
                    plain[-1].add(run_pass(chunk))
                    continue
                tracer.install()
                try:
                    spans[-1].add(run_pass(chunk))
                finally:
                    tracer.uninstall()
        per_pass.append(_layer_values(tracer, spans[-1], workload))
        last = perf_counter() - round_start
    overheads = [t.raw_s / p.raw_s - 1.0 for p, t in zip(plain, spans)]
    metrics = {"trace.overhead_frac": (statistics.median(overheads), "fraction")}
    for name, unit in layer_units().items():
        if name not in metrics:
            # median_low keeps counts whole
            pick = statistics.median_low if name.endswith(".calls") else statistics.median
            metrics[name] = (pick(values[name] for values in per_pass), unit)
    failures = [f for p in [warm] + plain + spans for f in p.failures]
    samples = sum(len(p.samples) for p in [warm] + plain + spans)
    info = {"passes": len(plain), "traced_passes": len(spans),
            "items_per_pass": len(workload.items), "trace_chunks": len(chunks),
            # A true overhead below the round-to-round noise can read negative.
            "overhead_quartiles": statistics.quantiles(overheads, n=4)}
    return result(metrics, info, samples, failures)


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for _, span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for mod in TARGETS:
        units[f"{mod}.calls"] = "count"
        units[f"{mod}.self_s"] = "s"
    units["q1.ip_checks_per_cert"] = "ratio"
    units["selfdual.find_calls_per_model"] = "ratio"
    units["cli.measurements_per_call"] = "ratio"
    units["bench.unattributed_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


def _layer_values(tracer: Tracer, one_pass: Pass, workload) -> dict[str, float]:
    values: dict[str, float] = defaultdict(float)
    for mod, span in span_names():
        calls, self_s = tracer.calls.get(span, 0), tracer.self_s.get(span, 0.0)
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
        values[f"{mod}.calls"] += calls
        values[f"{mod}.self_s"] += self_s

    def per(count: float, base: int) -> float:
        return count / base if base else 0.0

    values["q1.ip_checks_per_cert"] = per(
        values["bipartite.is_inner_product_state.calls"], workload.certificates)
    values["selfdual.find_calls_per_model"] = per(
        values["selfdual.find_cone_isomorphisms.calls"], workload.models)
    values["cli.measurements_per_call"] = per(
        values["core.dichotomic_measurement.calls"], workload.cli_calls)
    values["bench.unattributed_s"] = one_pass.raw_s - tracer.top_s
    return values


def result(metrics: dict, info: dict, attempted: int, failures: list[str]) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "info": {**info, "first_failures": failures[:MAX_REPORTED_FAILURES]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import polybell
    import workloads

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(polybell.__file__).resolve().parent != src / "polybell":
        print(f"error: imported polybell from {polybell.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = workloads.BUILDERS[args.workload](args.seed, smoke=args.smoke)
    speed = HostSpeed(workload.calibration)
    warm = run_pass(workloads.BUILDERS[args.workload](args.seed, smoke=True).items, speed)
    gc.collect()
    setup_s = time.monotonic() - args.t0

    if args.setup_only:
        out = {"setup_s": setup_s}
    elif args.trace:
        out = traced(workload, warm, args.seconds)
    else:
        out = end_to_end(workload, warm, speed, args.seconds, setup_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
