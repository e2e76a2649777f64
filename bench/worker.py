"""One workload in one fresh process: set up, time whole passes, check.

Started by ``run.py``; prints one JSON object on stdout.  With
``--setup-only`` it stops where the first timed request would start and
reports only its set-up time.  Set-up time counts from ``--started``, the
launcher's monotonic clock reading taken just before it started this
process, so it covers interpreter start, imports, input generation and
writing the tree files.  Timings are in reference seconds (see speed.py).
"""

import threads

threads.pin()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))
SETUP_SAMPLES = 20  # kernel samples that scale the set-up time

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treespectra import census, cli  # noqa: E402


@dataclass
class Phase:
    """Raw results of one timed phase: per request, one entry per pass."""

    intervals: list  # (began, ended) monotonic readings
    outputs: list
    passes: int
    seconds: float


def timed_phase(requests, runner, budget: float) -> Phase:
    """Run whole passes until the next one would end past ``budget``.

    At least one pass runs.  Stopping only between passes keeps the mix of
    requests the same whatever the program's speed.
    """
    intervals = [[] for _ in requests]
    outputs = [[] for _ in requests]
    passes = 0
    began = time.monotonic()
    while True:
        pass_began = time.monotonic()
        for i, request in enumerate(requests):
            t = time.monotonic()
            try:
                out = request.run(runner)
            except Exception as exc:  # a raising request is a failed item
                out = exc
            intervals[i].append((t, time.monotonic()))
            outputs[i].append(out)
        passes += 1
        now = time.monotonic()
        if now - began + (now - pass_began) > budget:
            return Phase(intervals, outputs, passes, now - began)


def check_phase(requests, phase: Phase) -> tuple[int, int]:
    """(attempted, failed) items over every pass; nothing here is timed."""
    attempted = failed = 0
    shown = False
    for request, outs in zip(requests, phase.outputs):
        for out in outs:
            attempted += request.items
            if isinstance(out, Exception):
                failed += request.items
                if not shown:
                    traceback.print_exception(out, file=sys.stderr)
                    shown = True
            else:
                failed += request.check(out)
    return attempted, failed


def tail_latency(values) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no percentile qualifies, and the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def pass_seconds(phase: Phase, to_seconds) -> list[float]:
    """Time of each pass, as the sum of its requests' times."""
    return [
        sum(to_seconds(*ivs[k]) for ivs in phase.intervals) for k in range(phase.passes)
    ]


def end_to_end(phase: Phase, attempted: int, failed: int, probe) -> tuple[dict, dict]:
    """Timings in reference seconds (see speed.py), medians over passes."""
    per_request = [
        statistics.median(probe.reference_seconds(*iv) for iv in ivs) for ivs in phase.intervals
    ]
    tail, percentile, beyond = tail_latency(per_request)
    certified = (attempted - failed) / phase.passes
    metrics = {
        "throughput_per_s": (
            certified / statistics.median(pass_seconds(phase, probe.reference_seconds)),
            "1/s",
        ),
        "latency_p50_ms": (1e3 * statistics.median(per_request), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = [statistics.median(b - a for a, b in ivs) for ivs in phase.intervals]
    info = {
        "latency_samples": len(per_request),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "passes": phase.passes,
        "timed_s": phase.seconds,
        "failed_frac": failed / attempted,
        "wall_latency_p50_ms": 1e3 * statistics.median(wall),
        "slowdown": probe.slowdown(phase.intervals[0][0][0], phase.intervals[-1][-1][1]),
    }
    return metrics, info


def per_layer(requests, runner, tracer, plain: Phase, traced: Phase, probe) -> tuple[dict, dict]:
    """Per traced pass; the probe's own time is in no span's self time."""
    passes = traced.passes
    wall = statistics.mean(pass_seconds(traced, probe.wall_seconds))
    metrics = {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for idx, name in enumerate(tracing.NAMES):
        self_s = tracer.self_s[idx] / passes
        metrics[f"{name}.calls"] = (tracer.calls[idx] / passes, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        layer_self[name.split(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = (self_s, "s")
        metrics[f"layer.{layer}.share"] = (self_s / wall, "fraction")

    char_poly = tracer.calls_of("exact.char_poly")
    rows = sum(
        request.lambda_rows(out)
        for request, outs in zip(requests, traced.outputs)
        for out in outs
        if not isinstance(out, Exception)
    )
    metrics["exact.char_poly.calls_per_request"] = (char_poly / (len(requests) * passes), "count")
    metrics["exact.char_poly.calls_per_lambda_row"] = (char_poly / rows if rows else 0.0, "count")
    overhead = statistics.median(pass_seconds(traced, probe.reference_seconds)) / statistics.median(
        pass_seconds(plain, probe.reference_seconds)
    ) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")

    by_request = tracer.per_request_counts("exact.char_poly")
    in_eigenbasis = sum(
        count for rid, count in by_request.items() if runner.commands[rid] == "eigenbasis"
    )
    callers = tracer.main_callers()
    ranked = sorted(
        ((tracer.self_s[i] / passes, name) for i, name in enumerate(tracing.NAMES)),
        reverse=True,
    )
    info = {
        "traced_passes": passes,
        "untraced_passes": plain.passes,
        "spans": len(tracer.start),
        "char_poly_calls_in_eigenbasis": in_eigenbasis,
        "top_self_s": [
            {"name": name, "self_s": s, "main_caller": callers.get(name, ("", 0.0))[0]}
            for s, name in ranked[:5]
            if s > 0
        ],
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    probe = speed.SpeedProbe()
    try:
        requests = workloads.build(args.workload, args.size, args.seed, workdir, ROOT, census)
        setup_end = time.monotonic()
        probe.burst(SETUP_SAMPLES)
        result = {"setup_s": probe.reference_seconds(args.started, setup_end)}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        runner = workloads.Runner(cli, census)
        if args.trace:
            tracer = tracing.Tracer()
            with probe:
                plain = timed_phase(requests, runner, args.seconds / 2)
                runner.tracer = tracer
                probe.on_busy = tracer.exclude
                tracer.install()
                try:
                    traced = timed_phase(requests, runner, args.seconds / 2)
                finally:
                    tracer.uninstall()
                    probe.on_busy = None
            runner.tracer = None
            attempted, failed = check_phase(requests, traced)
            metrics, info = per_layer(requests, runner, tracer, plain, traced, probe)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans)
            info["spans_file"] = str(spans.relative_to(ROOT))
        else:
            with probe:
                phase = timed_phase(requests, runner, args.seconds)
            attempted, failed = check_phase(requests, phase)
            metrics, info = end_to_end(phase, attempted, failed, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        info=dict(info, numpy=np.__version__),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
