"""treespectra benchmark: one workload per invocation.

    python3 bench/run.py --workload check_random --seed 1 --seconds 20 --trace 0

Workloads: catalog, check_extremal, check_random, census (see README.md).
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of a traced run.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the environment, goes to ``bench/out/``.

The workload runs in a fresh worker process.  For the set-up time, four
more workers only set up, and the median of the five readings is reported.
"""

import threads

threads.pin()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog", "check_extremal", "check_random", "census")
SETUP_ONLY_WORKERS = 4
WORKER_TIMEOUT_S = 170


class WorkerFailed(Exception):
    pass


def spawn(args, *extra) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--started", repr(started)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return json.loads(lines[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treespectra benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treespectra" / "__init__.py").is_file():
        sys.stderr.write(f"error: no treespectra sources under {ROOT / 'src'}\n")
        return 2

    try:
        result = spawn(args)
        setups = [result["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_ONLY_WORKERS):
                setups.append(spawn(args, "--setup-only")["setup_s"])
    except (WorkerFailed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {args.workload}: {exc}\n")
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    info = result["info"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": info.pop("numpy"),
            "git_commit": git_commit(),
            "threads_pinned": {var: os.environ[var] for var in threads.THREAD_VARS},
        },
        "setup_s_samples": setups,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "info": info,
    }
    out = BENCH / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} cpus={env['cpu_count']} "
        f"python={env['python']} numpy={env['numpy']} commit={env['git_commit'][:12]}"
    )
    for name, metric in sorted(metrics.items()):
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(
            f"failed_frac {info['failed_frac']:.6g} fraction "
            f"({result['failed']} of {result['attempted']} items)"
        )
        print(
            f"# latency: {info['latency_samples']} requests; tail is percentile "
            f"{info['tail_percentile']:.4g} with {info['tail_samples_beyond']} beyond; "
            f"{info['passes']} pass(es) in {info['timed_s']:.3f} s"
        )
    else:
        for top in info["top_self_s"]:
            print(f"# self {top['name']} {top['self_s']:.4g} s/pass, mostly from {top['main_caller']}")
        print(
            f"# {info['spans']} spans over {info['traced_passes']} traced pass(es); "
            f"char_poly calls inside eigenbasis requests: {info['char_poly_calls_in_eigenbasis']}"
        )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
