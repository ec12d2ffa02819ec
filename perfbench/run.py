"""cartaninv benchmark: seeded rounds of in-process CLI operations.

    python3 perfbench/run.py --workload series_p5 --seed 1 --seconds 20 --trace 0

Run from a source checkout; the package is imported from ``src/``.  Load
model: a closed loop with one client, one operation (a ``cartaninv.cli.main``
call with stdout captured) after another, with ``--workers`` left at 1.  Each
operation's exit code and output are checked against ``expected.json``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
records spans and prints the per-layer metrics instead (see README.md).  The
last stdout line is the JSON result; the run's machine context,
per-operation timings and, when traced, the spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11


def setup():
    """Everything a run does before its first operation."""
    src = ROOT / "src"
    if not (src / "cartaninv" / "__init__.py").is_file():
        raise ImportError(f"no cartaninv package under {src}")
    sys.path.insert(0, str(src))
    from cartaninv import cli

    expected = json.loads((HERE / "expected.json").read_text())
    return cli, expected


def measure_setup():
    """Median seconds from spawning a fresh interpreter to the end of setup()."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        probe = subprocess.run([sys.executable, __file__, "--setup-probe"],
                               capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout) - t0)
    return statistics.median(times)


def context():
    """What numbers from this run may be compared against."""
    rev = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                 capture_output=True, text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cartaninv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_rev": rev,
        "source_sha256": src.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latency = defaultdict(list)  # op name -> seconds, measured rounds only


def run_op(main, op, store, tally):
    """Run and check one operation; returns its seconds."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(workloads.expand(op.argv, store))
    except Exception as exc:  # a traceback is a failed operation, not a failed run
        rc, problem = None, f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    if problem is None:
        try:
            problem = op.check(rc, out.getvalue(), store)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"output unreadable: {exc!r}"
    tally.attempted += 1
    if problem is not None:
        tally.failed += 1
        print(f"FAILED {op.name}: {problem}; stderr: {err.getvalue()[-500:]!r}",
              file=sys.stderr)
    return seconds


def run_round(main, workload, order, tally, measured=True):
    """One round of the workload; returns the summed operation seconds."""
    store = OUT / f"store-{os.getpid()}" if workload.uses_store else None
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
    try:
        total = 0.0
        for op in order:
            seconds = run_op(main, op, store, tally)
            total += seconds
            if measured:
                tally.latency[op.name].append(seconds)
        return total
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)


def percentile(values, q):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, -(-len(ranked) * q // 100) - 1)]


def measure(main, workload, rng, seconds, tally):
    """Measured rounds until ``seconds`` have passed and min_rounds are done;
    returns each round's seconds."""
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < workload.min_rounds or time.perf_counter() < deadline:
        walls.append(run_round(main, workload,
                               workloads.round_order(workload.ops, rng), tally))
    return walls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("CARTANINV_STORE", None)
    try:
        cli, expected = setup()
    except (ImportError, OSError, ValueError) as exc:
        print(f"cannot set up the benchmark in {ROOT}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ctx = context()
    workload = workloads.WORKLOADS[args.workload](expected)
    rng = random.Random(args.seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if workload.warmup:
        run_round(cli.main, workload, workloads.round_order(workload.ops, rng), tally,
                  measured=False)
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            walls = measure(tracer.wrap("cli.main", cli.main, tracing.exit_code),
                            workload, rng, args.seconds, tally)
        metrics = tracing.layer_metrics(tracer, len(walls))
        wanted = spec["per_layer"]
        flags = tracing.trace_flags(metrics)
        info = {"flags": flags, "self_s": tracing.self_times(tracer.spans)}
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        for flag in flags:
            print(f"flagged: per-layer numbers unreliable: {flag}", file=sys.stderr)
    else:
        setup_s = measure_setup()
        walls = measure(cli.main, workload, rng, args.seconds, tally)
        latencies = [s for v in tally.latency.values() for s in v]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        info = {"ops_timed": len(latencies)}
    info.update(rounds=len(walls), round_s=walls)
    ctx["loadavg_end"] = os.getloadavg()
    info["op_median_s"] = {k: statistics.median(v) for k, v in tally.latency.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "context": ctx, "info": info, **result}
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
