"""Benchmark of the soliton-tbp CLI: end-to-end timings or per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload phase-grid --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the package's layers are wrapped by
`tracer.Tracer` and the line carries the per-layer metrics instead.  A
result file with the host description goes to ``perfbench/results/``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

import time

START = time.perf_counter()  # set-up probes time the imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3


def import_package():
    """Import the CLI from this checkout's sources, never an installed copy."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import soliton_tbp.cli

    if not Path(soliton_tbp.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"soliton_tbp resolved outside {SRC}")


def host_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "SOLITON_TBP_THREADS": os.environ.get("SOLITON_TBP_THREADS"),
        "commit": commit,
    }


def setup_probe(workload: str, seed: int, work: Path) -> float:
    """One set-up in this fresh process: package import plus input generation."""
    import_package()
    from workloads import WORKLOADS

    work.mkdir(parents=True)
    WORKLOADS[workload].prepare(work, seed)
    return time.perf_counter() - START


def measure_setup(args, work: Path) -> float:
    times = []
    for i in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", str(work / f"probe{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run(args) -> dict:
    import oracles
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    try:
        self_check = oracles.self_check()
        setup_s = measure_setup(args, work)
        inputs = work / "inputs"
        inputs.mkdir()
        workload.prepare(inputs, args.seed)

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(workload.round(inputs, args.seed, tracer))
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(rounds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops]
    for op in ops:
        if op.failed:
            print(f"failed: {op.argv[0]} exit={op.code} {op.error or op.stderr.strip()[-200:]}",
                  file=sys.stderr)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    e2e = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    e2e["solve_s"] = (statistics.median(sum(r.times.values()) for r in rounds), "s")
    if tracer:
        workers = int(os.environ["SOLITON_TBP_THREADS"])
        layers = tracing.layer_metrics(tracer.spans, threading.get_ident(), workers)
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {"correct": not problems, "attempted": len(ops),
              "failed": sum(op.failed for op in ops), "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_info(), "self_check": self_check,
        "rounds": [r.times for r in rounds], "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "problems": problems, "result": result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.dump(results / f"{stem}-spans.json")
    print("host " + json.dumps(record["host"]))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["phase-grid", "link-sweep", "nft-link"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.environ["SOLITON_TBP_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed, args.setup_probe))
            return 0
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
