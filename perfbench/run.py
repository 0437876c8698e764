"""Benchmark of the pcmeta CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload noac_curves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Load is closed-loop: one client in one process runs the workload's
operations back to back.  After one untimed warm-up operation it cycles
through them until ``--seconds`` have passed, every operation at least
once, checking every output.  ``wall_s`` is the wall-clock of one pass
over the operations, the sum of each operation's median time, so it
does not depend on the run length.  ``setup_s`` is the median, over
fresh interpreters, of the time from launch until ``pcmeta.cli`` is
imported.  ``peak_rss_mb`` is the peak resident memory of the process.

With ``--trace 1`` the same untraced phase runs, then one traced pass
(see ``tracer.py``); the per-layer metrics come from that pass and
``trace.overhead_share`` compares its time with ``wall_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The error rate,
failed / attempted, is printed on the line before it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"
REF_SEED = 0  # the seed the references in refs.json were recorded at
SETUP_LAUNCHES = 5
# One client and no hidden parallelism: BLAS and OpenMP pools get one thread.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_pcmeta():
    """Import pcmeta from this checkout's src/, never from elsewhere."""
    if not (SRC / "pcmeta" / "__init__.py").is_file():
        fail(f"no pcmeta sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(SRC))
    import pcmeta

    if Path(pcmeta.__file__).resolve().parent != SRC / "pcmeta":
        fail(f"imported pcmeta from {pcmeta.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup_s() -> float:
    """Median time from a fresh interpreter's launch to ``import pcmeta.cli``.

    The launches get an absolute PYTHONPATH, so they import the same
    sources wherever they run.  One untimed launch comes first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, pcmeta.cli; print(time.time(), pcmeta.cli.__file__)"
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup launch failed: {proc.stderr.strip()}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != SRC / "pcmeta":
            fail(f"setup launch imported {path.strip()}")
        if i:
            samples.append(float(stamp) - start)
    return statistics.median(samples)


class Runner:
    """Runs operations, times them and checks their outputs."""

    def __init__(self, refs: dict | None, compare):
        self.refs = refs
        self.compare = compare
        self.tracer = None  # when set, records spans around op.call, not the checks
        self.attempted = 0
        self.failed = 0
        self.entries_used = 0

    def run(self, op) -> float:
        """Run ``op`` once and return its wall time; check its output."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.tracer or contextlib.nullcontext():
                out = op.call()
            elapsed = time.perf_counter() - start
            result = op.parse(out)
            if self.refs is not None:
                self.compare(result, self.refs[op.label])
            self.entries_used += result.entries_used
        except Exception:  # a failed operation is counted, and the run goes on
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"perfbench: {op.label} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
        return elapsed


def timed_phase(runner: Runner, ops, seconds: float) -> dict[str, list[float]]:
    """Cycle through ``ops`` until ``seconds`` have passed and each ran once.

    An operation whose median so far would carry the phase past its end
    is skipped, so the phase ends close to ``seconds``.
    """
    times: dict[str, list[float]] = {op.label: [] for op in ops}
    deadline = time.perf_counter() + seconds
    skipped = 0
    i = 0
    while skipped < len(ops):
        op = ops[i % len(ops)]
        i += 1
        done = times[op.label]
        if done and time.perf_counter() + statistics.median(done) > deadline:
            skipped += 1
            continue
        skipped = 0
        done.append(runner.run(op))
    return times


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(args) -> int:
    import_pcmeta()
    import tracer as tracing
    import workloads

    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    print("env: " + json.dumps(environment(), sort_keys=True))
    setup_s = None if args.trace else measure_setup_s()

    workload = workloads.WORKLOADS[args.workload]
    refs = None
    if args.seed == REF_SEED or not workload.seeded:
        refs = json.loads(Path(args.refs).read_text(encoding="utf-8"))[args.size][args.workload]
    with work_dir(args.workload) as work:
        ops = workload.build(args.seed, args.size, work)
        runner = Runner(refs, workloads.compare)
        runner.run(ops[0])  # warm-up
        times = timed_phase(runner, ops, args.seconds)
        wall_s = sum(statistics.median(t) for t in times.values())
        for label, t in times.items():
            print(f"perfbench: {label}: n={len(t)} median={statistics.median(t):.6f}s",
                  file=sys.stderr)
        if args.trace:
            tracer = runner.tracer = tracing.Tracer()
            runner.entries_used = 0
            tracer.install()
            try:
                traced_s = sum(runner.run(op) for op in ops)
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer, runner.entries_used)
            metrics["process.cpu_s"] = time.process_time()
            metrics["trace.overhead_share"] = traced_s / wall_s - 1.0
            print("spans: " + json.dumps(tracer.table()), file=sys.stderr)
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }

    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    print(f"error_rate: {runner.failed / runner.attempted!r} "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Run each workload in its own fresh process and print one table."""
    summary = {}
    for name in (w["name"] for w in benchmark_spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size, "--refs", args.refs],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    if not args.trace:
        setup = statistics.median(s["metrics"]["setup_s"]["value"] for s in summary.values())
        print(f"{'setup_s':<14} {setup:.4f} s")
    for name, res in summary.items():
        cells = [f"{m} {v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items()
                 if m != "setup_s"]
        rate = res["failed"] / res["attempted"]
        print(f"{name:<14} " + "   ".join(cells)
              + f"   error_rate {rate:g} ratio ({res['failed']}/{res['attempted']})")
    print(json.dumps(summary))
    return 0


def record_refs(args) -> int:
    """Write refs.json from the program as it is, at REF_SEED."""
    import_pcmeta()
    import workloads

    refs: dict = {}
    for size in ("full", "tiny"):
        for name, workload in workloads.WORKLOADS.items():
            with work_dir(f"refs-{name}") as work:
                ops = workload.build(REF_SEED, size, work)
                refs.setdefault(size, {})[name] = {
                    op.label: op.parse(op.call()).to_ref() for op in ops}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-check")
    parser.add_argument("--refs", default=str(REFS), help="references to check against")
    parser.add_argument("--record-refs", action="store_true",
                        help=f"rewrite {REFS.name} from the program at seed {REF_SEED}")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record_refs:
        return record_refs(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
