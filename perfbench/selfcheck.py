"""Self-check of the benchmark, at tiny size.

    python3 perfbench/selfcheck.py

It confirms that:

1. every metric named in BENCHMARK.json is emitted for every workload,
   untraced and traced, with no failed operation;
2. the count metrics of two traced runs are identical;
3. a reference perturbed by one part in 1e9 makes the error rate nonzero;
4. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits with an error and prints no result.

Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import work_dir

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".subsets", ".rows", ".cells", ".points", ".constructions")


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, *extra: str) -> dict:
    proc = run(workload, trace, *extra)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {kind: {m["name"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    counts = sorted(n for n in names["per_layer"] if n.endswith(COUNT_SUFFIXES))
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        plain, traced, again = (result(workload, 0), result(workload, 1),
                                result(workload, 1))
        for res, kind in ((plain, "end_to_end"), (traced, "per_layer"), (again, "per_layer")):
            if set(res["metrics"]) != names[kind]:
                problems.append(f"{workload}: {kind} metrics "
                                f"{sorted(set(res['metrics']) ^ names[kind])} differ")
            if res["failed"]:
                problems.append(f"{workload}: {res['failed']} operations failed")
        for name in counts:
            a, b = traced["metrics"][name]["value"], again["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: count {name} was {a} then {b}")

    with work_dir("selfcheck") as work:
        refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
        refs["tiny"]["noac_curves"]["pc_fisher"]["values"][0] *= 1.0 + 1e-9
        perturbed = work / "refs.json"
        perturbed.write_text(json.dumps(refs), encoding="utf-8")
        res = result("noac_curves", 0, "--refs", str(perturbed))
        if res["failed"] == 0:
            problems.append("a perturbed reference left the error rate at 0")

        bare = work / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("noac_curves", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the program's sources the benchmark did not fail "
                            "cleanly")

    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: " + ("FAILED" if problems else
                           f"ok ({len(counts)} count metrics repeat exactly)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
