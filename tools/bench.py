"""Record one benchmark sitting as ``BENCH_<label>.json`` at the repo root.

    python3 tools/bench.py --label LABEL

Run from anywhere; the checkout is the parent of this file's directory. The
sitting runs, one after another and each in its own process:

* every holobench workload once untraced (``--trace 0``) at seed 0, and
  traced (``--trace 1``) once at each seed of TRACED_SEEDS, for SECONDS
  each, keeping every run's result line (the last line that
  ``holobench/run.py`` prints), its problems and its absent hooks;
* the tier-1 test suite, timed;
* holobench's own tests (``python3 -m pytest holobench/tests``), timed:
  they sit outside the tier-1 ``testpaths``, so the suite does not run them;
* one ``holo run-ab --resolution 128 --iterations 20000``, timed, with no
  BLAS thread variable in its environment, so it runs with ``holo``'s own
  default (one thread); the record keeps the key ``run_ab_128_uncapped``.

One traced run is a single sample of a host that drifts, too few to
resolve a set-up change; so ``traced_medians`` holds, per workload, the
median of each per-layer metric that BENCHMARK.json names over that
workload's traced runs that did not fail. The file also names the git HEAD
the sitting measured and whether the tree had uncommitted changes. Compare
two files only when they come from the same sitting on the same machine:
the host's speed drifts between sittings.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 12
SEED = 0
TRACED_SEEDS = (0, 1, 2)
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
HOLOBENCH_TESTS = ["-m", "pytest", "-q", "holobench/tests"]
RUN_AB = ["-m", "holosearch.cli", "run-ab", "--resolution", "128", "--iterations", "20000", "--out-dir", "ab"]
BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def holobench(workload: str, trace: int, tree: str = ROOT, seed: int = SEED) -> tuple[dict, dict]:
    """One holobench run in the checkout ``tree``: its result line, and its
    problems and absent hooks (traced) or host slowdown (untraced: the
    ``host_speed`` factor its times were normalised by) from the report
    printed before that line; and the environment that report describes."""
    cmd = ["holobench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run([sys.executable, *cmd], cwd=tree, capture_output=True, text=True)
    lines = out.stdout.rstrip().splitlines()
    row = {"command": ["python3", *cmd], "returncode": out.returncode}
    if out.returncode != 0 or not lines:
        row["stderr"] = out.stderr[-4000:]
        return row, {}
    row["result"] = json.loads(lines[-1])
    report = json.loads("\n".join(lines[:-1]))
    row["problems"] = report["problems"]
    if trace:
        row["absent_hooks"] = report["detail"]["absent_hooks"]
    else:
        row["host_slowdown"] = report["detail"]["host_speed"]["slowdown"]
    return row, report["environment"]


def failed(row: dict) -> bool:
    """Whether a :func:`holobench` run failed: it exited non-zero or printed
    no result, reported problems, or its result is not ``correct``."""
    return "result" not in row or bool(row["problems"]) or not row["result"]["correct"]


def traced_medians(rows: list[dict], names: list[str]) -> dict[str, float]:
    """The median of each named metric over the runs in ``rows`` that did not
    fail; a name that no such run reports is left out."""
    kept = [row["result"]["metrics"] for row in rows if not failed(row)]
    medians = {}
    for name in names:
        values = [m[name]["value"] for m in kept if name in m]
        if values:
            medians[name] = statistics.median(values)
    return medians


def timed(args: list[str], env: dict, cwd: str = ROOT) -> dict:
    """Wall time of ``python3 <args>`` run in ``cwd``, with its last stdout line."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = out.stdout.rstrip().splitlines()[-1:] or [""]
    return {"command": ["python3", *args], "wall_s": wall, "returncode": out.returncode, "last_line": tail[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = ap.parse_args(argv)

    pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p)}
    uncapped = {k: v for k, v in env.items() if k not in BLAS_CAPS}
    record = {
        "label": args.label,
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    spec = benchmark()
    per_layer = [m["name"] for m in spec["per_layer"]]
    runs = {w: [holobench(w, 0)] + [holobench(w, 1, seed=seed) for seed in TRACED_SEEDS]
            for w in (w["name"] for w in spec["workloads"])}
    record["environment"] = next((e for rs in runs.values() for _, e in rs if e), {})
    record["holobench"] = [row for rs in runs.values() for row, _ in rs]
    record["traced_medians"] = {w: traced_medians([row for row, _ in rs[1:]], per_layer) for w, rs in runs.items()}
    record["tier1"] = timed(TIER1, env)
    record["holobench_tests"] = timed(HOLOBENCH_TESTS, env)
    with tempfile.TemporaryDirectory() as tmp:
        record["run_ab_128_uncapped"] = timed(RUN_AB, uncapped, cwd=tmp)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    bad = [r for r in record["holobench"] if failed(r)]
    timed_runs = ("tier1", "holobench_tests", "run_ab_128_uncapped")
    return 1 if bad or any(record[key]["returncode"] for key in timed_runs) else 0


if __name__ == "__main__":
    sys.exit(main())
