"""holosearch benchmark: one workload per process, untraced or traced.

    python3 holobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from that
checkout's ``src/``, never from an installed copy. Artifacts go to a scratch
directory inside the checkout, removed before exit.

For ``--seconds`` the run repeats rounds of half a second of set-ups of the
workload (median ``setup_s``), one reference job (reference.py) and one
driver call. ``--trace 0`` reports end-to-end metrics: medians over the run,
with ``iters_per_s``, ``wall_s`` and ``setup_s`` given at the reference host
speed, that is scaled by how much faster or slower the reference job ran than
its nominal time; the measured medians are in the report. ``--trace 1`` first
measures copy bandwidth, traces every other driver call and reports
per-module metrics from the traced ones, as measured. Every call's outputs
are checked. The last stdout line is the JSON result; before it comes a
report with the environment, the workload's properties, sample counts and
any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".holobench_work")


def import_package() -> None:
    """Import holosearch from this checkout's src/, or exit with an error."""
    init = os.path.join(SRC, "holosearch", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"holobench: no holosearch sources at {init}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import holosearch

    if os.path.abspath(holosearch.__file__) != init:
        raise SystemExit(f"holobench: imported holosearch from {holosearch.__file__}, not {init}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import layers
    import machine
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"holobench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = machine.environment(ROOT)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    tally = measure.Tally(workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, detail = measure.traced(tally, args.seconds, env["caches_bytes"])
            units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
        else:
            metrics, detail = measure.untraced(tally, args.seconds)
            units = {k: u for k, (u, _) in measure.END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "properties": measure.properties(workload, tally.reference, env["caches_bytes"]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "problems": tally.problems,
        "detail": detail,
    }
    print(json.dumps(report, indent=1, default=str))
    for problem in tally.problems:
        print(f"holobench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
