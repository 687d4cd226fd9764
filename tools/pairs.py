"""Compare a commit with the working tree in alternating holobench pairs.

    python3 tools/pairs.py --rev REV --workload W [--pairs 10] [--first-seed 1]

Run from anywhere; the checkout is the parent of this file's directory. Both
trees are staged side by side in one temporary directory outside the
checkout, removed afterwards: REV is exported with ``git archive`` into
``base``, and the working tree's ``src`` and ``holobench`` (STAGED, all
that a holobench run reads) are copied into ``change`` as they are,
uncommitted and untracked files included, ``__pycache__`` left out. Neither
tree has a ``.git``. Pair i (i = 0 .. pairs-1) runs ``holobench/run.py
--workload W --seed first_seed+i --trace 0`` for ``bench.SECONDS`` once in
each tree, each in its own process through ``bench.holobench``, the commit
first in even pairs and the working tree first in odd ones.

For every end-to-end metric that BENCHMARK.json names, it prints each side's
median and quartiles, and in how many pairs the working tree was better
(ties count for neither side); after that table, each side's smallest and
largest single run, where an outlier that the quartiles hide shows. ``gain``
reads yes when the working tree won at least nine tenths of the pairs and the
medians differ by more than the distance between the commit's quartiles.
``worse`` reads yes when the working tree's median is worse than the commit's
by more than the metric's relative ``bound`` in BENCHMARK.json: a median
ratio below ``1 - bound`` for a metric where higher is better, above
``1 + bound`` where lower is. A run that ``bench.failed`` counts as failed is
listed and left out of its pair. The exit status is 1 if a run failed, no
pair succeeded or a metric reads ``worse``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from bench import ROOT, SECONDS, benchmark, failed, holobench

STAGED = ("src", "holobench")


def export(rev: str, dest: str) -> str:
    """Extract ``git archive rev`` into dest; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)
    return commit


def copy_working_tree(dest: str) -> None:
    """Copy the STAGED directories of the checkout into dest, without
    ``__pycache__``."""
    for name in STAGED:
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__"))


def metrics(tree: str, workload: str, seed: int) -> dict | None:
    """Metric values of one untraced run in ``tree``, or None if it failed."""
    row, _ = holobench(workload, 0, tree, seed)
    if failed(row):
        return None
    return {k: v["value"] for k, v in row["result"]["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metric: dict, pairs: list[tuple[dict, dict]]) -> dict:
    """One metric over the pairs where both runs succeeded."""
    name, higher = metric["name"], metric["better"] == "higher"
    base = [p[name] for p, _ in pairs]
    change = [c[name] for _, c in pairs]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(base, change))
    q1, q3 = quartiles(base)
    med_base, med_change = statistics.median(base), statistics.median(change)
    ratio = med_change / med_base if med_base else None
    bound = metric["bound"]
    return {
        "metric": name, "unit": metric["unit"], "better": metric["better"],
        "base_median": med_base, "base_quartiles": [q1, q3],
        "change_median": med_change, "change_quartiles": list(quartiles(change)),
        "base_range": [min(base), max(base)], "change_range": [min(change), max(change)],
        "ratio": ratio, "wins": wins, "pairs": len(pairs),
        "gain": 10 * wins >= 9 * len(pairs) and abs(med_change - med_base) > q3 - q1,
        "bound": bound,
        "worse": ratio is not None and (ratio < 1 - bound if higher else ratio > 1 + bound),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="commit to compare the working tree with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        ap.error("--pairs must be >= 1 and --first-seed >= 0")

    tmp = tempfile.mkdtemp(prefix="holosearch-pairs-")
    try:
        trees = {side: os.path.join(tmp, side) for side in ("base", "change")}
        os.makedirs(trees["base"])
        commit = export(args.rev, trees["base"])
        copy_working_tree(trees["change"])
        pairs, lost = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {}
            for side in sides:
                got[side] = metrics(trees[side], args.workload, seed)
                if got[side] is None:
                    lost.append(f"pair {i} (seed {seed}): {side}")
            if got["base"] is not None and got["change"] is not None:
                pairs.append((got["base"], got["change"]))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows = [summary(m, pairs) for m in benchmark()["end_to_end"]] if pairs else []
    print(f"{args.workload}: {commit[:12]} (base) against the working tree (change), "
          f"{len(pairs)} of {args.pairs} pairs, {SECONDS:g} s runs, "
          f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    print(f"{'metric':14s} {'base median [quartiles]':>34s} {'change median [quartiles]':>34s} "
          f"{'ratio':>7s} {'wins':>6s}  gain  worse (bound)")
    for r in rows:
        base = f"{r['base_median']:.4g} [{r['base_quartiles'][0]:.4g}, {r['base_quartiles'][1]:.4g}]"
        change = f"{r['change_median']:.4g} [{r['change_quartiles'][0]:.4g}, {r['change_quartiles'][1]:.4g}]"
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
        print(f"{r['metric']:14s} {base:>34s} {change:>34s} {ratio:>7s} "
              f"{r['wins']:>3d}/{r['pairs']:<2d}  {'yes' if r['gain'] else 'no':4s}  "
              f"{'yes' if r['worse'] else 'no':5s} ({r['bound']:g})")
    print(f"{'single runs':14s} {'base [smallest, largest]':>34s} {'change [smallest, largest]':>34s}")
    for r in rows:
        base = f"[{r['base_range'][0]:.4g}, {r['base_range'][1]:.4g}]"
        change = f"[{r['change_range'][0]:.4g}, {r['change_range'][1]:.4g}]"
        print(f"{r['metric']:14s} {base:>34s} {change:>34s}")
    for run in lost:
        print(f"failed: {run}")
    return 1 if lost or not pairs or any(r["worse"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
