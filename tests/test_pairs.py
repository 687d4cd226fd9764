"""The regression and gain rules of ``tools/pairs.py``, on made-up runs."""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import bench  # noqa: E402
import pairs  # noqa: E402

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(metric, base, change):
    return [({metric["name"]: b}, {metric["name"]: c}) for b, c in zip(base, change)]


@pytest.mark.parametrize("metric, change, worse", [
    (LOWER, [1.24, 1.25, 1.26], False),  # median ratio 1.25: on the bound
    (LOWER, [1.26, 1.27, 1.28], True),
    (HIGHER, [0.76, 0.75, 0.74], False),
    (HIGHER, [0.73, 0.74, 0.72], True),
    (LOWER, [0.5, 0.5, 0.5], False),
])
def test_worse_is_a_median_past_the_bound(metric, change, worse):
    row = pairs.summary(metric, runs(metric, [1.0, 1.0, 1.0], change))
    assert row["worse"] is worse
    assert row["bound"] == 0.25


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_quartiles():
    base = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    row = pairs.summary(LOWER, runs(LOWER, base, [b - 0.3 for b in base]))
    assert (row["wins"], row["gain"], row["worse"]) == (10, True, False)
    row = pairs.summary(LOWER, runs(LOWER, base, [b - 0.01 for b in base]))
    assert (row["wins"], row["gain"]) == (10, False)
    row = pairs.summary(LOWER, runs(LOWER, base, [b - 0.3 for b in base[:8]] + base[8:]))
    assert (row["wins"], row["gain"]) == (8, False)


def test_each_side_reports_its_smallest_and_largest_run():
    """One outlier run moves neither median nor quartile, but shows in its
    side's range."""
    base = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    change = base[:5] + [9.0] + base[6:]
    row = pairs.summary(LOWER, runs(LOWER, base, change))
    assert row["change_median"] == row["base_median"]
    assert row["change_quartiles"] == row["base_quartiles"]
    assert row["base_range"] == [1.0, 1.2]
    assert row["change_range"] == [1.0, 9.0]
    assert row["worse"] is False


def test_the_working_tree_is_staged_without_caches_or_git(tmp_path, monkeypatch):
    """Only src and holobench are copied, untracked files included; caches,
    .git, tests and holobench's work directory stay behind."""
    checkout = tmp_path / "checkout"
    for name in ("src/holosearch/search.py", "src/holosearch/new_module.py",
                 "src/holosearch/__pycache__/search.cpython-311.pyc", "holobench/run.py",
                 "holobench/tests/test_holobench.py", "holobench/__pycache__/run.cpython-311.pyc",
                 ".git/HEAD", ".holobench_work/run/out.csv", "tests/test_pairs.py", "README.md"):
        path = checkout / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(name)
    monkeypatch.setattr(pairs, "ROOT", str(checkout))
    dest = tmp_path / "change"
    pairs.copy_working_tree(str(dest))
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == ["holobench/run.py", "holobench/tests/test_holobench.py",
                      "src/holosearch/new_module.py", "src/holosearch/search.py"]
    assert (dest / "src/holosearch/search.py").read_text() == "src/holosearch/search.py"


def test_each_side_reports_its_host_slowdown():
    """The host slowdown of each side's runs: median, smallest, largest."""
    pairs_ = [({"host_slowdown": b}, {"host_slowdown": c}) for b, c in ((1.0, 1.2), (1.1, 1.3), (0.9, 1.6))]
    assert pairs.slowdowns(pairs_) == {"base": (1.0, 0.9, 1.1), "change": (1.3, 1.2, 1.6)}


def test_an_untraced_run_keeps_its_host_slowdown(monkeypatch):
    """bench.holobench keeps the host_speed slowdown of an untraced run's
    report in its row, and pairs.metrics passes it on beside the metrics;
    a traced run keeps its absent hooks instead."""
    report = {"problems": [], "environment": {"cpu": "x"},
              "detail": {"host_speed": {"slowdown": 1.25}, "absent_hooks": ["search.mse"]}}
    result = {"correct": True, "metrics": {"wall_s": {"value": 2.0}}}

    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, json.dumps(report, indent=1) + "\n" + json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench.subprocess, "run", run)
    row, environment = bench.holobench("ab-ds-binary-512", 0)
    assert (row["host_slowdown"], environment) == (1.25, {"cpu": "x"})
    assert "absent_hooks" not in row
    traced, _ = bench.holobench("ab-ds-binary-512", 1)
    assert traced["absent_hooks"] == ["search.mse"] and "host_slowdown" not in traced
    assert pairs.metrics("tree", "ab-ds-binary-512", 1) == {"wall_s": 2.0, "host_slowdown": 1.25}
