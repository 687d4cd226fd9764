"""The per-workload medians of ``tools/bench.py``, on made-up traced runs."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import bench  # noqa: E402


def traced(metrics, problems=(), correct=True):
    return {"result": {"correct": correct, "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}},
            "problems": list(problems), "absent_hooks": []}


def test_traced_medians_take_each_metric_over_the_runs():
    rows = [traced({"a.ms": 3.0, "b.calls": 10}),
            traced({"a.ms": 1.0, "b.calls": 10}),
            traced({"a.ms": 200.0, "b.calls": 12})]
    assert bench.traced_medians(rows, ["a.ms", "b.calls"]) == {"a.ms": 3.0, "b.calls": 10}


def test_traced_medians_leave_out_failed_runs_and_absent_metrics():
    rows = [traced({"a.ms": 1.0}),
            traced({"a.ms": 2.0, "b.calls": 4}),
            traced({"a.ms": 90.0}, problems=["absent hook"]),
            traced({"a.ms": 80.0}, correct=False),
            {"command": [], "returncode": 1, "stderr": "boom"}]
    assert bench.traced_medians(rows, ["a.ms", "b.calls", "c.ms"]) == {"a.ms": 1.5, "b.calls": 4}
    assert bench.traced_medians([], ["a.ms"]) == {}
