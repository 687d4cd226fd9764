"""The comparison rule of ``tools/same_bytes.py``, on made-up directories,
and its run list against the option table."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import same_bytes  # noqa: E402

from holosearch.cli import build_parser, config_from_args  # noqa: E402

SUMMARY = "image = synthetic-mandrill\nfinal_mse = 0.5\nwall_time_s = {}\n"


def make_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(root)


def run_dir(**changes):
    files = {
        "run00/replay.pgm": b"P5\n2 2\n255\n\x00\x01\x02\x03",
        "run00/trace.csv": "iteration,mse,accepted\n0,1,0\n",
        "run00/summary.txt": SUMMARY.format("0.25"),
        "run00.stdout": "final_mse = 0.5\nwrote run00/replay.pgm\n",
        "run00.stderr": "",
        "run00.exit": "0\n",
    }
    files.update(changes)
    return {k: v for k, v in files.items() if v is not None}


def test_identical_runs_but_for_wall_time_do_not_differ(tmp_path):
    base = make_tree(tmp_path / "base", run_dir())
    change = make_tree(tmp_path / "change", run_dir(**{"run00/summary.txt": SUMMARY.format("9.75")}))
    assert same_bytes.differences(base, change) == []


def test_every_kind_of_difference_is_reported(tmp_path):
    base = make_tree(tmp_path / "base", run_dir(**{"run01.exit": "2\n"}))
    change = make_tree(tmp_path / "change", run_dir(**{
        "run00/replay.pgm": b"P5\n2 2\n255\n\x00\x01\x02\x04",
        "run00/summary.txt": "image = synthetic-mandrill\nseed = 0\nfinal_mse = 0.5\nwall_time_s = 1\n",
        "run00.exit": "1\n",
        "run00/trace.csv": None,
        "run01.exit": None,
        "run02.exit": "0\n",
    }))
    assert same_bytes.differences(base, change) == [
        "--- base/run00.exit", "+++ change/run00.exit", "@@ -1 +1 @@", "-0", "+1",
        "differs: run00/replay.pgm",
        "--- base/run00/summary.txt", "+++ change/run00/summary.txt", "@@ -1,0 +2 @@", "+seed = 0",
        "only in base: run00/trace.csv",
        "only in base: run01.exit",
        "only in change: run02.exit",
    ]


def test_a_wall_time_line_is_dropped_only_from_summaries(tmp_path):
    base = make_tree(tmp_path / "base", run_dir(**{"run00.stdout": "wall_time_s = 1\n"}))
    change = make_tree(tmp_path / "change", run_dir(**{"run00.stdout": "wall_time_s = 2\n"}))
    assert same_bytes.differences(base, change)[-2:] == ["-wall_time_s = 1", "+wall_time_s = 2"]


def test_runs_parse_and_exactly_the_last_is_rejected():
    """Every run is a holo invocation; the list ends with one that holo
    refuses, so exit codes and error text are compared too."""
    rejected = []
    for run in same_bytes.RUNS:
        args = build_parser().parse_args([*run, "--out-dir", "o"])
        try:
            config_from_args(args)
        except ValueError:
            rejected.append(run)
    assert rejected == [same_bytes.RUNS[-1]]
