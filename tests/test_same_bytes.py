"""The comparison rule of ``tools/same_bytes.py``, on made-up directories,
and its run list against the option table."""

import os
import sys

import pytest

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
        "kind: run00.exit: integer field on line 1: 0 -> 1",
        "--- base/run00.exit", "+++ change/run00.exit", "@@ -1 +1 @@", "-0", "+1",
        "differs: run00/replay.pgm",
        "kind: run00/summary.txt: row count 2 -> 3",
        "--- base/run00/summary.txt", "+++ change/run00/summary.txt", "@@ -1,0 +2 @@", "+seed = 0",
        "only in base: run00/trace.csv",
        "only in base: run01.exit",
        "only in change: run02.exit",
    ]


def test_float_digits_alone_are_told_apart(tmp_path):
    """A run whose CSV, summary and stdout differ only in float digits is
    reported as such, with the largest absolute and relative difference
    over every field that moved and the field of the latter: a CSV's
    column, a line's key. A derived ratio that moves more than the errors
    it comes from is named as the field that moved most. The PGM is the
    same and not mentioned."""
    ratio = "initial_mse = 0.75\nfinal_mse = {}\nimprovement_error_reduction = {}\n"
    base = make_tree(tmp_path / "base", run_dir(**{
        "run00/trace.csv": "iteration,mse,accepted\n0,0.25,0\n100,0.125,7\n",
        "run01/summary.txt": ratio.format("0.5", "0.001"),
    }))
    change = make_tree(tmp_path / "change", run_dir(**{
        "run00/trace.csv": "iteration,mse,accepted\n0,0.25000000000000006,0\n100,0.12500000000000003,7\n",
        "run00/summary.txt": SUMMARY.replace("0.5", "0.5000000000000001").format("3"),
        "run00.stdout": "final_mse = 0.49999999999999994\nwrote run00/replay.pgm\n",
        "run01/summary.txt": ratio.format("0.5000000000000001", "0.00100000000000001"),
    }))
    kinds = [line for line in same_bytes.differences(base, change) if line.startswith("kind: ")]
    assert kinds == [
        "kind: run00.stdout: float fields only, largest absolute difference 5.55e-17, largest relative 1.11e-16"
        " in final_mse",
        "kind: run00/summary.txt: float fields only, largest absolute difference 1.11e-16, largest relative 2.22e-16"
        " in final_mse",
        "kind: run00/trace.csv: float fields only, largest absolute difference 5.55e-17, largest relative 2.22e-16"
        " in mse",
        "kind: run01/summary.txt: float fields only, largest absolute difference 1.11e-16, largest relative 9.97e-15"
        " in improvement_error_reduction",
    ]


@pytest.mark.parametrize("old, new, kind", [
    # an accepted count
    ("iteration,mse,accepted\n100,0.5,7\n", "iteration,mse,accepted\n100,0.5,8\n",
     "integer field on line 2: 7 -> 8"),
    # an iteration, beside a float that moved too
    ("iteration,mse\n100,0.5\n", "iteration,mse\n101,0.5000000000000001\n",
     "integer field on line 2: 100 -> 101"),
    # a histogram row more
    ("bin,count\n0.0,3\n", "bin,count\n0.0,3\n0.5,1\n", "row count 2 -> 3"),
    # a value written another way
    ("selection = sps\n", "selection = random\n", "non-numeric field on line 1: 'sps' -> 'random'"),
    ("final_mse = 0.5\n", "final_mse = nan0\n", "non-numeric field on line 1: '0.5' -> 'nan0'"),
    ("final_mse = 0.5\n", "final_mse = nan\n", "non-finite float on line 1: 0.5 -> nan"),
    ("pearson = inf\n", "pearson = -inf\n", "non-finite float on line 1: inf -> -inf"),
    ("pixels = [1, 2]\n", "pixels = [1, 2, 3]\n",
     "non-numeric field on line 1: 'pixels = [1, 2]' -> 'pixels = [1, 2, 3]'"),
])
def test_a_decision_difference_is_named(tmp_path, old, new, kind):
    base = make_tree(tmp_path / "base", run_dir(**{"run00/trace.csv": old}))
    change = make_tree(tmp_path / "change", run_dir(**{"run00/trace.csv": new}))
    assert same_bytes.differences(base, change) == [f"kind: run00/trace.csv: {kind}", "differs: run00/trace.csv"]


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
