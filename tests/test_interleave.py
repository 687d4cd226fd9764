"""``tools/interleave.py`` on a small grid: an A/A run against the checkout's
HEAD, and a working tree whose search result differs."""

import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import interleave  # noqa: E402

ARGS = ["--rev", "HEAD", "--resolution", "64", "--iterations", "300", "--rounds", "2"]


@pytest.fixture(autouse=True)
def needs_git_head():
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=interleave.ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("the checkout has no git HEAD to export")


def test_a_tree_against_itself_reads_the_same_results(capsys):
    """HEAD against the working tree, whose bytes are HEAD's: exit 0, one
    rate per round and side, and both packages gone from sys.modules."""
    assert interleave.main(ARGS) == 0
    out = capsys.readouterr().out
    assert "results (final_mse, accepted, hologram bytes): the same" in out
    assert "64^2 binary-phase ds-fast sps, 300 iterations, 2 rounds" in out
    assert not [name for name in sys.modules if name.startswith(("holosearch_base", "holosearch_change"))]


def test_a_tree_whose_result_differs_is_reported(tmp_path, monkeypatch, capsys):
    """A working tree whose run_search searches another seed: the results
    differ and the exit status is 1, or 0 with --time-only, which still
    prints that they differ."""
    checkout = tmp_path / "checkout"
    shutil.copytree(os.path.join(interleave.ROOT, "src"), checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(checkout / "src" / "holosearch" / "search.py", "a", encoding="utf-8") as fh:
        fh.write("\n\n_run_search = run_search\n\n\n"
                 "def run_search(target, config, seed):\n"
                 "    return _run_search(target, config, seed + 1)\n")
    monkeypatch.setattr(interleave, "ROOT", str(checkout))
    assert interleave.main(ARGS) == 1
    assert "results (final_mse, accepted, hologram bytes): differ" in capsys.readouterr().out
    assert interleave.main([*ARGS, "--time-only"]) == 0
    assert "differ" in capsys.readouterr().out
