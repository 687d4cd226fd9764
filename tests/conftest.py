"""Shared pytest hooks.

Caps numpy's BLAS at one thread, as the ``holo`` entry point does, so the
tests compute what ``holo`` computes. Collects the outcome of each acceptance
criterion test and prints a one-line PASS/FAIL verdict per criterion at the
end of the run.
"""

import os
import re

# Before any test module imports numpy: OpenBLAS reads this once, at load.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_outcomes = {}


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if m is None:
        return
    num = int(m.group(1))
    if report.when == "call":
        _outcomes[num] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _outcomes[num] = "FAIL"
    elif report.when == "setup" and report.skipped:
        _outcomes.setdefault(num, "SKIP")


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    tw = terminalreporter
    tw.ensure_newline()
    tw.section("acceptance criteria")
    for num in sorted(_outcomes):
        tw.write_line("criterion %d: %s" % (num, _outcomes[num]))
