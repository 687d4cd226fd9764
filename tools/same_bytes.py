"""Compare what ``holo`` writes at a commit with what the working tree writes.

    python3 tools/same_bytes.py --rev REV

Run from anywhere; the checkout is the parent of this file's directory. REV
is exported with ``pairs.export`` into a temporary directory outside the
checkout and removed afterwards; the working tree runs as it is,
uncommitted changes included. Each invocation in RUNS runs once in each
tree, as ``python3 -m holosearch.cli`` with that tree's ``src`` first on
PYTHONPATH. Run i runs in its own working directory with ``--out-dir
runNN`` (NN = i, two digits), so the paths that stdout names are the same in
both trees; its stdout, stderr and exit code are kept beside that directory
as ``runNN.stdout``, ``runNN.stderr`` and ``runNN.exit``.

Every file is then compared byte for byte, except ``summary.txt``, which is
compared with its ``wall_time_s`` line dropped. Each difference is printed,
as a unified diff for summaries, stdout, stderr and exit codes; the exit
status is 1 if anything differs. Each text file that differs (CSVs,
summaries, stdout, stderr, exit codes) also gets one line that says what
kind of difference it is: float fields only, with the largest absolute and
relative difference and the field that holds the latter, or else the first integer field, row count or
non-numeric field that differs. Only the first kind leaves every decision
of a run (accepted counts, iterations, histogram counts, pixel indices)
as it was.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

from bench import ROOT
from pairs import export

_BARS = ("--image", "synthetic-bars")

# Each run's arguments to ``holo``, without --out-dir.
RUNS = (
    ("run-ab", "--resolution", "128"),
    ("run-ab", "--resolution", "128", "--symmetry"),
    ("run-ab", "--resolution", "64"),
    ("run-ab", "--resolution", "64", "--algorithm", "sa", "--scheme", "phase:8"),
    ("render", "--resolution", "256", "--selection", "sps", "--scheme", "phase:8"),
    ("render", "--resolution", "128", "--scheme", "amplitude:5", "--iterations", "20000"),
    ("render", "--resolution", "64", "--scheme", "binary-amplitude"),
    ("render", "--resolution", "64", "--scheme", "phase:3", *_BARS),
    ("render", "--resolution", "64", "--scheme", "phase:7", *_BARS),
    ("render", "--resolution", "64", "--scheme", "phase:16", *_BARS),
    ("render", "--resolution", "64", "--scheme", "phase:cont"),
    ("render", "--resolution", "64", "--algorithm", "sa", "--scheme", "amplitude:5", "--recompute-interval", "3"),
    ("render", "--resolution", "64", "--algorithm", "ds-naive", "--scheme", "phase:8", "--iterations", "500"),
    ("scatter", "--resolution", "64", "--scheme", "binary-phase"),
    ("scatter", "--resolution", "64", "--scheme", "phase:8"),
    ("hist", "--resolution", "64"),
    ("hist", "--resolution", "64", "--scheme", "phase:5"),
    # the largest grids, where set-up weighs most; every kernel splits its rows
    ("render", "--resolution", "1024", "--selection", "sps", "--iterations", "200"),
    ("hist", "--resolution", "1024", "--scheme", "phase:cont"),
    # refreshes a complex aperture's replay every third accept
    ("render", "--resolution", "64", "--algorithm", "sa", "--scheme", "phase:8", "--recompute-interval", "3"),
    # every level a snapped cardinal point (1, 1j, -1, -1j), under annealing
    ("render", "--resolution", "64", "--algorithm", "sa", "--scheme", "phase:4", "--iterations", "5000"),
    # refreshes a real aperture's replay at a size whose transform passes split
    ("render", "--resolution", "1024", "--selection", "sps", "--iterations", "200", "--recompute-interval", "20"),
    # searches a complex aperture at a size whose transform passes split
    ("render", "--resolution", "1024", "--selection", "sps", "--scheme", "phase:8", "--iterations", "200"),
    # samples a grid whose whole-grid quantise would run in split tiles
    ("scatter", "--resolution", "1024", "--scheme", "phase:cont", "--scatter-samples", "200"),
    # ab-ds-binary-512's shape: the set-up and the search loop split their rows
    ("run-ab", "--resolution", "512", "--symmetry", "--iterations", "500"),
    # ab-sa-phase8-256's shape: a complex aperture whose set-up and loop split, under annealing
    ("run-ab", "--resolution", "256", "--algorithm", "sa", "--scheme", "phase:8", "--iterations", "2000"),
    # fails: a custom schedule needs both --t-coeff and --t0
    ("run-ab", "--resolution", "64", "--algorithm", "sa", "--t0", "3"),
)

# Files compared as text, so a difference prints as a unified diff.
TEXT_SUFFIXES = ("summary.txt", ".stdout", ".stderr", ".exit")
# Files whose differences are also classified by kind (see kind_of_difference).
CLASSIFIED_SUFFIXES = (".csv", *TEXT_SUFFIXES)
WALL_TIME = b"wall_time_s = "
# What separates the fields of a CSV row, a ``key = value`` line or a list.
_SEPARATORS = re.compile(r"([\s,=\[\]()]+)")
_INTEGER = re.compile(r"[-+]?\d+")


def run_all(tree: str, work: str) -> None:
    """Run every invocation in RUNS with ``tree``'s package, writing into ``work``."""
    os.makedirs(work)
    pythonpath = [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p)}
    for i, args in enumerate(RUNS):
        name = f"run{i:02d}"
        out = subprocess.run([sys.executable, "-m", "holosearch.cli", *args, "--out-dir", name],
                             cwd=work, env=env, capture_output=True)
        for suffix, data in ((".stdout", out.stdout), (".stderr", out.stderr),
                             (".exit", f"{out.returncode}\n".encode())):
            with open(os.path.join(work, name + suffix), "wb") as fh:
                fh.write(data)


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}


def _content(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.txt":
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(WALL_TIME))
    return data


def _float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def kind_of_difference(old: str, new: str) -> str:
    """What kind of difference there is between two texts that differ.

    The texts are compared line by line and, within a line, field by field,
    fields being what :data:`_SEPARATORS` splits. Either every difference is
    between two finite floats (written with a point or an exponent): the
    result then names the largest absolute and relative difference, and the
    field of the largest relative one (:func:`_field_name`). Or the
    first other difference is named: a row count, an integer field, a
    non-numeric field (text, separators or a number of fields) or a float
    that is or becomes nan or infinite."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"row count {len(old_lines)} -> {len(new_lines)}"
    largest_abs = largest_rel = 0.0
    largest_field = ""
    for number, (a_line, b_line) in enumerate(zip(old_lines, new_lines), 1):
        a_fields, b_fields = _SEPARATORS.split(a_line), _SEPARATORS.split(b_line)
        if len(a_fields) != len(b_fields):
            return f"non-numeric field on line {number}: {a_line!r} -> {b_line!r}"
        for index, (a, b) in enumerate(zip(a_fields, b_fields)):
            if a == b:
                continue
            if _INTEGER.fullmatch(a) or _INTEGER.fullmatch(b):
                return f"integer field on line {number}: {a} -> {b}"
            x, y = _float(a), _float(b)
            if x is None or y is None:
                return f"non-numeric field on line {number}: {a!r} -> {b!r}"
            if not (math.isfinite(x) and math.isfinite(y)):
                return f"non-finite float on line {number}: {a} -> {b}"
            gap = abs(x - y)
            largest_abs = max(largest_abs, gap)
            rel = gap / max(abs(x), abs(y)) if gap else 0.0
            if rel > largest_rel:
                largest_rel, largest_field = rel, _field_name(old_lines[0], a_line, number, index)
    return (f"float fields only, largest absolute difference {largest_abs:.3g}, "
            f"largest relative {largest_rel:.3g} in {largest_field}")


def _field_name(header: str, line: str, number: int, index: int) -> str:
    """Name of field ``index`` of ``_SEPARATORS.split(line)``, line
    ``number`` of a text whose first line is ``header``: the key of a ``key
    = value`` line, or else the header's field at that index (a CSV
    column), or else the line number."""
    key, equals, _ = line.partition(" = ")
    if equals:
        return key
    columns = _SEPARATORS.split(header)
    return columns[index] if number > 1 and index < len(columns) else f"line {number}"


def differences(base: str, change: str) -> list[str]:
    """How the files under ``change`` differ from those under ``base``, as
    printable lines; empty when every file matches (summary.txt without its
    wall-time line). Each text file that differs starts with a line
    ``kind: NAME: ...`` from :func:`kind_of_difference`."""
    lines = []
    in_base, in_change = _files(base), _files(change)
    for name in sorted(in_base | in_change):
        if name not in in_change or name not in in_base:
            lines.append(f"only in {'base' if name in in_base else 'change'}: {name}")
            continue
        old, new = _content(os.path.join(base, name)), _content(os.path.join(change, name))
        if old == new:
            continue
        old_text, new_text = old.decode("utf-8", "replace"), new.decode("utf-8", "replace")
        if name.endswith(CLASSIFIED_SUFFIXES):
            lines.append(f"kind: {name}: {kind_of_difference(old_text, new_text)}")
        if name.endswith(TEXT_SUFFIXES):
            lines += [line.rstrip("\n") for line in difflib.unified_diff(
                old_text.splitlines(), new_text.splitlines(), f"base/{name}", f"change/{name}", n=0,
                lineterm="")]
        else:
            lines.append(f"differs: {name}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="commit to compare the working tree with")
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="holosearch-same-bytes-")
    try:
        tree = os.path.join(tmp, "tree")
        os.makedirs(tree)
        commit = export(args.rev, tree)
        for side, source in (("base", tree), ("change", ROOT)):
            run_all(source, os.path.join(tmp, side))
            print(f"{side}: {len(RUNS)} runs done", file=sys.stderr)
        found = differences(os.path.join(tmp, "base"), os.path.join(tmp, "change"))
        compared = len(_files(os.path.join(tmp, "base")) | _files(os.path.join(tmp, "change")))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{commit[:12]} (base) against the working tree (change), {len(RUNS)} runs:")
    for i, run in enumerate(RUNS):
        print(f"  run{i:02d}: holo {' '.join(run)}")
    for line in found:
        print(line)
    print(f"{compared} files compared: {'differences above' if found else 'all the same'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
