"""Time one search in a commit and in the working tree, interleaved in one process.

    python3 tools/interleave.py --rev REV [--resolution 128] [--scheme binary-phase]
        [--algorithm ds-fast] [--selection sps] [--iterations 4000] [--rounds 10] [--time-only]

Run from anywhere; the checkout is the parent of this file's directory. REV
is exported with ``pairs.export`` into a temporary directory outside the
checkout, removed afterwards. Its ``src/holosearch`` and the working tree's
are imported in this one process under two package names,
``holosearch_base`` and ``holosearch_change``, so each tree's modules resolve their relative imports inside
that tree and keep their own caches and helper thread. As under ``holo``,
numpy's BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is set.

The probe is one ``run_search`` of the package's own synthetic target
(``prepare_target`` of each tree, outside the timing) at the given
resolution, scheme, algorithm, selection and iteration count, seed 0; its
rate is the iteration count over the wall time of the call, set-up included.
Each tree first runs the probe once untimed, then once per round, the
commit first in even rounds and the working tree first in odd ones. It
prints each side's median iterations/s, the ratio of the medians (working
tree over commit) and in how many rounds the working tree was faster.

Every run's ``final_mse``, ``accepted`` count and hologram bytes are
compared between the trees; the exit status is 1 if they differ, unless
``--time-only`` is given. Both trees share one heap and one process, so
this cannot measure peak RSS or a cold set-up: ``tools/pairs.py`` does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

from bench import ROOT
from pairs import export

SIDES = ("base", "change")


def load(name: str, src: str):
    """Import the package ``src/holosearch`` as ``name``, with its
    submodules as ``name.<module>``."""
    package = os.path.join(src, "holosearch")
    spec = importlib.util.spec_from_file_location(name, os.path.join(package, "__init__.py"),
                                                  submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def unload(name: str) -> None:
    """Forget the package ``name`` and its submodules."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


class Probe:
    """One tree's search, set up once: ``run()`` times it and returns
    (seconds, outcome), the outcome being what the trees must agree on."""

    def __init__(self, name: str, args: argparse.Namespace):
        experiments = importlib.import_module(f"{name}.experiments")
        self.search = importlib.import_module(f"{name}.search")
        scheme = importlib.import_module(f"{name}.slm").ModulationScheme.from_name(args.scheme)
        config = experiments.ExperimentConfig(resolution=args.resolution, iterations=args.iterations,
                                              algorithm=args.algorithm, selection=args.selection,
                                              scheme=scheme)
        self.target = experiments.prepare_target(config)
        self.config = config.search_config()
        self.seed = config.seed

    def run(self) -> tuple[float, tuple]:
        t0 = time.perf_counter()
        result = self.search.run_search(self.target, self.config, self.seed)
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(result.hologram.tobytes()).hexdigest()
        return seconds, (float(result.final_mse).hex(), result.accepted, digest)


def interleave(srcs: dict[str, str], args: argparse.Namespace) -> tuple[dict[str, list[float]], bool]:
    """Each side's iterations/s per round, and whether every run of the two
    trees had the same outcome."""
    probes = {}
    try:
        for side in SIDES:
            load(f"holosearch_{side}", srcs[side])
            probes[side] = Probe(f"holosearch_{side}", args)
        outcomes = {side: {probes[side].run()[1]} for side in SIDES}  # untimed warm-up
        rates = {side: [] for side in SIDES}
        for i in range(args.rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                seconds, outcome = probes[side].run()
                rates[side].append(args.iterations / seconds)
                outcomes[side].add(outcome)
            print(f"round {i + 1}/{args.rounds} done", file=sys.stderr)
    finally:
        for side in SIDES:
            unload(f"holosearch_{side}")
    return rates, outcomes["base"] == outcomes["change"] and len(outcomes["base"]) == 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="commit to compare the working tree with")
    ap.add_argument("--resolution", type=int, default=128)
    ap.add_argument("--scheme", default="binary-phase")
    ap.add_argument("--algorithm", default="ds-fast")
    ap.add_argument("--selection", default="sps")
    ap.add_argument("--iterations", type=int, default=4000)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--time-only", action="store_true", help="do not fail when the results differ")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.iterations < 1:
        ap.error("--rounds and --iterations must be >= 1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before either tree loads numpy

    tmp = tempfile.mkdtemp(prefix="holosearch-interleave-")
    try:
        commit = export(args.rev, tmp)
        rates, same = interleave({"base": os.path.join(tmp, "src"), "change": os.path.join(ROOT, "src")}, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    base, change = (statistics.median(rates[side]) for side in SIDES)
    wins = sum(c > b for b, c in zip(rates["base"], rates["change"]))
    print(f"{commit[:12]} (base) against the working tree (change), in one process: "
          f"{args.resolution}^2 {args.scheme} {args.algorithm} {args.selection}, "
          f"{args.iterations} iterations, {args.rounds} rounds")
    print(f"iterations/s median: base {base:.6g}, change {change:.6g}, ratio {change / base:.3f}, "
          f"change faster in {wins}/{args.rounds} rounds")
    print(f"results (final_mse, accepted, hologram bytes): {'the same' if same else 'differ'}")
    return 0 if same or args.time_only else 1


if __name__ == "__main__":
    sys.exit(main())
