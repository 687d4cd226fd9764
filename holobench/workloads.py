"""Benchmark workloads and how one driver call is made and checked.

Each workload is one experiment driver a user would run (``holo run-ab`` or
``holo render``) with a fixed configuration; the seed is the only input that
varies between runs. The package is driven only through its public functions.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from holosearch import experiments, search
from holosearch.experiments import ExperimentConfig
from holosearch.field import dft2
from holosearch.metrics import mse
from holosearch.search import ALGO_SA, SELECT_RANDOM, SELECT_SPS
from holosearch.slm import ModulationScheme, is_allowed

# Relative bound on |final_mse - mse(target, dft2(hologram))|, the bound the
# package's own search tests hold the incrementally maintained error to.
DRIFT_REL = 1e-9

# summary.txt carries the measured wall time, so it differs run to run by design.
UNDIGESTED = ("summary.txt",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    driver: str
    config: dict
    # The reference job (see reference.py) run between driver calls: grid
    # side, update loops, and its nominal seconds, about its median on a
    # 2-vCPU Xeon KVM guest (Python 3.11, numpy 2.4). The nominal time only
    # sets the scale of the host-normalised times; it cancels when two
    # commits are compared on one host.
    reference: tuple[int, int, float]

    @property
    def selections(self) -> tuple[str, ...]:
        """Pixel-selection policy of each search the driver runs, in order."""
        if self.driver == "run_convergence_ab":
            return (SELECT_RANDOM, SELECT_SPS)
        return (self.config.get("selection", SELECT_RANDOM),)

    def experiment(self, seed: int, out_dir: str, **overrides) -> ExperimentConfig:
        return ExperimentConfig(**{**self.config, **overrides, "seed": seed, "out_dir": out_dir})


BINARY = ModulationScheme.from_name("binary-phase")

# A 128^2 run-ab with 20k iterations (the acceptance sweep's shape, where sps
# wraps around its order) is left out: its Python-bound loop follows the host's
# CPU speed, and on a shared 2-vCPU KVM guest its spread over ten seeds reached
# 0.26-0.31 of the median, above the largest bound (0.25) the benchmark may set.
# The 512^2 workload runs the same code. A render at 2048^2 (4M-pixel sort,
# about 440 MiB peak) is left out too: one call takes about 6 s, so a run held
# three, too few for a steady median; 1024^2 runs the same code in under 2 s.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ab-ds-binary-512",
        "the paper's A/B at 512^2: the 4 MiB replay outgrows one core's L2, so memory-bound "
        "delta_update and mse set the rate; real aperture; most candidates are rolled back",
        "run_convergence_ab",
        dict(resolution=512, scheme=BINARY, algorithm="ds-fast", iterations=500, symmetry=True),
        (512, 150, 0.60),
    ),
    Workload(
        "ab-sa-phase8-256",
        "complex aperture bypasses real-aperture shortcuts; exercises integer proposals, "
        "Boltzmann acceptance and worsening accepts",
        "run_convergence_ab",
        dict(resolution=256, scheme=ModulationScheme.from_name("phase:8"), algorithm=ALGO_SA,
             iterations=2_000, symmetry=False),
        (256, 600, 0.39),
    ),
    Workload(
        "render-sps-1024",
        "largest grid: set-up (1M-pixel sort, transforms), PGM writing and peak memory weigh "
        "more than elsewhere; a single search, so parallel A/B arms cannot help",
        "run_render",
        dict(resolution=1024, scheme=BINARY, algorithm="ds-fast", selection=SELECT_SPS, iterations=64),
        (1024, 16, 0.56),
    ),
)}


def measure_setup(workload: Workload, seed: int) -> tuple[float, float]:
    """One set-up of the workload: seconds for target preparation plus every
    search's set-up (back-projection, quantisation, first transform, sps sort),
    and the search part alone. Runs each search with zero iterations."""
    cfg = workload.experiment(seed, out_dir="", iterations=0)
    t0 = time.perf_counter()
    target = experiments.prepare_target(cfg)
    t1 = time.perf_counter()
    for selection in workload.selections:
        search.run_search(target, cfg.search_config(selection), seed)
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1


@dataclass
class SearchRecord:
    target_mag: np.ndarray
    config: search.SearchConfig
    result: search.SearchResult


@contextmanager
def capture_searches():
    """Record every search the drivers run (one extra Python call per search)."""
    records: list[SearchRecord] = []
    inner = experiments.run_search

    def capturing(target, config, seed):
        result = inner(target, config, seed)
        records.append(SearchRecord(target.mag, config, result))
        return result

    experiments.run_search = capturing
    try:
        yield records
    finally:
        experiments.run_search = inner


@dataclass
class CallResult:
    """What one driver call produced, reduced to numbers and digests."""

    wall_s: float
    search_wall_s: float
    iterations: int
    accepted: int
    final_mse: float
    digests: dict[str, str]
    pgm_bytes: int
    fingerprints: list[str]
    real_aperture: bool
    problems: list[str] = field(default_factory=list)


def artifact_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name not in UNDIGESTED:
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_search(rec: SearchRecord) -> list[str]:
    """Output checks for one search: allowed pixels, error consistent with a
    fresh transform, monotone direct-search trace."""
    res, cfg = rec.result, rec.config
    problems = []
    if not is_allowed(res.hologram, cfg.scheme):
        problems.append(f"{cfg.selection}: hologram holds values {cfg.scheme.name} cannot display")
    fresh = mse(rec.target_mag, dft2(res.hologram))
    if not abs(res.final_mse - fresh) <= DRIFT_REL * fresh:
        problems.append(f"{cfg.selection}: final_mse {res.final_mse!r} vs fresh transform {fresh!r}")
    if res.final_mse != res.trace.final_mse:
        problems.append(f"{cfg.selection}: final_mse differs from the trace's last sample")
    if cfg.algorithm != ALGO_SA:
        errs = [s.mse for s in res.trace.samples]
        if any(b > a for a, b in zip(errs, errs[1:])):
            problems.append(f"{cfg.selection}: direct-search trace rises")
    return problems


def fingerprint(res: search.SearchResult) -> str:
    h = hashlib.sha256(res.hologram.tobytes())
    h.update(f"{res.final_mse!r} {res.accepted}".encode())
    return h.hexdigest()


def run_call(workload: Workload, seed: int, out_dir: str, full_check: bool, tracer=None) -> CallResult:
    """One driver call into ``out_dir``, timed from the call to the last
    artifact on disk; the directory is removed afterwards.

    With ``full_check`` every search is checked against a fresh transform;
    otherwise the caller compares fingerprints with a checked call, since a
    repeat must reproduce it bit for bit.
    """
    cfg = workload.experiment(seed, out_dir)
    driver = getattr(experiments, workload.driver)
    with capture_searches() as records:
        t0 = time.perf_counter()
        if tracer is None:
            report = driver(cfg)
        else:
            report = tracer.call(f"experiments.{workload.driver}", driver, cfg)
        wall = time.perf_counter() - t0
    try:
        digests = artifact_digests(out_dir)
        pgm_bytes = sum(os.path.getsize(os.path.join(out_dir, n)) for n in digests if n.endswith(".pgm"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems = []
    if [r.config.selection for r in records] != list(workload.selections):
        problems.append(f"driver ran searches {[r.config.selection for r in records]}")
    if full_check:
        for rec in records:
            problems += check_search(rec)
    last = records[-1].result
    reported = report.final_mse_sps if hasattr(report, "final_mse_sps") else report.final_mse
    if reported != last.final_mse:
        problems.append(f"driver reports final_mse {reported!r}, search ended at {last.final_mse!r}")
    return CallResult(
        wall_s=wall,
        search_wall_s=report.wall_time_s,
        iterations=sum(r.config.iterations for r in records),
        accepted=sum(r.result.accepted for r in records),
        final_mse=last.final_mse,
        digests=digests,
        pgm_bytes=pgm_bytes,
        fingerprints=[fingerprint(r.result) for r in records],
        real_aperture=all(not np.any(r.result.hologram.imag) for r in records),
        problems=problems,
    )


def compare(reference: CallResult, repeat: CallResult) -> list[str]:
    """A repeat of a call with the same seed must write the same bytes and end
    in the same search states."""
    problems = []
    if repeat.digests != reference.digests:
        changed = sorted(k for k in reference.digests.keys() | repeat.digests.keys()
                         if reference.digests.get(k) != repeat.digests.get(k))
        problems.append(f"artifacts differ from the first call: {changed}")
    if repeat.fingerprints != reference.fingerprints:
        problems.append("search end states differ from the first call")
    return problems
