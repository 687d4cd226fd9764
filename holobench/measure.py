"""Measurement passes over one workload: set-up repetitions, timed driver
calls, the untraced end-to-end metrics and the traced per-module metrics."""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from holosearch.search import SELECT_SPS

import layers
import machine
import reference
from spans import Tracer, summarise
from workloads import compare, measure_setup, run_call

# name: (unit, better)
END_TO_END = {
    "iters_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "final_mse": ("a.u.", "lower"),
}

# Three rounds give several set-ups, and calls that repeat the first (whose
# outputs they must reproduce) also in a traced pass.
MIN_ROUNDS = 3
SETUP_ROUND_S = 0.5
DEFAULT_LLC_BYTES = 32 << 20


def tail(samples: list[float]) -> dict | None:
    """Highest of p99.9, p99, p90, p50 (nearest rank) with at least ten
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in (999, 990, 900, 500):
        rank = -(-n * per_mille // 1000)
        if n - rank >= 10:
            return {"p": per_mille / 10, "value": ordered[rank - 1]}
    return None


def describe(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "min": min(samples), "max": max(samples),
            "n": len(samples), "tail": tail(samples)}


class Tally:
    """Counts attempted and failed operations; the first call is the reference
    every later call must reproduce."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def setup(self):
        self.attempted += 1
        try:
            return measure_setup(self.workload, self.seed)
        except Exception:
            self._fail([traceback.format_exc()])
            return None

    def call(self, tracer=None):
        self.attempted += 1
        out_dir = os.path.join(self.workdir, f"call{self.attempted}")
        try:
            res = run_call(self.workload, self.seed, out_dir, self.reference is None, tracer)
        except Exception:
            self._fail([traceback.format_exc()])
            return None
        problems = res.problems + (compare(self.reference, res) if self.reference else [])
        if problems:
            self._fail(problems)
        if self.reference is None:
            self.reference = res
        return res


@dataclass
class Samples:
    """Set-up times (whole and search part), reference job times, and untraced
    and traced calls of a run."""

    setups: list[float] = field(default_factory=list)
    search_setups: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    plain: list = field(default_factory=list)
    spanned: list = field(default_factory=list)


def rounds(tally: Tally, seconds: float, tracer: Tracer | None = None) -> Samples:
    """Rounds of set-up repetitions (for SETUP_ROUND_S, at least one), one
    reference job and one driver call, while the next round is expected to end
    within ``seconds``, and at least MIN_ROUNDS of them. With a tracer every
    other call is traced. Spreading set-ups and reference jobs over the whole
    run exposes them to the same host load as the calls."""
    got = Samples()
    done, last = 0, 0.0
    start = time.perf_counter()
    while done < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        reps = 0
        while reps == 0 or time.perf_counter() - t0 < SETUP_ROUND_S:
            reps += 1
            setup = tally.setup()
            if setup is None:
                break
            got.setups.append(setup[0])
            got.search_setups.append(setup[1])
        got.references.append(reference.run(*tally.workload.reference[:2]))
        if tracer is not None and done % 2 == 1:
            with tracer:
                res = tally.call(tracer)
            got.spanned += [res] if res else []
        else:
            res = tally.call()
            got.plain += [res] if res else []
        last = time.perf_counter() - t0
        done += 1
    return got


def iter_rates(calls: list, search_setup_s: float) -> list[float]:
    """Search-loop iterations per second of each call: the driver's search wall
    time less the searches' own set-up, measured separately with zero iterations."""
    return [c.iterations / (c.search_wall_s - search_setup_s) for c in calls]


def properties(workload, ref, caches: dict) -> dict:
    """Input properties the search's cost depends on, for 'helps only X' claims."""
    cfg = workload.config
    n = cfg["resolution"] ** 2
    grid = 16 * n
    l2, llc = caches.get("L2", 0), caches.get("llc_total", 0)
    return {
        "why": workload.why,
        "driver": workload.driver,
        "accept_ratio": ref.accepted / ref.iterations if ref and ref.iterations else None,
        "aperture": None if ref is None else ("real" if ref.real_aperture else "complex"),
        "sps_wraps": cfg["iterations"] // n if SELECT_SPS in workload.selections else 0,
        "replay_bytes": grid,
        "l2_bytes": l2,
        "llc_bytes": llc,
        "replay_fits": "L2" if grid <= l2 else "LLC" if grid <= llc else "memory",
    }


def untraced(tally: Tally, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over the run, with the times and the rate
    given at the reference host speed (see ``host_slowdown``)."""
    got = rounds(tally, seconds)
    if not (got.setups and got.plain):
        return {}, {}
    samples = {
        "iters_per_s": iter_rates(got.plain, statistics.median(got.search_setups)),
        "wall_s": [c.wall_s for c in got.plain],
        "setup_s": got.setups,
        "peak_rss_mib": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "final_mse": [c.final_mse for c in got.plain],
    }
    slowdown = host_slowdown(tally.workload, got.references)
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    measured = {k: metrics[k] for k in HOST_TIMED}
    metrics["iters_per_s"] *= slowdown
    metrics["wall_s"] /= slowdown
    metrics["setup_s"] /= slowdown
    detail = {k: describe(v) for k, v in samples.items()}
    detail["host_speed"] = {
        "reference_s": describe(got.references),
        "reference_job": dict(zip(("grid", "loops", "nominal_s"), tally.workload.reference)),
        "slowdown": slowdown,
        "measured_medians": measured,
    }
    return metrics, detail


# End-to-end metrics that are times or rates, given at the reference host speed.
HOST_TIMED = ("iters_per_s", "wall_s", "setup_s")


def host_slowdown(workload, references: list[float]) -> float:
    """How much slower the host ran during this run than when the workload's
    nominal reference time was taken: the median reference job time over it.

    The untraced times are divided by this slowdown and the rate multiplied
    by it, so they read as measured on that reference host. The reference job
    never calls the package, so a change in the package's speed passes into
    the normalised metrics unchanged, while a change in the host's speed,
    which the job and the package both feel, cancels."""
    return statistics.median(references) / workload.reference[2]


def traced(tally: Tally, seconds: float, caches: dict) -> tuple[dict, dict]:
    bandwidth = machine.copy_bandwidth(caches.get("llc_total", DEFAULT_LLC_BYTES))
    tracer = Tracer()
    worsening = layers.install(tracer)
    got = rounds(tally, seconds, tracer)
    if not (got.search_setups and got.plain and got.spanned):
        return {}, {}
    setup_s = statistics.median(got.search_setups)
    overhead = (statistics.median(iter_rates(got.plain, setup_s))
                / statistics.median(iter_rates(got.spanned, setup_s)) - 1)
    metrics, absent = layers.per_layer_metrics(
        tracer, worsening,
        driver=tally.workload.driver,
        calls=len(got.spanned),
        resolution=tally.workload.config["resolution"],
        iterations=sum(c.iterations for c in got.spanned),
        accepted=sum(c.accepted for c in got.spanned),
        pgm_bytes=sum(c.pgm_bytes for c in got.spanned),
        copy_gbps=bandwidth["copy_gbps"],
        overhead_frac=overhead,
    )
    spans = {
        name: {"calls": st.calls, "self_ms": st.self_ns / 1e6,
               "us": describe([d / 1e3 for d in st.durations_ns])}
        for name, st in sorted(summarise(tracer.records()).items())
    }
    r = tally.workload.config["resolution"]
    detail = {
        "traced_calls": len(got.spanned),
        "absent_hooks": tracer.absent,
        "absent_metrics": absent,
        "copy_bandwidth": bandwidth,
        "kernel_counts_computed": layers.kernel_counts(r, r),
        "spans": spans,
    }
    return metrics, detail
