"""Per-module metrics of the traced pass.

The hooks wrap public functions where their callers look them up, so the
package itself carries no timers. ``rng`` has no hook of its own: its cost
sits inside ``slm.propose_value`` and ``search.next_pixel``. ``cli`` is
argument parsing and is not on the measured path.

Kernel byte and flop counts are computed from array sizes, not measured:
they ignore cache misses, page faults and write-allocate traffic.

Every time metric here is one the workload always exercises, so none reads a
constant zero. ``search.boltzmann_accept`` runs only under annealing, so its
metric is a call count; its time per call is in the report's span table.
"""

from __future__ import annotations

from holosearch import experiments, search

from spans import SpanStats, Tracer, summarise

# (module, attribute as bound there, span name)
HOOKS = (
    (search, "delta_update", "field.delta_update"),
    (search, "mse", "metrics.mse"),
    (search, "dft2", "field.dft2"),
    (search, "idft2", "field.idft2"),
    (search, "quantise", "slm.quantise"),
    (search, "change_map", "slm.change_map"),
    (search, "propose_value", "slm.propose_value"),
    (search, "next_pixel", "search.next_pixel"),
    (search, "boltzmann_accept", "search.boltzmann_accept"),
    (search, "back_project", "search.back_project"),
    (search, "sps_order", "search.sps_order"),
    (experiments, "run_search", "search.run_search"),
    (experiments, "prepare_target", "targets.prepare"),
    (experiments, "save_pgm", "pgm.save_pgm"),
    (experiments, "write_trace_csv", "experiments.write_trace_csv"),
)

# name: (unit, better)
PER_LAYER = {
    "field.delta_update.calls": ("count", "lower"),
    "field.delta_update.us_per_call": ("us", "lower"),
    "field.delta_update.bytes_per_call": ("bytes", "lower"),
    "field.delta_update.flops_per_call": ("flop", "lower"),
    "metrics.mse.calls": ("count", "lower"),
    "metrics.mse.us_per_call": ("us", "lower"),
    "metrics.mse.bytes_per_call": ("bytes", "lower"),
    "metrics.mse.flops_per_call": ("flop", "lower"),
    "search.rollbacks": ("count", "lower"),
    "search.rollback.bytes_per_call": ("bytes", "lower"),
    "search.rollback.flops_per_call": ("flop", "lower"),
    "search.loop_self_us_per_iter": ("us", "lower"),
    "search.accept_ratio": ("ratio", "higher"),
    "search.worsening_accepts": ("count", "lower"),
    "search.refreshes": ("count", "lower"),
    "slm.propose_value.us_per_call": ("us", "lower"),
    "search.boltzmann_accept.calls": ("count", "lower"),
    "search.next_pixel.us_per_call": ("us", "lower"),
    "field.dft2.calls": ("count", "lower"),
    "field.dft2.ms_per_call": ("ms", "lower"),
    "search.back_project.ms": ("ms", "lower"),
    "slm.quantise.ms": ("ms", "lower"),
    "slm.change_map.ms": ("ms", "lower"),
    "search.sps_order.ms": ("ms", "lower"),
    "targets.prepare.ms": ("ms", "lower"),
    "pgm.save_pgm.ms": ("ms", "lower"),
    "pgm.bytes_written": ("bytes", "lower"),
    "experiments.write_trace_csv.ms": ("ms", "lower"),
    "experiments.driver_self_ms": ("ms", "lower"),
    "kernel.bytes_per_iter": ("bytes", "lower"),
    "kernel.flops_per_iter": ("flop", "lower"),
    "kernel.achieved_gbps": ("GB/s", "higher"),
    "machine.copy_gbps": ("GB/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def kernel_counts(rows: int, cols: int) -> dict[str, dict[str, int]]:
    """Computed bytes and flops of one call of each O(N) kernel on a rows x cols grid.

    * ``delta_update``: write the N-element complex outer product (16N), then
      ``replay += inc`` reads both and writes the replay (48N); the two twiddle
      vectors add about 64 bytes per row and column. Flops: 6N for the complex
      outer product, 2N for the add; the O(rows + cols) twiddle exps are left out.
    * ``mse``: ``abs`` reads the complex replay and writes a real array (24N),
      ``d -= target`` reads two real arrays and writes one (24N), the dot reads
      one (8N). Flops: 4N for the magnitudes (sqrt counted as one), N for the
      difference, 2N for the dot.
    * rollback ``replay -= inc``: reads both, writes one (48N); 2N flops.
    """
    n = rows * cols
    return {
        "delta_update": {"bytes": 64 * n + 64 * (rows + cols), "flops": 8 * n},
        "mse": {"bytes": 56 * n, "flops": 7 * n},
        "rollback": {"bytes": 48 * n, "flops": 2 * n},
    }


class WorseningCounter:
    """Counts Boltzmann accepts of a worsening candidate (delta_e > 0)."""

    def __init__(self):
        self.count = 0

    def __call__(self, args, accepted) -> None:
        if accepted and args[0] > 0:
            self.count += 1


def install(tracer: Tracer) -> WorseningCounter:
    """Declare every hook on ``tracer``; they take effect inside ``with tracer``."""
    worsening = WorseningCounter()
    for module, attr, name in HOOKS:
        tracer.hook(module, attr, name, observe=worsening if attr == "boltzmann_accept" else None)
    return worsening


def per_layer_metrics(tracer: Tracer, worsening: WorseningCounter, *, driver: str, calls: int,
                      resolution: int, iterations: int, accepted: int, pgm_bytes: int,
                      copy_gbps: float, overhead_frac: float) -> tuple[dict[str, float], list[str]]:
    """Per-module metrics from one traced pass of ``calls`` driver calls.

    ``iterations``, ``accepted`` and ``pgm_bytes`` are totals over those calls.
    Returns the metrics and the names left out because a hook was absent.
    """
    spans = tracer.records()
    stats = summarise(spans)
    absent_hooks = {name for module, attr, name in HOOKS if f"{module.__name__}.{attr}" in tracer.absent}
    empty = SpanStats(0, 0, 0, [])

    def s(name: str) -> SpanStats:
        return stats.get(name, empty)

    def per_call(name: str, scale: float) -> float:
        st = s(name)
        return st.total_ns / st.calls / scale if st.calls else 0.0

    counts = kernel_counts(resolution, resolution)
    du, ms_, rb = counts["delta_update"], counts["mse"], counts["rollback"]
    rollbacks = iterations - accepted
    reject_share = rollbacks / iterations if iterations else 0.0
    moved_ns = s("field.delta_update").total_ns + s("metrics.mse").total_ns
    moved_bytes = s("field.delta_update").calls * du["bytes"] + s("metrics.mse").calls * ms_["bytes"]

    run_idx = {i for i, sp in enumerate(spans) if sp.name == "search.run_search"}
    searches = len(run_idx)
    dft2_in_search = sum(1 for sp in spans if sp.name == "field.dft2" and sp.parent in run_idx)

    metrics = {
        "field.delta_update.calls": s("field.delta_update").calls,
        "field.delta_update.us_per_call": per_call("field.delta_update", 1e3),
        "field.delta_update.bytes_per_call": du["bytes"],
        "field.delta_update.flops_per_call": du["flops"],
        "metrics.mse.calls": s("metrics.mse").calls,
        "metrics.mse.us_per_call": per_call("metrics.mse", 1e3),
        "metrics.mse.bytes_per_call": ms_["bytes"],
        "metrics.mse.flops_per_call": ms_["flops"],
        "search.rollbacks": rollbacks,
        "search.rollback.bytes_per_call": rb["bytes"],
        "search.rollback.flops_per_call": rb["flops"],
        "search.loop_self_us_per_iter": s("search.run_search").self_ns / iterations / 1e3 if iterations else 0.0,
        "search.accept_ratio": accepted / iterations if iterations else 0.0,
        "search.worsening_accepts": worsening.count,
        "search.refreshes": dft2_in_search - searches,
        "slm.propose_value.us_per_call": per_call("slm.propose_value", 1e3),
        "search.boltzmann_accept.calls": s("search.boltzmann_accept").calls,
        "search.next_pixel.us_per_call": per_call("search.next_pixel", 1e3),
        "field.dft2.calls": s("field.dft2").calls,
        "field.dft2.ms_per_call": per_call("field.dft2", 1e6),
        "search.back_project.ms": per_call("search.back_project", 1e6),
        "slm.quantise.ms": per_call("slm.quantise", 1e6),
        "slm.change_map.ms": per_call("slm.change_map", 1e6),
        "search.sps_order.ms": per_call("search.sps_order", 1e6),
        "targets.prepare.ms": per_call("targets.prepare", 1e6),
        "pgm.save_pgm.ms": per_call("pgm.save_pgm", 1e6),
        "pgm.bytes_written": pgm_bytes / calls,
        "experiments.write_trace_csv.ms": per_call("experiments.write_trace_csv", 1e6),
        "experiments.driver_self_ms": s(f"experiments.{driver}").self_ns / calls / 1e6,
        "kernel.bytes_per_iter": du["bytes"] + ms_["bytes"] + rb["bytes"] * reject_share,
        "kernel.flops_per_iter": du["flops"] + ms_["flops"] + rb["flops"] * reject_share,
        "kernel.achieved_gbps": moved_bytes / moved_ns if moved_ns else 0.0,
        "machine.copy_gbps": copy_gbps,
        "trace.overhead_frac": overhead_frac,
    }
    hook_names = [name for _, _, name in HOOKS]
    absent = sorted(m for m in metrics if _sources(m, hook_names) & absent_hooks)
    return {m: v for m, v in metrics.items() if m not in absent}, absent


# Metrics computed from spans other than the one their name starts with.
_EXTRA_SOURCES = {
    "search.loop_self_us_per_iter": {"search.run_search"},
    "search.refreshes": {"search.run_search", "field.dft2"},
    "search.worsening_accepts": {"search.boltzmann_accept"},
    "kernel.achieved_gbps": {"field.delta_update", "metrics.mse"},
}


def _sources(metric: str, hook_names: list[str]) -> set[str]:
    """Span names a metric is computed from."""
    own = {h for h in hook_names if metric.startswith(h + ".")}
    return own | _EXTRA_SOURCES.get(metric, set())
