"""The package surface that the benchmark in ``holobench/`` depends on.

The benchmark's own tests are not collected by default (``testpaths`` is
``tests``), so a refactor could break it silently. It drives the package
through the names pinned here: it wraps ``experiments.run_search`` to record
each search a driver makes, it times layers by patching names where their
callers look them up, and it reads these report fields and four
``SearchResult`` fields: ``hologram``, ``trace``, ``accepted`` and
``final_mse``.
"""

import dataclasses

import pytest

from holosearch import experiments, search
from holosearch.experiments import (AbReport, ExperimentConfig, RenderReport, prepare_target, run_convergence_ab,
                                   run_render)
from holosearch.search import SELECT_RANDOM, SELECT_SPS, SearchConfig, SearchResult, run_search
from holosearch.slm import ModulationScheme

# (module, attribute) pairs the benchmark's layer hooks patch.
HOOKED = [(search, name) for name in (
    "delta_update", "mse", "dft2", "idft2", "quantise", "change_map", "propose_value",
    "next_pixel", "boltzmann_accept", "back_project", "sps_order")] + [
    (experiments, name) for name in ("run_search", "prepare_target", "save_pgm", "write_trace_csv")]


def count_calls(monkeypatch, module, name, log):
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        log.append((name, args))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_drivers_search_through_experiments_run_search(monkeypatch, tmp_path):
    log = []
    count_calls(monkeypatch, experiments, "run_search", log)
    run_convergence_ab(ExperimentConfig(resolution=64, iterations=20, out_dir=str(tmp_path / "ab")))
    assert [args[1].selection for _, args in log] == [SELECT_RANDOM, SELECT_SPS]
    log.clear()
    run_render(ExperimentConfig(resolution=64, iterations=20, selection=SELECT_SPS,
                                out_dir=str(tmp_path / "render")))
    assert [args[1].selection for _, args in log] == [SELECT_SPS]


def test_every_hooked_name_is_called_where_it_is_looked_up(monkeypatch, tmp_path):
    log = []
    for module, name in HOOKED:
        count_calls(monkeypatch, module, name, log)
    for algorithm, selection in (("ds-fast", SELECT_SPS), ("sa", SELECT_RANDOM)):
        run_render(ExperimentConfig(resolution=64, iterations=20, algorithm=algorithm,
                                    selection=selection, out_dir=str(tmp_path / algorithm)))
    assert {name for name, _ in log} == {name for _, name in HOOKED}


def test_selection_hooks_count_what_they_time(monkeypatch, tmp_path):
    """``search.next_pixel.us_per_call`` is per iteration and
    ``search.sps_order.ms`` is one sort: next_pixel is called once for each
    n = 0 ... iterations-1, and sps_order once under sps, never under random."""
    iterations = 50
    for selection, sorts in ((SELECT_SPS, 1), (SELECT_RANDOM, 0)):
        log = []
        for name in ("next_pixel", "sps_order"):
            count_calls(monkeypatch, search, name, log)
        run_render(ExperimentConfig(resolution=64, iterations=iterations, selection=selection,
                                    out_dir=str(tmp_path / selection)))
        assert [args[1] for name, args in log if name == "next_pixel"] == list(range(iterations))
        assert sum(name == "sps_order" for name, _ in log) == sorts
        monkeypatch.undo()


@pytest.mark.parametrize("scheme", ["binary-phase", "phase:8"])
def test_kernel_hooks_count_candidates(monkeypatch, scheme):
    """``field.delta_update`` and ``metrics.mse`` are timed per call and read
    as per candidate: on the real-aperture half-plane path as on the complex
    full-plane path, the loop calls delta_update once per iteration, and mse
    once per iteration plus once at set-up and once per refresh."""
    iterations, interval = 300, 3
    log = []
    for name in ("delta_update", "mse", "dft2"):
        count_calls(monkeypatch, search, name, log)
    target = prepare_target(ExperimentConfig(resolution=64, out_dir=""))
    res = run_search(target, SearchConfig(iterations=iterations, scheme=ModulationScheme.from_name(scheme),
                                          recompute_interval=interval), seed=0)
    calls = {name: sum(n == name for n, _ in log) for name in ("delta_update", "mse", "dft2")}
    refreshes = res.accepted // interval
    assert refreshes > 0
    assert calls["dft2"] == 1 + refreshes
    assert calls["delta_update"] == iterations
    assert calls["mse"] == iterations + 1 + refreshes


def test_zero_iteration_search_config_constructs():
    cfg = ExperimentConfig(resolution=64, iterations=0, out_dir="").search_config(SELECT_SPS)
    assert cfg.iterations == 0
    assert cfg.selection == SELECT_SPS


def test_search_result_fields():
    """A search's start error is said once, as its trace's first sample."""
    fields = {f.name for f in dataclasses.fields(SearchResult)}
    assert {"hologram", "replay", "trace", "accepted", "final_mse"} <= fields
    assert "initial_mse" not in fields


def test_report_fields():
    """The benchmark reads the sps arm's error as ``final_mse_sps`` when a
    report has that field and as ``final_mse`` otherwise, and the search time
    as ``wall_time_s``."""
    ab = {f.name for f in dataclasses.fields(AbReport)}
    render = {f.name for f in dataclasses.fields(RenderReport)}
    assert {"final_mse_sps", "wall_time_s"} <= ab
    assert {"final_mse", "wall_time_s"} <= render
    assert "final_mse_sps" not in render
