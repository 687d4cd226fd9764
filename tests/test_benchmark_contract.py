"""The package surface that the benchmark in ``holobench/`` depends on.

The benchmark's own tests are not collected by default (``testpaths`` is
``tests``), so a refactor could break it silently. It drives the package
through the names pinned here: it wraps ``experiments.run_search`` to record
each search a driver makes, it times layers by patching names where their
callers look them up, and it reads these ``SearchResult`` fields.
"""

import dataclasses

from holosearch import experiments, search
from holosearch.experiments import ExperimentConfig, run_convergence_ab, run_render
from holosearch.search import SELECT_RANDOM, SELECT_SPS, SearchResult

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


def test_zero_iteration_search_config_constructs():
    cfg = ExperimentConfig(resolution=64, iterations=0, out_dir="").search_config(SELECT_SPS)
    assert cfg.iterations == 0
    assert cfg.selection == SELECT_SPS


def test_search_result_fields():
    fields = {f.name for f in dataclasses.fields(SearchResult)}
    assert {"hologram", "replay", "trace", "accepted", "final_mse", "initial_mse"} <= fields
