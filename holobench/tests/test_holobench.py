"""Tests of the benchmark itself.

    python3 -m pytest holobench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from holosearch import experiments, search  # noqa: E402
from holosearch.slm import ModulationScheme  # noqa: E402
from spans import Tracer, summarise  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

REF = (64, 10, 0.01)
TINY = {
    "ds": workloads.Workload("tiny-ds", "", "run_convergence_ab", dict(
        resolution=64, scheme=workloads.BINARY, algorithm="ds-fast", iterations=300, symmetry=True), REF),
    "sa": workloads.Workload("tiny-sa", "", "run_convergence_ab", dict(
        resolution=64, scheme=ModulationScheme.from_name("phase:8"), algorithm="sa", iterations=300), REF),
    "render": workloads.Workload("tiny-render", "", "run_render", dict(
        resolution=64, scheme=workloads.BINARY, algorithm="ds-fast", selection="sps", iterations=100), REF),
}


def _spec(section):
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def test_names_match_benchmark_json():
    assert _spec("end_to_end") == measure.END_TO_END
    assert _spec("per_layer") == layers.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert SPEC["paths"] == [os.path.basename(BENCH)]


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_leaves_outputs_byte_identical(kind, tmp_path):
    wl = TINY[kind]
    plain = workloads.run_call(wl, 5, str(tmp_path / "plain"), full_check=True)
    originals = {(m.__name__, a): getattr(m, a) for m, a, _ in layers.HOOKS}
    tracer = Tracer()
    worsening = layers.install(tracer)
    with tracer:
        traced = workloads.run_call(wl, 5, str(tmp_path / "traced"), full_check=True, tracer=tracer)
    assert {(m.__name__, a): getattr(m, a) for m, a, _ in layers.HOOKS} == originals
    assert plain.problems == [] and traced.problems == []
    assert workloads.compare(plain, traced) == []
    assert len(plain.digests) >= 3
    assert tracer.absent == []
    names = {s.name for s in tracer.records()}
    assert {"field.delta_update", "metrics.mse", "search.run_search", "pgm.save_pgm"} <= names
    if kind == "sa":
        assert worsening.count > 0


def test_absent_hook_is_reported_not_raised():
    mod = types.ModuleType("fake.module")

    def present(x):
        return x + 1

    mod.present = present
    tracer = Tracer()
    tracer.hook(mod, "gone", "fake.gone")
    tracer.hook(mod, "present", "fake.present")
    for _ in range(2):
        with tracer:
            assert mod.present is not present and mod.present(1) == 2
        assert mod.present is present
    assert tracer.absent == ["fake.module.gone"]
    assert [s.name for s in tracer.records()] == ["fake.present"] * 2


def test_metrics_of_an_absent_hook_are_left_out(monkeypatch):
    monkeypatch.delattr(search, "propose_value")
    tracer = Tracer()
    worsening = layers.install(tracer)
    with tracer:
        pass
    metrics, absent = layers.per_layer_metrics(
        tracer, worsening, driver="run_render", calls=1, resolution=8, iterations=1, accepted=0,
        pgm_bytes=1, copy_gbps=1.0, overhead_frac=0.0)
    assert absent == ["slm.propose_value.us_per_call"]
    assert set(metrics) | set(absent) == set(layers.PER_LAYER)


def test_self_time_subtracts_children():
    box = type("Box", (), {"inner": staticmethod(lambda: sum(range(1000)))})
    tracer = Tracer()
    tracer.hook(box, "inner", "inner")
    with tracer:
        tracer.call("outer", lambda: box.inner() + box.inner())
    spans = tracer.records()
    stats = summarise(spans)
    children = sum(s.end_ns - s.start_ns for s in spans if s.name == "inner")
    assert stats["inner"].calls == 2
    assert stats["outer"].self_ns == stats["outer"].total_ns - children
    assert [s.parent for s in spans] == [-1, 0, 0]


def test_checks_catch_a_tampered_search(tmp_path):
    wl = TINY["ds"]
    with workloads.capture_searches() as records:
        experiments.run_convergence_ab(wl.experiment(2, str(tmp_path)))
    rec = records[-1]
    assert workloads.check_search(rec) == []
    rec.result.hologram[0, 0] = 0.5
    problems = workloads.check_search(rec)
    assert any("cannot display" in p for p in problems)
    assert any("fresh transform" in p for p in problems)


def test_times_are_given_at_the_reference_host_speed(monkeypatch):
    wl = TINY["ds"]
    call = types.SimpleNamespace(iterations=600, search_wall_s=1.5, wall_s=2.0, final_mse=0.1)
    got = measure.Samples(setups=[0.4] * 3, search_setups=[0.3] * 3,
                          references=[2 * wl.reference[2]] * 3, plain=[call] * 3)
    monkeypatch.setattr(measure, "rounds", lambda tally, seconds: got)
    metrics, detail = measure.untraced(measure.Tally(wl, 0, ""), 1.0)
    assert detail["host_speed"]["slowdown"] == 2.0
    assert detail["host_speed"]["measured_medians"]["wall_s"] == 2.0
    assert metrics["wall_s"] == 1.0 and metrics["setup_s"] == 0.2
    assert metrics["iters_per_s"] == pytest.approx(2 * 600 / 1.2)
    assert metrics["final_mse"] == 0.1


def test_reference_job_leaves_the_package_alone(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the reference job called the package")

    for module, attr, _ in layers.HOOKS:
        monkeypatch.setattr(module, attr, forbidden)
    assert reference.run(32, 5) > 0


def test_tail_needs_ten_samples_beyond():
    assert measure.tail(list(range(19))) is None
    assert measure.tail(list(range(20)))["p"] == 50.0
    assert measure.tail(list(range(100)))["p"] == 90.0
    assert measure.tail(list(range(10_000)))["p"] == 99.9


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_names_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "ab-sa-phase8-256",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = _spec("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in section.items()}
    assert json.loads("\n".join(out[:-1]))["workload"] == "ab-sa-phase8-256"
    assert not os.path.exists(os.path.join(ROOT, ".holobench_work"))


def test_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / os.path.basename(BENCH),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(BENCH), "run.py"), "--workload",
         "ab-ds-binary-512", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_kernel_counts_scale_with_grid():
    small, big = layers.kernel_counts(64, 64), layers.kernel_counts(128, 128)
    for kernel in ("mse", "rollback"):
        assert big[kernel]["bytes"] == 4 * small[kernel]["bytes"]
    assert np.isclose(big["delta_update"]["flops"] / small["delta_update"]["flops"], 4)
