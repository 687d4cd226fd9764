"""Acceptance criteria, one test per criterion.

Criteria 1, 2 and 8 share two benchmark sweeps (direct search and simulated
annealing: 10 seeds x {random, sps} at 128x128), built once per module in a
two-process pool. Each seed's searches own their random streams, so the
pooled cells are the serial ones; a test checks that on a short sweep.
Each test prints the numbers it gates on; conftest prints a one-line
PASS/FAIL verdict per criterion after the run.
"""

import functools
import math
import multiprocessing
import time

import numpy as np
import pytest

from holosearch.experiments import ExperimentConfig, run_convergence_ab, run_scatter_experiment
from holosearch.field import dft2, delta_update, idft2
from holosearch.metrics import mse, relative_improvement
from holosearch.rng import STREAM_ACCEPTANCE, substream
from holosearch.search import (
    ALGO_DS_FAST,
    ALGO_DS_NAIVE,
    ALGO_SA,
    SELECT_RANDOM,
    SELECT_SPS,
    SearchConfig,
    boltzmann_accept,
    run_search,
    sps_order,
)
from holosearch.slm import ModulationScheme, change_map, quantise
from holosearch.targets import (
    TargetImage,
    induce_symmetry,
    normalize_energy,
    synthetic_mandrill,
)
from test_field import dft2_loop, idft2_loop

BINARY_PHASE = ModulationScheme("phase", 2)

BENCH_SEEDS = list(range(10))
BENCH_ITERATIONS = 20_000
BENCH_WORKERS = 2
# A sweep takes under a minute; a worker that hangs fails the sweep instead
# of stalling the suite.
SWEEP_TIMEOUT_S = 900


@pytest.fixture(scope="module")
def bench_target():
    return normalize_energy(induce_symmetry(synthetic_mandrill(128)))


@pytest.fixture(scope="module")
def pool():
    """Worker processes for the sweeps. Spawned, not forked: each worker
    loads numpy afresh, under the one-thread BLAS cap conftest put in the
    environment (a forked child would inherit the parent's loaded BLAS)."""
    with multiprocessing.get_context("spawn").Pool(BENCH_WORKERS) as p:
        yield p


def _cell(target, algorithm, iterations, seed):
    """One seed of an A/B sweep: improvement of sps over random, and the
    accepted counts of both arms."""
    runs = {}
    for selection in (SELECT_RANDOM, SELECT_SPS):
        cfg = SearchConfig(iterations=iterations, scheme=BINARY_PHASE,
                           algorithm=algorithm, selection=selection)
        runs[selection] = run_search(target, cfg, seed)
    return {
        "seed": seed,
        "improvement": relative_improvement(
            runs[SELECT_RANDOM].trace, runs[SELECT_SPS].trace),
        "accepted_random": runs[SELECT_RANDOM].accepted,
        "accepted_sps": runs[SELECT_SPS].accepted,
    }


def _sweep(target, algorithm, seeds=BENCH_SEEDS, iterations=BENCH_ITERATIONS, pool=None):
    """A/B sweep: one cell per seed, in seed order. With a pool, one seed
    per task; without, in this process."""
    cell = functools.partial(_cell, target, algorithm, iterations)
    if pool is None:
        return [cell(seed) for seed in seeds]
    return pool.map_async(cell, seeds, chunksize=1).get(timeout=SWEEP_TIMEOUT_S)


@pytest.fixture(scope="module")
def ds_cells(bench_target, pool):
    return _sweep(bench_target, ALGO_DS_FAST, pool=pool)


@pytest.fixture(scope="module")
def sa_cells(bench_target, pool):
    return _sweep(bench_target, ALGO_SA, pool=pool)


@pytest.mark.parametrize("algorithm", [ALGO_DS_FAST, ALGO_SA])
def test_pooled_sweep_equals_serial_sweep(bench_target, pool, algorithm):
    """The pool changes where the sweep's searches run, not their numbers."""
    serial = _sweep(bench_target, algorithm, seeds=[0, 1], iterations=2000)
    pooled = _sweep(bench_target, algorithm, seeds=[0, 1], iterations=2000, pool=pool)
    assert pooled == serial


def test_criterion_1_sps_improvement_band(ds_cells):
    """Sorted selection beats random by 8..30% mean relative improvement."""
    improvements = [c["improvement"] for c in ds_cells]
    mean = sum(improvements) / len(improvements)
    positive = sum(1 for v in improvements if v > 0.0)
    print(f"\ncriterion 1: mean improvement {mean:.4f} "
          f"(band [0.08, 0.30]), positive seeds {positive}/10")
    print("  per-seed:", " ".join(f"{v:+.4f}" for v in improvements))
    assert 0.08 <= mean <= 0.30
    assert positive >= 8


def test_criterion_2_sa_parity(ds_cells, sa_cells):
    """Annealing with the default schedule lands within 5 points of descent."""
    mean_ds = sum(c["improvement"] for c in ds_cells) / len(ds_cells)
    mean_sa = sum(c["improvement"] for c in sa_cells) / len(sa_cells)
    gap = abs(mean_sa - mean_ds)
    print(f"\ncriterion 2: ds mean {mean_ds:.4f}, sa mean {mean_sa:.4f}, "
          f"gap {gap:.4f} (allowed 0.05)")
    assert gap <= 0.05


def test_criterion_3_square_law_correlation(tmp_path):
    """Quantisation error change follows a*delta^2 at 256x256."""
    t_start = time.perf_counter()
    cfg = ExperimentConfig(resolution=256, scheme=ModulationScheme("phase", None),
                           symmetry=True, scatter_samples=10_000,
                           out_dir=str(tmp_path / "scatter"))
    report = run_scatter_experiment(cfg)
    elapsed = time.perf_counter() - t_start
    print(f"\ncriterion 3: pearson {report.pearson_fit_observed:.6f} "
          f"(needs >= 0.95), {report.samples} samples, {elapsed:.1f}s")
    assert report.samples == 10_000
    assert report.pearson_fit_observed >= 0.95
    assert elapsed < 60.0


def test_criterion_4_fast_naive_equivalence():
    """Incremental and full-transform direct search decide identically."""
    rng = np.random.default_rng(808)
    target = normalize_energy(TargetImage(rng.random((16, 16)) + 0.05))
    worst = 0.0
    for seed in range(5):
        naive = run_search(target, SearchConfig(
            iterations=500, scheme=BINARY_PHASE, algorithm=ALGO_DS_NAIVE,
            trace_stride=1), seed)
        fast = run_search(target, SearchConfig(
            iterations=500, scheme=BINARY_PHASE, algorithm=ALGO_DS_FAST,
            trace_stride=1), seed)
        acc_n = [s.accepted for s in naive.trace.samples]
        acc_f = [s.accepted for s in fast.trace.samples]
        assert acc_n == acc_f, f"seed {seed}: accept sequences diverge"
        assert np.array_equal(naive.hologram, fast.hologram)
        rel = abs(naive.final_mse - fast.final_mse) / naive.final_mse
        worst = max(worst, rel)
    print(f"\ncriterion 4: 5 seeds identical decisions, "
          f"worst final-mse relative gap {worst:.2e} (allowed 1e-9)")
    assert worst < 1e-9


def test_criterion_5_transform_correctness():
    """dft2/idft2 vs the loop oracle; Parseval; incremental drift."""
    rng = np.random.default_rng(809)
    worst_fwd = worst_inv = 0.0
    for n in (4, 8):
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst_fwd = max(worst_fwd, float(np.max(np.abs(dft2(f) - dft2_loop(f)))))
        worst_inv = max(worst_inv, float(np.max(np.abs(idft2(f) - idft2_loop(f)))))

    f = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    e_in = float(np.sum(np.abs(f) ** 2))
    parseval = abs(float(np.sum(np.abs(dft2(f)) ** 2)) - e_in) / e_in

    n = 64
    holo = np.exp(2j * np.pi * rng.random((n, n)))
    replay = dft2(holo)
    for _ in range(10_000):
        x = int(rng.integers(n))
        y = int(rng.integers(n))
        new = np.exp(2j * np.pi * rng.random())
        delta_update(replay, x, y, new - holo[y, x])
        holo[y, x] = new
    drift = float(np.max(np.abs(replay - dft2(holo))))

    print(f"\ncriterion 5: oracle gap fwd {worst_fwd:.2e} inv {worst_inv:.2e} "
          f"(1e-12), parseval {parseval:.2e} (1e-10), "
          f"drift after 1e4 updates {drift:.2e} (1e-6)")
    assert worst_fwd < 1e-12
    assert worst_inv < 1e-12
    assert parseval < 1e-10
    assert drift < 1e-6


def test_criterion_6_acceptance_probability():
    """Monte-Carlo acceptance at dE = T sits at 1/e within 0.01."""
    rng = substream(606, STREAM_ACCEPTANCE)
    n = 100_000
    hits = sum(boltzmann_accept(1.0, 1.0, rng) for _ in range(n))
    rate = hits / n
    print(f"\ncriterion 6: acceptance rate {rate:.4f} vs 1/e = "
          f"{math.exp(-1):.4f} (tolerance 0.01, {n} trials)")
    assert abs(rate - math.exp(-1.0)) < 0.01


def test_criterion_7_invariant_bundle(tmp_path):
    """Property sweep at 64x64: monotone descent, quantiser optimality and
    idempotence, phase-blind error metric, byte-identical reruns, first-pass
    selection coverage."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(810)
    target = normalize_energy(induce_symmetry(synthetic_mandrill(64)))

    # direct search never worsens
    res = run_search(target, SearchConfig(
        iterations=2000, scheme=BINARY_PHASE, trace_stride=1), seed=0)
    mses = [s.mse for s in res.trace.samples]
    assert all(a >= b for a, b in zip(mses, mses[1:]))

    # quantiser: idempotent and nearest-point optimal, every discrete scheme
    vals = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    for scheme in (BINARY_PHASE, ModulationScheme("phase", 4),
                   ModulationScheme("phase", 8),
                   ModulationScheme("amplitude", 2),
                   ModulationScheme("amplitude", 5)):
        q = quantise(vals, scheme)
        assert np.array_equal(quantise(q, scheme), q)
        table = scheme.allowed_values()
        best = np.min(np.abs(vals[..., None] - table), axis=-1)
        got = np.abs(q - vals)
        assert np.allclose(got, best, atol=1e-14)

    # error metric ignores per-pixel phase
    r = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    rot = r * np.exp(2j * np.pi * rng.random((64, 64)))
    assert abs(mse(target.mag, r) - mse(target.mag, rot)) < 1e-12

    # full-pipeline determinism: identical bytes on a rerun
    for sub in ("a", "b"):
        run_convergence_ab(ExperimentConfig(
            resolution=64, iterations=500, seed=3,
            out_dir=str(tmp_path / sub)))
    for name in ("trace_random.csv", "trace_sps.csv",
                 "replay_random.pgm", "replay_sps.pgm"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name

    # sorted selection serves every pixel exactly once per pass
    aperture = idft2(target.mag.astype(np.complex128))
    order = sps_order(change_map(aperture, quantise(aperture, BINARY_PHASE)))
    assert sorted(order.tolist()) == list(range(64 * 64))

    elapsed = time.perf_counter() - t_start
    print(f"\ncriterion 7: all invariant properties hold ({elapsed:.1f}s, "
          f"budget 60s)")
    assert elapsed < 60.0


def test_criterion_8_accepted_count_parity(ds_cells):
    """Selection policy barely moves the number of accepted changes."""
    mean_random = sum(c["accepted_random"] for c in ds_cells) / len(ds_cells)
    mean_sps = sum(c["accepted_sps"] for c in ds_cells) / len(ds_cells)
    gap = abs(mean_sps - mean_random) / mean_random
    print(f"\ncriterion 8: mean accepted random {mean_random:.0f}, "
          f"sps {mean_sps:.0f}, relative gap {gap:.4f} (allowed 0.20)")
    assert gap < 0.20


@pytest.mark.slow
def test_full_scale_reproduction():
    """512x512, 200k iterations: the published operating point, widened by
    5 percentage points for the synthetic stand-in image. About 15 minutes on a 2-vCPU host."""
    target = normalize_energy(induce_symmetry(synthetic_mandrill(512)))
    improvements = []
    for seed in range(3):
        runs = {}
        for selection in (SELECT_RANDOM, SELECT_SPS):
            cfg = SearchConfig(iterations=200_000, scheme=BINARY_PHASE,
                               selection=selection)
            runs[selection] = run_search(target, cfg, seed)
        improvements.append(relative_improvement(
            runs[SELECT_RANDOM].trace, runs[SELECT_SPS].trace))
    mean = sum(improvements) / len(improvements)
    print(f"\nfull-scale: per-seed {improvements}, mean {mean:.4f} "
          f"(band [0.115, 0.215])")
    assert 0.115 <= mean <= 0.215
