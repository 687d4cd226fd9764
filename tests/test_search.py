"""Tests for the search engine: schedules, acceptance, pixel selection,
back-projection and the optimisation loops (naive vs fast)."""

import cmath
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holosearch
from holosearch.field import dft2
from holosearch.metrics import mse
from holosearch.rng import STREAM_ACCEPTANCE, STREAM_PHASE, substream
from holosearch.search import (
    ALGO_DS_FAST,
    ALGO_DS_NAIVE,
    ALGO_SA,
    SELECT_RANDOM,
    SELECT_SPS,
    SELECTIONS,
    AnnealingSchedule,
    RandomOrder,
    SearchConfig,
    SortedOrder,
    back_project,
    boltzmann_accept,
    next_pixel,
    run_search,
    sps_order,
)
from holosearch.slm import ModulationScheme, is_allowed
from holosearch.targets import TargetImage, normalize_energy, synthetic_mandrill

BINARY_PHASE = ModulationScheme("phase", 2)


def small_target(size=16, seed=500):
    rng = np.random.default_rng(seed)
    return normalize_energy(TargetImage(rng.random((size, size)) + 0.05))


# ------------------------------------------------------------------ schedule


def test_schedule_formula():
    s = AnnealingSchedule(t_coeff=2.0, t0=6.0, total_n=100)
    assert s.temperature(0) == 2.0
    want = 2.0 * math.exp(-6.0 * 50 / 100)
    assert abs(s.temperature(50) - want) < 1e-15
    # strictly decreasing
    temps = [s.temperature(n) for n in range(0, 100, 10)]
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealingSchedule(t_coeff=0.0, t0=6.0, total_n=10)
    with pytest.raises(ValueError):
        AnnealingSchedule(t_coeff=1.0, t0=0.0, total_n=10)
    with pytest.raises(ValueError):
        AnnealingSchedule(t_coeff=1.0, t0=6.0, total_n=0)
    with pytest.raises(ValueError):
        AnnealingSchedule(t_coeff=math.inf, t0=6.0, total_n=10)


# ---------------------------------------------------------- boltzmann_accept


def test_accept_improvement_without_drawing():
    rng = substream(0, STREAM_ACCEPTANCE)
    before = rng.bit_generator.state
    assert boltzmann_accept(-0.5, 1.0, rng)
    assert boltzmann_accept(0.0, 1e-300, rng)
    # non-worsening moves must not consume randomness
    assert rng.bit_generator.state == before


def test_accept_rate_at_delta_equals_temperature():
    """Monte-Carlo: P(accept | dE = T) = 1/e within 0.01 over 1e5 trials."""
    rng = substream(42, STREAM_ACCEPTANCE)
    n = 100_000
    hits = sum(boltzmann_accept(1.0, 1.0, rng) for _ in range(n))
    assert abs(hits / n - math.exp(-1.0)) < 0.01


def test_accept_rate_half_temperature():
    rng = substream(43, STREAM_ACCEPTANCE)
    n = 100_000
    hits = sum(boltzmann_accept(2.0, 1.0, rng) for _ in range(n))
    assert abs(hits / n - math.exp(-2.0)) < 0.01


def test_accept_worsening_at_zero_temperature():
    rng = substream(44, STREAM_ACCEPTANCE)
    assert not boltzmann_accept(1e-12, 1e-300, rng)


# ------------------------------------------------------------ pixel ordering


def test_sps_order_example():
    order = sps_order(np.array([[0.1, 0.9], [0.5, 0.5]]))
    assert order.order.tolist() == [1, 2, 3, 0]
    assert order.cursor == 0


def test_sps_order_all_equal_keeps_index_order():
    order = sps_order(np.zeros((2, 3)))
    assert order.order.tolist() == [0, 1, 2, 3, 4, 5]


def test_sps_order_is_permutation_and_sorted():
    rng = np.random.default_rng(601)
    ch = rng.random((64, 64))
    order = sps_order(ch)
    assert sorted(order.order.tolist()) == list(range(64 * 64))
    served = ch.ravel()[order.order]
    assert np.all(np.diff(served) <= 0)


def test_next_pixel_sorted_serves_each_once_then_wraps():
    rng = np.random.default_rng(602)
    w = h = 16
    ch = rng.random((h, w))
    order = sps_order(ch)
    first_flat = int(order.order[0])
    seen = set()
    for _ in range(w * h):
        x, y = next_pixel(order, w, h, rng)
        seen.add(y * w + x)
    assert seen == set(range(w * h))
    # wrap: next call re-serves the head of the permutation, no re-sort
    x, y = next_pixel(order, w, h, rng)
    assert y * w + x == first_flat
    assert order.cursor == 1


def test_next_pixel_sorted_consumes_no_rng():
    rng = np.random.default_rng(603)
    order = sps_order(np.arange(16.0).reshape(4, 4))
    before = rng.bit_generator.state
    for _ in range(20):
        next_pixel(order, 4, 4, rng)
    assert rng.bit_generator.state == before


def test_next_pixel_cursor_stays_in_range():
    rng = np.random.default_rng(604)
    order = sps_order(np.arange(12.0).reshape(3, 4))
    for _ in range(40):
        next_pixel(order, 4, 3, rng)
        assert 0 <= order.cursor < 12


def test_next_pixel_random_uniform():
    """1e6 draws on 16x16: every pixel frequency within 5 sigma."""
    rng = np.random.default_rng(605)
    w = h = 16
    counts = np.zeros(w * h, dtype=np.int64)
    order = RandomOrder()
    n = 1_000_000
    for _ in range(n):
        x, y = next_pixel(order, w, h, rng)
        counts[y * w + x] += 1
    p = 1.0 / (w * h)
    sigma = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 5 * sigma)


# -------------------------------------------------------------- back_project


def test_back_project_energy_matches_target():
    t = normalize_energy(synthetic_mandrill(64))
    field = back_project(t, substream(3, STREAM_PHASE))
    e_field = float(np.sum(np.abs(field) ** 2))
    assert abs(e_field - t.energy) / t.energy < 1e-10


def test_back_project_deterministic_per_seed():
    t = small_target()
    a = back_project(t, substream(5, STREAM_PHASE))
    b = back_project(t, substream(5, STREAM_PHASE))
    assert np.array_equal(a, b)
    c = back_project(t, substream(6, STREAM_PHASE))
    assert not np.array_equal(a, c)


def idft2_matrix(spec):
    """Unitary inverse 2D DFT as two matrix products, no FFT: the kernel is
    built from ``cmath.exp`` of the n distinct roots of unity, so neither
    numpy's FFT nor its SIMD transcendental functions enter the oracle."""
    ny, nx = spec.shape

    def kernel(n):
        roots = np.array([cmath.exp(2j * math.pi * k / n) for k in range(n)])
        idx = np.arange(n)
        return roots[np.outer(idx, idx) % n] / math.sqrt(n)

    return kernel(ny) @ spec @ kernel(nx)


def test_back_project_golden_digest():
    """Pins the seed-42 back-projection of the prepared 64x64 synthetic
    target. Any change to the texture routine, the RNG stream layout or the
    transform shows up here.

    The parts numpy guarantees are pinned exactly, the rest against
    tolerances that last-bit rounding cannot reach but any real change
    exceeds by orders of magnitude:

    1. RNG stream layout, exactly: the phases equal those rebuilt from the
       raw PCG64 words of seed 42, spawn key 0, one draw per pixel in
       row-major order, and back-projection consumes exactly those draws.
    2. Texture routine, to 1e-9 relative: a few pixels, the sum and an
       index-weighted sum of ``synthetic_mandrill(64)``.
    3. Transform, to 1e-12 relative: the field equals a matrix inverse DFT
       of the target under the rebuilt phases.
    4. Bytes, exactly, run to run: a fresh interpreter computes the same
       field sha256 as this process.

    The raw field bytes are not frozen across numpy builds: numpy does not
    promise last-bit agreement of its SIMD ``**`` or of its FFT between
    builds and CPUs, and the texture differs in the last bit with and
    without AVX-512.
    """
    n = 64
    tex = synthetic_mandrill(n)
    t = normalize_energy(tex)
    rng = substream(42, STREAM_PHASE)
    field = back_project(t, rng)

    # 1. phases rebuilt from the raw 64-bit words: 53-bit uniform doubles
    # scaled to [0, 2*pi), row-major; the next word is the first one unused.
    raw = np.random.PCG64(np.random.SeedSequence(42, spawn_key=(0,))).random_raw(n * n + 1)
    phases = ((raw[:-1] >> np.uint64(11)) * 2.0 ** -53 * (2.0 * np.pi)).reshape(n, n)
    assert np.array_equal(substream(42, STREAM_PHASE).uniform(0.0, 2.0 * np.pi, size=(n, n)),
                          phases)
    assert rng.bit_generator.random_raw() == raw[-1]

    # 2. texture values; both SIMD dispatches of numpy 2.4.6 agree to 6.4e-16
    mag = tex.mag
    pinned = {
        (0, 0): 0.101416131207835,
        (5, 17): 0.156252766170894,
        (31, 32): 0.201468971859847,
        (40, 7): 0.234346689851451,
        (63, 63): 0.0579110546889517,
    }
    for (y, x), want in pinned.items():
        assert mag[y, x] == pytest.approx(want, rel=1e-9, abs=0.0), (y, x)
    assert mag.sum() == pytest.approx(800.028859019702, rel=1e-9, abs=0.0)
    weighted = mag.ravel() @ np.arange(mag.size, dtype=np.float64)
    assert weighted == pytest.approx(1649699.80915188, rel=1e-9, abs=0.0)

    # 3. transform against the matrix oracle
    want = idft2_matrix(t.mag * np.exp(1j * phases))
    assert np.max(np.abs(field - want)) <= 1e-12 * np.max(np.abs(want))

    # 4. exact bytes in a fresh interpreter on the same numpy build
    code = (
        "import hashlib\n"
        "from holosearch.rng import STREAM_PHASE, substream\n"
        "from holosearch.search import back_project\n"
        "from holosearch.targets import normalize_energy, synthetic_mandrill\n"
        "f = back_project(normalize_energy(synthetic_mandrill(64)), substream(42, STREAM_PHASE))\n"
        "print(hashlib.sha256(f.tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(holosearch.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == hashlib.sha256(field.tobytes()).hexdigest()


def test_back_project_zero_target():
    z = TargetImage(np.zeros((4, 4)))
    field = back_project(z, substream(0, STREAM_PHASE))
    assert np.array_equal(field, np.zeros((4, 4), dtype=np.complex128))


# ------------------------------------------------------------------- configs


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(iterations=-1, scheme=BINARY_PHASE)
    with pytest.raises(ValueError):
        SearchConfig(iterations=10, scheme="binary-phase")
    with pytest.raises(ValueError):
        SearchConfig(iterations=10, scheme=BINARY_PHASE, algorithm="dbs")
    with pytest.raises(ValueError):
        SearchConfig(iterations=10, scheme=BINARY_PHASE, selection="greedy")
    with pytest.raises(ValueError):
        # a schedule makes no sense outside simulated annealing
        SearchConfig(iterations=10, scheme=BINARY_PHASE,
                     algorithm=ALGO_DS_FAST,
                     schedule=AnnealingSchedule(1.0, 6.0, 10))
    with pytest.raises(ValueError):
        SearchConfig(iterations=10, scheme=BINARY_PHASE, trace_stride=0)
    with pytest.raises(ValueError):
        SearchConfig(iterations=10, scheme=BINARY_PHASE, recompute_interval=0)


# ------------------------------------------------------------- search: basics


def test_direct_search_zero_iterations():
    t = small_target()
    res = run_search(t, SearchConfig(iterations=0, scheme=BINARY_PHASE), seed=0)
    assert res.accepted == 0
    assert res.final_mse == res.initial_mse
    assert res.trace.samples[0].iteration == 0
    assert res.trace.final_iteration == 0
    # the zero-iteration hologram is just the quantised back-projection
    assert is_allowed(res.hologram, BINARY_PHASE)


def test_direct_search_monotone_and_consistent():
    t = small_target()
    cfg = SearchConfig(iterations=400, scheme=BINARY_PHASE, trace_stride=10)
    res = run_search(t, cfg, seed=1)
    mses = [s.mse for s in res.trace.samples]
    assert all(a >= b - 1e-15 for a, b in zip(mses, mses[1:]))
    assert res.final_mse <= res.initial_mse
    # reported error agrees with a from-scratch replay of the hologram
    fresh = mse(t.mag, dft2(res.hologram))
    assert abs(res.final_mse - fresh) / fresh < 1e-9
    assert is_allowed(res.hologram, BINARY_PHASE)


def test_trace_endpoints_always_sampled():
    t = small_target()
    cfg = SearchConfig(iterations=37, scheme=BINARY_PHASE, trace_stride=10)
    res = run_search(t, cfg, seed=2)
    its = [s.iteration for s in res.trace.samples]
    assert its[0] == 0
    assert its[-1] == 37


def test_accepted_counts_match_trace():
    t = small_target()
    cfg = SearchConfig(iterations=300, scheme=BINARY_PHASE, trace_stride=1)
    res = run_search(t, cfg, seed=3)
    assert res.trace.final_accepted == res.accepted
    accepted_steps = [s.accepted for s in res.trace.samples]
    deltas = set(np.diff(accepted_steps).tolist())
    assert deltas <= {0, 1}


def test_seed_determinism_bitwise():
    t = small_target()
    cfg = SearchConfig(iterations=200, scheme=BINARY_PHASE)
    a = run_search(t, cfg, seed=9)
    b = run_search(t, cfg, seed=9)
    assert np.array_equal(a.hologram, b.hologram)
    assert np.array_equal(a.replay, b.replay)
    assert a.final_mse == b.final_mse
    assert a.accepted == b.accepted


def test_different_seeds_differ():
    t = small_target()
    cfg = SearchConfig(iterations=200, scheme=BINARY_PHASE)
    a = run_search(t, cfg, seed=0)
    b = run_search(t, cfg, seed=1)
    assert not np.array_equal(a.hologram, b.hologram)


# ------------------------------------------------- search: naive/fast oracle


@pytest.mark.parametrize("selection", [SELECT_RANDOM, SELECT_SPS])
def test_naive_and_fast_agree(selection):
    """The incremental-update path must reproduce the full-transform path
    decision for decision: same accepted sequence, same trace, same final
    hologram."""
    t = small_target()
    for seed in range(3):
        naive = run_search(t, SearchConfig(
            iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_DS_NAIVE,
            selection=selection, trace_stride=1), seed)
        fast = run_search(t, SearchConfig(
            iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_DS_FAST,
            selection=selection, trace_stride=1), seed)
        acc_n = [s.accepted for s in naive.trace.samples]
        acc_f = [s.accepted for s in fast.trace.samples]
        assert acc_n == acc_f
        assert np.array_equal(naive.hologram, fast.hologram)
        assert abs(naive.final_mse - fast.final_mse) / naive.final_mse < 1e-9


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("family", ["binary-phase", "phase", "binary-amplitude", "amplitude"])
@settings(derandomize=True, deadline=None, max_examples=4, database=None)
@given(height=st.integers(4, 12), width=st.integers(4, 12), levels=st.integers(3, 8),
       seed=st.integers(0, 2**32 - 1))
def test_naive_and_fast_agree_property(family, selection, height, width, levels, seed):
    """The separate full-transform loop and the incremental loop stay in
    step over shapes, every discrete scheme family, both selections and
    seeds: same decisions, same hologram, final errors within 1e-9."""
    scheme = ModulationScheme.from_name(family if family.startswith("binary") else f"{family}:{levels}")
    rng = np.random.default_rng(seed)
    t = normalize_energy(TargetImage(rng.random((height, width)) + 0.05))
    runs = [run_search(t, SearchConfig(iterations=150, scheme=scheme, algorithm=algo,
                                       selection=selection, trace_stride=1), seed)
            for algo in (ALGO_DS_NAIVE, ALGO_DS_FAST)]
    naive, fast = runs
    assert [s.accepted for s in naive.trace.samples] == [s.accepted for s in fast.trace.samples]
    assert np.array_equal(naive.hologram, fast.hologram)
    assert abs(naive.final_mse - fast.final_mse) <= 1e-9 * naive.final_mse


def test_sps_first_pass_covers_sorted_moves():
    """Under SPS the first Nx*Ny iterations test every pixel exactly once,
    in non-increasing change order."""
    t = small_target(8)
    n = 64
    res = run_search(t, SearchConfig(
        iterations=n, scheme=BINARY_PHASE, selection=SELECT_SPS,
        trace_stride=1), seed=4)
    # every pixel holds an allowed value and the run completed a full pass
    assert res.trace.final_iteration == n
    assert res.accepted <= n


# --------------------------------------------------------- simulated annealing


def test_sa_cold_schedule_equals_direct_search():
    # with an effectively zero temperature SA degenerates to strict descent
    t = small_target()
    sched = AnnealingSchedule(t_coeff=1e-300, t0=6.0, total_n=300)
    sa = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_SA,
        schedule=sched, trace_stride=1), seed=7)
    ds = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, trace_stride=1), seed=7)
    assert np.array_equal(sa.hologram, ds.hologram)
    assert [s.accepted for s in sa.trace.samples] == \
        [s.accepted for s in ds.trace.samples]


def test_sa_default_schedule_matches_explicit():
    t = small_target()
    implicit = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_SA), seed=8)
    e0 = implicit.initial_mse
    sched = AnnealingSchedule(t_coeff=8.0 * e0 / 256, t0=6.0, total_n=300)
    explicit = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_SA,
        schedule=sched), seed=8)
    assert np.array_equal(implicit.hologram, explicit.hologram)
    assert implicit.accepted == explicit.accepted


def test_sa_hot_schedule_accepts_worsening_moves():
    t = small_target()
    hot = AnnealingSchedule(t_coeff=10.0, t0=1e-9, total_n=400)
    sa = run_search(t, SearchConfig(
        iterations=400, scheme=BINARY_PHASE, algorithm=ALGO_SA,
        schedule=hot, trace_stride=1), seed=9)
    ds = run_search(t, SearchConfig(
        iterations=400, scheme=BINARY_PHASE, trace_stride=1), seed=9)
    # near-infinite temperature accepts almost everything
    assert sa.accepted > ds.accepted
    mses = [s.mse for s in sa.trace.samples]
    assert any(b > a for a, b in zip(mses, mses[1:]))


def test_sa_final_state_consistent():
    t = small_target()
    res = run_search(t, SearchConfig(
        iterations=500, scheme=BINARY_PHASE, algorithm=ALGO_SA), seed=10)
    fresh = mse(t.mag, dft2(res.hologram))
    assert abs(res.final_mse - fresh) / fresh < 1e-9
    assert is_allowed(res.hologram, BINARY_PHASE)


# ---------------------------------------------------------------- run_search


def test_run_search_other_schemes():
    t = small_target()
    for scheme in (ModulationScheme("phase", 8),
                   ModulationScheme("amplitude", 2),
                   ModulationScheme("phase", None),
                   ModulationScheme("amplitude", None)):
        res = run_search(t, SearchConfig(
            iterations=100, scheme=scheme), seed=12)
        assert is_allowed(res.hologram, scheme)
        assert res.final_mse <= res.initial_mse
