"""Tests for the search engine: acceptance, pixel selection,
back-projection and the optimisation loops (naive vs fast)."""

import cmath
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holosearch
from holosearch import field, search
from holosearch.experiments import ExperimentConfig, prepare_target
from holosearch.field import dft2, half_rows, idft2
from holosearch.metrics import mse
from holosearch.rng import STREAM_ACCEPTANCE, STREAM_PHASE, STREAM_PROPOSAL, STREAM_SELECTION, substream
from holosearch.search import (
    ALGO_DS_FAST,
    ALGO_DS_NAIVE,
    ALGO_SA,
    SELECT_RANDOM,
    SELECT_SPS,
    SELECTIONS,
    SearchConfig,
    back_project,
    boltzmann_accept,
    next_pixel,
    run_search,
    sps_order,
)
from holosearch.slm import ModulationScheme, change_map, is_allowed, propose_value, quantise
from holosearch.targets import TargetImage, normalize_energy, synthetic_bars, synthetic_mandrill
from test_field import HELPER_STATES, forced_blocks, fresh_helpers, same_bytes, switched

BINARY_PHASE = ModulationScheme("phase", 2)


def small_target(size=16, seed=500):
    rng = np.random.default_rng(seed)
    return normalize_energy(TargetImage(rng.random((size, size)) + 0.05))


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


def test_underflowed_temperature_rejects_after_one_draw():
    """A schedule such as t0 = 800 reaches T = 0.0 in double precision; a
    worsening candidate is then rejected (the T -> 0+ limit) and still
    consumes its one draw, so the acceptance stream stays in step."""
    rng = substream(45, STREAM_ACCEPTANCE)
    twin = substream(45, STREAM_ACCEPTANCE)
    assert not boltzmann_accept(1e-12, 0.0, rng)
    twin.random()
    assert rng.bit_generator.state == twin.bit_generator.state
    assert boltzmann_accept(0.0, 0.0, rng)


# ------------------------------------------------------------ pixel ordering


def test_sps_order_example():
    order = sps_order(np.array([[0.1, 0.9], [0.5, 0.5]]))
    assert order.tolist() == [1, 2, 3, 0]


def test_sps_order_all_equal_keeps_index_order():
    order = sps_order(np.zeros((2, 3)))
    assert order.tolist() == [0, 1, 2, 3, 4, 5]


def test_sps_order_is_permutation_and_sorted():
    rng = np.random.default_rng(601)
    ch = rng.random((64, 64))
    order = sps_order(ch)
    assert sorted(order.tolist()) == list(range(64 * 64))
    served = ch.ravel()[order]
    assert np.all(np.diff(served) <= 0)


def stable_argsort(changes):
    """The oracle sps_order is pinned to: a stable argsort of the negated map."""
    return np.argsort(-np.asarray(changes, dtype=np.float64).ravel(), kind="stable")


def ulp_neighbours(bases, rng):
    """Each base moved up by 0 to 3 ulps: values whose packed sort keys share
    their prefix while the values differ."""
    values = np.array(bases, dtype=np.float64)
    for _ in range(3):
        step = rng.random(values.size) < 0.5
        values[step] = np.nextafter(values[step], np.inf)
    return values


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n=st.one_of(st.integers(1, 300), st.sampled_from([2**k + d for k in range(1, 13) for d in (0, 1)])),
       bases=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]),
                                st.floats(0.0, 2.0),
                                st.floats(0.0, 2.2250738585072014e-308),
                                st.floats(0.0, 1e300)), min_size=1, max_size=6),
       spread=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_sps_order_matches_stable_argsort(n, bases, spread, seed):
    """Heavy duplicates, 1-3 ulp neighbours, zeros of both signs,
    subnormals, and a share ``spread`` of distinct values, at sizes 1-300 and
    around powers of two (where the index field of the key gains a bit)."""
    rng = np.random.default_rng(seed)
    values = ulp_neighbours(np.array(bases)[rng.integers(len(bases), size=n)], rng)
    distinct = rng.random(n) < spread
    values[distinct] = rng.random(int(distinct.sum())) * 2.0
    order = sps_order(values)
    assert order.dtype.kind == "i"
    assert np.array_equal(order, stable_argsort(values))


def test_sps_order_matches_stable_argsort_at_1024():
    """A 1024^2 change map of a quantised random field, one of heavy
    duplicates and ulp neighbours, whose keys share prefixes in long runs,
    and an all-equal one: a single run of 2^20 keys, re-sorted whole."""
    rng = np.random.default_rng(612)
    field = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    changes = change_map(field, quantise(field, BINARY_PHASE))
    assert np.array_equal(sps_order(changes), stable_argsort(changes))
    values = ulp_neighbours(rng.choice([0.0, 0.25, 1.0, 1.5], size=1 << 20), rng).reshape(1024, 1024)
    assert np.array_equal(sps_order(values), stable_argsort(values))
    assert np.array_equal(sps_order(np.full((1024, 1024), 0.5)), np.arange(1 << 20))


@pytest.mark.parametrize("bad", [-1.0, -5e-324, np.nan, np.inf, -np.inf])
def test_sps_order_rejects_negative_or_non_finite(bad):
    changes = np.ones((4, 4))
    changes[2, 1] = bad
    with pytest.raises(ValueError, match="non-negative and finite"):
        sps_order(changes)


def test_sps_order_of_no_pixels_is_empty():
    assert sps_order(np.zeros((0, 3))).size == 0


def test_next_pixel_sorted_serves_each_once_then_wraps():
    rng = np.random.default_rng(602)
    w = h = 16
    ch = rng.random((h, w))
    order = sps_order(ch)
    first_flat = int(order[0])
    seen = set()
    for n in range(w * h):
        x, y = next_pixel(order, n, w, h, rng)
        seen.add(y * w + x)
    assert seen == set(range(w * h))
    # wrap: the next iteration re-serves the head of the permutation, no re-sort
    x, y = next_pixel(order, w * h, w, h, rng)
    assert y * w + x == first_flat


def test_next_pixel_sorted_consumes_no_rng():
    rng = np.random.default_rng(603)
    order = sps_order(np.arange(16.0).reshape(4, 4))
    before = rng.bit_generator.state
    for n in range(20):
        next_pixel(order, n, 4, 4, rng)
    assert rng.bit_generator.state == before


def test_next_pixel_random_uniform():
    """1e6 draws on 16x16: every pixel frequency within 5 sigma."""
    rng = np.random.default_rng(605)
    w = h = 16
    counts = np.zeros(w * h, dtype=np.int64)
    n = 1_000_000
    for it in range(n):
        x, y = next_pixel(None, it, w, h, rng)
        counts[y * w + x] += 1
    p = 1.0 / (w * h)
    sigma = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 5 * sigma)


@pytest.mark.parametrize("algorithm", search.ALGORITHMS)
@pytest.mark.parametrize("selection", SELECTIONS)
@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(height=st.integers(4, 12), width=st.integers(4, 12), extra=st.integers(0, 144),
       seed=st.integers(0, 2**32 - 1))
def test_selection_stream_oracle(algorithm, selection, height, width, extra, seed):
    """Pixel selection is a pure function of the iteration number. Over 2-3
    passes of the grid, run_search asks for n = 0, 1, ... and is served
    rng.integers(N, size=iterations) from the selection stream under random
    selection, or sps_order(changes)[n % N] with no draw under sps."""
    n_pixels = height * width
    iterations = 2 * n_pixels + extra % (n_pixels + 1)
    rng = np.random.default_rng(seed)
    t = normalize_energy(TargetImage(rng.random((height, width)) + 0.05))
    config = SearchConfig(iterations=iterations, scheme=BINARY_PHASE, algorithm=algorithm,
                          selection=selection)
    steps, served, rngs = [], [], []
    inner = search.next_pixel

    def recording(order, n, w, h, rng):
        x, y = inner(order, n, w, h, rng)
        steps.append(n)
        served.append(y * w + x)
        rngs.append(rng)
        return x, y

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "next_pixel", recording)
        run_search(t, config, seed)

    assert steps == list(range(iterations))
    oracle_rng = substream(seed, STREAM_SELECTION)
    if selection == SELECT_RANDOM:
        want = oracle_rng.integers(n_pixels, size=iterations)
    else:
        projected = back_project(t, substream(seed, STREAM_PHASE))
        changes = change_map(projected, quantise(projected, BINARY_PHASE))
        want = sps_order(changes)[np.arange(iterations) % n_pixels]
    assert served == want.tolist()
    assert rngs[0].bit_generator.state == oracle_rng.bit_generator.state


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


@pytest.mark.parametrize("target", [
    normalize_energy(synthetic_mandrill(64)),
    normalize_energy(synthetic_bars(64)),  # mostly zero: signed zeros
    TargetImage(np.zeros((8, 12))),
], ids=["mandrill", "bars", "zero"])
def test_back_project_equals_complex_exp_formula(target):
    # Byte pin per numpy build against the formula back_project had before
    # it took its phasors from cos/sin.
    phases = substream(7, STREAM_PHASE).uniform(0.0, 2.0 * np.pi, size=target.shape)
    want = idft2(target.mag * np.exp(1j * phases))
    assert same_bytes(back_project(target, substream(7, STREAM_PHASE)), want)


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
        SearchConfig(iterations=10, scheme=BINARY_PHASE, trace_stride=0)
    with pytest.raises(ValueError):
        SearchConfig(iterations=10, scheme=BINARY_PHASE, recompute_interval=0)
    for bad in ({"iterations": True}, {"iterations": 10.0}, {"trace_stride": 2.5}, {"trace_stride": True},
                {"recompute_interval": 3.0}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SearchConfig(**{"iterations": 10, "scheme": BINARY_PHASE, **bad})
    counts = SearchConfig(iterations=np.int64(10), scheme=BINARY_PHASE, trace_stride=np.int32(2))
    assert counts.iterations == 10 and counts.trace_stride == 2
    for t_coeff, t0, bad in ((True, True, "t_coeff"), (1.0, False, "t0"), ("1", 6.0, "t_coeff"),
                             (1.0, "6", "t0"), (1 + 0j, 6.0, "t_coeff"), (np.bool_(True), 6.0, "t_coeff"),
                             (1.0, [6.0], "t0")):
        with pytest.raises(ValueError, match=f"^{bad} must be a real number"):
            SearchConfig(iterations=10, scheme=BINARY_PHASE, algorithm=ALGO_SA, t_coeff=t_coeff, t0=t0)
    for t_coeff, t0 in ((np.float64(0.5), np.float32(6.0)), (2, np.int64(3)), (np.int32(1), 6.0)):
        knobs = SearchConfig(iterations=10, scheme=BINARY_PHASE, algorithm=ALGO_SA, t_coeff=t_coeff, t0=t0)
        assert (knobs.t_coeff, knobs.t0) == (t_coeff, t0)


def test_schedule_validation():
    with pytest.raises(ValueError, match="only meaningful for algorithm 'sa'"):
        # a schedule makes no sense outside simulated annealing
        SearchConfig(iterations=10, scheme=BINARY_PHASE,
                     algorithm=ALGO_DS_FAST, t_coeff=1.0, t0=6.0)
    for half in ({"t_coeff": 1.0}, {"t0": 6.0}):
        with pytest.raises(ValueError, match="needs both t_coeff and t0"):
            SearchConfig(iterations=10, scheme=BINARY_PHASE, algorithm=ALGO_SA, **half)
    for t_coeff, t0, bad in ((0.0, 6.0, "t_coeff"), (1.0, 0.0, "t0"), (math.inf, 6.0, "t_coeff"),
                             (-1.0, 6.0, "t_coeff"), (1.0, math.nan, "t0")):
        with pytest.raises(ValueError, match=f"^{bad} must be positive and finite"):
            SearchConfig(iterations=10, scheme=BINARY_PHASE, algorithm=ALGO_SA, t_coeff=t_coeff, t0=t0)


# ------------------------------------------------------------- search: basics


def test_direct_search_zero_iterations():
    t = small_target()
    res = run_search(t, SearchConfig(iterations=0, scheme=BINARY_PHASE), seed=0)
    assert res.accepted == 0
    assert res.final_mse == res.trace.initial_mse
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
    assert res.final_mse <= res.trace.initial_mse
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
    assert res.trace.samples[-1].accepted == res.accepted
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


def test_sps_first_pass_covers_sorted_moves(monkeypatch):
    """Under SPS the first Nx*Ny iterations test every pixel exactly once,
    in non-increasing change order."""
    t = small_target(8)
    n = 64
    served = []
    inner = search.next_pixel

    def recording(order, it, width, height, rng):
        x, y = inner(order, it, width, height, rng)
        served.append(y * width + x)
        return x, y

    monkeypatch.setattr(search, "next_pixel", recording)
    run_search(t, SearchConfig(iterations=n, scheme=BINARY_PHASE, selection=SELECT_SPS), seed=4)
    projected = back_project(t, substream(4, STREAM_PHASE))
    changes = change_map(projected, quantise(projected, BINARY_PHASE)).ravel()
    assert served == sps_order(changes).tolist()
    assert sorted(served) == list(range(n))
    assert np.all(np.diff(changes[served]) <= 0)


# --------------------------------------------------------- simulated annealing


def test_sa_cold_schedule_equals_direct_search():
    # with an effectively zero temperature SA degenerates to strict descent
    t = small_target()
    sa = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_SA,
        t_coeff=1e-300, t0=6.0, trace_stride=1), seed=7)
    ds = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, trace_stride=1), seed=7)
    assert np.array_equal(sa.hologram, ds.hologram)
    assert [s.accepted for s in sa.trace.samples] == \
        [s.accepted for s in ds.trace.samples]


def test_sa_default_schedule_matches_explicit():
    t = small_target()
    implicit = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_SA), seed=8)
    e0 = implicit.trace.initial_mse
    explicit = run_search(t, SearchConfig(
        iterations=300, scheme=BINARY_PHASE, algorithm=ALGO_SA,
        t_coeff=8.0 * e0 / 256, t0=6.0), seed=8)
    assert np.array_equal(implicit.hologram, explicit.hologram)
    assert implicit.accepted == explicit.accepted


def test_sa_hot_schedule_accepts_worsening_moves():
    t = small_target()
    sa = run_search(t, SearchConfig(
        iterations=400, scheme=BINARY_PHASE, algorithm=ALGO_SA,
        t_coeff=10.0, t0=1e-9, trace_stride=1), seed=9)
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


def test_sa_cools_over_the_run_length(monkeypatch):
    """The loop hands boltzmann_accept T(n) over the run's own length: the
    first iteration gets t_coeff, the last t_coeff * exp(-t0 * (n-1) / n)."""
    temps = []
    inner = search.boltzmann_accept

    def recording(delta_e, temperature, rng):
        temps.append(temperature)
        return inner(delta_e, temperature, rng)

    monkeypatch.setattr(search, "boltzmann_accept", recording)
    n, t_coeff, t0 = 37, 0.25, 3.0
    run_search(small_target(), SearchConfig(
        iterations=n, scheme=BINARY_PHASE, algorithm=ALGO_SA,
        t_coeff=t_coeff, t0=t0), seed=14)
    assert len(temps) == n
    assert temps[0] == t_coeff
    assert temps[-1] == t_coeff * math.exp(-t0 * (n - 1) / n)
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_sa_default_schedule_at_zero_error_stays_greedy(monkeypatch):
    """A 16x16 DC spike back-projects to a constant aperture, which binary
    phase quantises to a constant sign whose replay is the spike itself:
    the initial error is exactly 0. The default t_coeff is then 0, so the
    run anneals at T = 0, where boltzmann_accept rejects every worsening
    candidate, and no change of a zero-error state is kept."""
    temps = []
    inner = search.boltzmann_accept

    def recording(delta_e, temperature, rng):
        temps.append(temperature)
        return inner(delta_e, temperature, rng)

    monkeypatch.setattr(search, "boltzmann_accept", recording)
    mag = np.zeros((16, 16))
    mag[0, 0] = 16.0
    res = run_search(TargetImage(mag), SearchConfig(
        iterations=200, scheme=BINARY_PHASE, algorithm=ALGO_SA), seed=0)
    assert res.trace.initial_mse == 0.0
    assert res.accepted == 0
    assert temps[0] == 0.0


def reference_sa(target, config, seed):
    """The annealing oracle: ``ds-naive``'s full-transform loop under the
    ``sa`` acceptance rule. It takes ``run_search``'s set-up and draws from
    the same four substreams; each candidate is scored by a full transform
    and the direct-form error. Returns the final hologram, the accepted
    count after every iteration (0 first), the final error, the number of
    worsening accepts and the acceptance stream."""
    hologram, _, order = search._start(target, config, seed)
    select_rng = substream(seed, STREAM_SELECTION)
    proposal_rng = substream(seed, STREAM_PROPOSAL)
    accept_rng = substream(seed, STREAM_ACCEPTANCE)
    height, width = target.shape
    current = mse(target.mag, dft2(hologram))
    counts, worsening = [0], 0
    for n in range(1, config.iterations + 1):
        x, y = next_pixel(order, n - 1, width, height, select_rng)
        old_value = hologram[y, x]
        hologram[y, x] = propose_value(old_value, config.scheme, proposal_rng)
        candidate = mse(target.mag, dft2(hologram))
        temperature = config.t_coeff * math.exp(-config.t0 * (n - 1) / config.iterations)
        if boltzmann_accept(candidate - current, temperature, accept_rng):
            worsening += candidate > current
            current = candidate
            counts.append(counts[-1] + 1)
        else:
            hologram[y, x] = old_value
            counts.append(counts[-1])
    return hologram, counts, current, worsening, accept_rng


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("family", ["binary-phase", "phase", "binary-amplitude", "amplitude"])
@settings(derandomize=True, deadline=None, max_examples=4, database=None)
@given(height=st.integers(4, 12), width=st.integers(4, 12), levels=st.integers(3, 8),
       heat=st.floats(1.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_sa_matches_full_transform_reference(family, selection, height, width, levels, heat, seed):
    """The fast annealing loop makes the oracle's decisions under hot
    schedules (t_coeff at 1-10x the default), where worsening accepts, their
    draws and a rejected move pending after one all occur: the same accepted
    count at every iteration, the same hologram, the acceptance stream left
    in the same state, and final errors within 1e-9."""
    scheme = ModulationScheme.from_name(family if family.startswith("binary") else f"{family}:{levels}")
    rng = np.random.default_rng(seed)
    t = normalize_energy(TargetImage(rng.random((height, width)) + 0.05))
    start_mse = run_search(t, SearchConfig(iterations=0, scheme=scheme, selection=selection), seed).trace.initial_mse
    config = SearchConfig(iterations=150, scheme=scheme, algorithm=ALGO_SA, selection=selection,
                          t_coeff=heat * 8.0 * start_mse / t.mag.size, t0=6.0, trace_stride=1)
    streams = []
    inner = search.boltzmann_accept

    def recording(delta_e, temperature, accept_rng):
        streams.append(accept_rng)
        return inner(delta_e, temperature, accept_rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "boltzmann_accept", recording)
        fast = run_search(t, config, seed)
    hologram, counts, final, worsening, accept_rng = reference_sa(t, config, seed)
    assert worsening > 0
    assert [s.accepted for s in fast.trace.samples] == counts
    assert np.array_equal(fast.hologram, hologram)
    assert streams[-1].bit_generator.state == accept_rng.bit_generator.state
    assert abs(fast.final_mse - final) <= 1e-9 * final


# --------------------------------------------------------- replay refresh, drift


@pytest.mark.parametrize("interval", [1, 3])
@pytest.mark.parametrize("algorithm", [ALGO_DS_FAST, ALGO_SA])
def test_replay_refreshed_every_interval_accepts(algorithm, interval, monkeypatch):
    """Besides the set-up transform, the loop recomputes the replay from a
    fresh transform once every recompute_interval accepts, and returns a
    replay that matches a fresh transform of its hologram."""
    calls = []
    inner = search.dft2

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(search, "dft2", counting)
    res = run_search(small_target(), SearchConfig(
        iterations=300, scheme=BINARY_PHASE, algorithm=algorithm,
        recompute_interval=interval), seed=13)
    assert res.accepted >= 2 * interval
    assert len(calls) == 1 + res.accepted // interval
    assert np.max(np.abs(res.replay - inner(res.hologram))) <= 1e-12


@pytest.mark.parametrize("scheme, real", [("binary-phase", True), ("amplitude:5", True), ("phase:8", False)])
def test_real_aperture_search_transforms_and_scores_only_leading_rows(scheme, real, monkeypatch):
    """At set-up and at every refresh, a real aperture's search transforms
    and scores the replay's leading half_rows rows only; a complex
    aperture's, every row. Every score, set-up and refresh included, is in
    the energy form. Every transform is written into the returned replay."""
    height, width = 9, 12
    shapes = {"dft2": [], "mse": []}
    energy_form = []
    written = []
    inner_dft2, inner_mse = search.dft2, search.mse

    def dft2_shape(*args, **kwargs):
        out = inner_dft2(*args, **kwargs)
        shapes["dft2"].append(out.shape)
        written.append(kwargs.get("out"))
        return out

    def mse_shape(target, replay, **kwargs):
        shapes["mse"].append(replay.shape)
        energy_form.append(kwargs.get("energy") is not None)
        return inner_mse(target, replay, **kwargs)

    monkeypatch.setattr(search, "dft2", dft2_shape)
    monkeypatch.setattr(search, "mse", mse_shape)
    t = normalize_energy(TargetImage(np.random.default_rng(17).random((height, width)) + 0.05))
    res = run_search(t, SearchConfig(iterations=200, scheme=ModulationScheme.from_name(scheme),
                                     recompute_interval=3), seed=18)
    assert res.accepted >= 6
    rows = half_rows(height) if real else height
    assert shapes["dft2"] == [(rows, width)] * (1 + res.accepted // 3)
    assert set(shapes["mse"]) == {(rows, width)}
    assert len(energy_form) == 1 + res.accepted // 3 + 200 and all(energy_form)
    assert all(out is not None and np.shares_memory(out, res.replay) for out in written)


@pytest.mark.parametrize("interval", [3, 50_000])
@pytest.mark.parametrize("algorithm", [ALGO_DS_FAST, ALGO_SA])
@pytest.mark.parametrize("scheme", ["binary-phase", "binary-amplitude", "amplitude:5", "amplitude:cont"])
@pytest.mark.parametrize("shape", [(10, 12), (9, 12), (10, 11), (9, 7)])
def test_real_aperture_replay_is_whole_field(shape, scheme, algorithm, interval):
    """A real aperture's search maintains only the leading rows of the
    replay; the returned replay is nonetheless the whole transform of the
    returned hologram, on every row, for odd and even heights and widths."""
    rng = np.random.default_rng(15)
    t = normalize_energy(TargetImage(rng.random(shape) + 0.05))
    res = run_search(t, SearchConfig(iterations=200, scheme=ModulationScheme.from_name(scheme),
                                     algorithm=algorithm, recompute_interval=interval), seed=16)
    assert res.accepted > 3
    assert np.max(np.abs(res.replay - dft2(res.hologram))) <= 1e-11


@pytest.mark.parametrize("scheme", ["binary-phase", "phase:8"])
def test_replay_excludes_a_last_rejected_candidate(scheme):
    """A rejected candidate leaves the replay only when the next update takes
    it back out; one rejected on the last iteration is taken out before the
    search returns, on the real half-plane path and the complex full one."""
    t = small_target(12)
    res = run_search(t, SearchConfig(iterations=400, scheme=ModulationScheme.from_name(scheme),
                                     trace_stride=1), seed=21)
    last, before = res.trace.samples[-1], res.trace.samples[-2]
    assert last.iteration == 400 and last.accepted == before.accepted > 0
    assert np.max(np.abs(res.replay - dft2(res.hologram))) <= 1e-11


@pytest.mark.parametrize("algorithm", [ALGO_DS_FAST, ALGO_SA])
def test_drift_without_refresh_is_bounded(algorithm):
    """With no refresh in the run, the incremental replay drifts through
    accepts and rolled-back rejects alike; at 128^2 over 3000 iterations it
    stays within 1e-11 of a fresh transform."""
    t = normalize_energy(synthetic_mandrill(128))
    res = run_search(t, SearchConfig(iterations=3000, scheme=BINARY_PHASE, algorithm=algorithm), seed=0)
    assert 0 < res.accepted < 3000
    assert np.max(np.abs(res.replay - dft2(res.hologram))) <= 1e-11


@pytest.mark.parametrize("scheme", ["phase:8", "amplitude:8"])
@pytest.mark.parametrize("algorithm", [ALGO_DS_FAST, ALGO_SA])
def test_drift_is_bounded_off_binary_phase(algorithm, scheme):
    """The complex aperture (phase:8) and a scheme whose moves change the
    aperture energy (amplitude:8) drift no further: with no refresh in the
    run, at 128^2 over 3000 iterations, the replay stays within 1e-11 of a
    fresh transform on every row, and the tracked error within 1e-12
    relative of that transform's."""
    t = normalize_energy(synthetic_mandrill(128))
    res = run_search(t, SearchConfig(iterations=3000, scheme=ModulationScheme.from_name(scheme),
                                     algorithm=algorithm), seed=0)
    assert 0 < res.accepted < 3000
    fresh = dft2(res.hologram)
    assert np.max(np.abs(res.replay - fresh)) <= 1e-11
    assert abs(res.final_mse - mse(t.mag, fresh)) <= 1e-12 * mse(t.mag, fresh)


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
        assert res.final_mse <= res.trace.initial_mse


# ------------------------------------------------------ threads and blocks


def search_outcome(result):
    return (result.hologram.tobytes(), result.accepted, result.final_mse,
            [tuple(sample) for sample in result.trace.samples])


@pytest.mark.parametrize("split", [False, True])
def test_two_searches_on_two_threads_keep_their_bytes(split, monkeypatch):
    """Searches on different threads of one process do not share scratch:
    the random and sps arms of a 128^2 binary-phase ds-fast run and of a 64^2
    phase:8 sa run, mapped over two threads, give the serial holograms,
    accept counts, traces and errors exactly, with the loop split off and
    forced on."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    monkeypatch.setattr(field, "_MIN_BLOCK", 1 if split else 1 << 62)
    for resolution, scheme, algorithm in ((128, "binary-phase", ALGO_DS_FAST), (64, "phase:8", ALGO_SA)):
        base = ExperimentConfig(resolution=resolution, iterations=2000, algorithm=algorithm,
                                scheme=ModulationScheme.from_name(scheme))
        target = prepare_target(base)
        configs = [dataclasses.replace(base, selection=s).search_config() for s in (SELECT_RANDOM, SELECT_SPS)]
        serial = [search_outcome(run_search(target, c, 0)) for c in configs]
        with ThreadPoolExecutor(2) as pool:
            threaded = [search_outcome(r) for r in pool.map(lambda c: run_search(target, c, 0), configs)]
        assert threaded == serial, (resolution, scheme)


def assert_errors_close(got, want, rel=1e-14):
    """Final and traced errors, the start error of sample 0 among them,
    within ``rel`` relative, with the trace's iterations and accept counts
    equal."""
    assert got.final_mse == pytest.approx(want.final_mse, rel=rel, abs=0)
    assert len(got.trace.samples) == len(want.trace.samples)
    for a, b in zip(got.trace.samples, want.trace.samples):
        assert (a.iteration, a.accepted) == (b.iteration, b.accepted)
        assert a.mse == pytest.approx(b.mse, rel=rel, abs=0)


@pytest.mark.parametrize("state", HELPER_STATES)
def test_split_search_gives_the_inline_bytes(state):
    """A 64^2 sps ds-fast search and a 64^2 phase:8 sa search, with every
    kernel split in two blocks and the helper off, on or stalled, give the
    hologram, accept count and replay bytes of the search run inline; their
    errors, whose dot products the split sums in two parts, agree to 1e-14
    relative."""
    for scheme, algorithm, selection in (("binary-phase", ALGO_DS_FAST, SELECT_SPS),
                                         ("phase:8", ALGO_SA, SELECT_RANDOM)):
        cfg = ExperimentConfig(resolution=64, iterations=3000, algorithm=algorithm, selection=selection,
                               scheme=ModulationScheme.from_name(scheme), symmetry=True)
        target = prepare_target(cfg)
        want = run_search(target, cfg.search_config(), 3)
        with forced_blocks(state):
            got = run_search(target, cfg.search_config(), 3)
        assert same_bytes(got.hologram, want.hologram)
        assert got.accepted == want.accepted
        assert same_bytes(got.replay, want.replay)
        assert_errors_close(got, want)


@pytest.mark.parametrize("resolution, scheme, algorithm, iterations", [
    (256, "phase:8", ALGO_SA, 300),
    (512, "binary-phase", ALGO_DS_FAST, 200),
])
def test_search_bytes_do_not_follow_the_helper_switch(resolution, scheme, algorithm, iterations):
    """At the shapes of the benchmark's two A/B workloads, where the loop
    kernels split at the floor (a 256^2 complex aperture, a 512^2 real
    aperture's half-plane), searches with the helper off, on (with a helper
    of its own, which the search starts) and stalled give the same
    hologram, replay, trace and final error bytes, under both selections."""
    cfg = ExperimentConfig(resolution=resolution, iterations=iterations, algorithm=algorithm,
                           scheme=ModulationScheme.from_name(scheme))
    target = prepare_target(cfg)
    rows = half_rows(resolution) if cfg.scheme.is_real else resolution
    assert field._block_count(rows, rows * resolution) == 2
    for selection in SELECTIONS:
        config = dataclasses.replace(cfg, selection=selection).search_config()
        outcomes = []
        for state in HELPER_STATES:
            with fresh_helpers(), switched(state):
                result = run_search(target, config, 5)
                assert (field._helper is not None) == (state != "off")
            outcomes.append(search_outcome(result) + (result.replay.tobytes(), result.final_mse.hex()))
        assert outcomes[0] == outcomes[1] == outcomes[2], selection


