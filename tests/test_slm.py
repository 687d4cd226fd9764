"""Tests for modulation schemes, quantisation and proposal drawing.

The independent oracle for nearest-level quantisation is plain
enumeration: compute the distance to every allowed level and take the
argmin, with numpy's first-index tie behaviour standing in for the
lower-index tie rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosearch.rng import STREAM_PROPOSAL, substream
from holosearch.slm import (
    AMPLITUDE,
    PHASE,
    ModulationScheme,
    _phase_index,
    amplitude_levels,
    change_map,
    is_allowed,
    phase_levels,
    propose_value,
    quantise,
)
from test_field import same_bytes

BINARY_PHASE = ModulationScheme("phase", 2)
QUAD_PHASE = ModulationScheme("phase", 4)
CONT_PHASE = ModulationScheme("phase", None)
BINARY_AMP = ModulationScheme("amplitude", 2)
TRI_AMP = ModulationScheme("amplitude", 3)
CONT_AMP = ModulationScheme("amplitude", None)

DISCRETE_SCHEMES = [
    BINARY_PHASE,
    QUAD_PHASE,
    ModulationScheme("phase", 3),
    ModulationScheme("phase", 8),
    BINARY_AMP,
    TRI_AMP,
    ModulationScheme("amplitude", 5),
]


def quantise_enum(value, scheme):
    """Enumeration oracle: argmin over the level table, first index wins."""
    table = scheme.allowed_values()
    dists = np.abs(table - complex(value))
    return table[int(np.argmin(dists))]


# -------------------------------------------------------------------- naming


def test_scheme_names_round_trip():
    for name in ["binary-phase", "phase:4", "phase:cont",
                 "binary-amplitude", "amplitude:3", "amplitude:cont"]:
        assert ModulationScheme.from_name(name).name == name


def test_scheme_name_aliases():
    assert ModulationScheme.from_name("phase:2") == BINARY_PHASE
    assert ModulationScheme.from_name("phase:2").name == "binary-phase"
    assert ModulationScheme.from_name("amplitude:2") == BINARY_AMP


@pytest.mark.parametrize("bad", [
    "phase", "phase:1", "phase:0", "phase:-3", "phase:x",
    "amp:4", "binary", "amplitude:", "phase:2.5", "",
])
def test_scheme_bad_names(bad):
    with pytest.raises(ValueError):
        ModulationScheme.from_name(bad)


def test_scheme_validation():
    with pytest.raises(ValueError):
        ModulationScheme("phase", 1)
    with pytest.raises(ValueError):
        ModulationScheme("frequency", 4)
    for levels in (True, 2.5):
        with pytest.raises(ValueError, match=f"^levels must be an integer or None, got {levels}$"):
            ModulationScheme("phase", levels)
    with pytest.raises(ValueError, match="^phase:cont has no finite level table$"):
        ModulationScheme("phase", None).allowed_values()


# -------------------------------------------------------------- level tables


def test_binary_phase_levels_exact():
    assert np.array_equal(phase_levels(2), np.array([1.0 + 0.0j, -1.0 + 0.0j]))


def test_quad_phase_levels_exact():
    # cardinal directions must be the exact unit values, not cos/sin output
    assert np.array_equal(
        phase_levels(4), np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]))


def test_phase_levels_unit_modulus():
    lv = phase_levels(8)
    assert np.allclose(np.abs(lv), 1.0, atol=1e-15)
    # equally spaced angles
    ang = np.angle(lv)
    assert abs(ang[1] - 2 * math.pi / 8) < 1e-15


def test_amplitude_levels_exact():
    assert np.array_equal(
        amplitude_levels(3), np.array([0.0 + 0.0j, 0.5 + 0.0j, 1.0 + 0.0j]))


def test_level_tables_read_only():
    with pytest.raises(ValueError):
        phase_levels(2)[0] = 0.0
    with pytest.raises(ValueError):
        amplitude_levels(3)[0] = 9.0


# ----------------------------------------------------------------- quantise


def test_quantise_binary_phase_example():
    # 0.5*exp(0.3j*pi): distance to +1 is ~0.814, to -1 is ~1.36 -> +1
    v = 0.5 * np.exp(0.3j * math.pi)
    out = quantise(np.array([[v]]), BINARY_PHASE)
    assert out[0, 0] == 1.0 + 0.0j


def test_quantise_zero_pixel_lowest_level():
    # zero is equidistant from every phase level: tie -> index 0
    out = quantise(np.zeros((2, 2), dtype=np.complex128), BINARY_PHASE)
    assert np.array_equal(out, np.ones((2, 2), dtype=np.complex128))
    out8 = quantise(np.zeros((1, 1), dtype=np.complex128),
                    ModulationScheme("phase", 8))
    assert out8[0, 0] == 1.0 + 0.0j


@pytest.mark.parametrize("scheme", DISCRETE_SCHEMES, ids=lambda s: s.name)
def test_quantise_matches_enumeration(scheme):
    rng = np.random.default_rng(201)
    vals = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    got = quantise(vals, scheme)
    for y in range(40):
        for x in range(40):
            assert got[y, x] == quantise_enum(vals[y, x], scheme), (
                scheme.name, vals[y, x])


def test_quantise_tie_breaks_to_lower_index():
    # 0.5j is equidistant from +1 and -1: lower level index wins -> +1
    out = quantise(np.array([[0.5j]]), BINARY_PHASE)
    assert out[0, 0] == 1.0 + 0.0j
    # 0.25 sits exactly between amplitude levels 0 and 0.5 -> level 0
    out = quantise(np.array([[0.25 + 0.0j]]), TRI_AMP)
    assert out[0, 0] == 0.0 + 0.0j


def nearest_levels(value, scheme):
    """Scale-free enumeration oracle: the indices of the levels nearest to
    ``value`` up to rounding (within 1e-12), ascending. Phase distances are
    measured to the value's direction, amplitude distances along the real
    axis, so a value's size does not shrink or stretch the tolerance."""
    table = scheme.allowed_values()
    value = complex(value)
    if scheme.kind == AMPLITUDE:
        dists = np.abs(table.real - value.real)
    else:
        dists = np.abs(table - (value / abs(value) if value else 0))
    return np.flatnonzero(dists <= dists.min() + 1e-12)


@pytest.mark.parametrize("family", ["binary-phase", "phase", "binary-amplitude", "amplitude"])
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(levels=st.integers(3, 8),
       values=st.lists(st.one_of(
           st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
           st.builds(complex, st.floats(-0.5, 1.5), st.floats(-2.0, 2.0))), min_size=8, max_size=32))
def test_quantise_is_nearest_level_property(family, levels, values):
    """quantise picks a level the enumeration oracle finds nearest, for
    every discrete family and arbitrary values. Where levels tie to within
    rounding either may be the nearest; exact ties are pinned below."""
    scheme = ModulationScheme.from_name(family if family.startswith("binary") else f"{family}:{levels}")
    table = scheme.allowed_values()
    for value, level in zip(values, quantise(np.array(values, dtype=np.complex128), scheme)):
        chosen = int(np.flatnonzero(table == level)[0])
        assert chosen in nearest_levels(value, scheme), (scheme.name, value, chosen)


# A float value ties two phase levels exactly only on an axis or a diagonal
# (or at zero), and two amplitude levels only at a dyadic real part; any other
# value near a tie is a rounding-level near-tie.
_TIE_SCHEMES = ([ModulationScheme(PHASE, n) for n in range(2, 17)]
                + [ModulationScheme(AMPLITUDE, n) for n in range(2, 10)])


@pytest.mark.parametrize("scheme", _TIE_SCHEMES, ids=lambda s: s.name)
def test_quantise_exact_ties_go_to_lower_index(scheme):
    """Every value of these forms that the oracle finds tied goes to the
    lower level index: zero, the axes and diagonals at three sizes for
    phase, and real parts j/16 with any imaginary part for amplitude."""
    if scheme.kind == PHASE:
        values = [d * r for d in (0, 1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j)
                  for r in (1e-3, 1.0, 4.0)]
    else:
        values = [complex(j / 16, im) for j in range(-4, 21) for im in (0.0, -0.7, 2.0)]
    table = scheme.allowed_values()
    ties = 0
    for value, level in zip(values, quantise(np.array(values, dtype=np.complex128), scheme)):
        nearest = nearest_levels(value, scheme)
        ties += len(nearest) > 1
        assert table[nearest[0]] == level, (scheme.name, value)
    assert ties



@pytest.mark.parametrize("n", range(2, 17))
def test_phase_index_at_the_modulo_edges(n):
    """At angle +-pi, where k_down = ceil(t - 1/2) goes negative, and at
    signed zeros, whose angle follows the zeros' signs, the index is the
    oracle's: the nearest level, the lowest index on a tie (every level for a
    zero). Sizes include the smallest subnormal off the negative axis."""
    values = []
    for r in (5e-324, 1e-3, 1.0, 4.0):
        values += [complex(-r, 0.0), complex(-r, -0.0), complex(-r, 5e-324), complex(-r, -5e-324),
                   complex(-0.0, r), complex(-0.0, -r)]
    values += [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    scheme = ModulationScheme(PHASE, n)
    want = [int(nearest_levels(v, scheme)[0]) for v in values]
    assert _phase_index(np.array(values), n).tolist() == want
    grid = np.array(values[:24], dtype=np.complex128).reshape(4, 6)
    assert np.array_equal(_phase_index(grid, n), np.reshape(want[:24], (4, 6)))
    assert np.array_equal(quantise(np.array(values), scheme), scheme.allowed_values()[want])


def phase_index_oracle(t, n):
    """The tie rule spelled out on one t = angle*n/(2*pi): round half down,
    and where ceil(t - 1/2) and floor(t + 1/2) differ, take the candidate
    with the lower index mod n."""
    down, up = math.ceil(t - 0.5), math.floor(t + 0.5)
    return min(down % n, up % n) if down != up else down % n


# Exact points of the axes and diagonals, by multiple of pi/4.
_EIGHTHS = (1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j)


@pytest.mark.parametrize("n", range(2, 17))
@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(r=st.floats(1e-3, 1e3), d_re=st.integers(-4, 4), d_im=st.integers(-4, 4))
def test_phase_index_near_ties_follow_the_tie_rule(n, r, d_re, d_im):
    """Values a few ulps off every half-level angle (h + 1/2)*2*pi/n of the
    turn, t = -1/2 (the tie of levels n-1 and 0) and t = n/2 included, get
    the oracle's index for the t that _phase_index forms. A half-level on an
    axis or diagonal starts from its exact point, so zero offsets tie
    exactly."""
    values = []
    for h in range(-n, n):
        if abs(h + 0.5) > n / 2:
            continue
        eighths, rest = divmod(8 * h + 4, n)
        if rest == 0:
            base = r * _EIGHTHS[eighths % 8]
        else:
            phi = (h + 0.5) * 2 * math.pi / n
            base = complex(r * math.cos(phi), r * math.sin(phi))
        values.append(complex(base.real + d_re * np.spacing(base.real),
                              base.imag + d_im * np.spacing(base.imag)))
    arr = np.array(values, dtype=np.complex128)
    t = np.arctan2(arr.imag, arr.real + 0.0)
    t /= np.pi
    t *= n / 2
    want = [phase_index_oracle(float(x), n) for x in t]
    assert _phase_index(arr, n).tolist() == want, (n, r, d_re, d_im)


def test_quantise_continuous_phase_keeps_angle():
    rng = np.random.default_rng(202)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    out = quantise(vals, CONT_PHASE)
    assert np.allclose(np.abs(out), 1.0, atol=1e-15)
    assert np.allclose(np.angle(out), np.angle(vals), atol=1e-12)


def test_quantise_continuous_phase_zero_pixel():
    out = quantise(np.zeros((1, 1), dtype=np.complex128), CONT_PHASE)
    assert out[0, 0] == 1.0 + 0.0j
    # a zero of either sign in either part, as back-projecting an all-zero
    # target gives, maps to +1 like the discrete phase schemes' zero
    zeros = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
    assert np.array_equal(quantise(zeros, CONT_PHASE), np.ones(4, dtype=np.complex128))
    assert np.array_equal(quantise(zeros, BINARY_PHASE), np.ones(4, dtype=np.complex128))


def test_quantise_continuous_phase_equals_complex_exp_formula():
    # Byte pin per numpy build against the formula quantise had before it
    # took its phasors from cos/sin; signed zeros in either part included.
    rng = np.random.default_rng(206)
    vals = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    vals.real[0] = -0.0
    vals.imag[1] = -0.0
    vals.imag[2] = 0.0
    vals[3, :4] = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    want = np.exp(1j * np.arctan2(vals.imag, vals.real + 0.0))
    assert same_bytes(quantise(vals, CONT_PHASE), want)


@pytest.mark.parametrize("scheme", DISCRETE_SCHEMES + [CONT_PHASE, CONT_AMP],
                         ids=lambda s: s.name)
def test_quantise_scalar_gives_numpy_scalar(scheme):
    out = quantise(0.3 + 0.4j, scheme)
    assert isinstance(out, np.complex128)
    assert same_bytes(out, quantise(np.array([0.3 + 0.4j]), scheme)[0])


def test_quantise_continuous_amplitude():
    vals = np.array([[1.7 + 0.3j, -0.4 + 0.0j, 0.6 - 2.0j]])
    out = quantise(vals, CONT_AMP)
    assert np.array_equal(out, np.array([[1.0 + 0.0j, 0.0 + 0.0j, 0.6 + 0.0j]]))


@pytest.mark.parametrize("scheme", DISCRETE_SCHEMES + [CONT_AMP],
                         ids=lambda s: s.name)
def test_quantise_idempotent_exact(scheme):
    rng = np.random.default_rng(203)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    once = quantise(vals, scheme)
    twice = quantise(once, scheme)
    assert np.array_equal(once, twice)


def test_quantise_continuous_phase_idempotent_to_an_ulp():
    # angle/exp round-trips can move the last bit; anything past 1 ulp
    # would indicate a real bug
    rng = np.random.default_rng(204)
    vals = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    once = quantise(vals, CONT_PHASE)
    twice = quantise(once, CONT_PHASE)
    assert np.max(np.abs(twice - once)) <= 2.3e-16


# ---------------------------------------------------------------- change_map


def test_change_map_example():
    v = 0.5 * np.exp(0.3j * math.pi)
    field = np.array([[v]])
    ch = change_map(field, quantise(field, BINARY_PHASE))
    assert abs(ch[0, 0] - abs(1.0 - v)) < 1e-15
    assert abs(ch[0, 0] - 0.81376578184851622) < 1e-12


def test_change_map_unit_disc_bound():
    # |r| <= 1 pixels quantised to a unit phase level change by at most 2
    rng = np.random.default_rng(205)
    r = rng.random((32, 32)) * np.exp(2j * np.pi * rng.random((32, 32)))
    ch = change_map(r, quantise(r, BINARY_PHASE))
    assert np.all(ch <= 2.0 + 1e-15)
    assert np.all(ch >= 0.0)


def test_change_map_shape_mismatch():
    with pytest.raises(ValueError):
        change_map(np.zeros((2, 2), dtype=np.complex128),
                   np.zeros((2, 3), dtype=np.complex128))


def test_change_is_minimal_over_levels():
    # the quantised value is the closest level, so the change magnitude
    # is the minimum over the table
    rng = np.random.default_rng(206)
    vals = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    for scheme in (QUAD_PHASE, TRI_AMP):
        ch = change_map(vals, quantise(vals, scheme))
        table = scheme.allowed_values()
        best = np.min(np.abs(vals[..., None] - table), axis=-1)
        assert np.allclose(ch, best, atol=1e-14)


# ------------------------------------------------------------- propose_value


def test_propose_binary_flips_without_rng():
    rng = substream(0, STREAM_PROPOSAL)
    before = rng.bit_generator.state
    assert propose_value(1.0 + 0.0j, BINARY_PHASE, rng) == -1.0 + 0.0j
    assert propose_value(-1.0 + 0.0j, BINARY_PHASE, rng) == 1.0 + 0.0j
    assert propose_value(0.0 + 0.0j, BINARY_AMP, rng) == 1.0 + 0.0j
    assert propose_value(1.0 + 0.0j, BINARY_AMP, rng) == 0.0 + 0.0j
    # deterministic flip consumes no randomness
    assert rng.bit_generator.state == before


def test_propose_discrete_never_current_and_uniform():
    scheme = ModulationScheme("phase", 8)
    table = scheme.allowed_values()
    rng = substream(7, STREAM_PROPOSAL)
    current = table[3]
    counts = {}
    n = 14_000
    for _ in range(n):
        v = propose_value(current, scheme, rng)
        assert v != current
        assert np.any(table == v)
        counts[complex(v)] = counts.get(complex(v), 0) + 1
    assert len(counts) == 7
    expect = n / 7
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    # df = 6; 35 is far beyond the 0.999 quantile (~22.5)
    assert chi2 < 35.0


@pytest.mark.parametrize("scheme", _TIE_SCHEMES, ids=lambda s: s.name)
def test_propose_discrete_at_every_level(scheme):
    """From every level: never the current level, only table values, every
    other level reached, and exactly one integers(n - 1) draw per proposal
    (none for binary), checked against a twin generator. The value is the
    draw's level counted past the current one in table order."""
    table = scheme.allowed_values()
    n = scheme.levels
    for k, current in enumerate(table):
        rng, twin = substream(k, STREAM_PROPOSAL), substream(k, STREAM_PROPOSAL)
        seen = set()
        for _ in range(40 * (n - 1)):
            v = propose_value(complex(current), scheme, rng)
            assert type(v) is complex
            assert v != current
            i = np.flatnonzero(table == v)
            assert len(i) == 1, (scheme.name, k, v)
            seen.add(int(i[0]))
            if n == 2:
                assert i[0] == 1 - k
            else:
                j = int(twin.integers(n - 1))
                assert i[0] == j + (j >= k)
            assert rng.bit_generator.state == twin.bit_generator.state
        assert seen == set(range(n)) - {k}


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(kind=st.sampled_from(["phase", "amplitude"]), levels=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       current_index=st.integers(0, 15), proposals=st.integers(1, 8))
def test_propose_value_equals_the_uncached_rule(kind, levels, seed, current_index, proposals):
    """The cached other-level tables give what the rule they replace gives:
    ``table[table != current][rng.integers(n - 1)]``, the same Python complex
    value, with the generator left in the same state (for binary, the one
    other entry and no draw). It holds from every level, also given as a
    numpy scalar, and for a value outside the table."""
    scheme = ModulationScheme(kind, levels)
    table = scheme.allowed_values()
    outside = complex(0.25, 0.5)
    for current in (table[current_index % levels], complex(table[current_index % levels]), outside):
        rng, twin = substream(seed, STREAM_PROPOSAL), substream(seed, STREAM_PROPOSAL)
        for _ in range(proposals):
            got = propose_value(current, scheme, rng)
            others = table[table != current]
            want = complex(others[0] if levels == 2 else others[twin.integers(levels - 1)])
            assert type(got) is complex
            assert same_bytes(np.complex128(got), np.complex128(want))
            assert rng.bit_generator.state == twin.bit_generator.state


def test_propose_continuous():
    rng = substream(11, STREAM_PROPOSAL)
    for _ in range(200):
        v = propose_value(1.0 + 0.0j, CONT_PHASE, rng)
        assert abs(abs(v) - 1.0) < 1e-15
        assert v != 1.0 + 0.0j
    for _ in range(200):
        v = propose_value(0.5 + 0.0j, CONT_AMP, rng)
        assert v.imag == 0.0
        assert 0.0 <= v.real <= 1.0
        assert v != 0.5 + 0.0j


def test_propose_continuous_phase_equals_complex_exp_formula():
    # Byte pin per numpy build: the scalar cos/sin proposal is the value the
    # complex exp of the same draw gave, and draws the same numbers.
    rng, oracle_rng = substream(12, STREAM_PROPOSAL), substream(12, STREAM_PROPOSAL)
    for _ in range(2000):
        v = propose_value(1.0 + 0.0j, CONT_PHASE, rng)
        want = complex(np.exp(1j * oracle_rng.uniform(0.0, 2.0 * np.pi)))
        assert same_bytes(np.complex128(v), np.complex128(want))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# ---------------------------------------------------------------- is_allowed


def test_is_allowed():
    assert is_allowed(1.0 + 0.0j, BINARY_PHASE)
    assert is_allowed(-1.0 + 0.0j, BINARY_PHASE)
    assert not is_allowed(0.9 + 0.0j, BINARY_PHASE)
    assert is_allowed(np.exp(0.77j), CONT_PHASE)
    assert not is_allowed(0.5 * np.exp(0.77j), CONT_PHASE)
    assert is_allowed(0.31 + 0.0j, CONT_AMP)
    assert not is_allowed(1.01 + 0.0j, CONT_AMP)
    assert not is_allowed(0.5 + 0.1j, CONT_AMP)
    assert is_allowed(0.5 + 0.0j, TRI_AMP)
    assert not is_allowed(0.4 + 0.0j, TRI_AMP)
