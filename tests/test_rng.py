"""Tests for the seeded sub-streams every random draw comes from."""

import pytest

from holosearch.rng import substream


def test_substream_rejects_a_non_integer_seed():
    with pytest.raises(TypeError, match="^master_seed must be an integer, got float$"):
        substream(1.5, 0)


def test_substream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^master_seed must be non-negative$"):
        substream(-1, 0)
