"""The pure-Python `default_rng` stream against numpy's, stage by stage."""

import numpy as np
import pytest

from railplan.pcg64 import Generator, seed_words

# small seeds, each word-count boundary of the seed, and seeds of more than
# the pool's four words, whose extra words are mixed in last
SEEDS = [
    0, 1, 2, 3, 5, 7, 42, 1234, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7,
    2**63, 2**64 - 1, 2**64, 2**96 + 5, 2**127, 2**128 - 1, 2**128 + 12345, 2**160 - 1,
    2**200 + 17, 12345678901234567890123456789,
] + [int(v) for v in np.random.default_rng(2026).integers(0, 2**62, size=10)]


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_sequence_words(seed):
    want = np.random.SeedSequence(seed).generate_state(8, np.uint32).tolist()
    assert seed_words(seed) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_state(seed):
    want = np.random.PCG64(seed).state["state"]
    g = Generator(seed)
    assert (g.state, g.inc) == (want["state"], want["inc"])


def _call(rng, shape, arg):
    """One draw of a GA call shape, as Python values."""
    if shape == "integers(k)":
        return int(rng.integers(arg))
    if shape == "integers(0, 2, size=n)":
        return [int(v) for v in rng.integers(0, 2, size=arg)]
    if shape == "random()":
        return float(rng.random())
    if shape == "random(n)":
        return [float(v) for v in rng.random(arg)]
    return [float(v) for v in rng.uniform(0.75, 1.25, size=arg)]


SHAPES = ["integers(k)", "integers(0, 2, size=n)", "random()", "random(n)", "uniform(0.75, 1.25, size=n)"]


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_default_rng(seed):
    # a random script of the five call shapes: an odd number of 32-bit draws
    # leaves a half buffered across random() calls, and integers(k) redraws
    # where Lemire's rejection bites
    script = np.random.default_rng(seed % 997)
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for _ in range(80):
        shape = SHAPES[int(script.integers(len(SHAPES)))]
        arg = int(script.integers(1, 60)) if shape == "integers(k)" else int(script.integers(0, 45))
        assert _call(ours, shape, arg) == _call(theirs, shape, arg), shape
    assert ours.state == theirs.bit_generator.state["state"]["state"]


def test_lemire_rejections_and_wide_spans_match():
    # spans just above 2**31 reject about half their first draws
    ours, theirs = Generator(11), np.random.default_rng(11)
    for low, high in [(0, 2**31 + 1), (-5, 2**32 - 6), (3, 2**31 + 3), (0, 3), (-7, 0)]:
        assert ours.integers(low, high, size=40) == theirs.integers(low, high, size=40).tolist()


def test_a_single_value_span_and_empty_sizes_draw_nothing():
    ours, theirs = Generator(9), np.random.default_rng(9)
    state = ours.state
    assert ours.integers(1) == int(theirs.integers(1)) == 0
    assert ours.integers(4, 5, size=3) == theirs.integers(4, 5, size=3).tolist() == [4, 4, 4]
    for shape in ("integers(0, 2, size=n)", "random(n)", "uniform(0.75, 1.25, size=n)"):
        assert _call(ours, shape, 0) == _call(theirs, shape, 0) == []
    assert ours.state == state
    assert _call(ours, "random(n)", 5) == _call(theirs, "random(n)", 5)


def test_negative_seed_raises_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)


def test_spans_not_implemented_raise():
    g = Generator(1)
    for low, high in [(0, 2**32), (0, 2**40), (-(2**63), 2**63 - 1)]:
        with pytest.raises(NotImplementedError):
            g.integers(low, high, size=2)
    with pytest.raises(NotImplementedError):
        g.integers(2**33)
    for high in (0, -3):  # numpy raises ValueError here too
        with pytest.raises(ValueError):
            np.random.default_rng(1).integers(high)
        with pytest.raises(ValueError):
            g.integers(high)
    assert g.state == Generator(1).state
