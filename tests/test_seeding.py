"""Named RNG streams and the truncated-normal initialiser."""

import numpy as np

from desklm.seeding import rng_for, truncated_normal


def _whole_array_truncated_normal(rng, shape, std=0.02):
    """Reference: re-test the whole array after every redraw."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def test_truncated_normal_matches_the_whole_array_retest():
    # Re-testing only the redrawn entries draws the same numbers in the
    # same order and leaves the generator where the whole-array loop does.
    for seed in (0, 1, 7, 2024, 7919):
        for shape in ((0,), (1,), (7,), (64, 64)):
            for std in (0.02, 1.0):
                a, b = rng_for(seed, "test/tn"), rng_for(seed, "test/tn")
                got = truncated_normal(a, shape, std)
                want = _whole_array_truncated_normal(b, shape, std)
                assert got.shape == want.shape == shape
                assert got.tobytes() == want.tobytes(), (seed, shape, std)
                assert a.bit_generator.state == b.bit_generator.state
                assert np.all(np.abs(got) <= 2.0 * std)

