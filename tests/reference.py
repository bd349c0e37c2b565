"""Literal reference implementations that the tests check the library
against."""

from fractions import Fraction

import numpy as np

from indelkit.words import runs


def stream_rng(master_seed: int, point: int, trial: int, stream: int):
    """One stream's generator from numpy's own SeedSequence: the reference
    that harness._trial_rngs reproduces SEED_BLOCK trials at a time."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, point, trial, stream)))


def buffered_rng(seed: int) -> np.random.Generator:
    """default_rng(seed) left holding a buffered 32-bit half-word by an
    odd-sized draw, so that its next 32-bit draw reads no raw word."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 3, size=3)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def tau_of_space_bruteforce(n: int) -> Fraction:
    """Average maximal run over all 2^n binary words, by enumeration."""
    total = sum(runs(tuple((bits >> i) & 1 for i in range(n))).r_max
                for bits in range(2 ** n))
    return Fraction(total, 2 ** n)
