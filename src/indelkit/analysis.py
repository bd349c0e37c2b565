"""Closed-form error approximations and bounds for the two-trace decoders,
plus the exact 1-deletion decoder laws.

The two-trace formulas are small-p approximations (the simulations are
expected to fall at or below them); the 1-deletion quantities are exact
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp

from .combinatorics import tau_of_space


@dataclass(frozen=True)
class TwoChannelFormulas:
    """Per-symbol error approximations for two independent channel copies."""

    q: int
    p: float
    n: int
    p_run: float         # same-run double-error rate
    p_alt: float         # alternating-ambiguity rate
    p_err_approx: float  # p_run + p_alt
    p_fail_bound: float  # lower bound on the uncoded success probability


def _two_channel_formulas(q: int, p: float, n: int, denom, alt
                          ) -> TwoChannelFormulas:
    """p_run = (q+1)/denom p^2, p_alt = alt p^2, total (3q-1)/denom p^2,
    success bound exp(-total n)."""
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    p_run = (q + 1) / denom * p * p
    p_alt = alt * p * p
    p_err = (3 * q - 1) / denom * p * p
    return TwoChannelFormulas(q, p, n, p_run, p_alt, p_err, exp(-p_err * n))


def two_del_formulas(q: int, p: float, n: int) -> TwoChannelFormulas:
    """Two deletion channels: p_run = (q+1)/(q-1) p^2, p_alt = 2 p^2,
    total (3q-1)/(q-1) p^2, success bound exp(-(3q-1)/(q-1) p^2 n)."""
    return _two_channel_formulas(q, p, n, q - 1, 2)


def two_ins_formulas(q: int, p: float, n: int) -> TwoChannelFormulas:
    """Two insertion channels: p_run = (q+1)/(q(q-1)) p^2, p_alt = (2/q) p^2,
    total (3q-1)/(q(q-1)) p^2."""
    return _two_channel_formulas(q, p, n, q * (q - 1), 2 / q)


def coded_success_bounds(q: int, p: float, n: int) -> dict:
    """Lower bounds on the two-trace success probability by code.

    uncoded: no run error and no alternating error anywhere;
    svt: additionally survives one alternating error;
    vt: additionally survives one alternating error or one run error.
    """
    if p == 0:
        return {"uncoded": 1.0, "vt": 1.0, "svt": 1.0}
    f = two_del_formulas(q, p, n)
    no_run = (1 - f.p_run) ** n
    no_alt = (1 - f.p_alt) ** n
    one_alt = n * f.p_alt * (1 - f.p_alt) ** (n - 1)
    one_run = n * f.p_run * (1 - f.p_run) ** (n - 1)
    base = no_run * no_alt
    svt = base + no_run * one_alt
    vt = svt + one_run * no_alt
    return {"uncoded": base, "vt": vt, "svt": svt}


def lazy_1del_law(n: int) -> Fraction:
    """Exact expected normalized distance of the lazy decoder (and of
    mlstar1, which decodes the same) over the 1-deletion channel with the
    whole binary space as the code: 1/n.

    I_1(y) holds n + 1 words whose embedding numbers sum to 2n, each at
    distance 1 from y, so every y in Sigma_2^(n-1) scores 2n and the total
    n * 2^n is divided by 2^n * n * C(n, 1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return Fraction(1, n)


def en1_1del_law(n: int) -> Fraction:
    """Exact expected normalized distance of the run-prolonging decoder en:1
    over the 1-deletion channel with the whole binary space as the code:
    (2n - 1 - tau(Sigma_2^(n-1))) / n^2.

    Growing the first longest run of y gives the word x of I_1(y) with
    Emb(x; y) = r_max + 1; x is at distance 2 from every other word of
    I_1(y), whose embedding numbers sum to 2n - r_max - 1, so y scores
    2 (2n - r_max - 1); summed over
    Sigma_2^(n-1) that is 2^n (2n - 1 - tau(n-1)), divided by 2^n * n * n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return (2 * n - 1 - tau_of_space(n - 1)) / (n * n)


def lazy_and_en_1del_analysis(n: int) -> tuple:
    """Exact (lazy_err, en_lower_bound) for the 1-deletion channel over the
    whole binary space: lazy_err = 1/n and the run-prolonging decoder's
    expected normalized distance is at least (2/n)(1 - tau(Sigma_2^n)/n)."""
    lazy_err = lazy_1del_law(n)
    en_lower = Fraction(2, n) * (1 - tau_of_space(n) / n)
    return lazy_err, en_lower
