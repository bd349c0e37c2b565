"""Exact evaluation of the k-deletion channel's one-trace decoders over the
whole binary space: the expected distance, and exhaustive sweeps of the
closed-form 2-deletion decoder and its sign condition.  Distances come
from numpy lanes running the bit-parallel LCS step of words.lcs_bit_rows."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import comb

import numpy as np

from .combinatorics import insertion_ball_size, insertion_ball_table
from .decoders import (_two_del_gap, get_decoder, ml_star_2del,
                       two_del_condition_poly)
from .words import runs


def exact_expected_distance(decoder: str, n: int, k: int = 1,
                            method: str = "auto") -> Fraction:
    """Exact expected normalized indel distance of a one-trace decoder over
    the k-deletion channel with the whole binary space as the code.

    Averages d_L(decoder(y), c) / n over all codewords c and channel
    outputs y, weighted by Emb(c; y) / C(n, k).  For k = 1 with a decoder
    that has an exact 1-deletion law in analysis (lazy, mlstar1, en:1) it
    returns the law where the law is defined, n >= 2; below that, and with
    `method="enumerate"`, it sums the exact objective of every output's
    decoding (_exact_enumerate).  Needs n >= 1 and 0 <= k <= n.
    """
    if method not in ("auto", "enumerate"):
        raise ValueError(f"method must be 'auto' or 'enumerate', not {method!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, not {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, not {k}")
    dec = get_decoder(decoder, 1, "kdel")
    if k == 1 and n >= 2 and method == "auto" and dec.fast_1del is not None:
        return dec.fast_1del(n)
    return _exact_enumerate(dec, n, k)


def _symbol_masks(cs, n: int, dtype) -> tuple:
    """(m0, m1) for the length-n binary words cs (integers, first symbol
    most significant, any shape): bit t of m_s is set iff symbol t is s."""
    cs = np.asarray(cs, dtype=dtype)
    m1 = np.zeros_like(cs)
    for t in range(n):
        m1 |= ((cs >> n - 1 - t) & 1) << t
    return dtype((1 << n) - 1) ^ m1, m1


def _lcs_step(v: np.ndarray, match: np.ndarray, full) -> np.ndarray:
    """words.lcs_bit_rows's step on numpy lanes `full` bits wide, with
    each lane's mask of the next symbol in `match` (0 holds a lane); a new
    array, built with two temporaries."""
    u = v & match
    out = v + u
    out |= np.subtract(v, u, out=u)
    out &= full
    return out


EXACT_LANES = 1 << 12  # (y, c) lanes of one exact-pass block


def _exact_enumerate(dec, n: int, k: int) -> Fraction:
    """objective_f(y, dec(y), k) summed over all outputs y, over 2^n n
    C(n, k), in blocks of at most EXACT_LANES lanes (or one ball).

    Each y is decoded on its own; the block's balls are one
    insertion_ball_table, and one LCS pass (_lcs_step, one uint32 lane
    per (y, c)) runs over the symbols of x = dec(y), a lane holding still
    once its x has ended.  d_L(x, c) = |x| - n + 2 popcount(v).
    """
    if n - k < 0:
        raise ValueError("k cannot exceed n")
    if 2 ** (n - k) * 2 ** k * n > 2 ** 26:
        raise ValueError(f"enumeration infeasible for n = {n}, k = {k}")
    assert n < 32  # v + u < 2^(n+1) fits a uint32 lane
    m, full = n - k, np.uint32((1 << n) - 1)
    rows = max(1, EXACT_LANES // insertion_ball_size(m, k, 2))
    outputs = product((0, 1), repeat=m)  # y's integer is its index
    total = 0
    for lo in range(0, 1 << m, rows):
        xs = [dec.decode((y,), k)[0] for y in islice(outputs, rows)]
        words, weights = insertion_ball_table(m, k, range(lo, lo + len(xs)))
        m0, m1 = _symbol_masks(words, n, np.uint32)
        lens = np.array([len(x) for x in xs])
        syms = np.array([x + (-1,) * (lens.max() - len(x)) for x in xs],
                        dtype=np.int8)  # -1: x has ended
        v = np.full(words.shape, full)
        for col in syms.T:
            col = col[:, None]
            v = _lcs_step(v, np.where(col == 1, m1, np.where(col == 0, m0, 0)),
                          full)
        dist = 2 * np.bitwise_count(v).astype(np.int64) + (lens - n)[:, None]
        total += int((weights * dist).sum())
    return Fraction(total, (2 ** n) * n * comb(n, k))


# ---------------------------------------------------------------------------
# exhaustive 2-deletion verification sweeps


def sweep_two_del_condition(n: int) -> dict:
    """Compare, for every y in Sigma_2^(n-2), the sign of the exact
    lazy-versus-prolong gap against the closed-form condition polynomial
    two_del_condition_poly; returns the word count and the violators, each
    {"y", "gap", "poly"}.  The gap is two_del_lazy_en_gap_fast, O(n) per y,
    so the sweep takes O(n 2^n) time."""
    if n < 2:
        raise ValueError(f"condition sweep needs n >= 2, not {n}")
    violations = []
    for y in product((0, 1), repeat=n - 2):
        prof = runs(y)
        poly = two_del_condition_poly(n, prof.r_max, prof.r)
        gap = _two_del_gap(y, prof)
        if (gap >= 0) != (poly >= 0):
            violations.append({"y": y, "gap": gap, "poly": poly})
    return {"n": n, "words": 2 ** (n - 2), "violations": violations}


WINDOW_BLOCK = 128  # codewords c whose candidate trie is walked at once
WINDOW_N = range(3, 14)  # the code lengths n the window sweep supports


def _window_distance_rows(n: int, cs) -> np.ndarray:
    """int8 rows D[i, x] = d_L(x, cs[i]) for the length-n binary words cs
    (integers, first symbol most significant) and every candidate x of
    length n-2 .. n+1: the four length classes side by side, each in
    lexicographic order.

    In that order the candidates are the levels n-2 .. n+1 of the binary
    trie of the length-(n+1) words, so one pass down the trie gives them
    all: each level's LCS bit vectors against c (_lcs_step, one lane per
    trie node and per c) extend by one symbol to the next level's,
    sum_j 2^j steps per c in all.  Then d_L(x, c) = |x| + n - 2 LCS(x, c)
    with LCS(x, c) = n - popcount(v).  The lanes are uint16: v + u <
    2^(n+1) for n <= 13.
    """
    full = np.uint16((1 << n) - 1)
    masks = _symbol_masks(np.asarray(cs)[:, None], n, np.uint16)
    rows = np.empty((len(cs), 15 << (n - 2)), dtype=np.int8)
    v = np.full((len(cs), 1), full)
    col = 0
    for depth in range(1, n + 2):
        child = np.empty((len(cs), v.shape[1], 2), dtype=np.uint16)
        for s, m in enumerate(masks):
            child[:, :, s] = _lcs_step(v, m, full)
        v = child.reshape(len(cs), -1)
        if depth >= n - 2:
            rows[:, col:col + v.shape[1]] = (
                2 * np.bitwise_count(v).astype(np.int8) + (depth - n))
            col += v.shape[1]
    return rows


def _window_table(n: int) -> np.ndarray:
    """D[c, x] = d_L(x, c) for every c in Sigma_2^n (row c is the word
    whose integer is c) and every window candidate x, as
    _window_distance_rows lays them out; built WINDOW_BLOCK rows at a
    time so the trie's temporaries stay small."""
    table = np.empty((1 << n, 15 << (n - 2)), dtype=np.int8)
    for lo in range(0, 1 << n, WINDOW_BLOCK):
        hi = min(lo + WINDOW_BLOCK, 1 << n)
        table[lo:hi] = _window_distance_rows(n, np.arange(lo, hi))
    return table


def _window_scores(table: np.ndarray, words: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """objective_f(y, x, 2) of every window candidate x, in the table's
    column order, for the y whose insertion_ball_table row is (words,
    weights): the table rows of the ball words weighted by their embedding
    numbers (int16) and summed."""
    return (weights[:, None] * table[words]).sum(axis=0, dtype=np.int16)


def sweep_brute_force_window(n: int) -> dict:
    """For every y in Sigma_2^(n-2): brute-force the optimal-decoder
    objective over all binary words of length n-2 .. n+1 and record
    (a) winners outside lengths {n-2, n-1} and (b) outputs of the
    closed-form 2-deletion decoder that differ from a unique brute winner.

    The distances d_L(x, c) to every c in Sigma_2^n come from one
    bit-parallel pass over the trie of candidates (_window_distance_rows)
    into one c-major int8 table, 15 * 2^(2n-2) bytes (60 MiB at n = 12,
    240 MiB at n = 13).  The insertion balls of all y come from one
    insertion_ball_table, and each y gathers the table rows of its ball
    words and weights them by their embedding numbers (_window_scores).
    The int8 distances and int16 products and sums are exact for n <= 13:
    distances are at most 2n + 1, weights at most C(n, 2), and the weights
    sum to 4 C(n, 2), so no score exceeds 4 C(n, 2) (2n + 1) = 8424.
    """
    if n not in WINDOW_N:
        raise ValueError(f"sweep supports {WINDOW_N[0]} <= n <= "
                         f"{WINDOW_N[-1]}")
    assert 4 * comb(n, 2) * (2 * n + 1) < 2 ** 15
    table = _window_table(n)
    balls, weights = insertion_ball_table(n - 2, 2, range(1 << (n - 2)))
    weights = weights.astype(np.int16)
    offsets = np.cumsum([0] + [1 << L for L in range(n - 2, n + 2)])
    length_violations = []
    mismatches = []
    for y, words, w in zip(product((0, 1), repeat=n - 2), balls, weights):
        scores = _window_scores(table, words, w)
        best = int(np.argmin(scores))  # first minimum: shortest, then lex
        k = int(np.searchsorted(offsets, best, side="right")) - 1
        best_len = n - 2 + k
        if best_len not in (n - 2, n - 1):
            length_violations.append({"y": y, "winner_len": best_len})
        if np.count_nonzero(scores == scores[best]) == 1:
            v = best - int(offsets[k])
            winner = tuple((v >> (best_len - 1 - i)) & 1
                           for i in range(best_len))
            closed_form = ml_star_2del(y)
            if winner != closed_form:
                mismatches.append({"y": y, "winner": winner,
                                   "closed_form": closed_form})
    return {"n": n, "words": 2 ** (n - 2),
            "length_violations": length_violations,
            "mismatches": mismatches}
