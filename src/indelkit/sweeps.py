"""Exact evaluation of the k-deletion channel's one-trace decoders over the
whole binary space: the expected distance, and exhaustive sweeps of the
closed-form 2-deletion decoder and its sign condition.  Distances come
from numpy lanes running the bit-parallel LCS step of words.lcs_bit_rows."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .combinatorics import (binary_words, insertion_ball_size,
                            insertion_ball_table)
from .decoders import get_decoder, ml_star_2del, two_del_condition_poly


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
    once its x has ended.  Bit t of c's integer is symbol n - 1 - t, so
    the integers are the symbol masks of the reversed words and the pass
    reads x backwards: LCS(x, c) = LCS(x^R, c^R).  d_L(x, c) = |x| - n +
    2 popcount(v).
    """
    if n - k < 0:
        raise ValueError("k cannot exceed n")
    # 2^n n bounds the outputs' decodings (k = 1 stops at n = 21, as
    # cli.ORACLE_N restates); the passes score 2^(n-k) balls of about
    # C(n, k) 2^k words, and 2^29 such lane-words still admit (21, 2),
    # (16, 6) and (15, 7), each about a minute or less on 2 CPUs
    if 2 ** n * n > 2 ** 26 or 2 ** n * comb(n, k) > 2 ** 29:
        raise ValueError(f"enumeration infeasible for n = {n}, k = {k}")
    assert n < 32  # v + u < 2^(n+1) fits a uint32 lane
    m, full = n - k, np.uint32((1 << n) - 1)
    rows = max(1, EXACT_LANES // insertion_ball_size(m, k, 2))
    total = 0
    for lo in range(0, 1 << m, rows):
        ys = np.arange(lo, min(lo + rows, 1 << m))
        xs = [dec.decode((tuple(y),), k)[0]
              for y in binary_words(ys, m).tolist()]
        words, weights = insertion_ball_table(m, k, ys)
        m1 = words.astype(np.uint32)
        m0 = full ^ m1
        lens = np.array([len(x) for x in xs])
        syms = np.array([x[::-1] + (-1,) * (lens.max() - len(x)) for x in xs],
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


def two_del_gaps(ys: np.ndarray) -> tuple:
    """(gap, r_max, r), int64 arrays over the rows of ys, a (B, m) array
    of binary words: decoders.two_del_lazy_en_gap of each row, and its
    longest-run length and run count as words.runs gives them.

    Every c in I_2(y) is at distance 1 or 3 from the prolonged word x
    (both contain y; lengths differ by 1), distance 1 exactly on I_1(x),
    and sum of Emb(c; y) over I_2(y) is 4*C(n, 2).  Hence the gap equals
    4*C(n, 2) - 2*s1 with s1 = sum_{c in I_1(x)} Emb(c; y).

    With L = |x| = |y| + 1, the L + 2 words of I_1(x) are each written
    once as c = x[:i] s x[i:] with s != x[i] or i = L.  An embedding of y
    in c either skips the inserted s, so it is an embedding in x, or maps
    some y_j onto it, with y[:j] in x[:i] (so j <= i) and y[j+1:] in x[i:]
    (so |y| - 1 - j <= L - i, i.e. j >= i - 2).  Hence
    s1 = (L + 2) Emb(x; y) + sum over i, s and j in {i-2, i-1, i} with
    y_j = s of Emb(x[:i]; y[:j]) * Emb(x[i:]; y[j+1:]).  The forward
    factors are the band-2 rows of the embedding DP, the backward ones the
    same rows of the reversed words.

    A run starts where a symbol differs from the one before, and x repeats
    the symbol ending the first longest run ((0,) for the empty word).
    The band-2 embedding rows run as 3 int64 cells per word (a fourth
    stays 0), forward over (x, y) and backward over the reversed words in
    one pass of O(m) numpy steps: row i holds Emb(x[:i]; y[:j]) at cell
    j - i + 2, and cells left of column 0 stay 0.
    """
    B, m = ys.shape
    L = m + 1
    pos = np.arange(m)
    starts = np.ones((B, m), dtype=bool)
    np.not_equal(ys[:, 1:], ys[:, :-1], out=starts[:, 1:])
    runlen = np.zeros((B, L), dtype=np.int64)  # column t + 1: run to y_t
    np.subtract(pos + 1, np.maximum.accumulate(starts * pos, axis=1),
                out=runlen[:, 1:])
    r_max = runlen.max(axis=1)
    ends = (runlen == r_max[:, None]).argmax(axis=1)  # 1 + its last index
    # pad[3 + t] = (y_t, y_(m-1-t)), then -2 (no match); xs[i] = (x_i,
    # x_(L-1-i)), then -1 (past x's end both symbols count)
    pad = np.zeros((m + 5, 2, B), dtype=np.int8)
    pad[3:m + 3, 0] = ys.T
    pad[3:m + 3, 1] = ys.T[::-1]
    pad[m + 3:] = -2
    xs = np.full((L + 1, 2, B), -1, dtype=np.int8)
    xs[:L, 0] = np.where(np.arange(L)[:, None] < ends, pad[3:L + 3, 0],
                         pad[2:L + 2, 0])
    xs[:L, 1] = xs[L - 1::-1, 0]
    # eq[i, k]: y_j == x_i at j = i - 2 + k (row i + 1 adds cell k of row i)
    eq = pad[np.arange(L + 1)[:, None] + np.arange(1, 4)] == xs[:, None]
    w = 2 * B
    rows = np.zeros((L + 1, 4 * w), dtype=np.int64)
    rows[0, 2 * w:3 * w] = 1  # Emb(; ) = 1 at j = 0
    low, high = rows[:, :3 * w], rows[:, w:]
    for match, prev, above, cur in zip(eq.reshape(L + 1, -1), low, high,
                                       low[1:]):
        np.multiply(match, prev, out=cur)
        cur += above
    rows = rows.reshape(L + 1, 4, 2, B)  # s1: forward row i, backward L - i
    terms = rows[:, :3, 0] * rows[::-1, 2::-1, 1]
    terms *= ~eq[:, :, 0]  # the inserted s = y_j differs from x_i
    s1 = (m + 3) * rows[L, 1, 0] + terms.sum(axis=(0, 1))
    return 2 * (m + 2) * (m + 1) - 2 * s1, r_max, starts.sum(axis=1)


# outputs y whose gaps one two_del_gaps pass takes: about 2.4 MiB at
# n = 20, and no slower than larger blocks
COND_BLOCK = 1 << 10


def sweep_two_del_condition(n: int) -> dict:
    """Compare, for every y in Sigma_2^(n-2), the sign of the exact
    lazy-versus-prolong gap against the closed-form condition polynomial
    two_del_condition_poly; returns the word count and the violators, each
    {"y", "gap", "poly"}, in lexicographic order of y.

    The y go in blocks of at most COND_BLOCK words, numbered as integers
    as binary_words reads them, and one two_del_gaps pass
    gives each block's gaps, longest runs and run counts: O(n) numpy steps
    per block, O(n 2^n) work in all."""
    if n < 2:
        raise ValueError(f"condition sweep needs n >= 2, not {n}")
    m = n - 2
    violations = []
    for lo in range(0, 1 << m, COND_BLOCK):
        words = binary_words(np.arange(lo, min(lo + COND_BLOCK, 1 << m)), m)
        gap, r_max, r = two_del_gaps(words)
        poly = two_del_condition_poly(n, r_max, r)
        for i in np.flatnonzero((gap >= 0) != (poly >= 0)):
            violations.append({"y": tuple(words[i].tolist()),
                               "gap": int(gap[i]), "poly": int(poly[i])})
    return {"n": n, "words": 2 ** (n - 2), "violations": violations}


WINDOW_BLOCK = 128  # codewords c whose candidate trie is walked at once
WINDOW_N = range(3, 14)  # the code lengths n the window sweep supports


def _window_distance_rows(n: int, cs) -> np.ndarray:
    """int8 rows D[i, x] = d_L(x, cs[i]) for the length-n binary words cs
    (integers as binary_words reads them) and every candidate x of
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
    # bit t of m1 (of m0) is set iff symbol t of c is 1 (is 0)
    bits = binary_words(np.asarray(cs)[:, None], n).astype(np.uint16)
    m1 = (bits << np.arange(n, dtype=np.uint16)).sum(axis=-1, dtype=np.uint16)
    masks = full ^ m1, m1
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
    ys = np.arange(1 << (n - 2))
    balls, weights = insertion_ball_table(n - 2, 2, ys)
    weights = weights.astype(np.int16)
    offsets = np.cumsum([0] + [1 << L for L in range(n - 2, n + 2)])
    cands = [binary_words(np.arange(1 << L), L) for L in range(n - 2, n + 2)]
    length_violations = []
    mismatches = []
    for y, words, w in zip(binary_words(ys, n - 2).tolist(), balls, weights):
        y = tuple(y)
        scores = _window_scores(table, words, w)
        best = int(np.argmin(scores))  # first minimum: shortest, then lex
        k = int(np.searchsorted(offsets, best, side="right")) - 1
        best_len = n - 2 + k
        if best_len not in (n - 2, n - 1):
            length_violations.append({"y": y, "winner_len": best_len})
        if np.count_nonzero(scores == scores[best]) == 1:
            winner = tuple(cands[k][best - offsets[k]].tolist())
            closed_form = ml_star_2del(y)
            if winner != closed_form:
                mismatches.append({"y": y, "winner": winner,
                                   "closed_form": closed_form})
    return {"n": n, "words": 2 ** (n - 2),
            "length_violations": length_violations,
            "mismatches": mismatches}
