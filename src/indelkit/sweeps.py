"""Exact evaluation of the k-deletion channel's one-trace decoders over the
whole binary space: the expected distance, and exhaustive sweeps of the
closed-form 2-deletion decoder and its sign condition.  Each mirrors the
words that start with 0 to their complements.  Distances come from numpy
lanes running the bit-parallel LCS step of words.lcs_bit_rows.  The window
sweep and the brute-force optimum's expected distance (k = 1, 2) score
every candidate by one kernel, _window_scores, over one table of
distances."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .combinatorics import binary_words, insertion_ball_blocks
from .decoders import (brute_force_ml_star, get_decoder, ml_star_2del,
                       two_del_condition_poly)


def exact_expected_distance(decoder: str, n: int, k: int = 1,
                            method: str = "auto") -> Fraction:
    """Exact expected normalized indel distance of a one-trace decoder over
    the k-deletion channel with the whole binary space as the code.

    Averages d_L(decoder(y), c) / n over all codewords c and channel
    outputs y, weighted by Emb(c; y) / C(n, k).  For k = 1 with a decoder
    that has an exact 1-deletion law in analysis (lazy, mlstar1, en:1) it
    returns the law where the law is defined, n >= 2; below that, and with
    `method="enumerate"`, it sums the exact objective of every output's
    decoding (_exact_enumerate).  The brute-force optimum at n in WINDOW_N
    and k in {1, 2}, under either method, sums each output's least score
    instead (_window_optimum), reading the window table: 15 * 2^(2n-2)
    bytes, 60 MiB at n = 12 and 240 MiB at n = 13.  Needs n >= 1 and
    0 <= k <= n.
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
    if dec.fn is brute_force_ml_star and n in WINDOW_N and k in (1, 2):
        return _window_optimum(n, k)
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


ENUM_N = range(1, 22)  # the n whose 2^n outputs _exact_enumerate decodes


def _exact_enumerate(dec, n: int, k: int) -> Fraction:
    """objective_f(y, dec(y), k) summed over all outputs y, over 2^n n
    C(n, k), in the blocks of one insertion_ball_blocks stream over the y
    that start with 0 (the empty word once).  Complements keep Emb and d_L,
    so f(ybar, x) = f(y, xbar): y's ball scores dec(y) and the complement
    of dec(ybar), each output decoded on its own (picks need not commute
    with the complement), in two LCS passes (_lcs_step, one uint32 lane
    per (y, c)), a lane holding still once its x has ended.  Bit t of c's
    integer is symbol n - 1 - t, so the integers are the symbol masks of
    the reversed words and a pass reads x backwards: LCS(x, c) =
    LCS(x^R, c^R).  d_L(x, c) = |x| - n + 2 popcount(v).
    """
    if n - k < 0:
        raise ValueError("k cannot exceed n")
    # ENUM_N bounds the decodings (2^n n <= 2^26); the 2^(n-k-1) balls hold
    # insertion_ball_size(n - k, k, 2) words each, and 2^n C(n, k) <= 2^29
    # admits (21, 2), (16, 6) and (15, 7): under 9, 1 and 0.3 s on 2 CPUs
    if n not in ENUM_N or 2 ** n * comb(n, k) > 2 ** 29:
        raise ValueError(f"enumeration infeasible for n = {n}, k = {k}")
    assert n < 32  # v + u < 2^(n+1) fits a uint32 lane
    m, full = n - k, np.uint32((1 << n) - 1)
    ys = np.arange(1 << m >> 1 or 1)
    swap = bytes.maketrans(b"\0\1", b"\1\0")
    total = 0
    for lo, words, weights in insertion_ball_blocks(m, k, ys):
        B = len(words)
        own = binary_words(ys[lo:lo + B], m)
        xs = [bytes(dec.decode((tuple(y),), k)[0]) for y in own.tolist()]
        if m:
            xs += [bytes(dec.decode((tuple(y),), k)[0]).translate(swap)
                   for y in (1 - own).tolist()]
        lens, width = np.array([len(x) for x in xs]), max(map(len, xs))
        syms = np.frombuffer(b"".join(x.rjust(width, b"\xff") for x in xs),
                             np.int8).reshape(len(xs), width)
        # rows m0, m1, zeros: symbol s of pick i takes row s B + i % B, and
        # s = -1 (0xff: the right-aligned x has ended) counts into the zeros
        m1 = words.astype(np.uint32)
        masks = np.concatenate((full ^ m1, m1, np.zeros_like(m1)))
        cols = syms.T[::-1].astype(np.intp) * B + np.arange(len(xs)) % B
        for half in range(0, len(xs), B):  # dec(y), then dec(ybar)'s mirror
            v = np.full(words.shape, full)
            for col in cols[:, half:half + B]:
                v = _lcs_step(v, masks.take(col, axis=0), full)
            dist = 2 * np.bitwise_count(v) + lens[half:half + B, None] - n
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

    The y that start with 0 (at n = 2 the empty word) go in blocks of at
    most COND_BLOCK words, numbered as binary_words reads them, and one
    two_del_gaps pass gives their gaps, longest runs and run counts, the
    complements' too: O(n) numpy steps per block, O(n 2^n) work in all."""
    if n < 2:
        raise ValueError(f"condition sweep needs n >= 2, not {n}")
    m = n - 2
    half = 1 << m >> 1 or 1
    violations, mirrored = [], []  # ascending y; descending complements
    for lo in range(0, half, COND_BLOCK):
        words = binary_words(np.arange(lo, min(lo + COND_BLOCK, half)), m)
        gap, r_max, r = two_del_gaps(words)
        poly = two_del_condition_poly(n, r_max, r)
        for i in np.flatnonzero((gap >= 0) != (poly >= 0)):
            for y, out in ((words[i], violations), (1 - words[i], mirrored)):
                out.append({"y": tuple(y.tolist()), "gap": int(gap[i]),
                            "poly": int(poly[i])})
    return {"n": n, "words": 2 ** m,  # the empty word is its own complement
            "violations": violations + (mirrored[::-1] if m else [])}


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
    _window_distance_rows builds them, WINDOW_BLOCK rows at a time (small
    trie temporaries) for the c that start with 0.  Complements keep d_L,
    so row 2^n - 1 - c is row c with each length class reversed.

    The int8 distances, and the int16 products and sums of
    _window_scores, are exact for n <= 13: distances are at most 2n + 1,
    and a ball's embedding numbers sum to 4 C(n, 2) at k = 2 (2n at
    k = 1), so no score exceeds 4 C(n, 2) (2n + 1) = 8424."""
    assert 4 * comb(n, 2) * (2 * n + 1) < 2 ** 15
    table = np.empty((1 << n, 15 << (n - 2)), dtype=np.int8)
    half = 1 << (n - 1)
    for lo in range(0, half, WINDOW_BLOCK):
        hi = min(lo + WINDOW_BLOCK, half)
        table[lo:hi] = _window_distance_rows(n, np.arange(lo, hi))
    offsets = [(1 << L) - (1 << (n - 2)) for L in range(n - 2, n + 3)]
    for a, b in zip(offsets, offsets[1:]):
        table[half:, a:b] = table[half - 1::-1, b - 1:a - 1 if a else None:-1]
    return table


def _window_scores(table: np.ndarray, words: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """objective_f(y, x, k) of every candidate x of the table's columns,
    in their order, for the y whose insertion_ball_blocks row at radius k
    is (words, weights): the table rows of the ball words weighted by
    their embedding numbers and summed, in one int16 reduction with no
    ball-by-columns product array.  The weights must be int16 (einsum
    casts safely only into its int16 sum); _window_table bounds the sums.
    """
    return np.einsum("k,kx->x", weights, table[words], dtype=np.int16)


def _window_optimum(n: int, k: int) -> Fraction:
    """exact_expected_distance of the brute-force optimum at k = 1 or 2,
    n in WINDOW_N: its window, lengths n-k .. n+1, is the table's columns
    from level n-k on, and its pick scores the least f(y, x) over the
    window whatever the tie rule.  The least score is the same at y and
    its complement, so the y that start with 0 count twice."""
    table = _window_table(n)[:, (1 << (n - k)) - (1 << (n - 2)):]
    total = 0
    for _, balls, ws in insertion_ball_blocks(n - k, k,
                                              range(1 << (n - k - 1))):
        for words, w in zip(balls, ws.astype(np.int16)):
            total += int(_window_scores(table, words, w).min())
    return Fraction(2 * total, 2 ** n * n * comb(n, k))


def sweep_brute_force_window(n: int) -> dict:
    """For every y in Sigma_2^(n-2): brute-force the optimal-decoder
    objective over all binary words of length n-2 .. n+1 and record
    (a) winners outside lengths {n-2, n-1} and (b) outputs of the
    closed-form 2-deletion decoder that differ from a unique brute winner.

    The distances d_L(x, c) to every c in Sigma_2^n come from one
    c-major int8 table (_window_table), 15 * 2^(2n-2) bytes (60 MiB at
    n = 12, 240 MiB at n = 13).  The insertion balls of the y that start
    with 0 come in the blocks of one insertion_ball_blocks stream, and each
    y weights the table rows of its ball words by their embedding numbers
    (_window_scores).  Its complement ybar takes y's scores with each length
    class reversed, and its own first minimum: ties flip under complement.
    """
    if n not in WINDOW_N:
        raise ValueError(f"sweep supports {WINDOW_N[0]} <= n <= "
                         f"{WINDOW_N[-1]}")
    table = _window_table(n)
    ys = binary_words(np.arange(1 << (n - 2)), n - 2).tolist()
    offsets = np.cumsum([0] + [1 << L for L in range(n - 2, n + 2)])
    cands = [binary_words(np.arange(1 << L), L) for L in range(n - 2, n + 2)]
    perm = np.concatenate([np.arange(b - 1, a - 1, -1)
                           for a, b in zip(offsets, offsets[1:])])
    found = ([], []), ([], [])  # (length violations, mismatches) of y, ybar
    for lo, balls, ws in insertion_ball_blocks(n - 2, 2, range(1 << (n - 3))):
        for i, (words, w) in enumerate(zip(balls, ws.astype(np.int16)), lo):
            scores = _window_scores(table, words, w)
            for y, s, (lengths, mismatches) in (
                    (ys[i], scores, found[0]),
                    (ys[~i], scores[perm], found[1])):
                y, best = tuple(y), int(np.argmin(s))  # shortest, then lex
                k = int(np.searchsorted(offsets, best, side="right")) - 1
                if k > 1:
                    lengths.append({"y": y, "winner_len": n - 2 + k})
                if np.count_nonzero(s == s[best]) == 1:
                    winner = tuple(cands[k][best - offsets[k]].tolist())
                    if winner != ml_star_2del(y):
                        mismatches.append({"y": y, "winner": winner,
                                           "closed_form": ml_star_2del(y)})
    return {"n": n, "words": 2 ** (n - 2),  # ybar falls as y rises
            "length_violations": found[0][0] + found[1][0][::-1],
            "mismatches": found[0][1] + found[1][1][::-1]}
