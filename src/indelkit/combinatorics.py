"""Embedding numbers, deletion/insertion balls, and maximal-run statistics.

Counts are exact Python ints (arbitrary precision); the average maximal-run
statistic is an exact Fraction.  Ball enumerations return sorted tuples of
distinct words (insertion_ball_weights also counts embeddings);
insertion_ball_blocks streams the binary insertion balls of many words as
blocks of int64 rows.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .words import Word

# insertion_ball_blocks's ball words per block (BENCH_canonical_ball.json)
BALL_WORDS = 1 << 15


def embedding_number(x: Word, y: Word) -> int:
    """Number of index subsets I of x with x_I = y.

    The embedding DP in the band d = |x| - |y| outside which no cell
    reaches the final count: row i holds Emb(x[:i]; y[:j]) for j in
    [max(0, i-d), min(i, |y|)], and reads only row i-1's cells j-1 and j.
    O(|x| * (d + 1)) time.  Zero iff y is not a subsequence of x;
    embedding_number(x, x) = 1.  The plain reference for EmbeddingLanes
    and for _ball_weights, which runs this recurrence over many words.
    """
    m = len(y)
    d = len(x) - m
    if d < 0:
        return 0
    if m == 0:
        return 1
    prev, plo = [1], 0  # row i-1 from column plo on
    for i, sym in enumerate(x, 1):
        lo = i - d
        if lo < 0:
            lo = 0
        hi = i if i < m else m
        row = []
        ap = row.append
        j = lo
        if j == 0:  # no diagonal term
            ap(prev[0])
            j = 1
        pl = len(prev)
        while j <= hi:  # only the cell j = i lacks a value above it
            pj = j - plo
            v = prev[pj] if pj < pl else 0
            if sym == y[j - 1]:
                v += prev[pj - 1]
            ap(v)
            j += 1
        prev, plo = row, lo
    return prev[-1]


# the former name of the banded loop, still imported by benchmarks/checks.py
# and benchmarks/tracing.py
embedding_number_banded = embedding_number


class EmbeddingLanes:
    """Banded embedding rows of length-`length` words x over [0, q) against
    the trace y, each row one int of d + 1 lanes of `width` bits.

    Deletion form (x a supersequence of y, d = length - |y|): lane k of row
    i holds Emb(x[:i]; y[:j]) at j = i - d + k (0 off [0, |y|]), and the
    step is row = (row >> width) + (row & mask).  Insertion form (x a
    subsequence of y, d = |y| - length): lane k of row i holds
    Emb(y[:i + k]; x[:i]), and the step is the transposed running sum
    along y, a lane prefix sum: row = ((row & mask) * ones) & band.  The
    mask of row i and symbol c fills lane k where y matches c at the cell's
    new index.  Every cell, and every partial lane sum of the product, is
    at most comb(N, min(d, N // 2)) with N = length (deletion) or |y|
    (insertion), and `width` is that bound's bit length plus one, so no
    step carries between lanes and the top bit of each lane, set in
    `guard`, stays clear; one subtraction then compares two rows lane by
    lane (dominates).  The masks of every row 0..length are built at
    construction, each a shift of the row above's.
    """

    def __init__(self, y: Word, length: int, deletion: bool, q: int):
        m = len(y)
        d = length - m if deletion else m - length
        if d < 0:
            raise ValueError(f"no {'deletion' if deletion else 'insertion'} "
                             f"band for |y| = {m} and length {length}")
        n = length if deletion else m
        self.d, self.deletion = d, deletion
        self.width = w = comb(n, min(d, n // 2)).bit_length() + 1
        self.band = (1 << (d + 1) * w) - 1
        self.ones = self.band // ((1 << w) - 1)
        self.guard = self.ones << (w - 1)
        self._lane = lane = (1 << w) - 1
        self._shift = 0 if deletion else d * w  # the lane of the full count
        self.first = 1 << d * w if deletion else self.ones
        # the y index (1-based) entering the top lane at row i is i + lag
        lag = 0 if deletion else d
        row0 = [0] * q  # row 0's: only insertion lanes 1..d meet y, at y[:d]
        for k in range(1, lag + 1):
            row0[y[k - 1]] |= lane << k * w
        # y's symbol entering the top lane at rows 1..length; -1 past y's end
        new = tuple(y[lag:]) + (-1,) * (length + lag - m)
        top = lane << d * w
        self._masks = []  # per symbol, per row
        for c, mk in enumerate(row0):
            masks = [mk]
            ap = masks.append
            for s in new:
                mk >>= w
                if s == c:
                    mk |= top
                ap(mk)
            self._masks.append(masks)

    def extend(self, rows: list, path, start: int) -> None:
        """Cut `rows` (row i at index i) back to row `start` and append the
        rows of path[start:], one big-int step each."""
        del rows[start + 1:]
        end = len(path)
        masks = self._masks
        row = rows[-1]
        ap = rows.append
        if self.deletion:
            w = self.width
            for i in range(start + 1, end + 1):
                row = (row >> w) + (row & masks[path[i - 1]][i])
                ap(row)
        else:
            ones, band = self.ones, self.band
            for i in range(start + 1, end + 1):
                row = ((row & masks[path[i - 1]][i]) * ones) & band
                ap(row)

    def count(self, row: int) -> int:
        """Emb(x; y) (deletion) or Emb(y; x) (insertion) from the full row."""
        return (row >> self._shift) & self._lane

    def dominates(self, a: int, r: int) -> bool:
        """Whether every lane of row a is >= the same lane of row r: each
        lane of (a | guard) - r keeps its guard bit iff it does not borrow."""
        return ((a | self.guard) - r) & self.guard == self.guard


def embedding_number_bruteforce(x: Word, y: Word) -> int:
    """Oracle: count embeddings by explicit recursion over index choices."""
    from itertools import combinations

    return sum(1 for idx in combinations(range(len(x)), len(y))
               if tuple(x[i] for i in idx) == y)


def deletion_ball(x: Word, t: int) -> tuple:
    """All distinct subsequences of x of length |x| - t, sorted."""
    if t < 0 or t > len(x):
        raise ValueError(f"deletion radius {t} out of range for |x| = {len(x)}")
    current = {tuple(x)}
    for _ in range(t):
        nxt = set()
        for w in current:
            for i in range(len(w)):
                nxt.add(w[:i] + w[i + 1:])
        current = nxt
    return tuple(sorted(current))


def insertion_ball_weights(y: Word, t: int, q: int) -> Counter:
    """Counter mapping each c in I_t(y) over [0, q) to Emb(c; y).

    Inserts t symbols at nondecreasing gaps of y, in order, so each c is
    built once per t-subset S of its positions with c minus S = y; the
    counts sum to C(|y| + t, t) * q^t.
    """
    if t < 0:
        raise ValueError("insertion radius must be non-negative")
    y, m = tuple(y), len(y)
    syms = [(s,) for s in range(q)]
    grown = [((), 0)]  # (word so far, gap of y it has reached)
    for _ in range(t):
        grown = [(w + y[a:b] + s, b) for w, a in grown
                 for b in range(a, m + 1) for s in syms]
    return Counter(w + y[a:] for w, a in grown)


def binary_words(ints, n: int) -> np.ndarray:
    """The binary length-n words whose integers are ints (any shape, first
    symbol most significant), as int8 symbols on a trailing axis of n: the
    word format of insertion_ball_blocks's rows and the exact sweeps."""
    ints = np.asarray(ints, dtype=np.int64)
    return ((ints[..., None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)


def insertion_ball_blocks(m: int, t: int, ys):
    """Yield (lo, words, weights) for consecutive row blocks of ys: int64
    arrays of shape (B, insertion_ball_size(m, t, 2)) whose row i is
    insertion_ball_weights(y, t, 2) for the binary length-m word y whose
    integer is ys[lo + i] (binary_words reads it), its words as sorted
    integers.

    Each word is built once, in its leftmost-embedding form (Levenshtein
    1966): of s_1..s_t inserted at gaps b_1 <= ... <= b_t, one at a gap
    b < m is the complement of y_b and the r at the end gap m are free, so
    a gap pattern (listed once per call) gives 2^r words, its base word
    plus each r-bit value.  y's segment between gaps b_j and b_(j+1) and
    the symbol forced at b_(j+1) move up t - j places: t + 1 masks and
    shifts of all ys at once.  Rows are sorted and weighed (_ball_weights)
    in blocks of about BALL_WORDS words (at least one row).
    """
    if t < 0:
        raise ValueError("insertion radius must be non-negative")
    ys = np.asarray(ys, dtype=np.int64).reshape(-1, 1)
    if (m < 0 or m + t > 40 or comb(m + t, t) > 1 << 20  # gap patterns
            or ys.size and (ys.min() < 0 or ys.max() >> m)):
        raise ValueError(f"need m + t <= 40, at most 2^20 gap patterns and "
                         f"ys of {m}-bit words")
    gaps = list(combinations_with_replacement(range(m + 1), t))
    b = np.array(gaps, dtype=np.int64).reshape(len(gaps), t)
    free = (b == m).sum(axis=1)  # end-gap symbols
    ends = np.pad(b, ((0, 0), (1, 1)), constant_values=(0, m))
    forced = (1 << m - ends[:, 1:]) >> 1  # y's bit at the next gap, or 0
    keep = (1 << m - ends[:, :-1]) - (1 << m - ends[:, 1:]) | forced
    block = max(1, BALL_WORDS // insertion_ball_size(m, t, 2))
    for lo in range(0, len(ys), block):
        blk = ys[lo:lo + block]
        base = sum(((blk ^ forced[:, j]) & keep[:, j]) << t - j
                   for j in range(t + 1))
        words = np.concatenate([(base[:, free == r, None] | np.arange(1 << r))
                                .reshape(len(blk), -1) for r in range(t + 1)], 1)
        words.sort(axis=1)
        yield lo, words, _ball_weights(words, blk, m, t)


def _ball_weights(words, ys, m: int, t: int) -> np.ndarray:
    """Emb(c; y) for the words c of each row of `words` and that row's y in
    ys: embedding_number's recurrence, one int32 lane per word (no cell
    exceeds C(m + t, t) <= 2^20).  Diagonal d holds cell j = i - d; at step
    i, from d = t down, it keeps its value where the mask (c_i - 1) ^ -y_j
    is all ones (c_i = y_j; a padded 0 at j = 0) and adds diagonal d - 1's."""
    n = m + t
    neg = -binary_words(ys[:, 0] << 1, m + 1).astype(np.int32)  # -y_j at j - 1
    words = words.astype(np.int32 if n < 32 else np.int64)
    diag = np.zeros((t + 1, *words.shape), np.int32)
    diag[0] = 1  # Emb(c[:0]; y[:0])
    for i in range(1, n + 1):
        sym = ((words >> n - i) & 1).astype(np.int32) - 1  # c_i - 1
        for d in range(min(t, i), max(i - m, 0) - 1, -1):
            diag[d] &= sym ^ neg[:, i - d - 1, None]
            if d:
                diag[d] += diag[d - 1]
    return diag[t].astype(np.int64)


def insertion_ball(x: Word, t: int, q: int) -> tuple:
    """All distinct supersequences of x of length |x| + t, sorted."""
    return tuple(sorted(insertion_ball_weights(x, t, q)))


def insertion_ball_size(n: int, t: int, q: int) -> int:
    """Closed form |I_t(x)| = sum_{i=0}^{t} C(n+t, i) (q-1)^i for |x| = n.

    Independent of the word's content.
    """
    return sum(comb(n + t, i) * (q - 1) ** i for i in range(t + 1))


def _compositions_max_part(n: int, k: int) -> int:
    """Number of compositions of n into parts of size in [1, k]."""
    if k <= 0:
        return 1 if n == 0 else 0
    counts = [1] + [0] * n
    window = 0  # counts[m - k] + ... + counts[m - 1], the last part j <= k
    for m in range(1, n + 1):
        window += counts[m - 1] - (counts[m - k - 1] if m > k else 0)
        counts[m] = window
    return counts[n]


def max_run_length_counts(n: int) -> list:
    """N[r] = number of binary length-n words whose maximal run length is r.

    Computed from run-length compositions: a binary word is the first symbol
    (2 choices) plus a composition of n into run lengths, so the number of
    words with all runs <= k is 2 * #compositions with parts <= k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    all_leq = [0] + [2 * _compositions_max_part(n, k) for k in range(1, n + 1)]
    return [0] + [all_leq[r] - all_leq[r - 1] for r in range(1, n + 1)]


def tau_of_space(n: int) -> Fraction:
    """Exact average maximal-run length over all 2^n binary words."""
    counts = max_run_length_counts(n)
    total = sum(r * counts[r] for r in range(1, n + 1))
    return Fraction(total, 2 ** n)
