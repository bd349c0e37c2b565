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
from itertools import combinations, combinations_with_replacement
from math import comb, prod

import numpy as np

from .words import Word

# insertion_ball_blocks's ball words per block (BENCH_canonical_ball.json)
BALL_WORDS = 1 << 15


def embedding_number(x: Word, y: Word) -> int:
    """Number of index subsets I of x with x_I = y.

    The embedding DP in the band d = |x| - |y| outside which no cell
    reaches the final count: row i holds Emb(x[:i]; y[:j]) for j in
    [max(0, i-d), min(i, |y|)], and reads only row i-1's cells j-1 and j,
    so one list updated from the right holds it.  O(|x| * (d + 1)) time.
    Zero iff y is not a subsequence of x; embedding_number(x, x) = 1.  The
    plain reference for each lane of EmbeddingLanes, one trace or several,
    and for _ball_weights, which runs this recurrence over many words.
    """
    m, d = len(y), len(x) - len(y)
    if d < 0:
        return 0
    row = [1] + [0] * m  # cell j of row i, for j in row i's band
    for i, sym in enumerate(x, 1):
        for j in range(min(i, m), max(i - d, 1) - 1, -1):
            if sym == y[j - 1]:
                row[j] += row[j - 1]
    return row[m]


# the former name of the banded loop, still imported by benchmarks/checks.py
# and benchmarks/tracing.py
embedding_number_banded = embedding_number


class EmbeddingLanes:
    """Banded embedding rows of length-`length` words x over [0, q) against
    the traces y_t, one int per row: lane T*k + t (T traces) of `width`
    bits holds cell k <= d_t of trace t; lanes above a band stay 0.

    Deletion form (d_t = length - |y_t|): lane k of trace t in row i holds
    Emb(x[:i]; y_t[:j]) at j = i - d_t + k (0 off [0, |y_t|]); the step
    row = (row >> T*width) + (row & mask) moves each trace down a lane.
    Insertion form (d_t = |y_t| - length): lane k holds Emb(y_t[:i + k];
    x[:i]); the step is a lane prefix sum by doubling (Hillis and Steele
    1986): row &= mask, row += row << s for s = T*width, 2*T*width, ...
    <= max(d_t)*T*width, row &= band.  Row i's mask for symbol c fills the
    lanes whose y_t symbol at the cell's new index is c; one table per
    symbol, built at construction, serves all traces.  A cell or partial
    sum of trace t (consecutive lanes of it) is at most comb(N, min(d_t,
    N // 2)), N = max(length, |y_t|); `width` is the largest such bit
    length plus one, so no lane carries and each top bit (`guard`) stays
    clear: one subtraction compares two rows lane by lane (dominates).
    """

    def __init__(self, traces, length: int, deletion: bool, q: int):
        T = len(traces)
        self.ds = ds = tuple((length - len(y)) * (1 if deletion else -1)
                             for y in traces)
        if min(ds) < 0:
            raise ValueError(f"no {'deletion' if deletion else 'insertion'} band for "
                             f"traces of lengths {[*map(len, traces)]} and {length}")
        self.deletion = deletion
        self.width = w = 1 + max(comb(n, min(d, n // 2)).bit_length() for n, d
                                 in zip((max(length, len(y)) for y in traces), ds))
        self._lane = lane = (1 << w) - 1
        self._step = s = T * w  # one lane of every trace
        self._steps = tuple(s << j for j in range(max(ds).bit_length()))
        tops = [lane << (T * d + t) * w for t, d in enumerate(ds)]
        ones = sum(((1 << (d + 1) * s) - 1) // ((1 << s) - 1) << t * w
                   for t, d in enumerate(ds))  # bit 0 of every lane in a band
        self.band = ones * lane
        self.guard = ones << (w - 1)
        # the lane of each trace's full count: 0 (deletion) or d_t
        self._shifts = [(T * d * (not deletion) + t) * w for t, d in enumerate(ds)]
        self.first = sum(top & ones for top in tops) if deletion else ones
        # c_t = y_t[i - 1] (deletion) or y_t[i + d_t - 1] (-1 off y_t) enters
        # trace t's top lane at row i (P rows before row 0 fill its insertion
        # masks).  Row i's key is sum_t c_t (q + 1)^(T-1-t), from -K up
        P = 0 if deletion else max(ds)
        for t, (y, d) in enumerate(zip(traces, ds)):
            new = tuple(y) + (-1,) * d if deletion else (-1,) * (P - d) + tuple(y)
            keys = [k * (q + 1) + c for k, c in zip(keys, new)] if t else new
        K = ((q + 1) ** T - 1) // q  # minus the key of (-1, ..., -1)
        self._masks = []  # per symbol, per row 0..length
        for c in range(q):
            enter = [0]  # the top lanes entering, per key from -K up
            for top in tops:
                enter = [e | top * (a == c) for e in enter for a in range(-1, q)]
            enter = enter[K:] + enter[:K]  # key k at index k (mod (q+1)^T)
            mk, masks = 0, [0]
            ap = masks.append
            for key in keys:
                mk = (mk >> s) | enter[key]
                ap(mk)
            self._masks.append(masks[P:])

    def extend(self, rows: list, path, start: int) -> None:
        """Cut `rows` (row i at index i) back to row `start` and append the
        rows of path[start:]."""
        del rows[start + 1:]
        masks, row, ap = self._masks, rows[-1], rows.append
        if self.deletion:
            s = self._step
            for i in range(start + 1, len(path) + 1):
                row = (row >> s) + (row & masks[path[i - 1]][i])
                ap(row)
        else:
            steps, band = self._steps, self.band
            for i in range(start + 1, len(path) + 1):
                row &= masks[path[i - 1]][i]
                for s in steps:
                    row += row << s
                row &= band
                ap(row)

    def count(self, row: int) -> int:
        """The product of the traces' Emb(x; y_t) (deletion) or Emb(y_t; x)
        (insertion), from the full row."""
        return prod((row >> sh) & self._lane for sh in self._shifts)

    def dominates(self, a: int, r: int) -> bool:
        """Whether every lane of row a is >= the same lane of row r, on every
        trace: each lane of (a | guard) - r keeps its guard bit iff it does
        not borrow."""
        return ((a | self.guard) - r) & self.guard == self.guard


def embedding_number_bruteforce(x: Word, y: Word) -> int:
    """Oracle: count embeddings by explicit recursion over index choices."""
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
