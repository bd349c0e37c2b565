"""Embedding numbers, deletion/insertion balls, and maximal-run statistics.

Counts are exact Python ints (arbitrary precision); the average maximal-run
statistic is an exact Fraction.  Ball enumerations return sorted tuples of
distinct words (insertion_ball_weights also counts embeddings).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from .words import Word, runs


def embedding_row_step(prev, plo, i, sym, y, d, m):
    """Next banded row of Emb(x[:i]; y[:j]) after appending x_i = sym.

    `prev` holds row i-1 from column `plo` on; the new row covers the window
    j in [max(0, i-d), min(i, m)] with d = |x| - |y| and m = |y|, outside
    which no cell reaches the final count.  Only the cell j = i lacks a
    value above it, and j = 0 has no diagonal term.  Returns (row, lo).
    """
    lo = i - d
    if lo < 0:
        lo = 0
    hi = i if i < m else m
    row = []
    ap = row.append
    j = lo
    if j == 0:
        ap(prev[0])
        j = 1
    pl = len(prev)
    while j <= hi:
        pj = j - plo
        v = prev[pj] if pj < pl else 0
        if sym == y[j - 1]:
            v += prev[pj - 1]
        ap(v)
        j += 1
    return row, lo


def embedding_number(x: Word, y: Word) -> int:
    """Number of index subsets I of x with x_I = y.

    One embedding_row_step per symbol of x, on the band of cells that can
    reach the final count, O(|x| * (|x| - |y| + 1)) time.  Zero iff y is
    not a subsequence of x; embedding_number(x, x) = 1.
    """
    m = len(y)
    d = len(x) - m
    if d < 0:
        return 0
    if m == 0:
        return 1
    row, lo = [1], 0
    for i, sym in enumerate(x, 1):
        row, lo = embedding_row_step(row, lo, i, sym, y, d, m)
    return row[m - lo]


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
    lane (dominates).  The masks are built once per row, each a shift of
    the row above's, as the rows first need them.
    """

    def __init__(self, y: Word, length: int, deletion: bool, q: int):
        m = len(y)
        d = length - m if deletion else m - length
        if d < 0:
            raise ValueError(f"no {'deletion' if deletion else 'insertion'} "
                             f"band for |y| = {m} and length {length}")
        n = length if deletion else m
        self.d, self.deletion, self._y = d, deletion, tuple(y)
        self.width = w = comb(n, min(d, n // 2)).bit_length() + 1
        self.band = (1 << (d + 1) * w) - 1
        self.ones = self.band // ((1 << w) - 1)
        self.guard = self.ones << (w - 1)
        self._lane = (1 << w) - 1
        self._top = self._lane << d * w
        self._shift = 0 if deletion else d * w  # the lane of the full count
        # the y index (1-based) entering the top lane at row i is i + lag
        self._lag = 0 if deletion else d
        self.first = 1 << d * w if deletion else self.ones
        masks = [0] * q  # row 0's: only insertion lanes 1..d meet y, at y[:d]
        for k in range(1, self._lag + 1):
            masks[y[k - 1]] |= self._lane << k * w
        self._masks = [[mk] for mk in masks]  # per symbol, per row

    def _grow(self, end: int) -> None:
        """Append the masks of the rows up to `end`: each row's are the row
        above's shifted down one lane, with y's new index in the top lane."""
        w, top, lag = self.width, self._top, self._lag
        start = len(self._masks[0])
        # y's symbol entering the top lane per new row; -1 past y's end
        new = self._y[start + lag - 1:end + lag]
        new += (-1,) * (end + 1 - start - len(new))
        for c, masks in enumerate(self._masks):
            mk = masks[-1]
            ap = masks.append
            for s in new:
                mk >>= w
                if s == c:
                    mk |= top
                ap(mk)

    def extend(self, rows: list, path, start: int) -> None:
        """Cut `rows` (row i at index i) back to row `start` and append the
        rows of path[start:], one big-int step each."""
        del rows[start + 1:]
        end = len(path)
        masks = self._masks
        if len(masks[0]) <= end:
            self._grow(end)
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
    counts = [0] * (n + 1)
    counts[0] = 1
    for m in range(1, n + 1):
        counts[m] = sum(counts[m - j] for j in range(1, min(k, m) + 1))
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
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = max_run_length_counts(n)
    total = sum(r * counts[r] for r in range(1, n + 1))
    return Fraction(total, 2 ** n)


def tau_of_space_bruteforce(n: int) -> Fraction:
    """Oracle: average maximal run by enumerating all 2^n words (n <= ~20)."""
    if n > 24:
        raise ValueError("enumeration oracle limited to n <= 24")
    total = 0
    for bits in range(2 ** n):
        w = tuple((bits >> i) & 1 for i in range(n))
        total += runs(w).r_max
    return Fraction(total, 2 ** n)
