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
