"""LCS/SCS lengths and lexicographic walks over all shortest common
supersequences (and all longest common subsequences) of two words.

Both sets are the leaves of a deterministic DAG, one whose out-edges at
each node emit distinct symbols: the SCS DAG of the suffix-LCS table and
the next-occurrence LCS automaton (Greenberg, arXiv:cs/0301030).  Distinct
paths therefore spell distinct words, and an explicit-stack depth-first
walk that takes the edges in symbol order reaches them once each, in
lexicographic order, without recursion.  A cap stops the walk after the
first `cap` words and reports whether more exist; a caller that scores the
words may also skip subtrees at the branching nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .words import Word, lcs_bit_rows

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class ScsResult:
    """Extremal common-sequence enumeration result.

    candidates is a sorted tuple of distinct words, each of length `length`:
    all of them, or the lexicographically first `cap` with truncated set
    when more exist.
    """

    length: int
    candidates: tuple
    truncated: bool


def lcs_length(y1: Word, y2: Word) -> int:
    """Length of the longest common subsequence (row DP, O(min) memory)."""
    if len(y1) < len(y2):
        y1, y2 = y2, y1
    n = len(y2)
    if n == 0:
        return 0
    row = [0] * (n + 1)
    for a in y1:
        prev_diag = 0
        for j in range(1, n + 1):
            tmp = row[j]
            if a == y2[j - 1]:
                row[j] = prev_diag + 1
            elif row[j - 1] > row[j]:
                row[j] = row[j - 1]
            prev_diag = tmp
    return row[n]


def scs_length(y1: Word, y2: Word) -> int:
    """Length of the shortest common supersequence."""
    return len(y1) + len(y2) - lcs_length(y1, y2)


def _walk(descend, start, cap: int, skip=None):
    """Depth-first walk of a deterministic DAG, edges in symbol order.

    descend(path, *node) follows the node's chain of single out-edges,
    appending their symbols to `path`, and returns (node, out): the node it
    stops at and, if that node branches, its out-edges (symbol, child) in
    increasing symbol order, else none.  At each branching node,
    skip(path, shared, node), if given, may return true to skip the node's
    subtree.  At each of the first `cap` leaves, yields (path, shared, more):
    the symbols along the path (a list the walk goes on to change), and
    whether edges not yet taken remain.  In both calls, shared is the length
    of the prefix that the path kept since the previous branching node or
    leaf.
    """
    path: list = []
    stack: list = []  # (depth, symbol, node) of the edges not yet taken
    node, shared, leaves = start, 0, 0
    while True:
        node, out = descend(path, *node)
        if not out:
            leaves += 1
            yield path, shared, bool(stack)
            if leaves == cap:
                return
        elif skip is None or not skip(path, shared, node):
            shared = len(path)
            for sym, child in out[:0:-1]:
                stack.append((shared, sym, child))
            sym, node = out[0]
            path.append(sym)
            continue
        if not stack:
            return
        shared, sym, node = stack.pop()
        del path[shared:]
        path.append(sym)


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError("cap must be >= 1")


def scs_dag(y1: Word, y2: Word, cap: int = DEFAULT_CAP) -> tuple:
    """(length, walk): the SCS length of y1 and y2 and walk(skip=None), a
    `_walk` over their shortest common supersequences.

    A node is the pair (k1, k2) of unread suffix lengths.  When the next
    symbols agree, every shortest supersequence emits that symbol from both
    words (exchange argument); otherwise a symbol may come from either word
    whenever doing so keeps the suffix LCS, read off lcs_bit_rows of the
    reversed words.  Once one word is used up, the rest of the other
    follows.
    """
    _check_cap(cap)
    y1, y2 = tuple(y1), tuple(y2)
    m1, m2 = len(y1), len(y2)
    r1, r2 = y1[::-1], y2[::-1]
    rows = lcs_bit_rows(r1, r2)  # LCS of the suffixes: rows[k1] & low k2 bits

    def descend(path, k1, k2):
        ap = path.append
        while k1 and k2:
            a, b = r1[k1 - 1], r2[k2 - 1]
            if a == b:
                ap(a)
                k1 -= 1
                k2 -= 1
                continue
            row = rows[k1]
            if row >> (k2 - 1) & 1:  # reading b first would lose an LCS symbol
                ap(a)
                k1 -= 1
                continue
            low = (1 << k2) - 1
            if (rows[k1 - 1] & low).bit_count() < (row & low).bit_count():
                ap(b)
                k2 -= 1
                continue
            if a < b:
                return (k1, k2), ((a, (k1 - 1, k2)), (b, (k1, k2 - 1)))
            return (k1, k2), ((b, (k1, k2 - 1)), (a, (k1 - 1, k2)))
        path.extend(y1[m1 - k1:])
        path.extend(y2[m2 - k2:])
        return (k1, k2), ()

    return (m1 + m2 - rows[m1].bit_count(),
            partial(_walk, descend, (m1, m2), cap))


def lcs_dag(y1: Word, y2: Word, cap: int = DEFAULT_CAP) -> tuple:
    """(length, walk): the LCS length of y1 and y2 and walk(skip=None), a
    `_walk` over their longest common subsequences.

    A node is the pair (k1, k2) of unread suffix lengths.  Its edge for
    symbol c jumps past the next occurrence of c in both suffixes, kept
    only when the LCS of what remains is one shorter: each distinct LCS is
    the label of exactly one path, its leftmost embedding.
    """
    _check_cap(cap)
    r1, r2 = tuple(y1)[::-1], tuple(y2)[::-1]
    rows = lcs_bit_rows(r1, r2)
    occ1, occ2 = {}, {}  # symbol -> bit mask of its positions, reversed
    for occ, r in ((occ1, r1), (occ2, r2)):
        for pos, c in enumerate(r):
            occ[c] = occ.get(c, 0) | (1 << pos)
    alphabet = sorted(occ1.keys() & occ2.keys())

    def descend(path, k1, k2):
        while True:
            low1, low2 = (1 << k1) - 1, (1 << k2) - 1
            want = (rows[k1] & low2).bit_count() - 1
            if want < 0:
                return (k1, k2), ()
            out = []
            for c in alphabet:
                n1 = (occ1[c] & low1).bit_length() - 1
                n2 = (occ2[c] & low2).bit_length() - 1
                if (n1 >= 0 and n2 >= 0
                        and (rows[n1] & ((1 << n2) - 1)).bit_count() == want):
                    out.append((c, (n1, n2)))
            if len(out) > 1:
                return (k1, k2), out
            (c, (k1, k2)), = out
            path.append(c)

    m1, m2 = len(r1), len(r2)
    return rows[m1].bit_count(), partial(_walk, descend, (m1, m2), cap)


def _collect(length: int, walk) -> ScsResult:
    words, more = [], False
    for path, _, more in walk():
        words.append(tuple(path))
    return ScsResult(length, tuple(words), more)


# `band` is accepted for callers that know how far the traces drift apart,
# but no walk needs it: for two deletion traces of a length-n word, a path
# through a node with j - i > n - |y1| (j symbols of y2 and i of y1 read)
# has length >= j + (|y1| - i) > n >= the SCS length, so no shortest path
# leaves the band; the insertion case is symmetric.


def enumerate_scs(y1: Word, y2: Word, band=None,
                  cap: int = DEFAULT_CAP) -> ScsResult:
    """All distinct shortest common supersequences of y1 and y2, in
    lexicographic order (the first `cap` of them); see scs_dag."""
    return _collect(*scs_dag(y1, y2, cap))


def enumerate_lcs(y1: Word, y2: Word, band=None,
                  cap: int = DEFAULT_CAP) -> ScsResult:
    """All distinct longest common subsequences of y1 and y2, in
    lexicographic order (the first `cap` of them); see lcs_dag."""
    return _collect(*lcs_dag(y1, y2, cap))
