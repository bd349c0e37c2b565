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

Both walks read only the words' differing middles.  Affix lemma: when y1
and y2 start with the same symbol a, every LCS and every SCS starts with a
(a common subsequence that skips a fits in the two rests, whose LCS is one
shorter; a supersequence's first symbol is the first symbol of a word it
covers), so the LCSs (SCSs) of y1 = P.X.S and y2 = P.Y.S are P.w.S for w
an LCS (SCS) of X and Y, in the same lexicographic order.  Reversal gives
the suffix.  The walk's path starts as P (words.common_affixes) and each
leaf ends with S.  Both walks share one set-up (_setup): the cap check,
the affix trim, the reversed middles, the second middle's symbol masks and
the bit-parallel LCS rows built from those same masks.  Stretch rule (the
"snakes" of Myers' O(ND) diff): the lemma holds at every node, so where
the unread parts of the two middles start alike, both walks emit that
common stretch without testing an edge.
No other edge leaves such a node: in the LCS walk, an edge for a symbol
c other than the stretch's head a either skips the common segment up to
c's next occurrence in the stretch, or jumps past the whole stretch, and
either way its target's LCS is at least 2 below the node's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .words import Word, common_affixes, lcs_bit_rows, symbol_masks

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


def _walk(descend, start, cap: int, prefix, suffix, skip=None):
    """Depth-first walk of a deterministic DAG, edges in symbol order; each
    path starts with `prefix` and each leaf ends with `suffix`.

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
    path: list = list(prefix)
    stack: list = []  # (depth, symbol, node) of the edges not yet taken
    node, shared, leaves = start, 0, 0
    while True:
        node, out = descend(path, *node)
        if not out:
            leaves += 1
            path.extend(suffix)
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


def _setup(y1: Word, y2: Word, cap: int) -> tuple:
    """(prefix, suffix, r1, r2, occ2, rows), the set-up of both walks: the
    words' common affixes (words.common_affixes), the reversed middles r1
    and r2 between them, r2's symbol_masks, and the lcs_bit_rows of r1
    against r2, so that (rows[k1] & ((1 << k2) - 1)).bit_count() is the
    LCS of the middles' last k1 and k2 symbols."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    y1, y2 = tuple(y1), tuple(y2)
    i, j = common_affixes(y1, y2)
    r1, r2 = y1[i:len(y1) - j][::-1], y2[i:len(y2) - j][::-1]
    occ2 = symbol_masks(r2)
    return (y1[:i], y1[len(y1) - j:], r1, r2, occ2,
            lcs_bit_rows(r1, occ2, len(r2)))


def scs_dag(y1: Word, y2: Word, cap: int = DEFAULT_CAP) -> tuple:
    """(length, walk): the SCS length of y1 and y2 and walk(skip=None), a
    `_walk` over their shortest common supersequences.

    A node is the pair (k1, k2) of unread suffix lengths.  When the next
    symbols agree, every shortest supersequence emits that symbol from both
    words (exchange argument); otherwise a symbol may come from either word
    whenever doing so keeps the suffix LCS, read off the rows of _setup.
    Once one word is used up, the rest of the other follows.  Nodes and
    rows cover only the middles (see the module docstring).
    """
    prefix, suffix, r1, r2, _, rows = _setup(y1, y2, cap)
    m1, m2 = len(r1), len(r2)

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
        path.extend(reversed(r1[:k1]))
        path.extend(reversed(r2[:k2]))
        return (k1, k2), ()

    return (len(prefix) + m1 + m2 - rows[m1].bit_count() + len(suffix),
            partial(_walk, descend, (m1, m2), cap, prefix, suffix))


def lcs_dag(y1: Word, y2: Word, cap: int = DEFAULT_CAP) -> tuple:
    """(length, walk): the LCS length of y1 and y2 and walk(skip=None), a
    `_walk` over their longest common subsequences.

    A node is the pair (k1, k2) of unread suffix lengths of the middles.
    Its edge for symbol c jumps past the next occurrence of c in both
    suffixes, kept only when the LCS of what remains is one shorter: each
    distinct LCS is the label of exactly one path, its leftmost embedding.
    Where the unread suffixes start alike, the stretch rule (see the module
    docstring) emits their common prefix without testing the edges.
    """
    prefix, suffix, r1, r2, occ2, rows = _setup(y1, y2, cap)
    m1, m2 = len(r1), len(r2)
    occ1 = symbol_masks(r1)
    alphabet = sorted(occ1.keys() & occ2.keys())

    def descend(path, k1, k2):
        while True:
            while k1 and k2 and r1[k1 - 1] == r2[k2 - 1]:  # forced steps
                path.append(r1[k1 - 1])
                k1 -= 1
                k2 -= 1
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

    return (len(prefix) + rows[m1].bit_count() + len(suffix),
            partial(_walk, descend, (m1, m2), cap, prefix, suffix))


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
