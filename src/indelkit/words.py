"""q-ary words, run decompositions, and the indel (Levenshtein) distance.

Words are plain tuples of small non-negative ints.  The alphabet size q is
passed explicitly to the operations whose meaning depends on it; nothing is
stored on the word itself.  All functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Word = tuple  # tuple of ints in [0, q)


def parse_word(s: str) -> Word:
    """Parse an ASCII digit string like "01001" into a word."""
    return tuple(int(ch) for ch in s)


def format_word(w: Word) -> str:
    """Render a word as an ASCII digit string."""
    return "".join(str(s) for s in w)


def check_word(w: Word, q: int) -> None:
    """Raise ValueError unless every symbol is in [0, q)."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    for s in w:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for alphabet size {q}")


@dataclass(frozen=True)
class RunProfile:
    """Decomposition of a word into maximal runs of equal symbols.

    longest_idx is the index of the first run of maximal length (-1 for the
    empty word, whose r_max is 0).
    """

    run_symbols: tuple
    run_lengths: tuple
    longest_idx: int
    r_max: int

    @property
    def r(self) -> int:
        return len(self.run_lengths)


def runs(w: Word) -> RunProfile:
    """Split w into maximal runs. The empty word has zero runs."""
    if not w:
        return RunProfile((), (), -1, 0)
    symbols = []
    lengths = []
    cur = w[0]
    count = 1
    for s in w[1:]:
        if s == cur:
            count += 1
        else:
            symbols.append(cur)
            lengths.append(count)
            cur = s
            count = 1
    symbols.append(cur)
    lengths.append(count)
    r_max = max(lengths)
    return RunProfile(tuple(symbols), tuple(lengths), lengths.index(r_max), r_max)


def reconstruct(profile: RunProfile) -> Word:
    """Inverse of runs()."""
    out = []
    for sym, length in zip(profile.run_symbols, profile.run_lengths):
        out.extend([sym] * length)
    return tuple(out)


def is_subsequence(y: Word, x: Word) -> bool:
    """True iff y can be obtained from x by deleting symbols (greedy scan)."""
    if len(y) > len(x):
        return False
    it = iter(x)
    return all(s in it for s in y)


def _alternates(w: Word, q: int) -> bool:
    """True iff w has period q and its first min(q, |w|) symbols differ."""
    return (len(set(w[:q])) == min(q, len(w))
            and all(a == b for a, b in zip(w, w[q:])))


def is_alternating(w: Word, q: int) -> bool:
    """True iff w reads off consecutive symbols of some cyclic order on all q symbols.

    Equivalent for q = 2 to "all runs have length 1".  Following a q-cycle
    means exactly: period q, and any q consecutive symbols distinct (so the
    first q, when w is that long, are all q symbols in the cycle's order).
    """
    check_word(w, q)
    return _alternates(w, q)


def is_two_symbol_alternating(w: Word) -> bool:
    """True iff w alternates between exactly two fixed symbols (ABAB...).

    This is the pattern behind the alternating-ambiguity error events of the
    two-trace decoders; for q = 2 it coincides with is_alternating.
    """
    return len(w) > 0 and _alternates(w, 2)


@lru_cache(maxsize=None)
def _indicator(c: int) -> bytes:
    """bytes.translate table sending byte c to b"1" and the rest to b"0"."""
    return bytes(49 if b == c else 48 for b in range(256))


def symbol_masks(w: Word) -> dict:
    """{c: mask} over the symbols c of w, bit t of mask set iff w[t] == c.

    Each mask of a longer word is one int(..., 2) of its reversed bytes
    translated to "0"/"1" digits, at C speed.
    """
    if len(w) > 16:  # shorter words are quicker with the loop below
        try:
            b = bytes(w[::-1])
        except ValueError:  # a symbol above 255
            pass
        else:
            return {c: int(b.translate(_indicator(c)), 2) for c in set(b)}
    masks: dict = {}
    for t, c in enumerate(w):
        masks[c] = masks.get(c, 0) | (1 << t)
    return masks


def lcs_bit_rows(x: Word, match: dict, m: int) -> list:
    """Bit-parallel LCS rows of x against the length-m word y whose
    symbol_masks are `match` (Hyyro 2004).

    rows[k] has bit t - 1 set iff LCS(x[:k], y[:t]) exceeds
    LCS(x[:k], y[:t - 1]), so LCS(x[:k], y[:t]) is
    (rows[k] & ((1 << t) - 1)).bit_count() for every k and t.  One
    `V = (V + U) | (V - U)` update on an m-bit int per symbol of x.  The
    caller passes y's masks, which its own walk reads too.
    """
    full = (1 << m) - 1
    v = full  # zero bits mark where the LCS row steps up
    rows = [0]
    get, ap = match.get, rows.append
    for a in x:
        u = v & get(a, 0)
        v = ((v + u) | (v - u)) & full
        ap(v ^ full)
    return rows


def common_affixes(x: Word, y: Word) -> tuple:
    """(i, j): the length i of the longest common prefix of x and y, and
    the length j of the longest common suffix of what remains, so that
    i + j <= min(|x|, |y|).

    The affixes P and S are exact to strip: the LCSs (SCSs) of P.X.S and
    P.Y.S are the words P.w.S for w an LCS (SCS) of the middles X and Y
    (see supersequences).
    """
    n = min(len(x), len(y))
    i = 0
    while i < n and x[i] == y[i]:
        i += 1
    j, n = 0, n - i
    while j < n and x[-1 - j] == y[-1 - j]:
        j += 1
    return i, j


def indel_distance(x: Word, y: Word) -> int:
    """Minimum number of insertions plus deletions transforming x into y.

    Substitutions are not allowed moves, so this equals
    |x| + |y| - 2*LCS(x, y), with the LCS from lcs_bit_rows run over the
    middles that common_affixes leaves (the affixes add to |x|, |y| and
    the LCS alike, and cancel).
    """
    if x == y:
        return 0
    i, j = common_affixes(x, y)
    x, y = x[i:len(x) - j], y[i:len(y) - j]
    lcs = lcs_bit_rows(x, symbol_masks(y), len(y))[-1].bit_count()
    return len(x) + len(y) - 2 * lcs
