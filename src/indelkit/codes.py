"""Varshamov-Tenengolts and shifted-VT binary codes.

VT_a(n) is the set of binary length-n words with sum(i * x_i) = a mod (n+1)
(positions weighted 1..n); it corrects one deletion at an unknown position.
The shifted variant keeps the weighted checksum only mod P plus an overall
parity bit, and corrects one deletion whose position is known up to a window
of consecutive locations.

Each code is one prefix automaton (_PrefixCode): membership and the coded
decoders' codeword test both read its states.

Word positions in the API are 0-based; the checksum weights are the classic
1-based ones.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from .combinatorics import insertion_ball
from .words import Word

_ENUM_LIMIT = 24


class DecodeFailure(Exception):
    """No codeword is consistent with the received word (decoder misuse)."""


def _enumerate_members(n: int, member_mask_fn) -> tuple:
    """All length-n binary member words in lexicographic order.

    member_mask_fn maps a (chunk, n) 0/1 uint8 matrix to a boolean mask.
    MSB-first encoding makes numeric order equal lexicographic order.
    """
    if n > _ENUM_LIMIT:
        raise ValueError(f"exhaustive enumeration limited to n <= {_ENUM_LIMIT}")
    out = []
    chunk = 1 << 16
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        vals = np.arange(start, stop, dtype=np.uint32)
        bits = ((vals[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        out.extend(map(tuple, bits[member_mask_fn(bits)].tolist()))
    return tuple(out)


def _sample_member(n: int, rng: np.random.Generator, member_mask_fn) -> Word:
    """Uniform member via rejection sampling in fixed-size batches."""
    while True:
        batch = rng.integers(0, 2, size=(64, n), dtype=np.uint8)
        mask = member_mask_fn(batch)
        idx = np.flatnonzero(mask)
        if idx.size:
            return tuple(batch[idx[0]].tolist())


DEAD = -1  # the absorbing prefix state of a symbol outside the alphabet


class _PrefixCode:
    """A code of length-n words over [0, q), read by a prefix automaton.

    Each code states its step, _step(state, i, sym): the state of a prefix
    in `state` (0 for the empty prefix) after appending the in-alphabet sym
    at 1-based position i.  Two prefixes of one length in the same state
    complete to members alike, and a word is a member exactly when it has
    length n and its folded state is `accept`.  The binary codes enumerate
    and sample their members through a numpy form of the same rule, _mask.
    """

    q = 2
    accept = 0
    corrects_single_deletion = False

    def prefix_state(self, state: int, i: int, sym: int) -> int:
        """The automaton's step; a symbol outside the alphabet leads to the
        absorbing state DEAD."""
        if state == DEAD or not 0 <= sym < self.q:
            return DEAD
        return self._step(state, i, sym)

    def is_member(self, w: Word) -> bool:
        if len(w) != self.n:
            return False
        state = 0
        for i, sym in enumerate(w, 1):
            state = self.prefix_state(state, i, sym)
        return state == self.accept

    def enumerate_words(self) -> tuple:
        return _enumerate_members(self.n, self._mask)

    def sample(self, rng: np.random.Generator) -> Word:
        return _sample_member(self.n, rng, self._mask)


class AllWordsCode(_PrefixCode):
    """The whole space Sigma_q^n (no redundancy): one live state."""

    kind = "all"

    def __init__(self, n: int, q: int = 2):
        self.n = n
        self.q = q

    def _step(self, state: int, i: int, sym: int) -> int:
        return 0

    def enumerate_words(self) -> tuple:
        if self.n * log2(self.q) > _ENUM_LIMIT:
            raise ValueError("space too large to enumerate")
        from itertools import product
        return tuple(product(range(self.q), repeat=self.n))

    def sample(self, rng: np.random.Generator) -> Word:
        return tuple(rng.integers(0, self.q, size=self.n).tolist())


class VtCode(_PrefixCode):
    """VT_a(n): binary words with weighted checksum a mod (n+1); the state
    of a prefix is its checksum."""

    kind = "vt"
    corrects_single_deletion = True

    def __init__(self, n: int, a: int = 0):
        if not 0 <= a <= n:
            raise ValueError("residue a must be in [0, n]")
        self.n = n
        self.a = self.accept = a
        self._weights = np.arange(1, n + 1, dtype=np.int64)

    def checksum(self, w: Word) -> int:
        return sum((i + 1) * s for i, s in enumerate(w)) % (self.n + 1)

    def _step(self, state: int, i: int, sym: int) -> int:
        return (state + i * sym) % (self.n + 1)

    def _mask(self, bits: np.ndarray) -> np.ndarray:
        return (bits @ self._weights) % (self.n + 1) == self.a

    def decode_1del(self, y: Word) -> Word:
        """The unique codeword whose single-deletion ball contains y.

        One insertion rule (Levenshtein, 1966): with deficiency
        d = (a - checksum(y)) mod (n+1) and w ones in y, put a 0 right after
        the (w-d)-th 1 when d <= w, else a 1 right after the (d-w-1)-th 0
        (the 0-th of either is the start of the word).
        """
        if len(y) != self.n - 1:
            raise ValueError(f"expected length {self.n - 1}, got {len(y)}")
        y = tuple(y)
        w = sum(y)
        d = (self.a - self.checksum(y)) % (self.n + 1)
        sym, count = (0, w - d) if d <= w else (1, d - w - 1)
        cut = ([0] + [i + 1 for i, s in enumerate(y) if s != sym])[count]
        return y[:cut] + (sym,) + y[cut:]

    def decode_1del_search(self, y: Word) -> Word:
        """Oracle decoder: the unique member of I_1(y) in the code."""
        hits = [c for c in insertion_ball(y, 1, 2) if self.is_member(c)]
        if len(hits) != 1:
            raise DecodeFailure(f"expected exactly one consistent codeword, "
                                f"found {len(hits)}")
        return hits[0]


def default_svt_window_modulus(n: int) -> int:
    """Default position-window modulus P = ceil(log2 n) + 2."""
    return ceil(log2(n)) + 2


class SvtCode(_PrefixCode):
    """Shifted VT code: weighted checksum mod P plus an overall parity bit;
    the state of a prefix is twice its weighted sum mod P, plus its parity.

    Corrects one deletion whose position (0-based, in the transmitted word)
    is known to lie within a window of P - 1 consecutive locations.
    """

    kind = "svt"

    def __init__(self, n: int, a: int = 0, P: int | None = None, b: int = 0):
        if P is None:
            P = default_svt_window_modulus(n)
        if not 2 <= P <= n + 1:
            raise ValueError("window modulus P must be in [2, n+1]")
        if not 0 <= a < P:
            raise ValueError("residue a must be in [0, P)")
        if b not in (0, 1):
            raise ValueError("parity bit b must be 0 or 1")
        self.n = n
        self.a = a
        self.P = P
        self.b = b
        self.accept = 2 * a + b
        self._weights = np.arange(1, n + 1, dtype=np.int64)
        # the prefix states reachable at each length (a 0 keeps the state)
        states = {0}
        for i in range(1, n + 1):
            states |= {self._step(s, i, 1) for s in states}
        if self.accept not in states:
            raise ValueError(f"SVT code n={n}, a={a}, P={P}, b={b} has no "
                             "codewords")

    def _step(self, state: int, i: int, sym: int) -> int:
        return 2 * ((state // 2 + i * sym) % self.P) + (state + sym) % 2

    def _mask(self, bits: np.ndarray) -> np.ndarray:
        return (((bits @ self._weights) % self.P == self.a)
                & (bits.sum(axis=1) % 2 == self.b))

    def decode_1del(self, y: Word, window_start: int) -> Word:
        """Reinsert the deleted symbol, known to have sat at a 0-based
        position in [window_start, window_start + P - 1) of the codeword.

        Tries every insertion in the window and keeps the codewords; the
        construction guarantees exactly one consistent word when the true
        position lies in the window, and a DecodeFailure signals misuse.
        """
        if len(y) != self.n - 1:
            raise ValueError(f"expected length {self.n - 1}, got {len(y)}")
        lo = max(0, window_start)
        hi = min(self.n - 1, window_start + self.P - 2)
        hits = set()
        for t in range(lo, hi + 1):
            for s in (0, 1):
                c = y[:t] + (s,) + y[t:]
                if self.is_member(c):
                    hits.add(c)
        if len(hits) != 1:
            raise DecodeFailure(f"expected exactly one consistent codeword in "
                                f"the window, found {len(hits)}")
        return hits.pop()


_CODE_KEYS = {"all": (), "vt": ("a",), "svt": ("a", "P", "b")}


def make_code(params: dict, n: int, q: int = 2):
    """Build a code from its experiment-config JSON form.

    {"code": "all"} | {"code": "vt", "a": 0} | {"code": "svt", "a": 0,
    "P": ..., "b": 0}; omitted parameters take the defaults above, and a
    key the kind does not read is an error.
    """
    kind = params.get("code", "all")
    if not isinstance(kind, str) or kind not in _CODE_KEYS:
        raise ValueError(f"unknown code kind {kind!r}")
    extra = sorted(set(params) - {"code", *_CODE_KEYS[kind]})
    if extra:
        raise ValueError(f"code {kind!r} takes no {', '.join(extra)}")
    for key, value in params.items():
        if key == "code" or (key == "P" and value is None):
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            kinds = "an int or null" if key == "P" else "an int"
            raise ValueError(f"code {kind!r} key {key!r} must be {kinds}, "
                             f"not {value!r}")
    if kind == "all":
        return AllWordsCode(n, q)
    if q != 2:
        raise ValueError(f"{kind.upper()} codes here are binary")
    if kind == "vt":
        return VtCode(n, a=params.get("a", 0))
    return SvtCode(n, a=params.get("a", 0), P=params.get("P"),
                   b=params.get("b", 0))
