"""Varshamov-Tenengolts and shifted-VT binary codes.

VT_a(n) is the set of binary length-n words with sum(i * x_i) = a mod (n+1)
(positions weighted 1..n); it corrects one deletion at an unknown position.
The shifted variant keeps the weighted checksum only mod P plus an overall
parity bit, and corrects one deletion whose position is known up to a window
of consecutive locations.

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
        mask = member_mask_fn(bits)
        for row in bits[mask]:
            out.append(tuple(int(b) for b in row))
    return tuple(out)


def _sample_member(n: int, rng: np.random.Generator, member_mask_fn) -> Word:
    """Uniform member via rejection sampling in fixed-size batches."""
    while True:
        batch = rng.integers(0, 2, size=(64, n), dtype=np.uint8)
        mask = member_mask_fn(batch)
        idx = np.flatnonzero(mask)
        if idx.size:
            return tuple(batch[idx[0]].tolist())


class AllWordsCode:
    """The whole space Sigma_q^n (no redundancy)."""

    kind = "all"

    def __init__(self, n: int, q: int = 2):
        self.n = n
        self.q = q

    def is_member(self, w: Word) -> bool:
        return len(w) == self.n and all(0 <= s < self.q for s in w)

    def prefix_state(self, state: int, i: int, sym: int) -> int:
        """State of a prefix after appending sym at 1-based position i to a
        prefix in `state` (0 for the empty prefix).  Two prefixes of one
        length in the same state complete to members alike: here, whether a
        symbol fell outside the alphabet."""
        return state if 0 <= sym < self.q else 1

    def enumerate_words(self) -> tuple:
        if self.n * log2(self.q) > _ENUM_LIMIT:
            raise ValueError("space too large to enumerate")
        from itertools import product
        return tuple(product(range(self.q), repeat=self.n))

    def sample(self, rng: np.random.Generator) -> Word:
        return tuple(rng.integers(0, self.q, size=self.n).tolist())


class VtCode:
    """VT_a(n): binary words with weighted checksum a mod (n+1)."""

    kind = "vt"
    corrects_single_deletion = True

    def __init__(self, n: int, a: int = 0):
        if not 0 <= a <= n:
            raise ValueError("residue a must be in [0, n]")
        self.n = n
        self.a = a
        self._weights = np.arange(1, n + 1, dtype=np.int64)

    def checksum(self, w: Word) -> int:
        return sum((i + 1) * s for i, s in enumerate(w)) % (self.n + 1)

    def is_member(self, w: Word) -> bool:
        return len(w) == self.n and self.checksum(w) == self.a

    def prefix_state(self, state: int, i: int, sym: int) -> int:
        """As AllWordsCode.prefix_state: the checksum of the prefix."""
        return (state + i * sym) % (self.n + 1)

    def _mask(self, bits: np.ndarray) -> np.ndarray:
        return (bits @ self._weights) % (self.n + 1) == self.a

    def enumerate_words(self) -> tuple:
        return _enumerate_members(self.n, self._mask)

    def sample(self, rng: np.random.Generator) -> Word:
        return _sample_member(self.n, rng, self._mask)

    def decode_1del(self, y: Word) -> Word:
        """The unique codeword whose single-deletion ball contains y.

        Classic weight rule: with deficiency D = (a - checksum(y)) mod (n+1)
        and w ones in y, a deleted 0 satisfies D = #ones right of it and a
        deleted 1 satisfies D = w + 1 + #zeros left of it.
        """
        if len(y) != self.n - 1:
            raise ValueError(f"expected length {self.n - 1}, got {len(y)}")
        s = sum((i + 1) * b for i, b in enumerate(y))
        w = sum(y)
        d = (self.a - s) % (self.n + 1)
        if d <= w:
            # A 0 was deleted with exactly d ones to its right.
            if d == 0:
                return tuple(y) + (0,)
            count = 0
            for i in range(len(y) - 1, -1, -1):
                if y[i] == 1:
                    count += 1
                    if count == d:
                        return y[:i] + (0,) + y[i:]
            raise DecodeFailure("inconsistent checksum")  # unreachable: d <= w
        # A 1 was deleted with exactly d - w - 1 zeros to its left.
        zeros_left = d - w - 1
        if zeros_left == 0:
            return (1,) + tuple(y)
        count = 0
        for i in range(len(y)):
            if y[i] == 0:
                count += 1
                if count == zeros_left:
                    return y[:i + 1] + (1,) + y[i + 1:]
        raise DecodeFailure("inconsistent checksum")

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


class SvtCode:
    """Shifted VT code: weighted checksum mod P plus an overall parity bit.

    Corrects one deletion whose position (0-based, in the transmitted word)
    is known to lie within a window of P - 1 consecutive locations.
    """

    kind = "svt"
    corrects_single_deletion = False

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
        self._weights = np.arange(1, n + 1, dtype=np.int64)

    def is_member(self, w: Word) -> bool:
        if len(w) != self.n:
            return False
        total = sum((i + 1) * s for i, s in enumerate(w))
        return total % self.P == self.a and sum(w) % 2 == self.b

    def prefix_state(self, state: int, i: int, sym: int) -> int:
        """As AllWordsCode.prefix_state: twice the prefix's weighted sum mod
        P, plus its parity."""
        return 2 * ((state // 2 + i * sym) % self.P) + (state + sym) % 2

    def _mask(self, bits: np.ndarray) -> np.ndarray:
        return (((bits @ self._weights) % self.P == self.a)
                & (bits.sum(axis=1) % 2 == self.b))

    def enumerate_words(self) -> tuple:
        return _enumerate_members(self.n, self._mask)

    def sample(self, rng: np.random.Generator) -> Word:
        return _sample_member(self.n, rng, self._mask)

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
