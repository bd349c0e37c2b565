"""Varshamov-Tenengolts and shifted-VT binary codes.

VT_a(n) is the set of binary length-n words with sum(i * x_i) = a mod (n+1)
(positions weighted 1..n); it corrects one deletion at an unknown position.
The shifted variant keeps the weighted checksum only mod P plus an overall
parity bit, and corrects one deletion whose position is known up to a window
of consecutive locations.

Each code is one prefix automaton (_PrefixCode): membership, the coded
decoders' codeword test and VT's deficiency read its states, so a word with
a symbol outside the alphabet is no member and no VT decoder input.

Word positions in the API are 0-based; the checksum weights are the classic
1-based ones.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from .channels import uniform_symbols
from .words import Word

_ENUM_LIMIT = 24


class DecodeFailure(Exception):
    """No codeword is consistent with the received word (decoder misuse)."""


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

    def fold(self, w: Word) -> int:
        """The state of the word w: prefix_state folded over w from 0."""
        state = 0
        for i, sym in enumerate(w, 1):
            state = self.prefix_state(state, i, sym)
        return state

    def is_member(self, w: Word) -> bool:
        return len(w) == self.n and self.fold(w) == self.accept

    def _search_1del(self, y: Word, lo: int, hi: int) -> Word:
        """The one member among the words that insert one symbol into y at
        a 0-based position in [lo, hi]; a DecodeFailure when there is none
        or more than one."""
        y = tuple(y)
        hits = set(filter(self.is_member, (y[:t] + (s,) + y[t:]
                                           for t in range(lo, hi + 1)
                                           for s in range(self.q))))
        if len(hits) != 1:
            raise DecodeFailure(f"expected exactly one consistent codeword "
                                f"in positions {lo}..{hi}, found {len(hits)}")
        return hits.pop()

    def enumerate_words(self) -> tuple:
        """All members in lexicographic order: _mask over MSB-first chunks
        of the 2^n binary words, whose numeric order is lexicographic."""
        n = self.n
        if n > _ENUM_LIMIT:
            raise ValueError(f"exhaustive enumeration limited to n <= "
                             f"{_ENUM_LIMIT}")
        out = []
        chunk = 1 << 16
        shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
        for start in range(0, 1 << n, chunk):
            vals = np.arange(start, min(start + chunk, 1 << n),
                             dtype=np.uint32)
            bits = ((vals[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
            out.extend(map(tuple, bits[self._mask(bits)].tolist()))
        return tuple(out)

    def _checksums(self, bits: np.ndarray) -> np.ndarray:
        """The weighted checksums of the rows of bits, as one float64 BLAS
        matmul with the weights 1..n; exact, as none reaches 2^53."""
        return bits.astype(np.float64) @ self._weights

    def sample(self, rng: np.random.Generator) -> Word:
        """A uniform member, by rejection in batches of 64 binary words.

        Each batch is rng.integers(0, 2, (64, n), dtype=np.uint8), and the
        generator ends as integers leaves it: integers never rejects for a
        range of 2, so each symbol is the top bit of the next byte of the
        buffered 32-bit stream (the held half-word when has_uint32 is set,
        then each raw word low half first).  A batch reads 8n raw words, so
        has_uint32 ends as it began and uinteger is the last word's high half.
        """
        bg = rng.bit_generator
        n = self.n
        state = bg.state
        held = (np.array([state["uinteger"]], "<u4").view(np.uint8)
                if state["has_uint32"] else None)
        while True:
            raw = bg.random_raw(8 * n)
            stream = raw.astype("<u8", copy=False).view(np.uint8)
            if held is not None:  # the held bytes come first
                stream = np.concatenate((held, stream))
                stream, held = stream[:64 * n], stream[64 * n:]
            batch = (stream >> 7).reshape(64, n)
            idx = np.flatnonzero(self._mask(batch))
            if idx.size:
                break
        if n:
            state = bg.state
            state["uinteger"] = int(raw[-1] >> 32)
            bg.state = state
        return tuple(batch[idx[0]].tolist())


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
        return tuple(uniform_symbols(rng, self.q, self.n).tolist())


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
        self._weights = np.arange(1.0, n + 1)

    def _step(self, state: int, i: int, sym: int) -> int:
        return (state + i * sym) % (self.n + 1)

    def _mask(self, bits: np.ndarray) -> np.ndarray:
        return self._checksums(bits) % (self.n + 1) == self.a

    def decode_1del(self, y: Word) -> Word:
        """The unique codeword whose single-deletion ball contains y.

        One insertion rule (Levenshtein, 1966): with deficiency
        d = (a - fold(y)) mod (n+1), fold(y) being y's weighted checksum,
        and w ones in y, put a 0 right after the (w-d)-th 1 when d <= w,
        else a 1 right after the (d-w-1)-th 0 (the 0-th of either is the
        start of the word).  A word that is not binary is refused.
        """
        if len(y) != self.n - 1:
            raise ValueError(f"expected length {self.n - 1}, got {len(y)}")
        y = tuple(y)
        state = self.fold(y)
        if state == DEAD:
            raise ValueError("VT decoding needs a binary word")
        w = sum(y)
        d = (self.a - state) % (self.n + 1)
        sym, count = (0, w - d) if d <= w else (1, d - w - 1)
        cut = ([0] + [i + 1 for i, s in enumerate(y) if s != sym])[count]
        return y[:cut] + (sym,) + y[cut:]

    def decode_1del_search(self, y: Word) -> Word:
        """Oracle decoder: the unique member of I_1(y) in the code."""
        return self._search_1del(y, 0, len(y))


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
        self._weights = np.arange(1.0, n + 1)
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
        return ((self._checksums(bits) % self.P == self.a)
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
        return self._search_1del(y, max(0, window_start),
                                 min(self.n - 1, window_start + self.P - 2))


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
