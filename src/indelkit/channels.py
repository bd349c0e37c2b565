"""Samplers and conditional-probability evaluators for the three channels:
Del(p) (i.i.d. per-symbol deletion), Ins(p) (per-gap single insertion with a
uniform symbol), and k-Del (exactly k uniformly chosen deletions).

Samplers are deterministic functions of (input, seed): pass either an int
seed or a numpy Generator; per-trial/per-channel streams should be derived
by the caller (the harness builds them from
SeedSequence((master_seed, point, trial, channel))).

Probabilities for Del/Ins are exposed both as floats and as exact terms
(integer coefficient times powers of p, 1-p and 1/q) so that comparisons at
a fixed p never hinge on float cancellation; k-Del probabilities are exact
rationals.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from itertools import compress
from math import comb

import numpy as np

from .combinatorics import embedding_number
from .words import Word


# the JSON type of each field annotation that a config can mistype
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict,
               "tuple": list, "ChannelSpec": dict}


def json_fields(cls, d, what: str) -> dict:
    """d, a JSON object for the dataclass cls, once a ValueError has named
    any unknown key, missing field without a default, or mistyped value."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, not {d!r}")
    fs = {f.name: f for f in fields(cls)}
    unknown = sorted(d.keys() - fs.keys())
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}"
                         f"; expected some of {', '.join(fs)}")
    for name, f in fs.items():
        if name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{what} lacks the key {name!r}")
        elif (isinstance(d[name], bool)
              or not isinstance(d[name], _JSON_TYPES[f.type])):
            raise ValueError(f"{what} key {name!r} has the wrong JSON type: "
                             f"{d[name]!r}")
    return d


# the fields each channel kind reads, in its sampler's order (p: the grid's)
KIND_FIELDS = {"del": ("p",), "ins": ("p", "q"), "kdel": ("k",)}


@dataclass(frozen=True)
class ChannelSpec:
    """One of Del(p), Ins(p) over alphabet size q, or exact-k deletion; it
    reads and serializes only the fields KIND_FIELDS names for its kind.
    The experiment's grid sets p."""

    kind: str  # "del" | "ins" | "kdel"
    k: int = 0
    q: int = 2

    def __post_init__(self):
        reads = KIND_FIELDS.get(self.kind)
        if reads is None:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.q < 2:
            raise ValueError("q must be >= 2")
        # fields the kind does not read would be dropped by to_dict
        for f in fields(self)[1:]:
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} channels take no {f.name}")
        # transmit's call, bound once: the kind's sampler, then the grid p
        # where the kind reads it (first in KIND_FIELDS), then the spec's
        # own fields
        object.__setattr__(self, "_sampler", _SAMPLERS[self.kind])
        object.__setattr__(self, "_reads_p", reads[0] == "p")
        object.__setattr__(self, "_fixed", tuple(
            getattr(self, f) for f in reads if f != "p"))

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in ("kind", *KIND_FIELDS[self.kind])
                if f != "p"}

    def transmit(self, x: Word, p: float, rng) -> Word:
        """x through this channel, with p from the grid and q or k from the spec."""
        if self._reads_p:
            return self._sampler(x, p, *self._fixed, rng)
        return self._sampler(x, *self._fixed, rng)

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelSpec":
        return cls(**json_fields(cls, d, "channel"))


@dataclass(frozen=True)
class ProbTerm:
    """Exact factored probability coeff * p^a * (1-p)^b / q^c."""

    coeff: int
    p_pow: int
    one_minus_p_pow: int
    q_pow: int = 0

    def value(self, p, q: int = 2):
        return (self.coeff * p ** self.p_pow
                * (1 - p) ** self.one_minus_p_pow / q ** self.q_pow)


def _as_rng(rng) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def uniform_symbols(rng: np.random.Generator, q: int, size: int) -> np.ndarray:
    """rng.integers(0, q, size=size), the same int64 symbols from the same
    draws, with the generator left in the same state.

    For q = 2^k, 1 <= k <= 24, numpy's integers takes Lemire's path, which
    never rejects for such a range: each symbol is the top k bits of the
    next buffered 32-bit word u.  A float32 uniform reads the same u as
    (u >> 8) / 2^24, so times q it truncates to the same symbol from a
    cheaper call.  Any other q keeps integers."""
    if 2 <= q <= 1 << 24 and q & (q - 1) == 0:
        return (rng.random(size, dtype=np.float32) * q).astype(np.int64)
    return rng.integers(0, q, size=size)


def transmit_del(x: Word, p: float, rng) -> Word:
    """Delete every symbol of x independently with probability p."""
    rng = _as_rng(rng)
    return tuple(compress(x, (rng.random(len(x)) >= p).tolist()))


def transmit_ins(x: Word, p: float, q: int, rng) -> Word:
    """Insert, at each of the |x|+1 gaps independently with probability p,
    one symbol drawn uniformly from the alphabet (at most one per gap)."""
    rng = _as_rng(rng)
    gaps = np.flatnonzero(rng.random(len(x) + 1) < p).tolist()
    if not gaps:  # integers(size=0) draws nothing either
        return tuple(x)
    symbols = uniform_symbols(rng, q, len(gaps)).tolist()
    out = []
    prev = 0
    for gap, s in zip(gaps, symbols):  # gap i lies just before x[i]
        out += x[prev:gap]
        out.append(s)
        prev = gap
    out += x[prev:]
    return tuple(out)


def transmit_kdel(x: Word, k: int, rng) -> Word:
    """Delete a uniformly random k-subset of positions from x."""
    if k > len(x):
        raise ValueError(f"cannot delete {k} symbols from a length-{len(x)} word")
    rng = _as_rng(rng)
    keep = np.ones(len(x), dtype=bool)
    if k:
        keep[rng.choice(len(x), size=k, replace=False)] = False
    return tuple(compress(x, keep.tolist()))


_SAMPLERS = {"del": transmit_del, "ins": transmit_ins, "kdel": transmit_kdel}


def cond_prob_del_term(x: Word, y: Word) -> ProbTerm:
    """Pr_Del(p){y | x} = Emb(x; y) * p^(|x|-|y|) * (1-p)^|y|, as a term."""
    if len(y) > len(x):
        return ProbTerm(0, 0, 0)
    return ProbTerm(embedding_number(x, y), len(x) - len(y), len(y))


def cond_prob_del(x: Word, y: Word, p: float) -> float:
    return cond_prob_del_term(x, y).value(p)


def cond_prob_ins_term(x: Word, y: Word, q: int) -> ProbTerm:
    """Pr_Ins(p){y | x} = Emb(y; x) * (p/q)^t * (1-p)^(|x|+1-t), t = |y|-|x|.

    This is the standard embedding-number form.  It is exact for t <= 1 and
    within O(p^2) overall: outputs needing two insertions in one gap are
    unreachable for the at-most-one-insertion-per-gap sampler yet get
    positive mass here (see ins_channel_law for the exact law).
    """
    t = len(y) - len(x)
    if t < 0 or t > len(x) + 1:
        return ProbTerm(0, 0, 0)
    return ProbTerm(embedding_number(y, x), t, len(x) + 1 - t, t)


def cond_prob_ins(x: Word, y: Word, p: float, q: int) -> float:
    return cond_prob_ins_term(x, y, q).value(p, q)


def cond_prob_kdel(x: Word, y: Word) -> Fraction:
    """Pr_{k-Del}{y | x} = Emb(x; y) / C(|x|, k) with k = |x| - |y|, exact."""
    k = len(x) - len(y)
    if k < 0:
        raise ValueError("k-Del output cannot be longer than the input")
    return Fraction(embedding_number(x, y), comb(len(x), k))


def ins_channel_law(x: Word, p, q: int) -> dict:
    """Exact output law of transmit_ins by enumerating all gap patterns.

    Intended as a small-size oracle (cost (q+1)^(|x|+1) patterns).  Pass p
    as a Fraction for exact rational probabilities.  The returned dict maps
    each reachable word to its probability and sums to 1.
    """
    n = len(x)
    if n > 10:
        raise ValueError("pattern-enumeration oracle limited to |x| <= 10")
    law: dict = {}
    gap_choices = [None] + list(range(q))

    def walk(gap: int, word: tuple, prob):
        if gap == n + 1:
            law[word] = law.get(word, 0) + prob
            return
        tail = (x[gap],) if gap < n else ()
        for choice in gap_choices:
            if choice is None:
                walk(gap + 1, word + tail, prob * (1 - p))
            else:
                walk(gap + 1, word + (choice,) + tail, prob * p / q)

    walk(0, (), Fraction(1) if isinstance(p, Fraction) else 1.0)
    return law
