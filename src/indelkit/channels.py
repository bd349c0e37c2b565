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

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .combinatorics import embedding_number
from .words import Word


@dataclass(frozen=True)
class ChannelSpec:
    """One of Del(p), Ins(p) over alphabet size q, or exact-k deletion."""

    kind: str  # "del" | "ins" | "kdel"
    p: float = 0.0
    k: int = 0
    q: int = 2

    def __post_init__(self):
        if self.kind not in ("del", "ins", "kdel"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.q < 2:
            raise ValueError("q must be >= 2")
        # fields the kind does not read would be dropped by to_dict
        if self.kind != "kdel" and self.k != 0:
            raise ValueError(f"{self.kind} channels take no k")
        if self.kind == "kdel" and self.p != 0.0:
            raise ValueError("kdel channels take no p")
        if self.kind != "ins" and self.q != 2:
            raise ValueError(f"{self.kind} channels take no q")

    def to_dict(self) -> dict:
        if self.kind == "kdel":
            return {"kind": "kdel", "k": self.k}
        if self.kind == "ins":
            return {"kind": "ins", "p": self.p, "q": self.q}
        return {"kind": "del", "p": self.p}

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelSpec":
        return cls(**d)


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


def transmit_del(x: Word, p: float, rng) -> Word:
    """Delete every symbol of x independently with probability p."""
    rng = _as_rng(rng)
    if not x:
        return ()
    keep = rng.random(len(x)) >= p
    return tuple(s for s, k in zip(x, keep) if k)


def transmit_ins(x: Word, p: float, q: int, rng) -> Word:
    """Insert, at each of the |x|+1 gaps independently with probability p,
    one symbol drawn uniformly from the alphabet (at most one per gap)."""
    rng = _as_rng(rng)
    gaps = rng.random(len(x) + 1) < p
    symbols = rng.integers(0, q, size=int(gaps.sum()))
    out = []
    si = 0
    for i in range(len(x) + 1):
        if gaps[i]:
            out.append(int(symbols[si]))
            si += 1
        if i < len(x):
            out.append(x[i])
    return tuple(out)


def transmit_kdel(x: Word, k: int, rng) -> Word:
    """Delete a uniformly random k-subset of positions from x."""
    if k > len(x):
        raise ValueError(f"cannot delete {k} symbols from a length-{len(x)} word")
    rng = _as_rng(rng)
    drop = set(rng.choice(len(x), size=k, replace=False).tolist()) if k else set()
    return tuple(s for i, s in enumerate(x) if i not in drop)


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
