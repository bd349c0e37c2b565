"""Decoders for the deletion/insertion channels.

Includes the trivial lazy decoder, the run-prolonging embedding-number
decoder of a target length, maximum-likelihood decoding over an explicit
code, the degraded two-trace decoder (argmax of the embedding-number product
over all shortest common supersequences, resp. longest common subsequences),
the exact optimal decoders for the 1- and 2-deletion channels, and a
brute-force optimal-decoder oracle that minimizes the exact expected-distance
objective over a window of output lengths.  DECODERS names each of them
for the experiment configs, the exact evaluators and the command line.

All optimality comparisons are exact integer comparisons; ties are broken by
minimal length first, then lexicographically smallest word.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, product
from math import comb
from typing import Callable

from .analysis import en1_1del_law, lazy_1del_law
from .codes import DEAD
from .combinatorics import (EmbeddingLanes, embedding_number,
                            insertion_ball_weights)
from .supersequences import (DEFAULT_CAP, enumerate_lcs, enumerate_scs,
                             lcs_dag, scs_dag)
from .words import Word, check_word, indel_distance, is_subsequence, runs

BRUTE_MAX_CANDIDATES = 2 ** 21  # brute_force_ml_star refuses larger windows


def decode_lazy(y: Word) -> Word:
    """Return the channel output unchanged."""
    return tuple(y)


def _prolong(profile, amounts: dict) -> Word:
    """The profile's word with run i lengthened by amounts[i] symbols."""
    out = []
    for i, (sym, length) in enumerate(zip(profile.run_symbols, profile.run_lengths)):
        out.extend([sym] * (length + amounts.get(i, 0)))
    return tuple(out)


def decode_en(y: Word, m: int) -> Word:
    """Run-prolonging embedding-number decoder: a length-m word with a
    large embedding number of y, built by growing maximal runs.

      m = |y|     -> y itself (the unique maximizer among equal-length words);
      m = |y| + 1 -> the first longest run grows by one (always the true
                     argmax of Emb(. ; y) over length-m words);
      m = |y| + 2 -> with first-longest length a and second-longest length b,
                     grow the first longest by two if a >= 2b, else grow the
                     first longest and the first second-longest by one each.

    For m = |y| + 2 this is the decoder the 2-deletion optimality results
    are stated for, but it is NOT always the global embedding argmax: on
    words containing a two-symbol alternating substring of length >= 4,
    extending the alternation embeds strictly more often (see the module
    tests for the exact exception sets).  Only target lengths up to
    |y| + 2 are supported; for the empty word the all-zeros word is
    returned (all candidates tie).
    """
    y = tuple(y)
    delta = m - len(y)
    if delta < 0:
        raise ValueError(f"target length {m} shorter than the input ({len(y)})")
    if delta > 2:
        raise ValueError("only target lengths up to len(y) + 2 are supported")
    if delta == 0:
        return y
    return _grow_runs(runs(y), delta)


def _grow_runs(prof, delta: int) -> Word:
    """decode_en(y, |y| + delta) for delta in (1, 2), from y's run
    profile, for the callers that hold it already."""
    if not prof.r:
        return (0,) * delta
    i = prof.longest_idx
    if delta == 1:
        return _prolong(prof, {i: 1})
    if prof.r == 1:
        return _prolong(prof, {i: 2})
    a = prof.r_max
    b = -1
    j = -1
    for idx, length in enumerate(prof.run_lengths):
        if idx != i and length > b:
            b, j = length, idx
    if a >= 2 * b:
        return _prolong(prof, {i: 2})
    return _prolong(prof, {i: 1, j: 1})


def decode_ml_code(y: Word, code) -> Word:
    """Codeword maximizing Emb(c; y); ties go to the lexicographically
    smallest codeword.  Warns when every codeword has zero likelihood."""
    best = None
    best_emb = -1
    for c in sorted(code):
        e = embedding_number(c, y)
        if e > best_emb:
            best, best_emb = c, e
    if best is None:
        raise ValueError("code must be non-empty")
    if best_emb == 0:
        warnings.warn("all codewords have zero likelihood for this output",
                      stacklevel=2)
    return best


def _best_leaf(length: int, walk, traces, deletion: bool, cap: int,
               code=None) -> tuple:
    """(best, truncated) over the words of a lexicographic DAG walk
    (supersequences.scs_dag / lcs_dag).

    Scores Emb(x; y1) * Emb(x; y2) when deletion is set, else
    Emb(y1; x) * Emb(y2; x), and keeps the first strict maximum of one
    key: the score, or with a `code` the pair (x is a codeword, score), so
    that any codeword outranks every other word.  best is thus the
    lexicographically smallest word of maximal score among the codewords
    when one is scored, else among all words (mld_two_oracle states the
    same rule as two literal maxima).  One packed int per depth of the
    current path holds both traces' banded DP rows (EmbeddingLanes), so a
    word or a branching node costs only the rows below the prefix the walk
    kept.  Once a codeword is scored, a word the code rejects is passed
    over before any of its rows is built.

    Subtrees are pruned exactly.  The score of any word is a nonnegative
    linear function of each trace's row at any depth of its path:
    Emb(u.v; y) = sum_j Emb(u; y[:j]) * Emb(v; y[j:]), and the transposed
    rows of the insertion form split the same way.  Every prefix reaching a
    node of the DAG has the same length, so when an earlier prefix reached a
    branching node with a packed row lane by lane >= the current prefix's
    on both traces (one subtraction, EmbeddingLanes.dominates), each completion
    scores at least as much after the earlier, lexicographically smaller
    prefix: the subtree holds no first strict maximum and is skipped.  Each
    node keeps a Pareto front of the packed rows that reached it, keyed also
    by the code's prefix state, so that the two prefixes complete to
    codewords alike.  At most `cap` words are scored; truncated tells that
    the budget ran out with edges not yet taken.  A walk with a single word
    returns it unscored, before any row is built.
    """
    q = 1 + max(max(y, default=0) for y in traces)
    lanes = None  # the traces' EmbeddingLanes, made by the first extend
    rows = []  # the packed row per depth, kept down to the last node passed
    states = [0]  # the code's prefix state per depth; 0 without a code
    fronts: dict = {}  # (node, state) -> non-dominated rows

    def advance(path, shared):
        # bring the code's states from depth `shared` to len(path)
        del states[shared + 1:]
        for i in range(shared + 1, len(path) + 1):
            states.append(code.prefix_state(states[-1], i, path[i - 1]))

    def extend(path, shared):
        # bring the rows from depth `shared`, which skip built, to len(path)
        nonlocal lanes
        if lanes is None:
            lanes = EmbeddingLanes(traces, length, deletion, q)
            rows.append(lanes.first)
        lanes.extend(rows, path, shared)
        return rows[-1]

    def skip(path, shared, node):
        if code is not None:
            advance(path, shared)
        r = extend(path, shared)
        front = fronts.setdefault((node, states[-1]), [])
        if any(lanes.dominates(a, r) for a in front):
            return True
        front[:] = [a for a in front if not lanes.dominates(r, a)]
        front.append(r)
        return False

    best, top = None, (-1,)  # below every key
    scored, more = 0, False
    for path, shared, more in walk(skip):
        if best is None and not more:
            return tuple(path), False
        scored += 1
        key = ()
        if code is not None:
            advance(path, shared)
            key = (states[-1] == code.accept,)
            if top[0] > key[0]:
                continue  # a codeword was scored: no other word can win
        key += (lanes.count(extend(path, shared)),)
        if key > top:
            best, top = tuple(path), key
    return best, more and scored == cap


def _mld_two(y1: Word, y2: Word, deletion: bool, cap: int,
             code=None) -> tuple:
    """(word, truncated) of the two-trace decoders: the first strict
    maximum of the embedding-number product over the traces' shortest
    common supersequences (deletion) or longest common subsequences, found
    along one pruned walk of the DAG (_best_leaf); when one trace contains
    the other, the longer (deletion) or shorter trace is the only candidate.
    With a `code` (deletions only) whose length is the candidates' length,
    codewords outrank the other candidates (_best_leaf's key), so the best
    codeword wins when there is one.  A candidate one symbol short of the
    code length whose symbols the code's alphabet holds is decoded by a
    code that corrects one deletion anywhere (VT), and anything else is the
    unrestricted output, which the harness counts as a failure.
    """
    y1, y2 = tuple(y1), tuple(y2)
    short, long = (y1, y2) if len(y1) <= len(y2) else (y2, y1)
    if is_subsequence(short, long):
        best, truncated = (long if deletion else short), False
    else:
        length, walk = (scs_dag if deletion else lcs_dag)(y1, y2, cap)
        coded = code if code is not None and length == code.n else None
        best, truncated = _best_leaf(length, walk, (y1, y2), deletion, cap,
                                     coded)
    if (code is not None and len(best) == code.n - 1
            and code.corrects_single_deletion and code.fold(best) != DEAD):
        return code.decode_1del(best), truncated
    return best, truncated


def mld_two_del_detailed(y1: Word, y2: Word, band=None,
                         cap: int = DEFAULT_CAP, code=None) -> tuple:
    """Degraded two-trace decoder for deletions; returns (word, truncated).

    argmax of Emb(x; y1) * Emb(x; y2) over all shortest common
    supersequences of the traces (exact integer products, ties to the
    lexicographically smallest word); with a `code`, the codewords among
    them come first, and a one-short candidate goes to the VT decoder (see
    _mld_two).  `cap` is a budget on the words scored; truncated tells
    that it ran out with unpruned subtrees left, and the output is then the
    best of the words scored.  `band` is accepted but not needed (see
    supersequences).
    """
    return _mld_two(y1, y2, True, cap, code)


def mld_two_ins_detailed(y1: Word, y2: Word, band=None,
                         cap: int = DEFAULT_CAP) -> tuple:
    """Two-trace decoder for insertions; returns (word, truncated).

    argmax of Emb(y1; x) * Emb(y2; x) over all longest common subsequences
    (likelihood maximization, symmetric to the deletion case); cap and band
    as in mld_two_del_detailed.
    """
    return _mld_two(y1, y2, False, cap)


def mld_two_oracle(y1: Word, y2: Word, deletion: bool = True,
                   code=None) -> tuple:
    """Test oracle for _best_leaf: (best, best_member), the first strict
    maximum of the embedding-number product over every word enumerate_scs
    (deletion) or enumerate_lcs lists, scored one by one, and the same over
    the words `code` accepts (None without a code).  It is the reference
    for _best_leaf's one key, whose pick is best_member when that is not
    None, else best."""
    res = enumerate_scs(y1, y2) if deletion else enumerate_lcs(y1, y2)
    best = best_member = None
    top = top_member = -1
    for x in res.candidates:
        if deletion:
            score = embedding_number(x, y1) * embedding_number(x, y2)
        else:
            score = embedding_number(y1, x) * embedding_number(y2, x)
        if score > top:
            best, top = x, score
        if code is not None and score > top_member and code.is_member(x):
            best_member, top_member = x, score
    return best, best_member


def objective_f(y: Word, x: Word, k: int, code=None, q: int = 2) -> int:
    """Exact integer expected-distance objective for the k-deletion channel.

    Returns sum over c in I_k(y) (only those code.is_member accepts, if a
    code is given) of d_L(x, c) * Emb(c; y); this is the true objective
    scaled by the constant n * C(n, k), so argmin comparisons are unchanged
    and exact.
    """
    x = tuple(x)
    return sum(indel_distance(x, c) * e
               for c, e in insertion_ball_weights(y, k, q).items()
               if code is None or code.is_member(c))


def brute_force_ml_star(y: Word, k: int, q: int = 2, code=None) -> Word:
    """Global argmin of the exact objective over every word of length in
    [|y|, |y|+k+1]; ties minimal length then lexicographic.

    This is the enumeration oracle for the optimal decoder; it refuses
    (ValueError) windows with more than BRUTE_MAX_CANDIDATES words and any
    y with a symbol outside [0, q).
    """
    y = tuple(y)
    check_word(y, q)
    lengths = range(len(y), len(y) + k + 2)
    total = sum(q ** L for L in lengths)
    if total > BRUTE_MAX_CANDIDATES:
        raise ValueError(f"window holds {total} candidates; refusing above "
                         f"{BRUTE_MAX_CANDIDATES}")
    ball = [(c, w) for c, w in insertion_ball_weights(y, k, q).items()
            if code is None or code.is_member(c)]
    window = chain.from_iterable(product(range(q), repeat=L) for L in lengths)
    # min keeps the first minimum: the shortest, then smallest, word
    return min(window, key=lambda x: sum(indel_distance(x, c) * w
                                         for c, w in ball))


def ml_star_1del(y: Word) -> Word:
    """Optimal decoder for the 1-deletion channel over the whole binary
    space: return the output unchanged (optimality proven for n >= 17)."""
    n = len(y) + 1
    if n < 17:
        warnings.warn(f"lazy decoding is only proven optimal for n >= 17 "
                      f"(got n = {n})", stacklevel=2)
    return tuple(y)


def two_del_condition_poly(n: int, r_longest: int, run_count: int) -> int:
    """Sign condition deciding the optimal 2-deletion decoder branch:
    >= 0 means returning the output unchanged is optimal (or tied)."""
    return (2 * n * n - 4 * n * r_longest - 6 * n
            + r_longest * r_longest + 3 * r_longest + run_count + 1)


def ml_star_2del(y: Word) -> Word:
    """Closed-form decoder for the 2-deletion channel over the whole binary
    space: keep the output unchanged unless the sign condition says the
    longest run is long enough that prolonging it by one symbol pays.

    The sign condition is exact on the bulk of outputs but provably
    misjudges some near-alternating ones, where the exact objective can
    even prefer a full-length alternating extension; two_del_lazy_en_gap
    and brute_force_ml_star are the exact references (see the acceptance
    tests for the violation sets)."""
    y = tuple(y)
    n = len(y) + 2
    prof = runs(y)
    if two_del_condition_poly(n, prof.r_max, prof.r) >= 0:
        return y
    return _grow_runs(prof, 1)


def two_del_lazy_en_gap(y: Word) -> int:
    """Exact integer gap sum_{c in I_2(y)} Emb(c; y) * (d_L(EN(y), c) - 2).

    Nonnegative iff keeping the output unchanged beats (or ties) prolonging
    the first longest run, since the unchanged output sits at distance
    exactly 2 from every candidate c.  Literal enumeration (objective_f,
    less twice the ball's total weight 4*C(n, 2)); the oracle against
    which the closed-form sign condition is checked.  Binary y only.
    """
    y = tuple(y)
    check_word(y, 2)
    n = len(y) + 2
    return objective_f(y, decode_en(y, n - 1), 2) - 8 * comb(n, 2)


# ---------------------------------------------------------------------------
# decoder table


@dataclass(frozen=True)
class Decoder:
    """A named decoder: the number of traces it reads, the channel kinds it
    decodes and its function fn, which callers reach only through
    decode(traces, k=0, code=None, cap=DEFAULT_CAP) -> (word, truncated).
    k is the deletion count of a k-deletion channel (one trace), cap a
    budget on the candidates scored (two traces), and truncated tells that
    it ran out before the pruned search did.  Only a `coded` fn reads the
    code (None for an 'all' code) and, with one trace, its alphabet size q.
    fast_1del(n), if set, is the decoder's exact 1-deletion law from
    analysis: its expected normalized distance over the whole binary
    space, a Fraction, for n >= 2.
    """

    traces: int
    kinds: tuple
    fn: Callable
    fast_1del: Callable | None = None
    coded: bool = False

    def decode(self, traces, k: int = 0, code=None,
               cap: int = DEFAULT_CAP) -> tuple:
        kw = {}
        if self.coded:
            kw["code"] = None if code is None or code.kind == "all" else code
            if self.traces == 1 and code is not None:
                kw["q"] = code.q  # a one-trace decoder searches Sigma_q
        if self.traces == 1:
            return self.fn(traces[0], k, **kw), False
        return self.fn(*traces, cap=cap, **kw)


_DEL_KINDS = ("del", "kdel")
DECODERS = {
    "lazy": Decoder(1, ("del", "ins", "kdel"), lambda y, k: decode_lazy(y),
                    lazy_1del_law),
    "en:0": Decoder(1, _DEL_KINDS, lambda y, k: decode_en(y, len(y))),
    "en:1": Decoder(1, _DEL_KINDS, lambda y, k: decode_en(y, len(y) + 1),
                    en1_1del_law),
    "en:2": Decoder(1, _DEL_KINDS, lambda y, k: decode_en(y, len(y) + 2)),
    "mlstar1": Decoder(1, _DEL_KINDS, lambda y, k: ml_star_1del(y),
                       lazy_1del_law),
    "mlstar2": Decoder(1, _DEL_KINDS, lambda y, k: ml_star_2del(y)),
    "brute": Decoder(1, ("kdel",), brute_force_ml_star, coded=True),
    "mld2del": Decoder(2, ("del",), mld_two_del_detailed, coded=True),
    "mld2ins": Decoder(2, ("ins",), mld_two_ins_detailed),
}


def get_decoder(name: str, traces: int, kind: str | None = None) -> Decoder:
    """The table entry for `name`; ValueError when the name is unknown, or
    names a decoder of another trace count or channel kind."""
    dec = DECODERS.get(name)
    if dec is None:
        raise ValueError(f"unknown decoder {name!r}; known: {', '.join(DECODERS)}")
    if dec.traces != traces or (kind is not None and kind not in dec.kinds):
        raise ValueError(f"decoder {name!r} reads {dec.traces} trace(s) of "
                         f"{'/'.join(dec.kinds)} channels")
    return dec
