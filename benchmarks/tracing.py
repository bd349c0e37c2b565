"""Span recording and the reference per-trial loops of the benchmark.

Spans are recorded from outside the library, around calls into its public
functions: name, start, end, parent span and trial id, kept in flat
in-memory columns and written out once at the end of a traced run.

`run_trials` reproduces the harness seeding contract
SeedSequence((master_seed, point, trial, stream)) trial by trial, so its
exact integer sums must equal those of `harness.run_experiment` on the same
config.  It serves both as the checked reference loop of every run (with
a `NullTracer`) and as the traced loop of a `--trace 1` run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import ceil, comb
from time import perf_counter_ns

import numpy as np

import checks


class NullTracer:
    """Tracer interface that records nothing."""

    def begin(self, name: str, trial: int) -> int:
        return -1

    def end(self, span: int) -> None:
        pass


class Tracer:
    """In-memory span recorder.  `begin` returns the span's index; spans
    nest by call order, so the innermost open span is the parent."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("q")
        self.start = array("q")
        self.stop = array("q")
        self._open: list = []

    def begin(self, name: str, trial: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.trial.append(trial)
        self.stop.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def end(self, span: int) -> None:
        self.stop[span] = perf_counter_ns()
        self._open.pop()

    def duration_ns(self, span: int) -> int:
        return self.stop[span] - self.start[span]

    def durations_ns(self, name: str) -> list:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [self.stop[i] - self.start[i]
                for i in range(len(self.start)) if self.name[i] == nid]

    def layers(self) -> dict:
        """Per span name: count, total and self time in microseconds.
        Self time is a span's duration minus the durations of its
        children (children of one span never overlap)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.stop[i] - self.start[i]
        out = {name: {"count": 0, "total_us": 0.0, "self_us": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.stop[i] - self.start[i]
            row["count"] += 1
            row["total_us"] += dur / 1e3
            row["self_us"] += (dur - child[i]) / 1e3
        return out

    def to_json(self) -> dict:
        return {"names": self.names, "name": list(self.name),
                "parent": list(self.parent), "trial": list(self.trial),
                "start_ns": list(self.start), "end_ns": list(self.stop)}


@dataclass
class Trial:
    """Inputs and output of one decoded trial, kept for the later passes."""

    tid: int
    c: tuple
    y1: tuple
    y2: tuple
    band: tuple
    out: tuple
    truncated: bool
    decode_span: int


@dataclass
class LoopResult:
    """Outcome of `run_trials` and of the probe and check passes over it."""

    kind: str
    cap: int
    sums: dict
    trials: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)
    # Filled by `probe`.
    decode_ns: list = field(default_factory=list)
    score_ns: list = field(default_factory=list)
    shortcuts: int = 0
    single_cand: int = 0
    cands: list = field(default_factory=list)
    enum_truncated: int = 0
    dag_cells: int = 0
    row_steps: int = 0


def band_cells(m1: int, m2: int, up: int, down: int) -> int:
    """Cells of the banded suffix-LCS table over traces of lengths m1, m2:
    rows i in [0, m1], columns j in [max(0, i - down), min(m2, i + up)]."""
    return sum(max(0, min(m2, i + up) - max(0, i - down) + 1)
               for i in range(m1 + 1))


def row_steps(candidates, traces: int = 2) -> int:
    """DP row extensions the prefix-sharing scorer performs on a sorted
    candidate list: each candidate's distinct-suffix length, per trace."""
    steps = 0
    prev = None
    for x in candidates:
        k = 0
        if prev is not None:
            while k < len(x) and x[k] == prev[k]:
                k += 1
        steps += len(x) - k
        prev = x
    return steps * traces


def run_trials(lib, cfg, lo: int, hi: int, tracer=None,
               trial_base: int = 0) -> LoopResult:
    """Trials [lo, hi) of point 0 of a two-trace, uncoded config.

    Each trial records a "harness.trial" span with children for seeding,
    sampling, both transmissions, the decode and the error attribution.
    Trial ids are `trial_base + trial`.  Probing and checking are separate
    passes over the kept trials, so their allocations do not land in the
    trial spans.
    """
    tr = tracer or NullTracer()
    n, q, seed, cap = cfg.n, cfg.q, cfg.master_seed, cfg.scs_cap
    p = cfg.p_grid[0]
    kind = cfg.channel.kind
    if cfg.t != 2 or kind not in ("del", "ins") or cfg.code.get("code", "all") != "all":
        raise ValueError("run_trials covers uncoded two-trace del/ins configs")
    default_rng, seed_seq = np.random.default_rng, np.random.SeedSequence
    code = lib.codes.make_code(cfg.code, n, q)
    dist = lib.words.indel_distance
    if kind == "del":
        transmit = lib.channels.transmit_del
        decode = lib.decoders.mld_two_del_detailed
    else:
        transmit = lib.channels.transmit_ins
        decode = lib.decoders.mld_two_ins_detailed
    sums = dict.fromkeys(checks.SUM_FIELDS, 0)
    res = LoopResult(kind=kind, cap=cap, sums=sums)
    for trial in range(lo, hi):
        tid = trial_base + trial
        t_span = tr.begin("harness.trial", tid)
        s = tr.begin("harness.seed", tid)
        rngs = [default_rng(seed_seq((seed, 0, trial, stream)))
                for stream in range(3)]
        tr.end(s)
        s = tr.begin("codes.sample", tid)
        c = code.sample(rngs[0])
        tr.end(s)
        if kind == "del":
            s = tr.begin("channels.transmit", tid)
            y1 = transmit(c, p, rngs[1])
            tr.end(s)
            s = tr.begin("channels.transmit", tid)
            y2 = transmit(c, p, rngs[2])
            tr.end(s)
            band = (n - len(y1), n - len(y2))
        else:
            s = tr.begin("channels.transmit", tid)
            y1 = transmit(c, p, q, rngs[1])
            tr.end(s)
            s = tr.begin("channels.transmit", tid)
            y2 = transmit(c, p, q, rngs[2])
            tr.end(s)
            band = (len(y2) - n, len(y1) - n)
        d_span = tr.begin("decoders.decode", tid)
        out, trunc = decode(y1, y2, band=band, cap=cap)
        tr.end(d_span)
        s = tr.begin("words.indel_distance", tid)
        d = dist(out, c)
        tr.end(s)
        tr.end(t_span)

        run_u = max(0, (n - len(out)) if kind == "del" else (len(out) - n))
        sums["sum_d"] += d
        sums["failures"] += out != tuple(c)
        sums["run_units"] += run_u
        sums["alt_units"] += d - run_u
        sums["truncated"] += bool(trunc)
        res.trials.append(Trial(tid, c, y1, y2, band, out, trunc, d_span))
    return res


def probe(lib, res: LoopResult, tracer) -> None:
    """Repeat each trial's decoder shortcut test and candidate enumeration
    on the same traces as their own spans, and record candidate counts."""
    tr = tracer
    is_sub = lib.words.is_subsequence
    if res.kind == "del":
        enumerate_ = lib.supersequences.enumerate_scs
    else:
        enumerate_ = lib.supersequences.enumerate_lcs
    for t in res.trials:
        y1, y2 = t.y1, t.y2
        s = tr.begin("words.is_subsequence", t.tid)
        if res.kind == "del":
            shortcut = is_sub(y2, y1) or is_sub(y1, y2)
        else:
            shortcut = is_sub(y1, y2) or is_sub(y2, y1)
        tr.end(s)
        short_ns = tr.duration_ns(s)
        enum_ns = 0
        if shortcut:
            res.shortcuts += 1
            res.single_cand += 1
            res.cands.append(1)
        else:
            s = tr.begin("supersequences.enumerate", t.tid)
            er = enumerate_(y1, y2, band=t.band, cap=res.cap)
            tr.end(s)
            enum_ns = tr.duration_ns(s)
            ncand = len(er.candidates)
            res.cands.append(ncand)
            res.single_cand += ncand == 1
            res.enum_truncated += bool(er.truncated)
            up, down = t.band
            res.dag_cells += band_cells(len(y1), len(y2), up, down)
            res.row_steps += row_steps(er.candidates)
        dec_ns = tr.duration_ns(t.decode_span)
        res.decode_ns.append(dec_ns)
        res.score_ns.append(dec_ns - short_ns - enum_ns)


def check(res: LoopResult) -> None:
    """Run `checks.check_trial` on every kept trial."""
    for t in res.trials:
        problems = checks.check_trial(res.kind, t.c, t.y1, t.y2, t.out,
                                      t.truncated)
        if problems:
            res.failed += 1
            res.problems.extend(f"trial {t.tid}: {m}" for m in problems[:3])


def trace_exact_enum(lib, n: int, k: int, tracer) -> tuple:
    """Traced replica of the literal k-deletion evaluator behind
    `exact_expected_distance("mlstar2", n, k, method="enumerate")`.

    One "harness.enum_output" span per channel output y, with children for
    the decoder, the insertion ball and, per ball word, the banded
    embedding number and the indel distance.  Returns (value, outputs).
    """
    tr = tracer
    decode = lib.decoders.ml_star_2del
    ball_fn = lib.combinatorics.insertion_ball
    emb = lib.combinatorics.embedding_number_banded
    dist = lib.words.indel_distance
    total = 0
    outputs = 0
    for idx, y in enumerate(product((0, 1), repeat=n - k)):
        o_span = tr.begin("harness.enum_output", idx)
        s = tr.begin("decoders.decode", idx)
        out = decode(y)
        tr.end(s)
        s = tr.begin("combinatorics.insertion_ball", idx)
        ball = ball_fn(y, k, 2)
        tr.end(s)
        for c in ball:
            s = tr.begin("combinatorics.embedding_banded", idx)
            e = emb(c, y)
            tr.end(s)
            s = tr.begin("words.indel_distance", idx)
            d = dist(out, c)
            tr.end(s)
            total += d * e
        tr.end(o_span)
        outputs += 1
    return Fraction(total, (2 ** n) * n * comb(n, k)), outputs


def tail_percentile(samples: list) -> tuple:
    """(p50, tail value, tail percentile, sample count) by nearest rank.
    The tail is the highest of p99.9/p99/p90/p50 that has at least ten
    samples beyond it."""
    xs = sorted(samples)
    N = len(xs)
    if N == 0:
        return 0.0, 0.0, 0.0, 0

    def rank(pct):
        return xs[min(N - 1, max(0, ceil(N * pct / 100) - 1))]

    pct = 50.0
    for cand in (99.9, 99.0, 90.0):
        if N * (100.0 - cand) / 100.0 >= 10:
            pct = cand
            break
    return rank(50.0), rank(pct), pct, N
