"""Seeded Monte Carlo experiment runner and exact-enumeration verification
sweeps.

Reproducibility contract: every trial draws from generators seeded by
SeedSequence((master_seed, point_index, trial_index, stream)), stream 0 for
the codeword draw and 1..t for the channels, so results are bit-identical
for any worker count or chunking.  Aggregation sums exact integers
(distances, failures, attribution units) and divides once at the end.

The SeedSequence hash itself is computed in batch: `_seed_states` hashes a
block of trials and all their streams in one pass of uint32 numpy
arithmetic, and each PCG64 is seeded from its row.  The generators, and so
the results, are the ones numpy's own SeedSequence gives.  The bounds this
needs: master_seed >= 0 (numpy hashes no negative int) and
trials_per_point <= 2**32 (a trial index is one 32-bit entropy word).
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from itertools import product
from math import ceil, comb, sqrt

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .analysis import coded_success_bounds, two_del_formulas, two_ins_formulas
from .channels import KIND_FIELDS, ChannelSpec, json_fields
from .codes import make_code
from .combinatorics import insertion_ball_weights
from .decoders import (get_decoder, ml_star_2del, objective_f,
                       two_del_condition_poly, two_del_lazy_en_gap_fast)
from .words import Word, indel_distance, runs

DEFAULT_TRIAL_CAP = 50_000  # SCS/LCS candidates scored per trial at most
MAX_TRIALS = 1 << 32  # trial indices must fit one 32-bit entropy word
METRICS = ("levenshtein_rate", "failure_rate", "run_component", "alt_component")
CSV_FIELDS = ["metric", "q", "n", "p", "t", "code", "decoder", "value",
              "stderr", "trials", "truncated_trials", "seed"]
FIGURE_CSV_FIELDS = ["metric", "q", "n", "p", "code", "measured_rate",
                     "stderr", "formula_rate", "trials", "seed"]


def worker_count(explicit: int | None = None) -> int:
    """Workers from an explicit argument (--workers), else the
    INDELKIT_WORKERS env var, else the CPU count capped at 8.  A count
    below 1, or an env value that is no integer, is refused by name."""
    source, count = "--workers", explicit
    if count is None:
        source, env = "INDELKIT_WORKERS", os.environ.get("INDELKIT_WORKERS")
        if not env:
            return max(1, min(8, os.cpu_count() or 1))
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer, not {env!r}") from None
    if count < 1:
        raise ValueError(f"{source} must be >= 1, not {count}")
    return count


# ---------------------------------------------------------------------------
# experiment configuration and results


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelSpec
    t: int
    n: int
    q: int
    code: dict = field(default_factory=lambda: {"code": "all"})
    decoder: str = "mld2del"
    p_grid: tuple = (0.01, 0.02, 0.03, 0.05)
    trials_per_point: int = 20_000
    master_seed: int = 2024
    scs_cap: int = DEFAULT_TRIAL_CAP

    def __post_init__(self):
        if self.n < 1 or self.q < 2:
            raise ValueError(f"need n >= 1 and q >= 2, not n={self.n}, q={self.q}")
        if not self.p_grid:
            raise ValueError("p_grid must hold at least one probability")
        ch, reads = self.channel, KIND_FIELDS[self.channel.kind]
        dec = get_decoder(self.decoder, self.t, ch.kind)
        # p_grid alone sets p, for a kind that reads it (p is 0 where unread)
        if ch.p != 0.0:
            raise ValueError("channel p must be 0; p_grid sets it")
        if "q" in reads and ch.q != self.q:
            raise ValueError(f"{ch.kind} channel q={ch.q} differs from q={self.q}")
        if ch.k > self.n:  # k is 0 where unread
            raise ValueError(f"{ch.kind} channel deletes k={ch.k} > n={self.n} symbols")
        # a kind that reads no p reruns the same law at a second grid point
        if "p" not in reads and len(self.p_grid) != 1:
            raise ValueError(f"a {ch.kind} channel takes a single p_grid point")
        make_code(self.code, self.n, self.q)  # rejects bad code params
        if not dec.coded and self.code.get("code", "all") != "all":
            raise ValueError(f"{self.decoder} decodes without a code; "
                             "use code 'all'")
        if not 1 <= self.trials_per_point <= MAX_TRIALS:
            raise ValueError(f"trials_per_point must be in [1, 2**32], "
                             f"not {self.trials_per_point}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, not {self.master_seed}")
        for p in self.p_grid:
            if isinstance(p, bool) or not (isinstance(p, (int, float)) and 0 <= p < 1):
                raise ValueError(f"grid probabilities must be in [0, 1), not {p!r}")
        if self.scs_cap < 1:
            raise ValueError("scs_cap must be >= 1")

    def to_json(self) -> str:
        d = asdict(self)
        d["channel"] = self.channel.to_dict()
        d["p_grid"] = list(self.p_grid)
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json_fields(cls, json.loads(text), "config")
        d["channel"] = ChannelSpec.from_dict(d["channel"])
        if "p_grid" in d:
            d["p_grid"] = tuple(d["p_grid"])
        return cls(**d)


@dataclass(frozen=True)
class PointResult:
    p: float
    trials: int
    levenshtein_rate: float
    failure_rate: float
    run_component: float
    alt_component: float
    stderr_ler: float
    stderr_fail: float
    truncated_trials: int
    wall_time: float

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failure_rate

    def stderr(self, metric: str):
        """The standard error that goes with a metric; "" for a component."""
        return {"levenshtein_rate": self.stderr_ler,
                "failure_rate": self.stderr_fail,
                "success_rate": self.stderr_fail}.get(metric, "")


@dataclass(frozen=True)
class AggregateResult:
    config: ExperimentConfig
    points: tuple

    def rows(self) -> list:
        """Flatten to the fixed CSV schema, one row per metric per point."""
        cfg = self.config
        return [{"metric": metric, "q": cfg.q, "n": cfg.n, "p": pt.p,
                 "t": cfg.t, "code": cfg.code.get("code", "all"),
                 "decoder": cfg.decoder, "value": getattr(pt, metric),
                 "stderr": pt.stderr(metric), "trials": pt.trials,
                 "truncated_trials": pt.truncated_trials,
                 "seed": cfg.master_seed}
                for pt in self.points for metric in METRICS]


# ---------------------------------------------------------------------------
# per-trial machinery


def _stream_rng(master_seed: int, point: int, trial: int, stream: int):
    """One stream's generator from numpy's own SeedSequence: the reference
    that `_trial_rngs` reproduces."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, point, trial, stream)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe) with its default pool of 4 words
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF
_POOL = 4
SEED_BLOCK = 2048  # trials whose generator states are hashed in one pass


def _int_words(n: int) -> list:
    """The int n >= 0 as SeedSequence splits an entropy int: its 32-bit
    words, least significant first ([0] for 0)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_states(master_seed: int, point: int, lo: int, hi: int,
                 streams: int) -> np.ndarray:
    """SeedSequence((master_seed, point, trial, stream)).generate_state(4,
    np.uint64) for every trial in [lo, hi) and stream in [0, streams), as a
    (hi - lo, streams, 4) uint64 array.

    The hash constants advance the same way whatever the data, so one pass
    of wrapping uint32 arithmetic hashes the whole block: trial indices run
    down the rows, streams across the columns, and the words shared by the
    block (the seed's, the point's) stay scalars until they mix with those.
    """
    if (master_seed < 0 or not 0 <= point <= _MASK32
            or not 0 <= lo <= hi <= MAX_TRIALS):
        raise ValueError("need master_seed >= 0, and point and trial indices "
                         "in [0, 2**32)")
    u32 = np.uint32
    entropy = [u32(w) for w in _int_words(master_seed)] + [
        u32(point), np.arange(lo, hi, dtype=u32)[:, None],
        np.arange(streams, dtype=u32)[None, :]]
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ u32(const)
        const = const * _MULT_A & _MASK32
        v = v * u32(const)
        return v ^ (v >> u32(16))

    def mix(x, y):
        v = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return v ^ (v >> u32(16))

    with np.errstate(over="ignore"):  # uint32 scalars warn when they wrap
        pool = [hashmix(w) for w in entropy[:_POOL]]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(w))
        # generate_state: 8 words cycling over the pool, read as 4 uint64
        state = np.empty((hi - lo, streams, 2 * _POOL), dtype="<u4")
        const = _INIT_B
        for j in range(2 * _POOL):
            v = pool[j % _POOL] ^ u32(const)
            const = const * _MULT_B & _MASK32
            v = v * u32(const)
            state[:, :, j] = v ^ (v >> u32(16))
    return state.view("<u8").astype(np.uint64, copy=False)


class _PresetSeed(ISeedSequence):
    """A seed sequence whose state for PCG64 is already computed."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly this; another request would seed it apart
        # from numpy's SeedSequence
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(f"numpy asked for generate_state({n_words}, "
                               f"{np.dtype(dtype)}), not (4, uint64)")
        return self.state


def _trial_rngs(master_seed: int, point: int, lo: int, hi: int, streams: int):
    """Yield, for each trial in [lo, hi), its generators for streams
    0..streams-1: the same as `_stream_rng` gives, hashed SEED_BLOCK trials
    at a time."""
    for start in range(lo, hi, SEED_BLOCK):
        states = _seed_states(master_seed, point, start,
                              min(start + SEED_BLOCK, hi), streams)
        for row in states:
            yield [np.random.Generator(np.random.PCG64(_PresetSeed(s)))
                   for s in row]


def _trial_components(c: Word, output: Word, t: int, kind: str) -> tuple:
    """(distance, run_units, alt_units) for one trial; exact ints.

    Deletions surviving both traces shorten the output (one distance unit
    each); insertions surviving both lengthen it.  The remaining, even part
    of the distance comes from alternating-segment swaps.  Single-trace
    trials are not split.
    """
    d = indel_distance(output, c)
    if t == 1:
        return d, 0, 0
    lost = len(c) - len(output)
    run_units = max(0, lost if kind == "del" else -lost)
    return d, run_units, d - run_units


def _run_chunk(cfg: ExperimentConfig, point: int, p: float, lo: int,
               hi: int) -> tuple:
    """Run trials [lo, hi) of one grid point; returns exact integer sums
    (sum_d, sum_d2, failures, run_units, alt_units, truncated)."""
    code, ch = make_code(cfg.code, cfg.n, cfg.q), cfg.channel
    dec = get_decoder(cfg.decoder, cfg.t, ch.kind)
    sum_d = sum_d2 = fails = run_units = alt_units = truncated = 0
    for c_rng, *rngs in _trial_rngs(cfg.master_seed, point, lo, hi, cfg.t + 1):
        c = code.sample(c_rng)
        ys = [ch.transmit(c, p, rng) for rng in rngs]
        out, trunc = dec.decode(ys, ch.k, code, cfg.scs_cap)
        d, ru, au = _trial_components(c, out, cfg.t, ch.kind)
        sum_d += d
        sum_d2 += d * d
        fails += out != tuple(c)
        run_units += ru
        alt_units += au
        truncated += trunc
    return sum_d, sum_d2, fails, run_units, alt_units, truncated


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> AggregateResult:
    """Monte Carlo sweep over the probability grid; deterministic for a
    given master seed regardless of the worker count.

    Each grid point's trials run in one chunk per worker, [0, T) whole for
    one worker, mapped through `_run_chunk` in this process or in the run's
    one process pool; the chunks' sums add up."""
    workers = worker_count(workers)
    n, T = config.n, config.trials_per_point
    chunk = ceil(T / workers)
    bounds = [(lo, min(lo + chunk, T)) for lo in range(0, T, chunk)]
    points = []
    with (ProcessPoolExecutor(workers) if workers > 1
          else nullcontext()) as pool:
        run = pool.map if pool else map
        for point, p in enumerate(config.p_grid):
            start = time.perf_counter()
            parts = run(
                _run_chunk,
                *zip(*[(config, point, p, lo, hi) for lo, hi in bounds]))
            sum_d, sum_d2, fails, run_u, alt_u, trunc = (
                sum(col) for col in zip(*parts))
            mean_d = sum_d / T
            var_d = max(0.0, sum_d2 / T - mean_d * mean_d)
            fail_rate = fails / T
            points.append(PointResult(
                p=p, trials=T,
                levenshtein_rate=mean_d / n,
                failure_rate=fail_rate,
                run_component=run_u / (n * T),
                alt_component=alt_u / (n * T),
                stderr_ler=sqrt(var_d / T) / n,
                stderr_fail=sqrt(fail_rate * (1 - fail_rate) / T),
                truncated_trials=trunc,
                wall_time=time.perf_counter() - start))
    return AggregateResult(config=config, points=tuple(points))


def write_rows_csv(rows: list, path: str, fields: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# exact enumeration evaluators (1-Del and 2-Del channels, binary)


def exact_expected_distance(decoder: str, n: int, k: int = 1,
                            method: str = "auto") -> Fraction:
    """Exact expected normalized indel distance of a one-trace decoder over
    the k-deletion channel with the whole binary space as the code.

    Averages d_L(decoder(y), c) / n over all codewords c and channel
    outputs y, weighted by Emb(c; y) / C(n, k).  For k = 1 with a decoder
    that has an exact 1-deletion law in analysis (lazy, mlstar1, en:1) it
    returns the law where the law is defined, n >= 2; below that, and with
    `method="enumerate"`, it runs the literal double loop.
    """
    if method not in ("auto", "enumerate"):
        raise ValueError(f"method must be 'auto' or 'enumerate', not {method!r}")
    dec = get_decoder(decoder, 1, "kdel")
    if k == 1 and n >= 2 and method == "auto" and dec.fast_1del is not None:
        return dec.fast_1del(n)
    return _exact_enumerate(dec, n, k)


def _exact_enumerate(dec, n: int, k: int) -> Fraction:
    """Literal evaluator: the exact objective of every channel output's
    decoding, summed over all outputs."""
    if n - k < 0:
        raise ValueError("k cannot exceed n")
    if 2 ** (n - k) * 2 ** k * n > 2 ** 26:
        raise ValueError(f"enumeration infeasible for n = {n}, k = {k}")
    total = sum(objective_f(y, dec.decode((y,), k)[0], k)
                for y in product((0, 1), repeat=n - k))
    return Fraction(total, (2 ** n) * n * comb(n, k))


# ---------------------------------------------------------------------------
# exhaustive 2-deletion verification sweeps


def sweep_two_del_condition(n: int) -> dict:
    """Compare, for every y in Sigma_2^(n-2), the sign of the exact
    lazy-versus-prolong gap against the closed-form condition polynomial
    two_del_condition_poly; returns the word count and the violators, each
    {"y", "gap", "poly"}.  The gap is two_del_lazy_en_gap_fast, O(n) per y,
    so the sweep takes O(n 2^n) time."""
    if n < 2:
        raise ValueError(f"condition sweep needs n >= 2, not {n}")
    violations = []
    for y in product((0, 1), repeat=n - 2):
        prof = runs(y)
        poly = two_del_condition_poly(n, prof.r_max, prof.r)
        gap = two_del_lazy_en_gap_fast(y)
        if (gap >= 0) != (poly >= 0):
            violations.append({"y": y, "gap": gap, "poly": poly})
    return {"n": n, "words": 2 ** (n - 2), "violations": violations}


WINDOW_BLOCK = 128  # codewords c whose candidate trie is walked at once
WINDOW_N = range(3, 14)  # the code lengths n the window sweep supports


def _window_distance_rows(n: int, cs) -> np.ndarray:
    """int8 rows D[i, x] = d_L(x, cs[i]) for the length-n binary words cs
    (integers, first symbol most significant) and every candidate x of
    length n-2 .. n+1: the four length classes side by side, each in
    lexicographic order.

    In that order the candidates are the levels n-2 .. n+1 of the binary
    trie of the length-(n+1) words, so one pass down the trie gives them
    all: each level's LCS bit vectors against c (the recurrence of
    words.lcs_bit_rows, one lane per trie node and per c) extend by one
    symbol to the next level's, sum_j 2^j steps per c in all.  Then
    d_L(x, c) = |x| + n - 2 LCS(x, c) with LCS(x, c) = n - popcount(v).
    The lanes are uint16: v + u < 2^(n+1) for n <= 13.
    """
    cs = np.asarray(cs, dtype=np.uint16)[:, None]
    full = np.uint16((1 << n) - 1)
    # bit t of m1 is symbol t of c
    m1 = ((cs >> np.arange(n - 1, -1, -1, dtype=np.uint16)) & 1
          ) << np.arange(n, dtype=np.uint16)
    m1 = m1.sum(axis=1, dtype=np.uint16)[:, None]
    masks = (full ^ m1, m1)
    rows = np.empty((len(cs), 15 << (n - 2)), dtype=np.int8)
    v = np.full((len(cs), 1), full)
    col = 0
    for depth in range(1, n + 2):
        child = np.empty((len(cs), v.shape[1], 2), dtype=np.uint16)
        for s, m in enumerate(masks):
            u = v & m
            child[:, :, s] = ((v + u) | (v - u)) & full
        v = child.reshape(len(cs), -1)
        if depth >= n - 2:
            rows[:, col:col + v.shape[1]] = (
                2 * np.bitwise_count(v).astype(np.int8) + (depth - n))
            col += v.shape[1]
    return rows


def _window_table(n: int) -> np.ndarray:
    """D[c, x] = d_L(x, c) for every c in Sigma_2^n (row c is the word
    whose integer is c) and every window candidate x, as
    _window_distance_rows lays them out; built WINDOW_BLOCK rows at a
    time so the trie's temporaries stay small."""
    table = np.empty((1 << n, 15 << (n - 2)), dtype=np.int8)
    for lo in range(0, 1 << n, WINDOW_BLOCK):
        hi = min(lo + WINDOW_BLOCK, 1 << n)
        table[lo:hi] = _window_distance_rows(n, np.arange(lo, hi))
    return table


def _window_scores(table: np.ndarray, y: Word) -> np.ndarray:
    """objective_f(y, x, 2) of every window candidate x, in the table's
    column order: the rows of y's insertion-ball words weighted by their
    embedding numbers and summed."""
    n = len(y) + 2
    ball = insertion_ball_weights(y, 2, 2)
    idx = np.array(list(ball), dtype=np.int64) @ (
        1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    w = np.fromiter(ball.values(), dtype=np.int16, count=len(ball))
    return (w[:, None] * table[idx]).sum(axis=0, dtype=np.int16)


def sweep_brute_force_window(n: int) -> dict:
    """For every y in Sigma_2^(n-2): brute-force the optimal-decoder
    objective over all binary words of length n-2 .. n+1 and record
    (a) winners outside lengths {n-2, n-1} and (b) outputs of the
    closed-form 2-deletion decoder that differ from a unique brute winner.

    The distances d_L(x, c) to every c in Sigma_2^n come from one
    bit-parallel pass over the trie of candidates (_window_distance_rows)
    into one c-major int8 table, 15 * 2^(2n-2) bytes (60 MiB at n = 12,
    240 MiB at n = 13).  Each y then gathers the rows of its insertion-ball
    words and weights them by their embedding numbers (_window_scores).
    The int8 distances and int16 products and sums are exact for n <= 13:
    distances are at most 2n + 1, weights at most C(n, 2), and the weights
    sum to 4 C(n, 2), so no score exceeds 4 C(n, 2) (2n + 1) = 8424.
    """
    if n not in WINDOW_N:
        raise ValueError(f"sweep supports {WINDOW_N[0]} <= n <= "
                         f"{WINDOW_N[-1]}")
    assert 4 * comb(n, 2) * (2 * n + 1) < 2 ** 15
    table = _window_table(n)
    offsets = np.cumsum([0] + [1 << L for L in range(n - 2, n + 2)])
    length_violations = []
    mismatches = []
    for y in product((0, 1), repeat=n - 2):
        scores = _window_scores(table, y)
        best = int(np.argmin(scores))  # first minimum: shortest, then lex
        k = int(np.searchsorted(offsets, best, side="right")) - 1
        best_len = n - 2 + k
        if best_len not in (n - 2, n - 1):
            length_violations.append({"y": y, "winner_len": best_len})
        if np.count_nonzero(scores == scores[best]) == 1:
            v = best - int(offsets[k])
            winner = tuple((v >> (best_len - 1 - i)) & 1
                           for i in range(best_len))
            closed_form = ml_star_2del(y)
            if winner != closed_form:
                mismatches.append({"y": y, "winner": winner,
                                   "closed_form": closed_form})
    return {"n": n, "words": 2 ** (n - 2),
            "length_violations": length_violations,
            "mismatches": mismatches}


# ---------------------------------------------------------------------------
# figure reproduction


_Q_RUNS = ({"q": 2}, {"q": 4})
_COMPONENTS = ("run_component", "alt_component")
# figure -> (the channel kind of its two traces, the figure_config keywords
# of each of its runs, the PointResult metrics it plots)
FIGURES = {
    "fig1": ("del", _Q_RUNS, ("levenshtein_rate",)),
    "fig2": ("del", _Q_RUNS, _COMPONENTS),
    "fig3": ("del", ({"code": {"code": "all"}},
                     {"code": {"code": "vt", "a": 0}},
                     {"code": {"code": "svt", "a": 0}}), ("success_rate",)),
    "fig5": ("ins", ({},), ("levenshtein_rate", *_COMPONENTS)),
}


def _figure(fig: str) -> tuple:
    if fig not in FIGURES:
        raise ValueError(f"unknown figure {fig!r} (expected "
                         f"{', '.join(FIGURES)})")
    return FIGURES[fig]


def _closed_form(cfg: ExperimentConfig, metric: str, p: float) -> float:
    """The paper's closed form of a figure metric for a two-trace config at
    p: the coded success bound of the config's code, or the deletion or
    insertion formula of the Levenshtein rate or a component."""
    if metric == "success_rate":
        code = cfg.code.get("code", "all")
        return coded_success_bounds(cfg.q, p, cfg.n)[
            "uncoded" if code == "all" else code]
    f = (two_del_formulas if cfg.channel.kind == "del"
         else two_ins_formulas)(cfg.q, p, cfg.n)
    return {"levenshtein_rate": f.p_err_approx, "run_component": f.p_run,
            "alt_component": f.p_alt}[metric]


def figure_config(fig: str, scale: str = "desk", master_seed: int = 2024,
                  code: dict | None = None, q: int = 2) -> ExperimentConfig:
    """Experiment configuration backing each reproduced figure; q and code
    pass through, and the config rejects what does not fit."""
    if scale not in ("desk", "paper"):
        raise ValueError("scale must be 'desk' or 'paper'")
    kind = _figure(fig)[0]
    desk = scale == "desk"
    return ExperimentConfig(
        channel=ChannelSpec("ins", q=q) if kind == "ins" else ChannelSpec(kind),
        t=2, n=150 if desk else {"del": 450, "ins": 500}[kind], q=q,
        code=code or {"code": "all"}, decoder="mld2" + kind,
        p_grid=((0.01, 0.02, 0.03, 0.05) if desk
                else tuple(round(0.005 * i, 3) for i in range(1, 11))),
        trials_per_point=20_000 if desk else 200_000, master_seed=master_seed)


def figure_rows(fig: str, result: AggregateResult) -> list:
    """Figure CSV rows of one run, one per point and per metric of the
    figure: the measured rate, its stderr and its closed form."""
    cfg = result.config
    return [{"metric": metric, "q": cfg.q, "n": cfg.n, "p": pt.p,
             "code": cfg.code.get("code", "all"),
             "measured_rate": getattr(pt, metric),
             "stderr": pt.stderr(metric),
             "formula_rate": _closed_form(cfg, metric, pt.p),
             "trials": pt.trials, "seed": cfg.master_seed}
            for pt in result.points for metric in _figure(fig)[2]]


def reproduce_figure(fig: str, scale: str = "desk", workers: int | None = None,
                     master_seed: int = 2024) -> list:
    """Run the experiments behind one figure; returns figure CSV rows with
    measured and closed-form columns."""
    rows = []
    for kw in _figure(fig)[1]:
        cfg = figure_config(fig, scale, master_seed, **kw)
        rows += figure_rows(fig, run_experiment(cfg, workers))
    return rows


def write_figure_csv(rows: list, path: str) -> None:
    write_rows_csv(rows, path, FIGURE_CSV_FIELDS)


def write_figure_svg(rows: list, path: str, title: str = "") -> None:
    """Minimal dependency-free SVG: one polyline per (metric, q, code)
    series for measured values, dashed for the closed form."""
    series: dict = {}
    for r in rows:
        key = (r["metric"], r["q"], r["code"])
        series.setdefault(key, []).append(
            (float(r["p"]), float(r["measured_rate"]),
             float(r["formula_rate"])))
    width, height, margin = 640, 420, 60
    xs = [p for pts in series.values() for (p, _, _) in pts]
    ys = [v for pts in series.values() for (_, m, f) in pts for v in (m, f)]
    if not xs:
        raise ValueError("no rows to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) * 1.05 or 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0 or 1) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0 or 1) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<text x="{width/2}" y="20" text-anchor="middle">{title}</text>',
             f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
             f'y2="{height-margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height-margin}" stroke="black"/>']
    for idx, (key, pts) in enumerate(sorted(series.items(), key=str)):
        color = palette[idx % len(palette)]
        pts = sorted(pts)
        meas = " ".join(f"{sx(p):.1f},{sy(m):.1f}" for p, m, _ in pts)
        form = " ".join(f"{sx(p):.1f},{sy(f):.1f}" for p, _, f in pts)
        label = "/".join(str(k) for k in key)
        parts.append(f'<polyline points="{meas}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<polyline points="{form}" fill="none" stroke="{color}" '
                     f'stroke-width="1" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{width-margin+4}" y="{margin+14*idx}" '
                     f'fill="{color}" font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
