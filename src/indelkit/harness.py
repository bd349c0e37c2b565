"""Seeded Monte Carlo experiment runner and the paper's figures.

Reproducibility contract: every trial draws from generators seeded by
SeedSequence((master_seed, point_index, trial_index, stream)), stream 0 for
the codeword draw and 1..t for the channels, so results are bit-identical
for any worker count or chunking.  Aggregation sums exact integers
(distances, failures, attribution units) and divides once at the end.

Parallelism: each grid point's trials split into one chunk per worker.  The
calling process runs the first chunk itself and forks one child per other
chunk, which sends its sums back through a pipe; no child outlives the
grid point, whether it returns or raises.

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
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field, asdict
from math import ceil, sqrt

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .analysis import coded_success_bounds, two_del_formulas, two_ins_formulas
from .channels import KIND_FIELDS, ChannelSpec, json_fields
from .codes import make_code
from .decoders import get_decoder
# benchmarks/bench.py reads these here until the benchmark calls sweeps
from .sweeps import (exact_expected_distance,  # noqa: F401
                     sweep_brute_force_window, sweep_two_del_condition)
from .words import Word, indel_distance

DEFAULT_TRIAL_CAP = 50_000  # SCS/LCS candidates scored per trial at most
MAX_TRIALS = 1 << 32  # trial indices must fit one 32-bit entropy word
METRICS = ("levenshtein_rate", "failure_rate", "run_component", "alt_component")
CSV_FIELDS = ["metric", "q", "n", "p", "t", "code", "decoder", "value",
              "stderr", "trials", "truncated_trials", "seed"]
FIGURE_CSV_FIELDS = ["metric", "q", "n", "p", "code", "measured_rate",
                     "stderr", "formula_rate", "trials", "seed"]


def worker_count(explicit: int | None = None) -> int:
    """Workers from an explicit argument (--workers), else the
    INDELKIT_WORKERS env var, else the number of CPUs this process may run
    on (its affinity mask where the platform has one, else the CPU count),
    capped at 8.  A count below 1, or an env value that is no integer, is
    refused by name."""
    source, count = "--workers", explicit
    if count is None:
        source, env = "INDELKIT_WORKERS", os.environ.get("INDELKIT_WORKERS")
        if not env:
            cpus = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count())
            return max(1, min(8, cpus or 1))
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
    0..streams-1: np.random.default_rng(SeedSequence((master_seed, point,
    trial, stream))), hashed SEED_BLOCK trials at a time."""
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


# forked children inherit the config and need nothing pickled but their sums
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def _send_chunk(conn, cfg: ExperimentConfig, point: int, p: float, lo: int,
                hi: int) -> None:
    """Body of a child process: send (sums, None) for trials [lo, hi), or
    (None, the exception they raised), a RuntimeError with its text where
    that exception does not survive pickling."""
    try:
        msg = (_run_chunk(cfg, point, p, lo, hi), None)
    except BaseException as exc:  # the caller re-raises it
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        msg = (None, exc)
    conn.send(msg)
    conn.close()


def _run_chunks(cfg: ExperimentConfig, point: int, p: float,
                bounds: list) -> list:
    """The sums of each chunk [lo, hi) in bounds, in order: one child
    process per chunk after the first, which runs in this process.  An
    exception of any chunk is raised here once every child has ended."""
    children = []
    try:
        for lo, hi in bounds[1:]:
            recv, send = _CONTEXT.Pipe(duplex=False)
            with send:  # closed here, so recv reads EOF once the child exits
                proc = _CONTEXT.Process(target=_send_chunk,
                                        args=(send, cfg, point, p, lo, hi))
                proc.start()
            children.append((proc, recv, lo, hi))
        parts = [_run_chunk(cfg, point, p, *bounds[0])]
        for proc, recv, lo, hi in children:
            try:
                sums, exc = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"the child running trials [{lo}, {hi}) exited with code "
                    f"{proc.exitcode} before sending its sums") from None
            if exc is not None:
                raise exc
            parts.append(sums)
    except BaseException:
        for proc, *_ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv, *_ in children:
            proc.join()
            recv.close()
    return parts


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> AggregateResult:
    """Monte Carlo sweep over the probability grid; deterministic for a
    given master seed regardless of the worker count.

    Each grid point's trials run in one chunk per worker, ceil(T / workers)
    trials each ([0, T) whole for one worker).  `_run_chunks` runs the first
    chunk in this process and each other one in a child forked for it, and
    the chunks' exact sums add up in chunk order."""
    workers = worker_count(workers)
    n, T = config.n, config.trials_per_point
    chunk = ceil(T / workers)
    bounds = [(lo, min(lo + chunk, T)) for lo in range(0, T, chunk)]
    points = []
    for point, p in enumerate(config.p_grid):
        start = time.perf_counter()
        sum_d, sum_d2, fails, run_u, alt_u, trunc = (
            sum(col) for col in zip(*_run_chunks(config, point, p, bounds)))
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
