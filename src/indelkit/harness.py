"""Seeded Monte Carlo experiment runner and exact-enumeration verification
sweeps.

Reproducibility contract: every trial draws from generators seeded by
SeedSequence((master_seed, point_index, trial_index, stream)), stream 0 for
the codeword draw and 1..t for the channels, so results are bit-identical
for any worker count or chunking.  Aggregation sums exact integers
(distances, failures, attribution units) and divides once at the end.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from math import ceil, comb, sqrt

import numpy as np

from .channels import ChannelSpec, transmit_del, transmit_ins, transmit_kdel
from .codes import make_code
from .combinatorics import insertion_ball_weights
from .decoders import (get_decoder, ml_star_2del, objective_f,
                       two_del_condition_poly, two_del_lazy_en_gap_fast)
from .words import Word, indel_distance, runs

DEFAULT_TRIAL_CAP = 50_000  # SCS/LCS candidates scored per trial at most
METRICS = ("levenshtein_rate", "failure_rate", "run_component", "alt_component")
CSV_FIELDS = ["metric", "q", "n", "p", "t", "code", "decoder", "value",
              "stderr", "trials", "truncated_trials", "seed"]
FIGURE_CSV_FIELDS = ["metric", "q", "n", "p", "code", "measured_rate",
                     "stderr", "formula_rate", "trials", "seed"]


def worker_count(explicit: int | None = None) -> int:
    """Workers from the INDELKIT_WORKERS env var, an explicit argument, or
    the CPU count capped at 8."""
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get("INDELKIT_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, min(8, os.cpu_count() or 1))


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
    metrics: tuple = METRICS
    scs_cap: int = DEFAULT_TRIAL_CAP

    def __post_init__(self):
        if self.t not in (1, 2):
            raise ValueError("t must be 1 or 2")
        ch = self.channel
        dec = get_decoder(self.decoder, self.t, ch.kind)
        # p_grid alone sets the transmission probability of del/ins
        if ch.kind in ("del", "ins") and ch.p != 0.0:
            raise ValueError("channel p must be 0; p_grid sets it")
        if ch.kind == "ins" and ch.q != self.q:
            raise ValueError(f"ins channel q={ch.q} differs from q={self.q}")
        if ch.kind == "kdel" and ch.k > self.n:
            raise ValueError(f"kdel channel deletes k={ch.k} > n={self.n} symbols")
        # a kdel channel reads no p: a second grid point reruns the same law
        if ch.kind == "kdel" and len(self.p_grid) != 1:
            raise ValueError("a kdel channel takes a single p_grid point")
        make_code(self.code, self.n, self.q)  # rejects bad code params
        if not dec.coded and self.code.get("code", "all") != "all":
            raise ValueError(f"{self.decoder} decodes without a code; "
                             "use code 'all'")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        for p in self.p_grid:
            if not 0.0 <= p < 1.0:
                raise ValueError("grid probabilities must be in [0, 1)")
        if self.scs_cap < 1:
            raise ValueError("scs_cap must be >= 1")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; expected some of "
                             f"{', '.join(METRICS)}")

    def to_json(self) -> str:
        d = asdict(self)
        d["channel"] = self.channel.to_dict()
        d["p_grid"] = list(self.p_grid)
        d["metrics"] = list(self.metrics)
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        d["channel"] = ChannelSpec.from_dict(d["channel"])
        d["p_grid"] = tuple(d["p_grid"])
        if "metrics" in d:
            d["metrics"] = tuple(d["metrics"])
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


@dataclass(frozen=True)
class AggregateResult:
    config: ExperimentConfig
    points: tuple

    def rows(self) -> list:
        """Flatten to the fixed CSV schema, one row per metric per point."""
        out = []
        cfg = self.config
        code = cfg.code.get("code", "all")
        for pt in self.points:
            for metric in cfg.metrics:
                value = getattr(pt, metric)
                stderr = (pt.stderr_ler if metric == "levenshtein_rate"
                          else pt.stderr_fail if metric == "failure_rate"
                          else "")
                out.append({"metric": metric, "q": cfg.q, "n": cfg.n,
                            "p": pt.p, "t": cfg.t, "code": code,
                            "decoder": cfg.decoder, "value": value,
                            "stderr": stderr, "trials": pt.trials,
                            "truncated_trials": pt.truncated_trials,
                            "seed": cfg.master_seed})
        return out


# ---------------------------------------------------------------------------
# per-trial machinery


def _stream_rng(master_seed: int, point: int, trial: int, stream: int):
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, point, trial, stream)))


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


def _run_chunk(config_json: str, point: int, p: float, lo: int, hi: int) -> tuple:
    """Run trials [lo, hi) of one grid point; returns exact integer sums
    (sum_d, sum_d2, failures, run_units, alt_units, truncated)."""
    cfg = ExperimentConfig.from_json(config_json)
    code = make_code(cfg.code, cfg.n, cfg.q)
    decode_code = code if cfg.code.get("code", "all") != "all" else None
    kind, k = cfg.channel.kind, cfg.channel.k
    dec = get_decoder(cfg.decoder, cfg.t, kind)
    q, t, seed, cap = cfg.q, cfg.t, cfg.master_seed, cfg.scs_cap
    kw = {"code": decode_code} if dec.coded else {}
    if dec.coded and t == 1:
        kw["q"] = q  # a one-trace coded decoder searches Sigma_q itself
    sum_d = sum_d2 = fails = run_units = alt_units = truncated = 0
    for trial in range(lo, hi):
        c = code.sample(_stream_rng(seed, point, trial, 0))
        ys = []
        for stream in range(1, t + 1):
            rng = _stream_rng(seed, point, trial, stream)
            if kind == "del":
                ys.append(transmit_del(c, p, rng))
            elif kind == "ins":
                ys.append(transmit_ins(c, p, q, rng))
            else:
                ys.append(transmit_kdel(c, k, rng))
        if t == 1:
            out, trunc = dec.fn(ys[0], k, **kw), False
        else:
            out, trunc = dec.fn(*ys, cap=cap, **kw)
        d, ru, au = _trial_components(c, out, t, kind)
        sum_d += d
        sum_d2 += d * d
        fails += out != tuple(c)
        run_units += ru
        alt_units += au
        truncated += trunc
    return sum_d, sum_d2, fails, run_units, alt_units, truncated


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> AggregateResult:
    """Monte Carlo sweep over the probability grid; deterministic for a
    given master seed regardless of the worker count."""
    workers = worker_count(workers)
    cfg_json = config.to_json()
    points = []
    for point, p in enumerate(config.p_grid):
        start = time.perf_counter()
        trials = config.trials_per_point
        if workers == 1:
            sums = _run_chunk(cfg_json, point, p, 0, trials)
        else:
            chunk = max(1, ceil(trials / (workers * 4)))
            bounds = [(lo, min(lo + chunk, trials))
                      for lo in range(0, trials, chunk)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(
                    _run_chunk,
                    *zip(*[(cfg_json, point, p, lo, hi) for lo, hi in bounds])))
            sums = tuple(sum(col) for col in zip(*parts))
        sum_d, sum_d2, fails, run_u, alt_u, trunc = sums
        n, T = config.n, trials
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
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# exact enumeration evaluators (1-Del and 2-Del channels, binary)


def exact_expected_distance(decoder: str, n: int, k: int = 1,
                            method: str = "auto") -> Fraction:
    """Exact expected normalized indel distance of a one-trace decoder over
    the k-deletion channel with the whole binary space as the code.

    Averages d_L(decoder(y), c) / n over all codewords c and channel
    outputs y, weighted by Emb(c; y) / C(n, k).  For k = 1 with a decoder
    that has an exact 1-deletion law in analysis (lazy, mlstar1, en:1) it
    returns the law, for any n >= 2; `method="enumerate"` forces the
    literal double loop used to validate it.
    """
    if method not in ("auto", "enumerate"):
        raise ValueError(f"method must be 'auto' or 'enumerate', not {method!r}")
    dec = get_decoder(decoder, 1, "kdel")
    if k == 1 and method == "auto" and dec.fast_1del is not None:
        return dec.fast_1del(n)
    return _exact_enumerate(dec.fn, n, k)


def _exact_enumerate(decode, n: int, k: int) -> Fraction:
    """Literal evaluator: the exact objective of every channel output's
    decoding, summed over all outputs."""
    from itertools import product as iproduct

    if n - k < 0:
        raise ValueError("k cannot exceed n")
    if 2 ** (n - k) * 2 ** k * n > 2 ** 26:
        raise ValueError(f"enumeration infeasible for n = {n}, k = {k}")
    total = sum(objective_f(y, decode(y, k), k)
                for y in iproduct((0, 1), repeat=n - k))
    return Fraction(total, (2 ** n) * n * comb(n, k))


# ---------------------------------------------------------------------------
# exhaustive 2-deletion verification sweeps


def sweep_two_del_condition(n: int, literal: bool = False) -> dict:
    """Compare, for every y in Sigma_2^(n-2), the sign of the exact
    lazy-versus-prolong gap against the closed-form condition polynomial.

    Returns counts and the violating words.  `literal=True` evaluates the
    gap by full insertion-ball enumeration instead of the algebraic
    shortcut (slower; used to validate the shortcut).
    """
    from itertools import product as iproduct
    from .decoders import two_del_lazy_en_gap

    gap_fn = two_del_lazy_en_gap if literal else two_del_lazy_en_gap_fast
    violations = []
    for y in iproduct((0, 1), repeat=n - 2):
        prof = runs(y)
        poly = two_del_condition_poly(n, prof.r_max, prof.r)
        gap = gap_fn(y)
        if (gap >= 0) != (poly >= 0):
            violations.append({"y": y, "gap": gap, "poly": poly})
    return {"n": n, "words": 2 ** (n - 2), "violations": violations}


def _lcs_rows_vs_word(X: np.ndarray, c) -> np.ndarray:
    """LCS lengths of every row of X (N x L, 0/1) against the binary word c
    (|c| <= 31): the bit-parallel recurrence of words.lcs_bit_rows with one
    uint32 bit vector per row, one numpy step per column of X."""
    m1 = sum(1 << t for t, s in enumerate(c) if s)
    full = (1 << len(c)) - 1
    m0, m1, full = np.uint32(full ^ m1), np.uint32(m1), np.uint32(full)
    v = np.full(X.shape[0], full)
    for col in X.T:
        u = v & np.where(col, m1, m0)
        v = ((v + u) | (v - u)) & full
    return len(c) - np.bitwise_count(v).astype(np.int16)


def sweep_brute_force_window(n: int) -> dict:
    """For every y in Sigma_2^(n-2): brute-force the optimal-decoder
    objective over all binary words of length n-2 .. n+1 and record
    (a) winners outside lengths {n-2, n-1} and (b) outputs of the
    closed-form 2-deletion decoder that differ from a unique brute winner.

    Vectorized over candidates: distances to every c in Sigma_2^n are
    precomputed per candidate length class, then each y scores candidates
    with its insertion-ball embedding weights.
    """
    if not 3 <= n <= 13:
        raise ValueError("sweep supports 3 <= n <= 13")
    lengths = list(range(n - 2, n + 2))
    classes = []
    for L in lengths:
        vals = np.arange(1 << L, dtype=np.uint32)
        shifts = np.arange(L - 1, -1, -1, dtype=np.uint32)
        classes.append(((vals[:, None] >> shifts[None, :]) & 1).astype(np.uint8))
    # dist[class][cand, c_index], c running over the length-n class
    dist = [np.empty((1 << L, 1 << n), dtype=np.int16) for L in lengths]
    for ci, c in enumerate(classes[lengths.index(n)]):
        for k, L in enumerate(lengths):
            lcs = _lcs_rows_vs_word(classes[k], c)
            dist[k][:, ci] = (L + n) - 2 * lcs
    offsets = np.cumsum([0] + [1 << L for L in lengths])
    len_of = np.concatenate([np.full(1 << L, L, dtype=np.int16) for L in lengths])

    from itertools import product as iproduct
    length_violations = []
    mismatches = []
    for y in iproduct((0, 1), repeat=n - 2):
        ball = insertion_ball_weights(y, 2, 2)
        idx = np.array([int("".join(map(str, c)), 2) for c in ball], dtype=np.int64)
        w = np.fromiter(ball.values(), dtype=np.int64, count=len(ball))
        scores = np.concatenate(
            [dist[k][:, idx].astype(np.int64) @ w for k in range(len(lengths))])
        best_idx = int(np.argmin(scores))  # first minimum: shortest, then lex
        best_len = int(len_of[best_idx])
        unique = int((scores == scores[best_idx]).sum()) == 1
        if best_len not in (n - 2, n - 1):
            length_violations.append({"y": y, "winner_len": best_len})
        if unique:
            k = int(np.searchsorted(offsets, best_idx, side="right")) - 1
            row = classes[k][best_idx - offsets[k]]
            winner = tuple(int(b) for b in row)
            if winner != ml_star_2del(y):
                mismatches.append({"y": y, "winner": winner,
                                   "closed_form": ml_star_2del(y)})
    return {"n": n, "words": 2 ** (n - 2),
            "length_violations": length_violations,
            "mismatches": mismatches}


# ---------------------------------------------------------------------------
# figure reproduction


def _desk_grid() -> tuple:
    return (0.01, 0.02, 0.03, 0.05)


def _paper_grid() -> tuple:
    return tuple(round(0.005 * i, 3) for i in range(1, 11))


def figure_config(fig: str, scale: str = "desk", master_seed: int = 2024,
                  code: dict | None = None, q: int = 2) -> ExperimentConfig:
    """Experiment configuration backing each reproduced figure; q and code
    pass through, and the config rejects what does not fit."""
    if scale not in ("desk", "paper"):
        raise ValueError("scale must be 'desk' or 'paper'")
    desk = scale == "desk"
    trials = 20_000 if desk else 200_000
    grid = _desk_grid() if desk else _paper_grid()
    if fig not in ("fig1", "fig2", "fig3", "fig5"):
        raise ValueError(f"unknown figure {fig!r} (expected fig1, fig2, fig3, fig5)")
    if fig == "fig5":
        n, channel, decoder = 150 if desk else 500, ChannelSpec("ins", q=q), "mld2ins"
    else:
        n, channel, decoder = 150 if desk else 450, ChannelSpec("del"), "mld2del"
    return ExperimentConfig(channel=channel, t=2, n=n, q=q,
                            code=code or {"code": "all"}, decoder=decoder,
                            p_grid=grid, trials_per_point=trials,
                            master_seed=master_seed)


def reproduce_figure(fig: str, scale: str = "desk", workers: int | None = None,
                     master_seed: int = 2024) -> list:
    """Run the experiments behind one figure; returns figure CSV rows with
    measured and closed-form columns."""
    from .analysis import coded_success_bounds, two_del_formulas, two_ins_formulas

    rows = []

    def add(metric, cfg, pt, measured, stderr, formula, code="all"):
        rows.append({"metric": metric, "q": cfg.q, "n": cfg.n, "p": pt.p,
                     "code": code, "measured_rate": measured,
                     "stderr": stderr, "formula_rate": formula,
                     "trials": pt.trials, "seed": cfg.master_seed})

    if fig in ("fig1", "fig2"):
        for q in (2, 4):
            cfg = figure_config(fig, scale, master_seed, q=q)
            res = run_experiment(cfg, workers)
            for pt in res.points:
                f = two_del_formulas(q, pt.p, cfg.n)
                if fig == "fig1":
                    add("levenshtein_rate", cfg, pt, pt.levenshtein_rate,
                        pt.stderr_ler, f.p_err_approx)
                else:
                    add("run_component", cfg, pt, pt.run_component, "", f.p_run)
                    add("alt_component", cfg, pt, pt.alt_component, "", f.p_alt)
    elif fig == "fig3":
        for code in ({"code": "all"}, {"code": "vt", "a": 0},
                     {"code": "svt", "a": 0}):
            cfg = figure_config(fig, scale, master_seed, code=code)
            res = run_experiment(cfg, workers)
            for pt in res.points:
                bounds = coded_success_bounds(2, pt.p, cfg.n)
                name = code["code"]
                key = {"all": "uncoded", "vt": "vt", "svt": "svt"}[name]
                add("success_rate", cfg, pt, 1.0 - pt.failure_rate,
                    pt.stderr_fail, bounds[key], code=name)
    elif fig == "fig5":
        cfg = figure_config(fig, scale, master_seed)
        res = run_experiment(cfg, workers)
        for pt in res.points:
            f = two_ins_formulas(2, pt.p, cfg.n)
            add("levenshtein_rate", cfg, pt, pt.levenshtein_rate,
                pt.stderr_ler, f.p_err_approx)
            add("run_component", cfg, pt, pt.run_component, "", f.p_run)
            add("alt_component", cfg, pt, pt.alt_component, "", f.p_alt)
    else:
        raise ValueError(f"unknown figure {fig!r}")
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
