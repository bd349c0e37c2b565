"""indelkit benchmark: figure-config Monte Carlo throughput and exact-sweep
time, with a traced per-layer split.

Run from the repository root:

    python3 benchmarks/bench.py --workload desk-del --seed 2024 --seconds 20 --trace 0
    python3 benchmarks/bench.py --workload all

`--trace 0` measures the end-to-end metrics of BENCHMARK.json with tracing
off; `--trace 1` runs the traced per-layer split instead and also writes the
span file.  Times are reported in seconds at a reference speed (see
SpeedClock); the raw wall-clock figures are printed and saved alongside.
Every run checks the library's outputs (see checks.py) and exits non-zero
when a check fails.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full
result, with the environment it was measured in, is written to
benchmarks/out/.

The library is imported from the checkout's own src/ directory; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = checks.ROOT
OUT = HERE / "out"
SPEC = json.loads((HERE / "spec.json").read_text())
DEFAULT_SEED = 2024   # the figures' master_seed
WARMUP_SEED = 0       # set-up work is the same whatever --seed is
SETUP_REPS = 11       # set-ups per run; setup_s is their median
SWEEP_SAMPLE_S = 0.1  # in-call calibration interval for the sweeps
SAMPLE_FRACTION = 0.2  # size of an in-call reading relative to a full one
MODULES = ("words", "combinatorics", "supersequences", "channels", "codes",
           "decoders", "harness")


@dataclass(frozen=True)
class MonteCarlo:
    """One two-trace figure point, run through harness.run_experiment in
    calls of `batch` trials.  The first `verify_calls` calls are always run
    and re-checked trial by trial; the first `memory_calls` calls are also
    run one per child process to measure peak memory; a traced run covers
    `trace_calls` calls.  `pinned` holds the exact sums of the verified
    calls at DEFAULT_SEED."""

    name: str
    kind: str
    n: int
    p: float
    decoder: str
    workers: int
    batch: int
    verify_calls: int
    memory_calls: int
    trace_calls: int
    pinned: dict | None

    def config(self, lib, master_seed: int, trials: int | None = None):
        ch = lib.channels
        channel = ch.ChannelSpec("del") if self.kind == "del" else ch.ChannelSpec("ins", q=2)
        return lib.harness.ExperimentConfig(
            channel=channel, t=2, n=self.n, q=2, decoder=self.decoder,
            p_grid=(self.p,), trials_per_point=trials or self.batch,
            master_seed=master_seed)


@dataclass(frozen=True)
class Sweeps:
    """The fixed set of exhaustive sweeps; it takes no seed."""

    name: str
    window_n: int
    cond_ns: tuple
    enum_n: int
    enum_k: int
    expected: dict

    def outputs(self) -> int:
        """Channel outputs y the sweep set enumerates."""
        return (2 ** (self.window_n - 2) + sum(2 ** (m - 2) for m in self.cond_ns)
                + 2 ** (self.enum_n - self.enum_k))


def _workloads() -> dict:
    pins = SPEC["pinned"]
    return {w.name: w for w in (
        MonteCarlo("desk-del", "del", 150, 0.05, "mld2del", workers=1,
                   batch=10, verify_calls=20, memory_calls=16, trace_calls=40,
                   pinned=pins["desk-del"]),
        MonteCarlo("desk-ins-lowp", "ins", 150, 0.01, "mld2ins", workers=1,
                   batch=100, verify_calls=4, memory_calls=4, trace_calls=15,
                   pinned=pins["desk-ins-lowp"]),
        MonteCarlo("paper-del", "del", 450, 0.02, "mld2del", workers=2,
                   batch=32, verify_calls=1, memory_calls=24, trace_calls=4,
                   pinned=pins["paper-del"]),
        Sweeps("exact-sweeps", window_n=10, cond_ns=(13, 14), enum_n=12,
               enum_k=2, expected=pins["exact-sweeps"]),
    )}


WORKLOADS = _workloads()

# Per-layer metrics of the other kind of workload, reported as 0: the
# workload does none of that layer's work.
MC_ONLY = ("decoders.score_us", "decoders.score_row_steps",
           "decoders.cands_per_decode", "supersequences.enum_us",
           "supersequences.dag_cells", "supersequences.cands_total",
           "supersequences.cands_max", "supersequences.single_cand_frac",
           "supersequences.truncated", "words.is_subsequence_us",
           "words.shortcut_frac", "codes.sample_us", "channels.transmit_us",
           "harness.seed_us")
SWEEP_ONLY = ("harness.sweep_window_s", "harness.sweep_cond_s",
              "harness.exact_enum_s", "harness.window_lcs_cells",
              "combinatorics.insertion_ball_us",
              "combinatorics.embedding_banded_us", "combinatorics.ball_words")


def call_seed(seed: int, k: int) -> int:
    """master_seed of the k-th run_experiment call of a run; call 0 uses
    the seed itself, so the default seed reproduces the figures' seeding."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def _cal_mix(fraction: float = 1.0) -> float:
    """Slowdown against reference speed of a fixed mix of the kinds of work
    the library does, none of it the library's own code: interpreter
    arithmetic, tuple and dict allocation, numpy generator set-up.  A full
    reading takes 1 ms at reference speed."""
    units = int(1_500 * fraction)
    t = time.perf_counter()
    s = 0
    for i in range(4 * units):
        s += i * i % 7
    d = {}
    for i in range(units):
        d[(i, i + 1)] = (i,) * 4
    for k in range(units // 250):
        np.random.default_rng(np.random.SeedSequence((k, 1, 2, 3))).random(150)
    return (time.perf_counter() - t) / (0.001 * fraction)


def _cal_int(fraction: float = 1.0) -> float:
    """Slowdown against reference speed of interpreter arithmetic alone,
    which allocates nothing.  A full reading takes 2 ms at reference speed."""
    iters = int(20_000 * fraction)
    t = time.perf_counter()
    s = 0
    for i in range(iters):
        s += i * i % 7
    return (time.perf_counter() - t) / (0.002 * fraction)


class SpeedClock:
    """Times work in seconds at a fixed reference speed.

    On a shared host the CPU speed drifts by tens of percent within
    seconds, and a fixed calibration workload slows by nearly the same
    factor as the library's code.  Every stretch of timed work is therefore
    divided by the mean slowdown read on either side of it.  Readings are
    taken before and after each timed call (median of three); with
    `sample_s`, a timer signal also takes a short reading every `sample_s`
    seconds inside the call, for calls that last seconds.  In-call readings
    interrupt library code from a signal handler, so a sampled clock reads
    with `_cal_int`, which allocates nothing; otherwise `_cal_mix`, which
    tracks the Monte Carlo trials more closely.  Only single-process calls
    may be sampled: a reading taken while pool workers run would measure
    contention for the CPUs instead.  The raw wall time (minus the in-call
    readings) is kept too.
    """

    def __init__(self, sample_s: float | None = None):
        self.sample_s = sample_s
        self._read = _cal_int if sample_s else _cal_mix
        self._cal = self.calibrate()

    def calibrate(self) -> float:
        return statistics.median(self._read() for _ in range(3))

    def time(self, fn, *args, **kwargs) -> tuple:
        """(fn's result, wall seconds, reference seconds)."""
        readings = []  # (start, end, slowdown) inside the call

        def on_alarm(signum, frame):
            t = time.perf_counter()
            slowdown = self._read(SAMPLE_FRACTION)
            readings.append((t, time.perf_counter(), slowdown))

        if self.sample_s:
            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if self.sample_s:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, old)
        cal = self.calibrate()
        bounds = [(t0, t0, self._cal)] + readings + [(t1, t1, cal)]
        wall = ref = 0.0
        for (_, left_end, left), (right_start, _, right) in zip(bounds, bounds[1:]):
            stretch = right_start - left_end
            wall += stretch
            ref += stretch / ((left + right) / 2)
        self._cal = cal
        return out, wall, ref


# ---------------------------------------------------------------------------
# set-up


def import_fresh() -> SimpleNamespace:
    """Import indelkit's modules anew, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "indelkit" or m.startswith("indelkit.")]:
        del sys.modules[name]
    importlib.import_module("indelkit")
    return SimpleNamespace(**{m: importlib.import_module("indelkit." + m)
                              for m in MODULES})


def setup(wl) -> SimpleNamespace:
    """Import indelkit, build the config and code, and warm up."""
    lib = import_fresh()
    h = lib.harness
    if isinstance(wl, MonteCarlo):
        cfg = wl.config(lib, WARMUP_SEED, trials=2)
        lib.codes.make_code(cfg.code, cfg.n, cfg.q)
        h.run_experiment(cfg, workers=1)
    else:
        h.sweep_brute_force_window(6)
        h.sweep_two_del_condition(9)
        h.exact_expected_distance("mlstar2", 8, k=2, method="enumerate")
    return lib


def timed_setups(wl) -> tuple:
    """SETUP_REPS set-ups: the last library import, and per set-up its
    (wall, reference) seconds."""
    clock = SpeedClock()
    times = []
    for _ in range(SETUP_REPS):
        lib, wall, ref = clock.time(setup, wl)
        times.append((wall, ref))
    return lib, times


# ---------------------------------------------------------------------------
# measurement with tracing off


class Run:
    """Operation counts and problems of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, count: int, problems) -> None:
        self.failed += count
        self.problems.extend(problems)


def timed_call(lib, wl, master_seed: int, workers: int, clock: SpeedClock) -> dict:
    """One run_experiment call: its wall and reference time, exact sums."""
    res, wall, ref = clock.time(lib.harness.run_experiment,
                                wl.config(lib, master_seed), workers=workers)
    return {"master_seed": master_seed, "wall_s": wall, "ref_s": ref,
            "sums": checks.point_sums(res.points[0], wl.n)}


def run_calls(lib, wl, seed: int, calls: int, seconds: float, run: Run) -> list:
    """At least `calls` run_experiment calls, continuing until `seconds`
    have passed."""
    out = []
    clock = SpeedClock()
    t0 = time.perf_counter()
    k = 0
    while k < calls or time.perf_counter() - t0 < seconds:
        run.attempted += wl.batch
        try:
            out.append(timed_call(lib, wl, call_seed(seed, k), wl.workers, clock))
        except Exception:  # report the failure as a failed operation
            traceback.print_exc()
            run.fail(wl.batch, [f"run_experiment raised on call {k}"])
            break
        k += 1
    return out


def verify_calls(lib, wl, calls: list, seed: int, run: Run) -> None:
    """Re-run the given calls with the checked reference loop; compare the
    exact sums with the harness and, at the default seed, with the pin."""
    total = dict.fromkeys(checks.SUM_FIELDS, 0)
    for k, call in enumerate(calls):
        ref = tracing.run_trials(lib, wl.config(lib, call["master_seed"]),
                                 0, wl.batch)
        tracing.check(ref)
        mismatch = checks.check_sums(call["sums"], ref.sums, f"call {k}")
        run.fail(wl.batch if mismatch else ref.failed, mismatch + ref.problems)
        for f in checks.SUM_FIELDS:
            total[f] += ref.sums[f]
    if seed == DEFAULT_SEED and wl.pinned is not None:
        mismatch = checks.check_sums(total, wl.pinned, "pinned sums")
        if mismatch:
            run.fail(len(calls) * wl.batch, mismatch)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, with a worker pool, `workers` times
    the largest worker's peak (an upper bound: forked pages are shared)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _call_peak(lib, wl, master_seed: int, conn) -> None:
    """Child-process body: one run_experiment call, then its peak RSS."""
    lib.harness.run_experiment(wl.config(lib, master_seed), workers=wl.workers)
    conn.send(peak_rss_mb(wl.workers))
    conn.close()


def call_peaks(lib, wl, seed: int, run: Run) -> list:
    """Peak RSS of each of the first `memory_calls` calls, each run in a
    fresh child forked from this process.  Run before any timed work, so
    every child starts from the same set-up state; forking (not spawning)
    is what carries that state over, and no threads exist yet to make it
    unsafe."""
    ctx = multiprocessing.get_context("fork")
    peaks = []
    for k in range(wl.memory_calls):
        run.attempted += wl.batch
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_call_peak,
                           args=(lib, wl, call_seed(seed, k), send))
        proc.start()
        send.close()
        try:
            peaks.append(recv.recv())
        except EOFError:
            run.fail(wl.batch, [f"memory call {k} exited with no result"])
        finally:
            proc.join()
            recv.close()
    return peaks


def measure(wl, seed: int, seconds: float) -> tuple:
    """End-to-end metrics of one run with tracing off."""
    lib, setup_times = timed_setups(wl)
    run = Run()
    if isinstance(wl, MonteCarlo):
        peaks = call_peaks(lib, wl, seed, run)
        calls = run_calls(lib, wl, seed, wl.verify_calls, seconds, run)
        for call in calls[wl.verify_calls:]:
            run.failed += call["sums"]["truncated"]
        verify_calls(lib, wl, calls[:wl.verify_calls], seed, run)
        refs = [c["ref_s"] for c in calls] or [float("nan")]
        walls = [c["wall_s"] for c in calls] or [float("nan")]
        sweep_s = statistics.median(refs)
        trials_per_s = statistics.median(wl.batch / t for t in refs)
        raw = {"trials_per_s": statistics.median(wl.batch / t for t in walls),
               "sweep_s": statistics.median(walls)}
        peak = statistics.median(peaks) if peaks else float("nan")
        details = {"calls": calls, "call_peak_rss_mb": peaks}
    else:
        sets = []
        clock = SpeedClock(SWEEP_SAMPLE_S)
        t0 = time.perf_counter()
        while not sets or time.perf_counter() - t0 < seconds:
            times, results = run_sweeps(lib, wl, clock)
            problems = checks.check_sweeps(results, wl.expected)
            run.attempted += len(times)
            run.fail(len(problems), problems)
            sets.append(times)
        sweep_s = sum(statistics.median(s[key][1] for s in sets) for key in sets[0])
        trials_per_s = wl.outputs() / sweep_s
        raw_s = sum(statistics.median(s[key][0] for s in sets) for key in sets[0])
        raw = {"trials_per_s": wl.outputs() / raw_s, "sweep_s": raw_s}
        peak = peak_rss_mb(1)
        details = {"sweep_sets": sets}
    metrics = {"trials_per_s": trials_per_s, "sweep_s": sweep_s,
               "setup_s": statistics.median(ref for _, ref in setup_times),
               "peak_rss_mb": peak}
    raw["setup_s"] = statistics.median(wall for wall, _ in setup_times)
    details["setup_times_s"] = setup_times
    details["raw_wall"] = raw
    return metrics, run, details


def run_sweeps(lib, wl, clock: SpeedClock, tracer=None) -> tuple:
    """The fixed sweep set once: per call (wall, reference) seconds, and
    the results."""
    tr = tracer or tracing.NullTracer()
    h = lib.harness
    calls = [("window", "harness.sweep_window", wl.window_n,
              h.sweep_brute_force_window, (wl.window_n,), {})]
    calls += [(f"cond{m}", "harness.sweep_cond", m, h.sweep_two_del_condition,
               (m,), {}) for m in wl.cond_ns]
    calls.append(("exact", "harness.exact_enum", wl.enum_n,
                  h.exact_expected_distance, ("mlstar2", wl.enum_n),
                  {"k": wl.enum_k, "method": "enumerate"}))
    times, results = {}, {"cond": {}}
    for key, span, tid, fn, args, kwargs in calls:
        s = tr.begin(span, tid)
        res, wall, ref = clock.time(fn, *args, **kwargs)
        tr.end(s)
        times[key] = (wall, ref)
        if key.startswith("cond"):
            results["cond"][args[0]] = res
        else:
            results[key] = res
    return times, results


# ---------------------------------------------------------------------------
# traced per-layer run


def _mean_us(layers: dict, name: str) -> float:
    row = layers.get(name)
    return row["total_us"] / row["count"] if row and row["count"] else 0.0


def _total_us(layers: dict, *names) -> float:
    return sum(layers[n]["total_us"] for n in names if n in layers)


def trace_mc(lib, wl, seed: int, run: Run) -> tuple:
    """Per call: the untraced single-process harness run, then the traced
    loop over the same trials.  Then the untraced pool runs (workers > 1),
    and last the probe and check passes.

    Span times are scaled to reference speed by the traced loops' ratio of
    reference to wall time, so that they compare with the untraced calls.
    """
    tracer = tracing.Tracer()
    clock = SpeedClock()
    calls1, loops = [], []
    loop_wall = loop_ref = 0.0
    for k in range(wl.trace_calls):
        ms = call_seed(seed, k)
        run.attempted += wl.batch
        calls1.append(timed_call(lib, wl, ms, 1, clock))
        loop, wall, ref = clock.time(tracing.run_trials, lib, wl.config(lib, ms),
                                     0, wl.batch, tracer, trial_base=k * wl.batch)
        loops.append(loop)
        loop_wall += wall
        loop_ref += ref
    callsp = calls1
    if wl.workers > 1:
        callsp = [timed_call(lib, wl, c["master_seed"], wl.workers, clock)
                  for c in calls1]
    for lp in loops:
        tracing.probe(lib, lp, tracer)
    for k, lp in enumerate(loops):
        tracing.check(lp)
        mismatch = checks.check_sums(calls1[k]["sums"], lp.sums, f"call {k}")
        if callsp is not calls1:
            mismatch += checks.check_sums(callsp[k]["sums"], lp.sums,
                                          f"call {k}, {wl.workers} workers")
        run.fail(wl.batch if mismatch else lp.failed, mismatch + lp.problems)

    scale = loop_ref / loop_wall
    L = tracer.layers()
    trials = sum(len(lp.trials) for lp in loops)
    cands = [c for lp in loops for c in lp.cands]
    shortcuts = sum(lp.shortcuts for lp in loops)
    p50, tail, pct, samples = tracing.tail_percentile(
        [ns / 1e3 for lp in loops for ns in lp.decode_ns])
    score = [ns / 1e3 for lp in loops for ns in lp.score_ns]
    ref1 = sum(c["ref_s"] for c in calls1)
    refp = sum(c["ref_s"] for c in callsp)
    trial_us = _total_us(L, "harness.trial")
    layer_us = _total_us(L, "harness.seed", "codes.sample", "channels.transmit",
                         "decoders.decode", "words.indel_distance")
    m = dict.fromkeys(SWEEP_ONLY, 0.0)
    m.update({
        "decoders.score_us": scale * statistics.fmean(score) if score else 0.0,
        "decoders.decode_us_p50": scale * p50,
        "decoders.decode_us_tail": scale * tail,
        "decoders.decode_tail_pct": pct,
        "decoders.decode_samples": samples,
        "decoders.score_row_steps": sum(lp.row_steps for lp in loops),
        "decoders.cands_per_decode": sum(cands) / len(cands) if cands else 0.0,
        "supersequences.enum_us": scale * _mean_us(L, "supersequences.enumerate"),
        "supersequences.dag_cells": sum(lp.dag_cells for lp in loops),
        "supersequences.cands_total": sum(cands) - shortcuts,
        "supersequences.cands_max": max(cands, default=0),
        "supersequences.single_cand_frac": sum(lp.single_cand for lp in loops) / trials,
        "supersequences.truncated": sum(lp.enum_truncated for lp in loops),
        "words.is_subsequence_us": scale * _mean_us(L, "words.is_subsequence"),
        "words.shortcut_frac": shortcuts / trials,
        "words.indel_distance_us": scale * _mean_us(L, "words.indel_distance"),
        "codes.sample_us": scale * _mean_us(L, "codes.sample"),
        "channels.transmit_us": scale * _mean_us(L, "channels.transmit"),
        "harness.seed_us": scale * _mean_us(L, "harness.seed"),
        "harness.overhead_us": (ref1 * 1e6 - scale * layer_us) / trials,
        "harness.parallel_eff": ref1 / (wl.workers * refp),
        "trace.overhead_frac": scale * trial_us / 1e6 / ref1 - 1.0,
        "trace.trials": trials,
    })
    details = {"untraced_calls": calls1, "pool_calls": callsp if wl.workers > 1 else None,
               "trace_ref_per_wall": scale}
    return m, tracer, details


def trace_sweeps(lib, wl, run: Run) -> tuple:
    """The sweep set under spans, then a traced replica of the exact
    enumeration whose value must equal the harness's.  Span times are
    scaled to reference speed by the replica's reference-to-wall ratio."""
    tracer = tracing.Tracer()
    clock = SpeedClock(SWEEP_SAMPLE_S)
    times, results = run_sweeps(lib, wl, clock, tracer)
    problems = checks.check_sweeps(results, wl.expected)
    run.attempted += len(times)
    run.fail(len(problems), problems)
    (value, outputs), wall, ref = clock.time(
        tracing.trace_exact_enum, lib, wl.enum_n, wl.enum_k, tracer)
    run.attempted += outputs
    if value != results["exact"]:
        run.fail(outputs, [f"traced exact value {value} != {results['exact']}"])

    scale = ref / wall
    L = tracer.layers()
    ball_size = lib.combinatorics.insertion_ball_size
    wn = wl.window_n
    exact_s = times["exact"][1]
    replica_us = _total_us(L, "harness.enum_output")
    layer_us = _total_us(L, "decoders.decode", "combinatorics.insertion_ball",
                         "combinatorics.embedding_banded", "words.indel_distance")
    p50, tail, pct, samples = tracing.tail_percentile(
        [ns / 1e3 for ns in tracer.durations_ns("decoders.decode")])
    m = dict.fromkeys(MC_ONLY, 0.0)
    m.update({
        "decoders.decode_us_p50": scale * p50,
        "decoders.decode_us_tail": scale * tail,
        "decoders.decode_tail_pct": pct,
        "decoders.decode_samples": samples,
        "words.indel_distance_us": scale * _mean_us(L, "words.indel_distance"),
        "harness.overhead_us": (exact_s * 1e6 - scale * layer_us) / outputs,
        "harness.parallel_eff": 1.0,  # the sweeps run in one process
        "harness.sweep_window_s": times["window"][1],
        "harness.sweep_cond_s": sum(times[f"cond{m}"][1] for m in wl.cond_ns),
        "harness.exact_enum_s": exact_s,
        # LCS cells of the vectorised window table: every candidate of
        # length L in [n-2, n+1] against every word of length n.
        "harness.window_lcs_cells": sum((1 << wn) * (1 << L) * L * wn
                                        for L in range(wn - 2, wn + 2)),
        "combinatorics.insertion_ball_us": scale * _mean_us(L, "combinatorics.insertion_ball"),
        "combinatorics.embedding_banded_us": scale * _mean_us(L, "combinatorics.embedding_banded"),
        # Ball sizes do not depend on the word: |I_t(y)| has a closed form.
        "combinatorics.ball_words": (
            2 ** (wn - 2) * ball_size(wn - 2, 2, 2)
            + sum(2 ** (c - 2) * ball_size(c - 1, 1, 2) for c in wl.cond_ns)
            + 2 ** (wl.enum_n - wl.enum_k) * ball_size(wl.enum_n - wl.enum_k, wl.enum_k, 2)),
        "trace.overhead_frac": scale * replica_us / 1e6 / exact_s - 1.0,
        "trace.trials": outputs,
    })
    return m, tracer, {"sweep_times_s": times, "trace_ref_per_wall": scale}


def trace(wl, seed: int) -> tuple:
    lib, setup_times = timed_setups(wl)
    run = Run()
    if isinstance(wl, MonteCarlo):
        metrics, tracer, details = trace_mc(lib, wl, seed, run)
    else:
        metrics, tracer, details = trace_sweeps(lib, wl, run)
    metrics["op_fail_frac"] = run.failed / max(1, run.attempted)
    metrics["harness.peak_rss_mb"] = peak_rss_mb(getattr(wl, "workers", 1))
    details["setup_times_s"] = setup_times
    return metrics, run, details, tracer


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int, workers: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_revision": git_revision(), "seed": seed, "workers": workers}


def git_revision() -> str | None:
    """HEAD's commit from the .git directory, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def with_units(values: dict, kind: str) -> dict:
    units = declared(kind)
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(set(values) ^ set(units))} do not "
                         f"match BENCHMARK.json {kind}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(wl, seed: int, seconds: float, traced: bool) -> tuple:
    """(result line dict, full record) for one workload run."""
    tracer = None
    if traced:
        values, run, details, tracer = trace(wl, seed)
        metrics = with_units(values, "per_layer")
    else:
        values, run, details = measure(wl, seed, seconds)
        metrics = with_units(values, "end_to_end")
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"workload": wl.name,
              "environment": environment(seed, getattr(wl, "workers", 1)),
              "seconds": seconds, "trace": int(traced), "result": result,
              "problems": run.problems, "details": details}
    if tracer is not None:
        record["layers"] = tracer.layers()
        record["spans"] = tracer.to_json()
    return result, record


def print_table(result: dict, traced: bool) -> None:
    layers = SPEC["layers"]
    for name, m in result["metrics"].items():
        line = f"{name:36s} {m['value']:>16.6g} {m['unit']}"
        if traced:
            info = layers[name]
            line += "  [computed]" if info.get("computed") else ""
            line += f"  moves {info['moves']} on {', '.join(info['on'])}"
        print(line)


def run_all(args) -> int:
    """Each workload in a fresh process; a combined summary line last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] &= bool(res["correct"]) and proc.returncode == 0
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    result, record = run_workload(wl, args.seed, args.seconds, traced)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, default=str))
    print("environment:", json.dumps(record["environment"]))
    if "raw_wall" in record["details"]:
        print("raw wall-clock figures:", json.dumps(record["details"]["raw_wall"]))
    for problem in record["problems"][:20]:
        print("CHECK FAILED:", problem)
    print_table(result, traced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
