"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import bench
import checks
import tracing
from indelkit.channels import transmit_del, transmit_ins
from indelkit.combinatorics import embedding_number
from indelkit.decoders import mld_two_del_detailed, mld_two_ins_detailed
from indelkit.supersequences import enumerate_scs

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TINY = {w.name: w for w in (
    bench.MonteCarlo("tiny-del", "del", 24, 0.1, "mld2del", workers=1,
                     batch=4, verify_calls=1, memory_calls=1, trace_calls=2, pinned=None),
    bench.MonteCarlo("tiny-ins", "ins", 24, 0.1, "mld2ins", workers=1,
                     batch=4, verify_calls=1, memory_calls=1, trace_calls=2, pinned=None),
    bench.MonteCarlo("tiny-pool", "del", 24, 0.1, "mld2del", workers=2,
                     batch=4, verify_calls=1, memory_calls=1, trace_calls=1, pinned=None),
    bench.Sweeps("tiny-sweeps", window_n=5, cond_ns=(7, 8), enum_n=6, enum_k=2,
                 expected={"window": {"words": 8, "length_violations": 2,
                                      "mismatches": 2},
                           "cond": {"7": 0, "8": 18}, "exact": "149/480"}),
)}


def _run_cli(monkeypatch, capsys, workloads, argv):
    monkeypatch.setattr(bench, "WORKLOADS", workloads)
    code = bench.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_declared_names_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert list(bench.SPEC["layers"]) == [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric(monkeypatch, capsys, name, trace):
    code, lines, result = _run_cli(
        monkeypatch, capsys, TINY,
        ["--workload", name, "--seconds", "0", "--trace", str(trace)])
    kind = "per_layer" if trace else "end_to_end"
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[kind]]
    for m in BENCHMARK[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(m["name"] + " ") for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_failed_check_exits_non_zero(monkeypatch, capsys):
    wrong = bench.Sweeps("wrong-sweeps", window_n=5, cond_ns=(7, 8), enum_n=6,
                         enum_k=2, expected=dict(TINY["tiny-sweeps"].expected,
                                                 exact="1/2"))
    code, lines, result = _run_cli(
        monkeypatch, capsys, {wrong.name: wrong},
        ["--workload", wrong.name, "--seconds", "0"])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any("CHECK FAILED" in line for line in lines)


def _trials(kind, n, p, count, seed=7):
    """(c, y1, y2, output) of `count` decoded two-trace trials."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = tuple(int(b) for b in rng.integers(0, 2, n))
        if kind == "del":
            y1, y2 = transmit_del(c, p, rng), transmit_del(c, p, rng)
            x, _ = mld_two_del_detailed(y1, y2)
        else:
            y1, y2 = transmit_ins(c, p, 2, rng), transmit_ins(c, p, 2, rng)
            x, _ = mld_two_ins_detailed(y1, y2)
        out.append((c, y1, y2, x))
    return out


@pytest.mark.parametrize("kind", ["del", "ins"])
def test_check_trial_passes_decoder_outputs(kind):
    for c, y1, y2, x in _trials(kind, 20, 0.15, 40):
        assert checks.check_trial(kind, c, y1, y2, x, False) == []


def test_check_trial_trips_on_wrong_outputs():
    c, y1, y2, x = next(t for t in _trials("del", 20, 0.15, 40) if len(t[3]) > 2)
    assert checks.check_trial("del", c, y1, y2, x, True)          # truncated
    assert checks.check_trial("del", c, y1, y2, x[:-1], False)    # too short
    assert checks.check_trial("del", c, y1, y2, x + (0,), False)  # too long
    assert checks.check_trial("ins", c, y1, y2, x, False)   # not a subsequence
    # A shortest common supersequence that scores below the sent codeword.
    for c, y1, y2, x in _trials("del", 12, 0.2, 200):
        cands = enumerate_scs(y1, y2).candidates
        if len(c) != len(cands[0]):
            continue
        score = {w: embedding_number(w, y1) * embedding_number(w, y2) for w in cands}
        worse = [w for w in cands if score[w] < score[c]]
        if worse:
            problems = checks.check_trial("del", c, y1, y2, worse[0], False)
            assert problems == ["the sent codeword scores higher than the output"]
            break
    else:
        pytest.fail("no trial with a lower-scoring candidate")


def test_check_sums_and_sweeps_trip():
    sums = dict.fromkeys(checks.SUM_FIELDS, 3)
    assert checks.check_sums(sums, dict(sums)) == []
    assert checks.check_sums(sums, dict(sums, failures=4))
    expected = TINY["tiny-sweeps"].expected
    results = {"window": {"words": 8, "length_violations": [0, 1], "mismatches": [0, 1]},
               "cond": {7: {"violations": []}, 8: {"violations": [0] * 18}},
               "exact": Fraction(149, 480)}
    assert checks.check_sweeps(results, expected) == []
    assert checks.check_sweeps(dict(results, exact=Fraction(1, 2)), expected)
    bad_cond = dict(results, cond={7: {"violations": [0]}})
    assert checks.check_sweeps(bad_cond, expected)


def test_reference_loop_matches_harness():
    wl = TINY["tiny-ins"]
    lib = bench.setup(wl)
    call = bench.timed_call(lib, wl, 5, 1, bench.SpeedClock())
    loop = tracing.run_trials(lib, wl.config(lib, 5), 0, wl.batch)
    assert call["sums"] == loop.sums


def test_tail_percentile():
    assert tracing.tail_percentile([]) == (0.0, 0.0, 0.0, 0)
    p50, tail, pct, n = tracing.tail_percentile(list(range(1, 101)))
    assert (p50, tail, pct, n) == (50, 90, 90.0, 100)
    assert tracing.tail_percentile(list(range(1, 1001)))[1:3] == (990, 99.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "desk-del",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
