"""Correctness gate of the benchmark.

Each checker returns a list of human-readable problems; an empty list means
the output passed.  The checkers use only the library's independent
reference routines (greedy subsequence test, unbanded LCS/SCS row DP,
banded embedding numbers), never the decoder's own scoring path.

This module also puts the repository's `src/` first on `sys.path` and
refuses an `indelkit` imported from anywhere else, so the benchmark always
measures the checkout it sits in.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import indelkit  # noqa: E402

if Path(indelkit.__file__).resolve().parent != SRC / "indelkit":
    raise ImportError(f"indelkit was imported from {indelkit.__file__}, "
                      f"not from {SRC}")

from indelkit.combinatorics import embedding_number_banded  # noqa: E402
from indelkit.supersequences import lcs_length, scs_length  # noqa: E402
from indelkit.words import is_subsequence  # noqa: E402

# Exact integer sums compared between the harness and the reference loop.
SUM_FIELDS = ("sum_d", "failures", "run_units", "alt_units", "truncated")


def check_trial(kind: str, c, y1, y2, out, truncated: bool) -> list:
    """Check one two-trace decode of codeword `c` from traces `y1`, `y2`.

    kind "del": `out` must be a common supersequence of both traces whose
    length is the SCS length; kind "ins": a common subsequence whose length
    is the LCS length.  When the sent codeword is itself a candidate (it
    has that length), the output's embedding-number product must be at
    least the codeword's, since the decoder maximises that product.
    """
    c, y1, y2, out = tuple(c), tuple(y1), tuple(y2), tuple(out)
    problems = []
    if truncated:
        problems.append("candidate enumeration was truncated")
    if kind == "del":
        if not (is_subsequence(y1, out) and is_subsequence(y2, out)):
            problems.append("output is not a common supersequence of the traces")
        target = scs_length(y1, y2)

        def score(x):
            return embedding_number_banded(x, y1) * embedding_number_banded(x, y2)
    elif kind == "ins":
        if not (is_subsequence(out, y1) and is_subsequence(out, y2)):
            problems.append("output is not a common subsequence of the traces")
        target = lcs_length(y1, y2)

        def score(x):
            return embedding_number_banded(y1, x) * embedding_number_banded(y2, x)
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    if len(out) != target:
        problems.append(f"output length {len(out)} != optimal length {target}")
    elif len(c) == target and score(out) < score(c):
        problems.append("the sent codeword scores higher than the output")
    return problems


def point_sums(point, n: int) -> dict:
    """Exact integer sums behind one harness PointResult.

    The harness divides exact integer sums once; multiplying back and
    rounding recovers them, and the division is repeated to prove the
    recovery exact.
    """
    T = point.trials
    sums = {"sum_d": round(point.levenshtein_rate * n * T),
            "failures": round(point.failure_rate * T),
            "run_units": round(point.run_component * n * T),
            "alt_units": round(point.alt_component * n * T),
            "truncated": point.truncated_trials}
    exact = (sums["sum_d"] / T / n == point.levenshtein_rate
             and sums["failures"] / T == point.failure_rate
             and sums["run_units"] / (n * T) == point.run_component
             and sums["alt_units"] / (n * T) == point.alt_component)
    if not exact:
        raise ValueError(f"cannot recover exact sums from {point!r}")
    return sums


def check_sums(got: dict, want: dict, what: str = "sums") -> list:
    """Field-by-field comparison of two exact-sum dicts."""
    return [f"{what}: {k} is {got.get(k)}, expected {want.get(k)}"
            for k in SUM_FIELDS if got.get(k) != want.get(k)]


def check_sweeps(results: dict, expected: dict) -> list:
    """Compare exhaustive-sweep results with their pinned values.

    results: {"window": sweep_brute_force_window(..) dict,
              "cond": {n: sweep_two_del_condition(n) dict},
              "exact": Fraction}
    expected: {"window": {"words", "length_violations", "mismatches"},
               "cond": {str(n): violation count}, "exact": "p/q"}
    """
    problems = []
    if "window" in results:
        win = results["window"]
        got = {"words": win["words"],
               "length_violations": len(win["length_violations"]),
               "mismatches": len(win["mismatches"])}
        if got != expected["window"]:
            problems.append(f"window sweep {got} != {expected['window']}")
    for n, res in results.get("cond", {}).items():
        want = expected["cond"][str(n)]
        if len(res["violations"]) != want:
            problems.append(f"condition sweep n={n}: "
                            f"{len(res['violations'])} violations != {want}")
    if "exact" in results and results["exact"] != Fraction(expected["exact"]):
        problems.append(f"exact value {results['exact']} != {expected['exact']}")
    return problems
