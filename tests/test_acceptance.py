"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measurements.

All Monte Carlo runs are fully seeded, so every verdict here is
deterministic.  Criteria 1 (q=2 low-p points), 2 (q=2 alternating
component), 3, 7 and 8 are implemented exactly as stated and fail honestly:
exact enumeration shows the closed forms they are checked against
undercount alternating-segment effects (see notes in the companion tests
and the repository analysis).  The remaining criteria pass.
"""

import time
from fractions import Fraction
from itertools import product
from math import exp, sqrt

import pytest

from indelkit.analysis import (coded_success_bounds, two_del_formulas,
                               two_ins_formulas)
from indelkit.channels import ChannelSpec
from indelkit.codes import VtCode
from indelkit.combinatorics import (deletion_ball, embedding_number,
                                    insertion_ball, insertion_ball_size,
                                    tau_of_space)
from indelkit.harness import (ExperimentConfig, figure_config, run_experiment,
                              worker_count)
from indelkit.supersequences import enumerate_scs, scs_length
from indelkit.sweeps import (exact_expected_distance, sweep_brute_force_window,
                             sweep_two_del_condition)
from indelkit.words import is_subsequence
from reference import tau_of_space_bruteforce

SEED = 2024
WORKERS = worker_count()


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# shared experiment fixtures (criteria 1-4)


@pytest.fixture(scope="module")
def fig12_results():
    out = {}
    start = time.perf_counter()
    for q in (2, 4):
        cfg = figure_config("fig1", "desk", SEED, q=q)
        out[q] = run_experiment(cfg, workers=WORKERS)
    out["elapsed"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def fig5_result():
    cfg = figure_config("fig5", "desk", SEED)
    return run_experiment(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def fig3_results(fig12_results):
    # the uncoded fig3 series runs the fig1 q=2 config: reuse that run
    assert (figure_config("fig3", "desk", SEED, code={"code": "all"})
            == figure_config("fig1", "desk", SEED, q=2))
    out = {"all": fig12_results[2]}
    for code in ({"code": "vt", "a": 0}, {"code": "svt", "a": 0}):
        cfg = figure_config("fig3", "desk", SEED, code=code)
        out[code["code"]] = run_experiment(cfg, workers=WORKERS)
    return out


# ---------------------------------------------------------------------------
# criteria 1-4: Monte Carlo reproductions


def test_criterion_01_fig1_levenshtein_window(fig12_results):
    rows = []
    ok = True
    for q in (2, 4):
        for pt in fig12_results[q].points:
            formula = two_del_formulas(q, pt.p, 150).p_err_approx
            ratio = pt.levenshtein_rate / formula
            good = 0.4 * formula <= pt.levenshtein_rate <= 1.1 * formula
            ok &= good
            rows.append(f"q={q} p={pt.p} ratio={ratio:.3f}"
                        f"{'' if good else ' <-OUT'}")
    elapsed = fig12_results["elapsed"]
    budget = 120 if WORKERS >= 8 else 600
    in_time = elapsed <= budget
    _verdict(1, "fig1 LER in [0.4,1.1]x(3q-1)/(q-1)p^2",
             ok and in_time, f"[{'; '.join(rows)}] {elapsed:.0f}s/{budget}s")
    assert in_time, f"runtime {elapsed:.0f}s exceeds {budget}s"
    assert ok, (
        "q=2 low-p points sit above 1.1x: the exact p^2 coefficient of the "
        "decoder is ~6.2, not 5 (alternating-type error events outside the "
        "run/alternating taxonomy); see the README's Known deviations "
        "section and test_exact_alternating_coefficient_exceeds_formula. "
        + "; ".join(rows))


def test_criterion_02_fig2_run_alt_windows(fig12_results):
    rows = []
    ok = True
    for q in (2, 4):
        f_at = {pt.p: two_del_formulas(q, pt.p, 150) for pt
                in fig12_results[q].points}
        for pt in fig12_results[q].points:
            f = f_at[pt.p]
            run_good = 0.4 * f.p_run <= pt.run_component <= 1.1 * f.p_run
            alt_good = 0.4 * f.p_alt <= pt.alt_component <= 1.1 * f.p_alt
            ok &= run_good and alt_good
            rows.append(f"q={q} p={pt.p} run={pt.run_component/f.p_run:.3f}"
                        f"{'' if run_good else '<-OUT'} "
                        f"alt={pt.alt_component/f.p_alt:.3f}"
                        f"{'' if alt_good else '<-OUT'}")
    _verdict(2, "fig2 run/alt components in window", ok, "; ".join(rows))
    assert ok, (
        "the q=2 alternating component exceeds 1.1 x 2p^2 at every grid "
        "point: exact event enumeration gives coefficient ~3.2, not 2 "
        "(decoder-confusable non-alternating spans are missing from the "
        "closed form); see the README's Known deviations section. " + "; ".join(rows))


def test_criterion_03_fig5_insertion_window(fig5_result):
    rows = []
    ok = True
    for pt in fig5_result.points:
        formula = two_ins_formulas(2, pt.p, 150).p_err_approx
        ratio = pt.levenshtein_rate / formula
        good = 0.4 * formula <= pt.levenshtein_rate <= 1.1 * formula
        ok &= good
        rows.append(f"p={pt.p} ratio={ratio:.3f}{'' if good else ' <-OUT'}")
    _verdict(3, "fig5 insertion LER in [0.4,1.1]x(5/2)p^2", ok, "; ".join(rows))
    assert ok, (
        "the q=2 insertion rate exceeds 1.1x: same alternating undercount "
        "as the deletion side (exact coefficient above the closed form); "
        "see the README's Known deviations section. " + "; ".join(rows))


def test_criterion_04_fig3_code_ordering_and_bound(fig3_results):
    rows = []
    ok = True
    succ = {}
    se = {}
    for name, res in fig3_results.items():
        for pt in res.points:
            succ[name, pt.p] = 1.0 - pt.failure_rate
            se[name, pt.p] = pt.stderr_fail
    for pt in fig3_results["all"].points:
        p = pt.p
        s_all, s_vt, s_svt = succ["all", p], succ["vt", p], succ["svt", p]
        tol_vs = 3 * sqrt(se["vt", p] ** 2 + se["svt", p] ** 2)
        tol_su = 3 * sqrt(se["svt", p] ** 2 + se["all", p] ** 2)
        ordered = (s_vt >= s_svt - tol_vs) and (s_svt >= s_all - tol_su)
        bound = exp(-5 * p * p * 150) * 0.95
        bounded = s_all >= bound
        ok &= ordered and bounded
        rows.append(f"p={p} vt={s_vt:.3f}>=svt={s_svt:.3f}>=all={s_all:.3f} "
                    f"bound={bound:.3f}{'' if ordered and bounded else ' <-OUT'}")
    _verdict(4, "fig3 VT>=SVT>=uncoded and exp bound", ok, "; ".join(rows))
    assert ok, "; ".join(rows)


# ---------------------------------------------------------------------------
# criteria 5-6: exact 1-deletion laws


def test_criterion_05_exact_lazy_law():
    start = time.perf_counter()
    bad = [n for n in range(5, 21)
           if exact_expected_distance("lazy", n, 1) != Fraction(1, n)]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    _verdict(5, "exact lazy law = 1/n for n in 5..20", ok,
             f"({elapsed:.1f}s)")
    assert ok, (bad, elapsed)


def test_criterion_06_lazy_beats_en():
    start = time.perf_counter()
    vals = {n: exact_expected_distance("en:1", n, 1) for n in (17, 18)}
    elapsed = time.perf_counter() - start
    ok = all(vals[n] > Fraction(1, n) for n in (17, 18)) and elapsed < 300
    _verdict(6, "exact EN distance > 1/n at n=17,18", ok,
             f"en17={vals[17]} en18={vals[18]} ({elapsed:.1f}s)")
    assert ok, (vals, elapsed)


# ---------------------------------------------------------------------------
# criteria 7-8: 2-deletion closed form vs exact objective


def test_criterion_07_condition_sign_oracle():
    start = time.perf_counter()
    counts = {}
    for n in range(8, 15):
        counts[n] = len(sweep_two_del_condition(n)["violations"])
    elapsed = time.perf_counter() - start
    ok = not any(counts.values()) and elapsed < 300
    _verdict(7, "2-del condition polynomial matches exact sign", ok,
             f"violations per n: {counts} ({elapsed:.1f}s)")
    assert elapsed < 300
    assert ok, (
        f"the closed-form sign condition disagrees with the exact "
        f"lazy-vs-prolong gap on {sum(counts.values())} outputs "
        f"({counts}); the derivation undercounts embeddings of "
        f"alternating-extension words; see the README's Known deviations section and "
        f"test_criterion_07_companion_violations_pinned.")


def test_criterion_07_companion_violations_pinned():
    # The exact violation counts, frozen: nonzero exactly where the
    # polynomial's marginal values collide with the alternating
    # embedding corrections.  Every violation has a small nonnegative
    # polynomial and a strictly negative exact gap (the closed form never
    # errs in the other direction on these ranges).
    expected = {8: 18, 9: 0, 10: 0, 11: 52, 12: 0, 13: 112, 14: 0}
    for n, want in expected.items():
        res = sweep_two_del_condition(n)
        assert len(res["violations"]) == want, n
        for v in res["violations"]:
            assert v["poly"] >= 0 and v["gap"] < 0


def test_condition_sweep_violations_pinned_past_14():
    # The exact violation counts beyond criterion 7's range, where the
    # linear-time gap makes the sweep cheap: 14 violations at n = 16, with
    # the same sign pattern as below 15.
    for n, want in {15: 0, 16: 14, 17: 0}.items():
        res = sweep_two_del_condition(n)
        assert len(res["violations"]) == want, n
        for v in res["violations"]:
            assert v["poly"] >= 0 and v["gap"] < 0


def test_criterion_08_brute_force_window():
    start = time.perf_counter()
    length_bad = {}
    mismatch = {}
    for n in range(4, 13):
        res = sweep_brute_force_window(n)
        length_bad[n] = len(res["length_violations"])
        mismatch[n] = len(res["mismatches"])
    elapsed = time.perf_counter() - start
    ok = not any(length_bad.values()) and not any(mismatch.values())
    _verdict(8, "brute-force optimum has length n-2 or n-1", ok,
             f"len-violations: {length_bad}; closed-form mismatches: "
             f"{mismatch} ({elapsed:.1f}s)")
    assert ok, (
        "the exact global optimum leaves the claimed length window on "
        "near-alternating outputs (it extends the alternation to full "
        "length n) and then differs from the closed-form decoder; "
        "see the README's Known deviations section and the pinned companion test. "
        f"lengths: {length_bad}, mismatches: {mismatch}")


def test_criterion_08_companion_violations_pinned():
    expected_len = {4: 2, 5: 2, 6: 6, 7: 8, 8: 16, 9: 20, 10: 24, 11: 24,
                    12: 38}
    expected_mis = {4: 2, 5: 2, 6: 8, 7: 8, 8: 24, 9: 20, 10: 24, 11: 76,
                    12: 38}
    for n in expected_len:
        res = sweep_brute_force_window(n)
        assert len(res["length_violations"]) == expected_len[n]
        assert len(res["mismatches"]) == expected_mis[n]
        # every out-of-window winner has length exactly n (never n+1)
        assert all(v["winner_len"] == n for v in res["length_violations"])


# ---------------------------------------------------------------------------
# criterion 9: combinatorial oracles


def test_criterion_09_combinatorial_oracles():
    start = time.perf_counter()
    mismatches = 0

    # embedding number vs explicit subset enumeration (every index subset of
    # every binary x with |x| <= 10, tallied into per-subsequence counts)
    for m in range(0, 11):
        for x in product((0, 1), repeat=m):
            counts = {}
            for mask in range(1 << m):
                sub = tuple(x[i] for i in range(m) if mask >> i & 1)
                counts[sub] = counts.get(sub, 0) + 1
            for y, cnt in counts.items():
                if embedding_number(x, y) != cnt:
                    mismatches += 1
            if m >= 3:
                probe = tuple(1 - s for s in x[:3])
                if probe not in counts and embedding_number(x, probe) != 0:
                    mismatches += 1

    # ball-sum identity, all binary x with |x| <= 8 and every radius
    import math
    for m in range(0, 9):
        for x in product((0, 1), repeat=m):
            for t in range(0, m + 1):
                total = sum(embedding_number(x, y) for y in deletion_ball(x, t))
                if total != math.comb(m, t):
                    mismatches += 1

    # insertion ball size vs closed form
    import random
    rnd = random.Random(0)
    for q, max_full in ((2, 8), (3, 7), (4, 6)):
        for m in range(0, max_full + 1):
            for x in product(range(q), repeat=m):
                for t in (0, 1, 2):
                    if len(insertion_ball(x, t, q)) != insertion_ball_size(m, t, q):
                        mismatches += 1
        for m in range(max_full + 1, 9):
            for _ in range(40):
                x = tuple(rnd.randrange(q) for _ in range(m))
                for t in (1, 2):
                    if len(insertion_ball(x, t, q)) != insertion_ball_size(m, t, q):
                        mismatches += 1

    # SCS enumeration vs brute-force filter
    for m1 in range(0, 7):
        for m2 in range(0, 7):
            for y1 in product((0, 1), repeat=m1):
                for y2 in product((0, 1), repeat=m2):
                    s = scs_length(y1, y2)
                    brute = {x for x in product((0, 1), repeat=s)
                             if is_subsequence(y1, x) and is_subsequence(y2, x)}
                    if set(enumerate_scs(y1, y2).candidates) != brute:
                        mismatches += 1
    rnd = random.Random(1)
    for _ in range(300):
        y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(7, 8)))
        y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(7, 8)))
        s = scs_length(y1, y2)
        brute = {x for x in product((0, 1), repeat=s)
                 if is_subsequence(y1, x) and is_subsequence(y2, x)}
        if set(enumerate_scs(y1, y2).candidates) != brute:
            mismatches += 1

    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    _verdict(9, "combinatorial oracles agree", ok,
             f"mismatches={mismatches} ({elapsed:.1f}s)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: VT correction and the run-statistic bound


def test_criterion_10_vt_correction_and_tau():
    from math import log2
    start = time.perf_counter()
    bad = 0
    for n in range(2, 13):
        for a in range(n + 1):
            code = VtCode(n, a)
            for c in code.enumerate_words():
                for y in deletion_ball(c, 1):
                    alg = code.decode_1del(y)
                    if alg != c or alg != code.decode_1del_search(y):
                        bad += 1
    tau_ok = all(float(tau_of_space(n)) <= 2 * log2(n) for n in range(2, 25))
    dp_ok = all(tau_of_space(n) == tau_of_space_bruteforce(n)
                for n in range(1, 17))
    elapsed = time.perf_counter() - start
    ok = bad == 0 and tau_ok and dp_ok
    _verdict(10, "VT corrects every single deletion; tau bound", ok,
             f"decode failures={bad} tau_bound={tau_ok} tau_dp=enum:{dp_ok} "
             f"({elapsed:.1f}s)")
    assert ok


# ---------------------------------------------------------------------------
# exact coefficient facts behind the criterion 1-3 failures (all green)


def test_exact_alternating_coefficient_exceeds_formula():
    """Noise-free p^2-order coefficients of the implemented decoder by full
    single-deletion-pair enumeration: the run parts match the closed forms,
    the alternating parts exceed them at q = 2 (the source of the
    criterion 1-3 window failures)."""
    import numpy as np
    from indelkit.decoders import mld_two_del_detailed
    from indelkit.words import indel_distance, runs

    def coeffs(n, q, n_codewords, seed):
        rng = np.random.default_rng(seed)
        tot_run = tot_alt = 0.0
        for _ in range(n_codewords):
            c = tuple(int(s) for s in rng.integers(0, q, n))
            prof = runs(c)
            outs = []
            pos = 0
            for L in prof.run_lengths:
                outs.append((c[:pos] + c[pos + 1:], L))
                pos += L
            ru = au = 0
            for y1, w1 in outs:
                for y2, w2 in outs:
                    out, _ = mld_two_del_detailed(y1, y2, band=(1, 1))
                    d = indel_distance(out, c)
                    lost = n - len(out)
                    ru += w1 * w2 * lost
                    au += w1 * w2 * (d - lost)
            tot_run += ru / n
            tot_alt += au / n
        return tot_run / n_codewords, tot_alt / n_codewords

    run2, alt2 = coeffs(60, 2, 60, 1)
    assert run2 == pytest.approx(3.0, rel=0.05)      # matches (q+1)/(q-1)
    assert alt2 > 2.0 * 1.35                         # far above the 2p^2 form
    run4, alt4 = coeffs(60, 4, 60, 1)
    assert run4 == pytest.approx(5 / 3, rel=0.06)
    assert alt4 == pytest.approx(2.0, rel=0.15)      # q=4 stays near the form


def test_exact_insertion_coefficients_exceed_formula():
    """Insertion-side counterpart: run coefficient matches (q+1)/(q(q-1)),
    alternating coefficient sits well above (2/q) p^2 at q = 2."""
    import numpy as np
    from indelkit.decoders import mld_two_ins_detailed
    from indelkit.words import indel_distance

    q, n = 2, 40
    rng = np.random.default_rng(5)
    tot_run = tot_alt = 0.0
    n_codewords = 50
    for _ in range(n_codewords):
        c = tuple(int(s) for s in rng.integers(0, q, n))
        ball = [(y, embedding_number(y, c)) for y in insertion_ball(c, 1, q)]
        ru = au = 0
        for y1, w1 in ball:
            for y2, w2 in ball:
                out, _ = mld_two_ins_detailed(y1, y2, band=(1, 1))
                d = indel_distance(out, c)
                extra = max(0, len(out) - n)
                ru += w1 * w2 * extra
                au += w1 * w2 * (d - extra)
        tot_run += ru / (q * q * n)
        tot_alt += au / (q * q * n)
    run_c = tot_run / n_codewords
    alt_c = tot_alt / n_codewords
    assert run_c == pytest.approx(1.5, rel=0.08)     # (q+1)/(q(q-1)) at q=2
    assert alt_c > 1.0 * 1.3                         # far above (2/q) p^2
