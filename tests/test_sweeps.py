import dataclasses
import functools
import random
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

import indelkit.combinatorics as combinatorics
import indelkit.sweeps as sweeps
from indelkit.combinatorics import (embedding_number, insertion_ball,
                                    insertion_ball_blocks, insertion_ball_size,
                                    insertion_ball_weights)
from indelkit.decoders import (DECODERS, brute_force_ml_star, decode_en,
                               get_decoder, ml_star_2del, objective_f,
                               two_del_condition_poly, two_del_lazy_en_gap)
from indelkit.sweeps import (_exact_enumerate, _window_distance_rows,
                             _window_scores, _window_table,
                             exact_expected_distance, sweep_brute_force_window,
                             sweep_two_del_condition, two_del_gaps)
from indelkit.words import indel_distance, runs


def window_candidates(n):
    """The window sweep's candidates in its table's column order."""
    return [x for L in range(n - 2, n + 2) for x in product((0, 1), repeat=L)]


def literal_exact(dec, n, k):
    """The exact expected distance as the literal sum of objective_f over
    every channel output's decoding."""
    total = sum(objective_f(y, dec.decode((y,), k)[0], k)
                for y in product((0, 1), repeat=n - k))
    return Fraction(total, 2 ** n * n * comb(n, k))


ONE_TRACE_KDEL = [name for name, dec in DECODERS.items()
                  if dec.traces == 1 and "kdel" in dec.kinds]


def literal_window_sweep(n):
    """sweep_brute_force_window(n) with each y's scores summed over its
    insertion_ball_weights, one ball word at a time, from the trie pass's
    rows of every c (no complement mirror), and each y picked on its own."""
    table = _window_distance_rows(n, np.arange(2 ** n))
    cands = window_candidates(n)
    res = {"n": n, "words": 2 ** (n - 2), "length_violations": [],
           "mismatches": []}
    for y in product((0, 1), repeat=n - 2):
        scores = sum(w * table[int("".join(map(str, c)), 2)].astype(np.int64)
                     for c, w in insertion_ball_weights(y, 2, 2).items())
        best = int(np.argmin(scores))
        winner = cands[best]
        if len(winner) not in (n - 2, n - 1):
            res["length_violations"].append({"y": y, "winner_len": len(winner)})
        if (np.count_nonzero(scores == scores[best]) == 1
                and winner != ml_star_2del(y)):
            res["mismatches"].append({"y": y, "winner": winner,
                                      "closed_form": ml_star_2del(y)})
    return res


def literal_condition_sweep(n, poly=two_del_condition_poly):
    """sweep_two_del_condition(n) from the literal gap and the run profile
    of every y, in lexicographic order."""
    violations = []
    for y in product((0, 1), repeat=n - 2):
        gap, prof = two_del_lazy_en_gap(y), runs(y)
        p = poly(n, prof.r_max, prof.r)
        if (gap >= 0) != (p >= 0):
            violations.append({"y": y, "gap": gap, "poly": p})
    return {"n": n, "words": 2 ** (n - 2), "violations": violations}


def _ball_gap(y):
    # the identity's plain form: 4*C(n, 2) - 2 * sum of Emb(c; y) over
    # the single insertions c of the prolonged word
    xh = decode_en(y, len(y) + 1)
    s1 = sum(embedding_number(c, y) for c in insertion_ball(xh, 1, 2))
    return 4 * comb(len(y) + 2, 2) - 2 * s1


def _reference_gaps(m, gap):
    """gap(y) for every binary y of length m, in lexicographic order."""
    return [gap(y) for y in product((0, 1), repeat=m)]


def _all_words(m):
    return np.array(list(product((0, 1), repeat=m)), dtype=np.int8)


class TestExactExpectedDistance:
    def test_lazy_law(self):
        for n in range(5, 13):
            assert exact_expected_distance("lazy", n, 1) == Fraction(1, n)

    @pytest.mark.filterwarnings("ignore:lazy decoding is only proven optimal")
    def test_fast_equals_enumeration(self):
        laws = [name for name, dec in DECODERS.items()
                if dec.fast_1del is not None]
        assert laws == ["lazy", "en:1", "mlstar1"]
        for n in range(1, 13):
            for dec in laws:
                assert (exact_expected_distance(dec, n, 1)
                        == exact_expected_distance(dec, n, 1, method="enumerate"))

    def test_en1_law_pinned(self):
        # the values of the former all-words run-statistics pass
        assert exact_expected_distance("en:1", 17, 1) == Fraction(939195, 9469952)
        assert exact_expected_distance("en:1", 18, 1) == Fraction(2003743, 21233664)
        assert exact_expected_distance("en:1", 26, 1) == Fraction(772088413,
                                                                  11341398016)

    def test_laws_beyond_enumeration(self):
        en = exact_expected_distance("en:1", 40, 1)
        assert isinstance(en, Fraction) and en > Fraction(1, 40)
        assert exact_expected_distance("lazy", 40, 1) == Fraction(1, 40)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            exact_expected_distance("lazy", 6, 1, method="literal")

    def test_en_vs_analysis_bound(self):
        from indelkit.analysis import lazy_and_en_1del_analysis
        for n in (6, 10, 14):
            _, bound = lazy_and_en_1del_analysis(n)
            assert exact_expected_distance("en:1", n, 1) >= bound

    def test_two_del_decoder_ordering(self):
        # closed-form optimal decoder never loses to lazy or the prolonging
        # decoder in exact expected distance (aggregate, k = 2)
        n = 10
        star = exact_expected_distance("mlstar2", n, 2)
        lazy = exact_expected_distance("lazy", n, 2)
        en1 = exact_expected_distance("en:1", n, 2)
        assert star <= lazy
        assert star <= en1

    def test_infeasible_guard(self):
        with pytest.raises(ValueError):
            exact_expected_distance("lazy", 25, 1, method="enumerate")

    def test_infeasible_guard_counts_the_ball_words(self, monkeypatch):
        # (16, 8) is in ENUM_N but scores 2^16 C(16, 8) > 2^29 lane-words,
        # and is refused before any decoding or ball block; (16, 6) and
        # (21, 2) get past the guard into the (stubbed) work
        def work(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(sweeps, "binary_words", work)
        monkeypatch.setattr(sweeps, "insertion_ball_blocks", work)
        with pytest.raises(ValueError,
                           match="infeasible for n = 16, k = 8"):
            exact_expected_distance("lazy", 16, 8, method="enumerate")
        for n, k in ((16, 6), (15, 7), (21, 2)):
            with pytest.raises(AssertionError, match="work started"):
                exact_expected_distance("lazy", n, k, method="enumerate")

    def test_refuses_bad_n_and_k(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n must be >= 1"):
                exact_expected_distance("lazy", n, 0, method="enumerate")
        for method in ("auto", "enumerate"):
            with pytest.raises(ValueError, match="k must be >= 0"):
                exact_expected_distance("lazy", 5, -1, method=method)
        with pytest.raises(ValueError, match="k cannot exceed n"):
            exact_expected_distance("lazy", 3, 4)

    @pytest.mark.filterwarnings("ignore:lazy decoding is only proven optimal")
    @pytest.mark.parametrize("name", ONE_TRACE_KDEL)
    def test_enumerate_equals_literal_objective(self, name):
        # every feasible n <= 9 and k <= 3, k = 0 and n = k (one empty
        # output) among them; brute to n = 6, where its windows stay small
        dec = get_decoder(name, 1, "kdel")
        decode = functools.lru_cache(dec.decode)  # one decode per y for both
        dec = dataclasses.replace(dec, fn=lambda y, k: decode((y,), k)[0],
                                  coded=False)
        for n in range(1, 7 if name == "brute" else 10):
            for k in range(min(n, 3) + 1):
                assert _exact_enumerate(dec, n, k) == literal_exact(
                    dec, n, k), (name, n, k)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_small_lane_budgets(self, rows, monkeypatch):
        # blocks of `rows` outputs (32 = 3 * 10 + 2 leaves a ragged last
        # block)
        for name, n, k in (("mlstar2", 7, 2), ("en:2", 8, 3), ("lazy", 5, 0),
                           ("en:1", 3, 3)):
            monkeypatch.setattr(combinatorics, "BALL_WORDS",
                                rows * insertion_ball_size(n - k, k, 2))
            dec = get_decoder(name, 1, "kdel")
            assert _exact_enumerate(dec, n, k) == literal_exact(dec, n, k)

    def test_gap_patterns_listed_once_per_call(self, monkeypatch):
        # one stream per call: the C(n, k) gap patterns are listed once,
        # however many blocks (here 2^6 of one output each) the pass takes
        calls, blocks = [], []
        listing = combinatorics.combinations_with_replacement
        stream = combinatorics.insertion_ball_blocks

        def count_listing(*args):
            calls.append(args)
            return listing(*args)

        def count_blocks(*args):
            for block in stream(*args):
                blocks.append(block[0])
                yield block
        monkeypatch.setattr(combinatorics, "combinations_with_replacement",
                            count_listing)
        monkeypatch.setattr(sweeps, "insertion_ball_blocks", count_blocks)
        monkeypatch.setattr(combinatorics, "BALL_WORDS", 1)
        dec = get_decoder("mlstar2", 1, "kdel")
        assert _exact_enumerate(dec, 8, 2) == literal_exact(dec, 8, 2)
        assert calls == [(range(7), 2)]
        assert blocks == list(range(2 ** 6))

    def test_mlstar2_pinned(self):
        assert exact_expected_distance(
            "mlstar2", 12, k=2, method="enumerate") == Fraction(1355, 8192)


class TestSweeps:
    def test_condition_sweep_clean_at_small_n(self):
        assert sweep_two_del_condition(5)["violations"] == []
        assert sweep_two_del_condition(7)["violations"] == []

    def test_condition_sweep_rejects_n_below_2(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="needs n >= 2"):
                sweep_two_del_condition(n)
        assert sweep_two_del_condition(2)["words"] == 1

    def test_condition_sweep_equal_in_ragged_blocks(self, monkeypatch):
        # blocks of 7 leave a ragged last block at every n from 2 (the
        # empty word alone) to 14 (585 blocks)
        whole = {n: sweep_two_del_condition(n) for n in range(2, 15)}
        monkeypatch.setattr(sweeps, "COND_BLOCK", 7)
        for n, res in whole.items():
            assert sweep_two_del_condition(n) == res, n

    def test_condition_sweep_equals_literal_list(self, monkeypatch):
        # the literal gap of every y, against the polynomial and against its
        # negation, under which nearly every y violates: the empty word
        # (n = 2) once, and every complement in its lexicographic place
        def negated(n, r_max, r):
            return -1 - two_del_condition_poly(n, r_max, r)
        for n in range(2, 13):
            assert sweep_two_del_condition(n) == literal_condition_sweep(n), n
        monkeypatch.setattr(sweeps, "two_del_condition_poly", negated)
        assert sweep_two_del_condition(2)["violations"] == [
            {"y": (), "gap": -2, "poly": 2}]
        for n in range(2, 13):
            assert sweep_two_del_condition(n) == literal_condition_sweep(
                n, negated), n

    def test_window_table_equals_direct_trie_pass(self):
        # both halves, cell by cell: the rows of the c that start with 1
        # are mirrored from the others, those of the trie pass are not
        # (512-row blocks keep the pass's temporaries small at n = 12)
        for n in range(3, 13):
            table = _window_table(n)
            for lo in range(0, 2 ** n, 512):
                rows = np.arange(lo, min(lo + 512, 2 ** n))
                assert np.array_equal(table[rows],
                                      _window_distance_rows(n, rows)), (n, lo)

    def test_window_scores_of_the_complement_reverse_each_class(self):
        # the scores from ybar's own ball are y's with each length class
        # reversed, read from the trie pass's rows of every c
        for n in range(4, 9):
            table = _window_distance_rows(n, np.arange(2 ** n))
            bounds = np.cumsum([0] + [2 ** L for L in range(n - 2, n + 2)])
            balls = [ball for _, *block in insertion_ball_blocks(
                n - 2, 2, range(2 ** (n - 2))) for ball in zip(*block)]
            scores = [_window_scores(table, words, w.astype(np.int16))
                      for words, w in balls]
            for own, bar in zip(scores, scores[::-1]):
                assert np.array_equal(bar, np.concatenate(
                    [own[a:b][::-1] for a, b in zip(bounds, bounds[1:])])), n

    def test_complement_flips_a_brute_tie(self):
        # why the window sweep mirrors scores, not picks, and
        # _exact_enumerate decodes every output: a tie broken
        # lexicographically breaks the other way under the complement
        assert brute_force_ml_star((0, 0, 1, 1), 2) == (0, 0, 0, 1, 1)
        assert brute_force_ml_star((1, 1, 0, 0), 2) == (1, 1, 0, 0, 0)

    def test_window_table_equals_oracle(self):
        # every cell for n = 3..8 (from n = 8 on the table takes two
        # WINDOW_BLOCKs), then sampled rows at n = 11 and 12, the all-0
        # and all-1 words among them
        for n in range(3, 9):
            cands = window_candidates(n)
            table = _window_table(n)
            assert table.dtype == np.int8
            assert table.shape == (2 ** n, len(cands))
            for ci, c in enumerate(product((0, 1), repeat=n)):
                assert table[ci].tolist() == [
                    indel_distance(x, c) for x in cands], (n, c)
        rng = np.random.default_rng(12)
        for n in (11, 12):
            cands = window_candidates(n)
            cs = [0, 2 ** n - 1, *rng.choice(2 ** n, size=3, replace=False)]
            for ci, row in zip(cs, _window_distance_rows(n, cs)):
                c = tuple(int(b) for b in np.binary_repr(ci, n))
                assert row.tolist() == [
                    indel_distance(x, c) for x in cands], (n, c)

    def test_window_scores_equal_the_objective(self):
        # the literal objective for every y and candidate, and the first
        # minimum is brute_force_ml_star's pick (shortest, then lex)
        for n in range(4, 8):
            cands = window_candidates(n)
            table = _window_table(n)
            balls = [ball for _, *block in insertion_ball_blocks(
                n - 2, 2, range(2 ** (n - 2))) for ball in zip(*block)]
            for y, (words, w) in zip(product((0, 1), repeat=n - 2), balls):
                scores = _window_scores(table, words, w.astype(np.int16))
                assert scores.tolist() == [
                    objective_f(y, x, 2) for x in cands], y
                assert cands[int(np.argmin(scores))] == brute_force_ml_star(
                    y, 2), y

    def test_window_sweep_equals_literal_scorer(self):
        for n in range(3, 10):
            assert sweep_brute_force_window(n) == literal_window_sweep(n), n

    def test_window_sweep_agrees_with_library_bruteforce(self):
        res = sweep_brute_force_window(6)
        bad = {tuple(v["y"]) for v in res["length_violations"]}
        for y in product((0, 1), repeat=4):
            out = brute_force_ml_star(y, 2)
            assert (len(out) not in (4, 5)) == (y in bad)


class TestTwoDelGaps:
    def test_block_equals_literal(self):
        # one block holds every y of a length, the empty word included
        for m in range(0, 10):
            gap, r_max, r = two_del_gaps(_all_words(m))
            assert gap.tolist() == _reference_gaps(m, two_del_lazy_en_gap), m
            profs = [runs(y) for y in product((0, 1), repeat=m)]
            assert r_max.tolist() == [p.r_max for p in profs], m
            assert r.tolist() == [p.r for p in profs], m

    def test_block_equals_ball_identity(self):
        for m in range(0, 13):
            gap = two_del_gaps(_all_words(m))[0]
            assert gap.tolist() == _reference_gaps(m, _ball_gap), m

    def test_block_equals_literal_on_long_random_words(self):
        # one block per length
        rng = random.Random(18)
        words = {}
        for _ in range(36):
            y = tuple(rng.randrange(2) for _ in range(rng.randint(20, 40)))
            words.setdefault(len(y), []).append(y)
        for m, ys in words.items():
            gap = two_del_gaps(np.array(ys, dtype=np.int8))[0]
            assert gap.tolist() == [two_del_lazy_en_gap(y) for y in ys], m
