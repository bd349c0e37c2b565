import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, log2, prod
from operator import ge

import numpy as np
import pytest

import indelkit.combinatorics as combinatorics
from indelkit.combinatorics import (EmbeddingLanes, binary_words,
                                    deletion_ball, embedding_number,
                                    embedding_number_banded,
                                    embedding_number_bruteforce, insertion_ball,
                                    insertion_ball_blocks, insertion_ball_size,
                                    insertion_ball_weights,
                                    max_run_length_counts, tau_of_space)
from indelkit.words import is_subsequence, parse_word
from reference import tau_of_space_bruteforce


class TestEmbeddingNumber:
    def test_worked_example(self):
        x = parse_word("01001")
        assert embedding_number(x, parse_word("000")) == 1
        assert embedding_number(x, parse_word("001")) == 3

    def test_identity_and_run(self):
        assert embedding_number(parse_word("0110"), parse_word("0110")) == 1
        assert embedding_number(parse_word("0000"), parse_word("00")) == comb(4, 2)

    def test_vs_bruteforce_all_binary(self):
        for m in range(0, 8):
            for x in product((0, 1), repeat=m):
                for k in range(0, m + 1):
                    for y in product((0, 1), repeat=k):
                        assert (embedding_number(x, y)
                                == embedding_number_bruteforce(x, y))

    def test_vs_bruteforce_random_qary(self):
        rnd = random.Random(1)
        for _ in range(400):
            x = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, 10)))
            y = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, len(x) + 1)))
            assert embedding_number(x, y) == embedding_number_bruteforce(x, y)

    def test_band_shapes_vs_bruteforce(self):
        # exhaustive: the banded row step is shared with the two-trace
        # decoder, so the subset-enumeration oracle covers every band shape
        # here, including |y| > |x|
        assert embedding_number_banded is embedding_number
        for q, max_len in ((2, 8), (3, 5)):
            for m in range(max_len + 1):
                for x in product(range(q), repeat=m):
                    for k in range(m + 2):
                        for y in product(range(q), repeat=k):
                            assert (embedding_number(x, y)
                                    == embedding_number_bruteforce(x, y)), (x, y)

    def test_positive_iff_subsequence(self):
        for x in product((0, 1), repeat=7):
            for k in range(0, 8):
                for y in product((0, 1), repeat=k):
                    assert (embedding_number(x, y) > 0) == is_subsequence(y, x)

    def test_upper_bound(self):
        rnd = random.Random(3)
        for _ in range(200):
            x = tuple(rnd.randrange(2) for _ in range(rnd.randint(1, 10)))
            y = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, len(x))))
            assert embedding_number(x, y) <= comb(len(x), len(x) - len(y))

    def test_arbitrary_precision(self):
        # 80 zeros embed every shorter all-zero word C(80, k) times
        x = (0,) * 80
        assert embedding_number(x, (0,) * 40) == comb(80, 40)


emb = lru_cache(maxsize=None)(embedding_number)  # cleared after each test


def unpack(lanes, row, t=0):
    """Lanes 0..d_t of trace t: lane T*k + t of the packed row."""
    T, mask = len(lanes.ds), (1 << lanes.width) - 1
    return [(row >> (T * k + t) * lanes.width) & mask
            for k in range(lanes.ds[t] + 1)]


def pack(lanes, cells):
    """The row whose trace t holds cells[t] in its lanes 0..d_t."""
    T = len(lanes.ds)
    return sum(v << (T * k + t) * lanes.width
               for t, trace in enumerate(cells) for k, v in enumerate(trace))


@lru_cache(maxsize=None)
def want_lanes(y, xi, d, deletion):
    """The lanes of row i = |xi| against y by embedding_number."""
    i, m = len(xi), len(y)
    if deletion:  # lane k: Emb(x[:i]; y[:j]) at j = i - d + k
        return [emb(xi, y[:i - d + k]) if 0 <= i - d + k <= m else 0
                for k in range(d + 1)]
    return [emb(y[:i + k], xi) for k in range(d + 1)]  # Emb(y[:i + k]; x[:i])


def check_rows(lanes, ys, x, rows, start=0):
    """Every lane of each trace in the packed rows[start:] of x equals
    embedding_number on the matching prefixes, every lane off the traces'
    bands is 0, and count is the product of the full counts."""
    for i in range(start, len(rows)):
        row = rows[i]
        assert row & ~lanes.band == 0 and row & lanes.guard == 0
        for t, (y, d) in enumerate(zip(ys, lanes.ds)):
            assert unpack(lanes, row, t) == want_lanes(
                y, x[:i], d, lanes.deletion), (ys, x, lanes.deletion, i, t)
    full = [emb(x, y) if lanes.deletion else emb(y, x) for y in ys]
    assert lanes.count(rows[-1]) == prod(full)


def check_lanes(y, x, deletion, q=2):
    """check_rows over every row of x against the one trace y; returns the
    kernel."""
    lanes = EmbeddingLanes((y,), len(x), deletion, q)
    rows = [lanes.first]
    lanes.extend(rows, x, 0)
    check_rows(lanes, (y,), x, rows)
    return lanes


def check_all_words(ys, n, deletion):
    """check_rows for every binary x of length n against the traces ys,
    the x taken in lexicographic order with the rows cut back to the
    prefix x shares with the word before it, as the decoders' walk does."""
    lanes = EmbeddingLanes(ys, n, deletion, 2)
    rows, prev = [lanes.first], None
    for x in product((0, 1), repeat=n):
        shared = 0 if prev is None else next(
            i for i in range(n) if x[i] != prev[i])
        lanes.extend(rows, x, shared)
        check_rows(lanes, ys, x, rows, shared)
        prev = x


def binary_upto(n):
    return [w for k in range(n + 1) for w in product((0, 1), repeat=k)]


class TestEmbeddingLanes:
    @pytest.fixture(autouse=True)
    def _drop_emb_cache(self):
        yield
        emb.cache_clear()
        want_lanes.cache_clear()

    def test_deletion_rows_exhaustive_binary(self):
        for n in range(9):
            for k in range(n + 1):
                for y in product((0, 1), repeat=k):
                    check_all_words((y,), n, True)

    def test_insertion_rows_exhaustive_binary(self):
        for m in range(9):
            for y in product((0, 1), repeat=m):
                for n in range(m + 1):
                    check_all_words((y,), n, False)

    def test_pair_rows_exhaustive_binary(self):
        # every x of length n against every ordered pair of traces of bands
        # d1 != d2 (d = 0 included): deletion traces of length <= min(n, 4)
        # for n <= 7, insertion traces of length n..5 for n <= 4
        for n in range(8):
            ys = binary_upto(min(n, 4))
            for y1 in ys:
                for y2 in ys:
                    if len(y1) != len(y2):
                        check_all_words((y1, y2), n, True)
        for n in range(5):
            ys = [y for y in binary_upto(5) if len(y) >= n]
            for y1 in ys:
                for y2 in ys:
                    if len(y1) != len(y2):
                        check_all_words((y1, y2), n, False)

    def test_random_qary(self):
        rnd = random.Random(11)
        for _ in range(300):
            long = tuple(rnd.randrange(4) for _ in range(rnd.randint(0, 14)))
            if rnd.random() < 0.5:  # a subsequence: nonzero counts
                short = tuple(s for s in long if rnd.random() < 0.7)
            else:
                short = tuple(rnd.randrange(4)
                              for _ in range(rnd.randint(0, len(long))))
            check_lanes(short, long, True, 4)
            check_lanes(long, short, False, 4)

    def test_zero_band(self):
        for w in product(range(3), repeat=5):
            for deletion in (True, False):
                lanes = check_lanes(w, w, deletion, 3)
                assert lanes.ds == (0,)
                assert check_lanes(w[::-1], w, deletion, 3).ds == (0,)

    def test_band_wider_than_half(self):
        # traces 0 and 1111 have SCS length 5: d = 4 > 5 // 2 for the first
        for x in product((0, 1), repeat=5):
            lanes = check_lanes((0,), x, True)
            assert lanes.ds == (4,) and lanes.width == comb(5, 2).bit_length() + 1
            check_lanes((1, 1, 1, 1), x, True)
            lanes = check_lanes(x, (0,), False)
            assert lanes.ds == (4,) and lanes.width == comb(5, 2).bit_length() + 1

    def test_lane_bound_reached(self):
        # 0^L against 0^(L-d) puts C(L, d) in a lane: the widest value
        for n, d in ((12, 6), (40, 20), (150, 9), (450, 20)):
            for deletion in (True, False):
                x = (0,) * n if deletion else (0,) * (n - d)
                y = (0,) * (n - d) if deletion else (0,) * n
                lanes = EmbeddingLanes((y,), len(x), deletion, 2)
                rows = [lanes.first]
                lanes.extend(rows, x, 0)
                assert lanes.count(rows[-1]) == comb(n, d)
                assert lanes.width == comb(n, d).bit_length() + 1
                assert all(r & lanes.guard == 0 for r in rows)
        check_lanes((0,) * 6, (0,) * 12, True)
        check_lanes((0,) * 12, (0,) * 6, False)

    def test_pair_lane_bound_reached(self):
        # C(450, 20) in the widest trace's lanes only, beside a trace of
        # band 1, in either position: the width is the widest trace's
        n, d = 450, 20
        for deletion in (True, False):
            x = (0,) * n if deletion else (0,) * (n - d)
            wide = (0,) * (n - d) if deletion else (0,) * n
            narrow = (0,) * (len(x) + (-1 if deletion else 1))
            for ys in ((wide, narrow), (narrow, wide)):
                lanes = EmbeddingLanes(ys, len(x), deletion, 2)
                rows = [lanes.first]
                lanes.extend(rows, x, 0)
                # the narrow trace: Emb(0^450; 0^449) or Emb(0^431; 0^430)
                assert lanes.count(rows[-1]) == comb(n, d) * max(
                    len(x), len(narrow))
                assert lanes.width == comb(n, d).bit_length() + 1
                assert all(r & lanes.guard == 0 and r & ~lanes.band == 0
                           for r in rows)
                t = ys.index(wide)
                assert max(unpack(lanes, rows[-1], t)) == comb(n, d)
                assert max(unpack(lanes, rows[-1], 1 - t)) < 1 << 9

    def test_extend_from_a_kept_prefix(self):
        # the decoders' walk cuts the rows back to a shared prefix and
        # re-extends them; that equals extending the new word from scratch
        rnd = random.Random(5)
        for _ in range(200):
            a = tuple(rnd.randrange(3) for _ in range(12))
            b = a[:rnd.randint(0, 12)] + tuple(rnd.randrange(3) for _ in range(12))
            b = b[:12]
            y = tuple(s for s in a if rnd.random() < 0.7)
            for deletion, ys in ((True, y), (False, a + (2, 0, 1))):
                lanes = EmbeddingLanes((ys,), 12, deletion, 3)
                rows = [lanes.first]
                lanes.extend(rows, a, 0)
                shared = next((i for i in range(12) if a[i] != b[i]), 12)
                lanes.extend(rows, b, shared)
                fresh = [lanes.first]
                EmbeddingLanes((ys,), 12, deletion, 3).extend(fresh, b, 0)
                assert rows == fresh

    def test_guard_dominance_equals_lanewise_ge(self):
        rnd = random.Random(9)
        for y, length in (((0, 1, 1, 0), 9), ((0,) * 20, 30)):
            lanes = EmbeddingLanes((y,), length, True, 2)
            top = (1 << lanes.width - 1) - 1  # the largest value a lane holds
            values = (0, 1, 2, top - 1, top)
            for _ in range(3000):
                a = [rnd.choice(values) if rnd.random() < 0.5
                     else rnd.randint(0, top) for _ in range(lanes.ds[0] + 1)]
                r = [v if rnd.random() < 0.4 else rnd.choice(values) for v in a]
                pa, pr = pack(lanes, [a]), pack(lanes, [r])
                assert lanes.dominates(pa, pr) == all(map(ge, a, r)), (a, r)
                assert lanes.dominates(pr, pa) == all(map(ge, r, a))

    def test_pair_dominance_equals_both_lanewise_ge(self):
        rnd = random.Random(10)
        for ys, length in ((((0, 1, 1, 0), (0, 1)), 9),
                           (((0,) * 20, (0,) * 28), 30),
                           (((1, 0) * 3, (0, 1, 1)), 6)):
            lanes = EmbeddingLanes(ys, length, True, 2)
            top = (1 << lanes.width - 1) - 1  # the largest value a lane holds
            values = (0, 1, 2, top - 1, top)
            for _ in range(3000):
                a = [[rnd.choice(values) if rnd.random() < 0.5
                      else rnd.randint(0, top) for _ in range(d + 1)]
                     for d in lanes.ds]
                r = [[v if rnd.random() < 0.6 else rnd.choice(values)
                      for v in trace] for trace in a]
                pa, pr = pack(lanes, a), pack(lanes, r)
                assert lanes.dominates(pa, pr) == all(
                    map(ge, sum(a, []), sum(r, []))), (a, r)
                assert lanes.dominates(pr, pa) == all(
                    map(ge, sum(r, []), sum(a, [])))

    def test_rejects_a_negative_band(self):
        with pytest.raises(ValueError):
            EmbeddingLanes(((0, 1, 1),), 2, True, 2)
        with pytest.raises(ValueError):
            EmbeddingLanes(((0, 1),), 3, False, 2)
        with pytest.raises(ValueError):
            EmbeddingLanes(((0,), (0, 1, 1)), 2, True, 2)


class TestBalls:
    def test_deletion_ball_worked_example(self):
        ball = deletion_ball(parse_word("01001"), 2)
        assert ball == tuple(sorted(parse_word(s) for s in
                                    ["000", "001", "010", "011", "100", "101"]))

    def test_deletion_ball_edges(self):
        x = parse_word("0110")
        assert deletion_ball(x, 0) == (x,)
        assert deletion_ball(parse_word("0000"), 1) == (parse_word("000"),)
        with pytest.raises(ValueError):
            deletion_ball(x, 5)

    def test_ball_sum_identity(self):
        # sum of embedding numbers over the radius-t deletion ball is C(|x|, t)
        rnd = random.Random(4)
        for _ in range(60):
            x = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 12)))
            for t in range(0, len(x) + 1):
                total = sum(embedding_number(x, y) for y in deletion_ball(x, t))
                assert total == comb(len(x), t)

    def test_insertion_ball_examples(self):
        ball = insertion_ball(parse_word("110"), 1, 2)
        assert ball == tuple(sorted(parse_word(s) for s in
                                    ["0110", "1110", "1010", "1100", "1101"]))
        assert insertion_ball(parse_word("0"), 1, 2) == tuple(
            sorted(parse_word(s) for s in ["00", "01", "10"]))
        assert insertion_ball(parse_word("01"), 0, 2) == (parse_word("01"),)

    def test_insertion_ball_size_formula(self):
        assert insertion_ball_size(3, 1, 2) == 5
        assert insertion_ball_size(2, 1, 2) == 4
        assert insertion_ball_size(9, 0, 5) == 1
        for n in range(0, 9):
            for t in range(0, 3):
                for q in (2, 3, 4):
                    x = tuple(i % q for i in range(n))
                    assert len(insertion_ball(x, t, q)) == insertion_ball_size(n, t, q)

    def test_insertion_ball_size_content_independent(self):
        rnd = random.Random(5)
        for _ in range(40):
            n = rnd.randint(0, 7)
            x = tuple(rnd.randrange(3) for _ in range(n))
            assert len(insertion_ball(x, 2, 3)) == insertion_ball_size(n, 2, 3)


class TestInsertionBallWeights:
    def test_vs_literal_filter(self):
        # the ball is every length-|y|+t word containing y, each weighted by
        # its embedding number
        for q, max_m, max_t in ((2, 6, 3), (3, 4, 2)):
            for m in range(max_m + 1):
                for y in product(range(q), repeat=m):
                    for t in range(max_t + 1):
                        literal = {c: embedding_number_bruteforce(c, y)
                                   for c in product(range(q), repeat=m + t)
                                   if is_subsequence(y, c)}
                        assert insertion_ball_weights(y, t, q) == literal, (y, t)

    def test_counts_sum(self):
        rnd = random.Random(6)
        for _ in range(60):
            q = rnd.randint(2, 4)
            y = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 9)))
            t = rnd.randint(0, 3)
            weights = insertion_ball_weights(y, t, q)
            assert sum(weights.values()) == comb(len(y) + t, t) * q ** t
            assert len(weights) == insertion_ball_size(len(y), t, q)

    def test_radius_zero_and_negative(self):
        assert insertion_ball_weights(parse_word("0110"), 0, 2) == {
            parse_word("0110"): 1}
        with pytest.raises(ValueError):
            insertion_ball_weights(parse_word("01"), -1, 2)
        with pytest.raises(ValueError):
            insertion_ball(parse_word("01"), -1, 2)


class TestBinaryWords:
    def test_equals_product_order(self):
        for n in range(11):
            words = binary_words(np.arange(2 ** n), n)
            assert words.dtype == np.int8 and words.shape == (2 ** n, n)
            assert list(map(tuple, words.tolist())) == list(
                product((0, 1), repeat=n)), n

    def test_any_shape(self):
        assert binary_words(6, 4).tolist() == [0, 1, 1, 0]
        assert binary_words([[1, 2], [3, 0]], 2).tolist() == [
            [[0, 1], [1, 0]], [[1, 1], [0, 0]]]
        assert binary_words([], 3).shape == (0, 3)
        assert binary_words(2 ** 40 + 1, 41)[[0, 40]].tolist() == [1, 1]


def ball_rows_of(y, m, t):
    """insertion_ball_weights of the binary length-m word whose integer is
    y, as a (sorted word integers, weights) row."""
    ball = sorted(insertion_ball_weights(binary_words(y, m).tolist(), t,
                                         2).items())
    return ([int("0" + "".join(map(str, c)), 2) for c, _ in ball],
            [w for _, w in ball])


def ball_rows(m, t):
    """ball_rows_of every binary length-m y, in the integer order of y."""
    return [ball_rows_of(y, m, t) for y in range(2 ** m)]


def ball_table(m, t, ys):
    """The rows of every insertion_ball_blocks(m, t, ys) block in order,
    as (words, weights) lists, each block checked to start where the rows
    before it end and to hold at most max(1, BALL_WORDS // size) rows."""
    size = insertion_ball_size(m, t, 2)
    rows = []
    for lo, words, weights in insertion_ball_blocks(m, t, ys):
        assert lo == len(rows)
        assert words.shape == weights.shape
        assert 1 <= len(words) <= max(1, combinatorics.BALL_WORDS // size)
        assert words.shape[1] == size
        assert words.dtype == weights.dtype == np.int64
        rows += [(w.tolist(), e.tolist()) for w, e in zip(words, weights)]
    return rows


class TestInsertionBallTable:
    def test_rows_equal_insertion_ball_weights(self):
        # every binary y with |y| <= 8, the empty word among them, and t <= 3
        for m in range(9):
            for t in range(4):
                assert ball_table(m, t, range(2 ** m)) == ball_rows(m, t), (
                    m, t)

    def test_ys_in_any_order(self):
        ys = [5, 0, 31, 5, 18]
        rows = ball_rows(5, 2)
        assert ball_table(5, 2, np.array(ys)) == [rows[y] for y in ys]
        assert list(insertion_ball_blocks(5, 2, [])) == []

    @pytest.mark.parametrize("budget", [1, 2, 7, 40])
    def test_small_lane_budget(self, budget, monkeypatch):
        # ragged row blocks, and balls of up to 219 words larger than a
        # block, give the same rows
        monkeypatch.setattr(combinatorics, "BALL_WORDS", 3 * budget)
        for m in range(6):
            for t in range(min(6, 9 - m)):
                assert ball_table(m, t, range(2 ** m)) == ball_rows(m, t), (
                    m, t, budget)

    @pytest.mark.parametrize("words", [1, 4, 15, 1000, 6])
    def test_blocks_concatenate_at_tiny_budgets(self, words, monkeypatch):
        # 15: m = 3, t = 1 gives balls of 5 words, blocks of 3 rows and a
        # ragged last block of 2; at 1, 4 and 6 every ball with t >= 1 is
        # larger than the budget; t = 0 gives balls of one word, and empty
        # ys no block
        monkeypatch.setattr(combinatorics, "BALL_WORDS", words)
        for m, t in ((3, 1), (4, 2), (2, 3), (5, 0), (0, 2), (6, 1)):
            assert ball_table(m, t, range(2 ** m)) == ball_rows(m, t), (m, t)
            assert list(insertion_ball_blocks(m, t, [])) == []
        lens = [len(w) for _, w, _ in insertion_ball_blocks(3, 1, range(8))]
        assert sum(lens) == 8
        assert lens == [max(1, words // 5)] * (len(lens) - 1) + [lens[-1]]

    @pytest.mark.parametrize("m,t", [(10, 5), (6, 8)])
    def test_row_invariants(self, m, t):
        # every row: strictly increasing words, insertion_ball_size of
        # them, and weights summing to C(m + t, t) 2^t
        size = insertion_ball_size(m, t, 2)
        rows = 0
        for _, words, weights in insertion_ball_blocks(m, t, range(2 ** m)):
            rows += len(words)
            assert words.shape[1] == size
            assert (np.diff(words, axis=1) > 0).all()
            assert (weights.sum(axis=1) == comb(m + t, t) << t).all()
        assert rows == 2 ** m

    def test_largest_weight_fits_an_int32_lane(self):
        # y = 0^16 at t = 8: c = 0^24 embeds y C(24, 8) times, the largest
        # cell that the guard comb(n, t) <= 2^20 admits at this n
        (lo, words, weights), = insertion_ball_blocks(16, 8, [0])
        assert words.shape == (1, 1271626) == (1, insertion_ball_size(16, 8, 2))
        assert words[0, 0] == 0 and weights[0, 0] == comb(24, 8) == 735471
        assert weights.max() == comb(24, 8)
        assert weights.sum() == comb(24, 8) << 8

    def test_words_past_31_bits(self):
        # n = 35: the weights' recurrence reads c's symbols from int64 words
        ys = [0, 1, 2 ** 33 - 1, 0b101100111000111100001111100000101]
        assert ball_table(33, 2, ys) == [
            ball_rows_of(y, 33, 2) for y in ys]

    def test_refuses_bad_arguments(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(insertion_ball_blocks(3, -1, [0]))
        for ys in ([8], [-1], [0, 9]):
            with pytest.raises(ValueError, match="3-bit words"):
                next(insertion_ball_blocks(3, 1, ys))
        with pytest.raises(ValueError, match="m \\+ t <= 40"):
            next(insertion_ball_blocks(39, 2, [0]))
        # C(40, 20) gap patterns would not fit in memory at once
        with pytest.raises(ValueError, match="at most 2\\^20 gap patterns"):
            next(insertion_ball_blocks(20, 20, [0]))


class TestTau:
    def test_small_values(self):
        assert tau_of_space(1) == 1
        assert tau_of_space(3) == 2  # 16 total max-run length over 8 words

    def test_dp_equals_enumeration(self):
        for n in range(1, 17):
            assert tau_of_space(n) == tau_of_space_bruteforce(n)

    def test_log_bound(self):
        # the bound is never tight here, so a float comparison is safe
        for n in range(2, 25):
            assert float(tau_of_space(n)) <= 2 * log2(n)

    def test_counts_sum(self):
        for n in range(1, 15):
            counts = max_run_length_counts(n)
            assert sum(counts) == 2 ** n
