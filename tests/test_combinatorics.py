import random
from fractions import Fraction
from itertools import product
from math import comb, log2

from indelkit.combinatorics import (deletion_ball, embedding_number,
                                    embedding_number_banded,
                                    embedding_number_bruteforce, insertion_ball,
                                    insertion_ball_size, max_run_length_counts,
                                    tau_of_space, tau_of_space_bruteforce)
from indelkit.words import is_subsequence, parse_word


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


class TestBalls:
    def test_deletion_ball_worked_example(self):
        ball = deletion_ball(parse_word("01001"), 2)
        assert ball == tuple(sorted(parse_word(s) for s in
                                    ["000", "001", "010", "011", "100", "101"]))

    def test_deletion_ball_edges(self):
        x = parse_word("0110")
        assert deletion_ball(x, 0) == (x,)
        assert deletion_ball(parse_word("0000"), 1) == (parse_word("000"),)
        import pytest
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
