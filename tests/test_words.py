import random
from itertools import permutations, product

import pytest

from indelkit.supersequences import lcs_length
from indelkit.words import (common_affixes, format_word, indel_distance,
                            is_alternating, is_subsequence,
                            is_two_symbol_alternating, lcs_bit_rows,
                            parse_word, reconstruct, runs, symbol_masks)


def brute_lcs(x, y):
    if not x or not y:
        return 0
    if x[-1] == y[-1]:
        return 1 + brute_lcs(x[:-1], y[:-1])
    return max(brute_lcs(x[:-1], y), brute_lcs(x, y[:-1]))


def all_words(q, n):
    return product(range(q), repeat=n)


class TestRuns:
    def test_worked_example(self):
        p = runs(parse_word("00111010"))
        assert p.run_lengths == (2, 3, 1, 1, 1)
        assert p.r == 5
        assert p.r_max == 3
        assert p.longest_idx == 1

    def test_single_run(self):
        p = runs(parse_word("0000"))
        assert p.run_lengths == (4,)
        assert p.r == 1

    def test_empty(self):
        p = runs(())
        assert p.r == 0
        assert p.r_max == 0
        assert reconstruct(p) == ()

    def test_first_longest_rule(self):
        p = runs(parse_word("0011100011100"))
        assert p.r_max == 3
        assert p.longest_idx == 1
        assert all(p.run_lengths[j] < p.r_max for j in range(p.longest_idx))

    def test_roundtrip_exhaustive(self):
        for n in range(0, 9):
            for w in all_words(2, n):
                p = runs(w)
                assert reconstruct(p) == w
                assert sum(p.run_lengths) == n
                for a, b in zip(p.run_symbols, p.run_symbols[1:]):
                    assert a != b

    def test_roundtrip_qary(self):
        rnd = random.Random(0)
        for _ in range(300):
            w = tuple(rnd.randrange(4) for _ in range(rnd.randint(0, 14)))
            assert reconstruct(runs(w)) == w


class TestIndelDistance:
    def test_examples(self):
        assert indel_distance(parse_word("01"), parse_word("10")) == 2
        assert indel_distance(parse_word("0110"), parse_word("110")) == 1
        assert indel_distance((), parse_word("101")) == 3

    def test_identity(self):
        for w in [(), (0,), parse_word("0110101")]:
            assert indel_distance(w, w) == 0

    def test_equals_lcs_formula_exhaustive(self):
        for m1 in range(0, 6):
            for m2 in range(0, 6):
                for x in all_words(2, m1):
                    for y in all_words(2, m2):
                        assert indel_distance(x, y) == m1 + m2 - 2 * brute_lcs(x, y)

    def test_equals_lcs_formula_random(self):
        rnd = random.Random(42)
        for _ in range(200):
            x = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, 10)))
            y = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, 10)))
            assert indel_distance(x, y) == len(x) + len(y) - 2 * brute_lcs(x, y)

    def test_metric_properties(self):
        rnd = random.Random(7)
        for _ in range(300):
            words = [tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 12)))
                     for _ in range(3)]
            a, b, c = words
            assert indel_distance(a, b) == indel_distance(b, a)
            assert (indel_distance(a, b) == 0) == (a == b)
            assert (indel_distance(a, c)
                    <= indel_distance(a, b) + indel_distance(b, c))

    def test_deletion_ball_distance(self):
        from indelkit.combinatorics import deletion_ball
        rnd = random.Random(3)
        for _ in range(100):
            x = tuple(rnd.randrange(2) for _ in range(rnd.randint(1, 9)))
            r = rnd.randint(0, len(x))
            for y in deletion_ball(x, r):
                assert indel_distance(x, y) == r


    def test_long_channel_pairs_with_shared_affixes(self):
        # traces of one word share a long prefix and suffix, which
        # indel_distance strips before the LCS kernel
        rnd = random.Random(43)
        for trial in range(120):
            q = (2, 3, 4)[trial % 3]
            c = tuple(rnd.randrange(q) for _ in range(rnd.randint(100, 200)))
            x, y = list(c), list(c)
            for z in (x, y):
                for _ in range(rnd.randint(0, 3)):
                    if rnd.random() < 0.5:
                        del z[rnd.randrange(len(z))]
                    else:
                        z.insert(rnd.randrange(len(z) + 1), rnd.randrange(q))
            x, y = tuple(x), tuple(y)
            assert indel_distance(x, y) == len(x) + len(y) - 2 * lcs_length(x, y)

    def test_edge_cases(self):
        rnd = random.Random(44)
        w = tuple(rnd.randrange(2) for _ in range(150))
        for x, y in ((w, ()), ((), w), (w[:90], w), (w, w[:90]), (w[60:], w),
                     (w, w), (w + (300,), w), ((300, 301) + w, w)):
            assert indel_distance(x, y) == len(x) + len(y) - 2 * lcs_length(x, y)
        assert indel_distance(w, w[:90]) == 60 and indel_distance(w, w) == 0


class TestCommonAffixes:
    def test_examples(self):
        assert common_affixes(parse_word("0110"), parse_word("0100")) == (2, 1)
        assert common_affixes(parse_word("010"), parse_word("010")) == (3, 0)
        assert common_affixes(parse_word("01"), parse_word("0101")) == (2, 0)
        assert common_affixes(parse_word("01"), parse_word("1101")) == (0, 2)
        assert common_affixes((), parse_word("1")) == (0, 0)

    def test_longest_and_disjoint(self):
        # i is the longest common prefix; j the longest common suffix of
        # what remains, and the two never overlap
        rnd = random.Random(45)
        for _ in range(500):
            q = rnd.choice((2, 3, 300))
            c = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 12)))
            x = c[:rnd.randint(0, len(c))] + c[rnd.randint(0, len(c)):]
            y = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 3))) + c
            for a, b in ((x, y), (y, x), (c, c)):
                i, j = common_affixes(a, b)
                n = min(len(a), len(b))
                assert i + j <= n and a[:i] == b[:i]
                assert i == n or a[i] != b[i]
                assert a[len(a) - j:] == b[len(b) - j:]
                assert i + j == n or a[len(a) - j - 1] != b[len(b) - j - 1]


class TestSymbolMasks:
    def test_equals_definition(self):
        rnd = random.Random(46)
        for _ in range(300):
            q = rnd.choice((2, 4, 300))  # 300: no bytes copy holds it
            w = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 40)))
            assert symbol_masks(w) == {
                c: sum(1 << t for t, s in enumerate(w) if s == c)
                for c in set(w)}


class TestLcsBitRows:
    def test_equals_row_dp_exhaustive(self):
        words = [w for m in range(9) for w in all_words(2, m)]
        for x in words:
            for y in words:
                rows = lcs_bit_rows(x, symbol_masks(y), len(y))
                assert rows[-1].bit_count() == lcs_length(x, y)

    def test_every_prefix_cell(self):
        # LCS(x[:k], y[:t]) is the popcount of the low t bits of rows[k]
        for x in all_words(2, 5):
            for y in all_words(2, 5):
                rows = lcs_bit_rows(x, symbol_masks(y), len(y))
                for k in range(6):
                    for t in range(6):
                        assert ((rows[k] & ((1 << t) - 1)).bit_count()
                                == lcs_length(x[:k], y[:t]))

    def test_equals_row_dp_random_long(self):
        rnd = random.Random(11)
        for q in (2, 4):
            for _ in range(6):
                x = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 500)))
                y = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 500)))
                rows = lcs_bit_rows(x, symbol_masks(y), len(y))
                assert rows[-1].bit_count() == lcs_length(x, y)
                assert indel_distance(x, y) == (len(x) + len(y)
                                                - 2 * lcs_length(x, y))


class TestSubsequence:
    def test_examples(self):
        assert is_subsequence(parse_word("001"), parse_word("01001"))
        assert is_subsequence((), parse_word("0101"))
        assert not is_subsequence(parse_word("10"), parse_word("01"))

    def test_vs_index_subsets(self):
        from itertools import combinations
        for x in all_words(2, 6):
            for k in range(0, 7):
                for y in all_words(2, k):
                    brute = any(tuple(x[i] for i in idx) == y
                                for idx in combinations(range(6), k))
                    assert is_subsequence(y, x) == brute


class TestAlternating:
    def test_binary(self):
        assert is_alternating(parse_word("010101"), 2)
        assert is_alternating(parse_word("101010"), 2)
        assert not is_alternating(parse_word("0110"), 2)
        assert is_alternating((), 2)
        assert is_alternating((1,), 2)

    def test_binary_equals_all_runs_one(self):
        for n in range(0, 10):
            for w in all_words(2, n):
                expected = all(L == 1 for L in runs(w).run_lengths)
                assert is_alternating(w, 2) == expected

    def test_qary(self):
        assert is_alternating(parse_word("0120120"), 3)
        assert is_alternating(parse_word("021"), 3)   # order 0->2->1
        assert not is_alternating(parse_word("0102"), 3)  # 0 maps to both 1, 2
        assert not is_alternating(parse_word("00"), 3)
        assert not is_alternating(parse_word("0101"), 3)  # 2-cycle over q=3

    def test_two_symbol(self):
        assert is_two_symbol_alternating(parse_word("0101"))
        assert is_two_symbol_alternating((2, 3, 2, 3, 2))
        assert not is_two_symbol_alternating((0, 1, 2))
        assert not is_two_symbol_alternating(parse_word("00"))
        assert not is_two_symbol_alternating(())


class TestAlternatingVsCyclicOrders:
    # the literal definition: w alternates when one cyclic order of all q
    # symbols, (q-1)! of them with 0 first, sends each w[i] to w[i+1]
    @staticmethod
    def follows_a_cycle(w, q):
        for rest in permutations(range(1, q)):
            order = (0, *rest)
            succ = {a: order[(j + 1) % q] for j, a in enumerate(order)}
            if all(succ[a] == b for a, b in zip(w, w[1:])):
                return True
        return False

    @pytest.mark.parametrize("q,max_len", [(2, 9), (3, 7), (4, 6), (5, 5)])
    def test_equals_the_oracle(self, q, max_len):
        for n in range(max_len + 1):
            for w in all_words(q, n):
                assert is_alternating(w, q) == self.follows_a_cycle(w, q), w
                two = n > 0 and any(
                    all(s == (a, b)[i % 2] for i, s in enumerate(w))
                    for a in range(q) for b in range(q) if a != b)
                assert is_two_symbol_alternating(w) == two, w

    def test_symbols_outside_the_alphabet_are_refused(self):
        with pytest.raises(ValueError, match="out of range"):
            is_alternating((0, 1, 2), 2)


class TestSerialization:
    def test_roundtrip(self):
        for s in ("", "0", "01001", "0123"):
            assert format_word(parse_word(s)) == s

    def test_bad_symbol(self):
        from indelkit.words import check_word
        with pytest.raises(ValueError):
            check_word((0, 2), 2)
