import random
from itertools import product

import pytest

from indelkit.supersequences import (enumerate_lcs, enumerate_scs, lcs_length,
                                     scs_length)
from indelkit.words import (common_affixes, indel_distance, is_subsequence,
                            parse_word)


def brute_scs_set(y1, y2, q=2):
    s = scs_length(y1, y2)
    return {x for x in product(range(q), repeat=s)
            if is_subsequence(y1, x) and is_subsequence(y2, x)}


def brute_lcs_set(y1, y2, q=2):
    ell = lcs_length(y1, y2)
    return {x for x in product(range(q), repeat=ell)
            if is_subsequence(x, y1) and is_subsequence(x, y2)}


def edited(rnd, c, q, deletion, edits):
    """c through `edits` random deletions (or insertions of random symbols)."""
    y = list(c)
    for _ in range(edits):
        if deletion and y:
            del y[rnd.randrange(len(y))]
        elif not deletion:
            y.insert(rnd.randrange(len(y) + 1), rnd.randrange(q))
    return tuple(y)


def edited_pairs(rnd, count, q, length, deletion):
    """Pairs of traces of one random word, each through up to two edits."""
    for _ in range(count):
        c = tuple(rnd.randrange(q) for _ in range(rnd.randint(1, length)))
        yield (edited(rnd, c, q, deletion, rnd.randint(0, 2)),
               edited(rnd, c, q, deletion, rnd.randint(0, 2)))


class TestLengths:
    def test_examples(self):
        assert lcs_length(parse_word("010"), parse_word("001")) == 2
        assert lcs_length(parse_word("00"), parse_word("11")) == 0
        assert scs_length(parse_word("01"), parse_word("10")) == 3
        assert scs_length(parse_word("00"), parse_word("11")) == 4

    def test_self(self):
        for s in ("", "0", "0110"):
            y = parse_word(s)
            assert lcs_length(y, y) == len(y)
            assert scs_length(y, y) == len(y)

    def test_lcs_vs_indel_distance(self):
        rnd = random.Random(0)
        for _ in range(300):
            y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 10)))
            y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 10)))
            assert (2 * lcs_length(y1, y2)
                    == len(y1) + len(y2) - indel_distance(y1, y2))

    def test_scs_upper_bound(self):
        rnd = random.Random(1)
        for _ in range(200):
            y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 9)))
            y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 9)))
            s = scs_length(y1, y2)
            assert s <= len(y1) + len(y2)
            assert (s == len(y1) + len(y2)) == (lcs_length(y1, y2) == 0)


class TestEnumerateScs:
    def test_examples(self):
        res = enumerate_scs(parse_word("01"), parse_word("10"))
        assert set(res.candidates) == {parse_word("010"), parse_word("101")}
        assert res.length == 3 and not res.truncated
        res = enumerate_scs(parse_word("00"), parse_word("00"))
        assert res.candidates == (parse_word("00"),)
        res = enumerate_scs(parse_word("010"), parse_word("001"))
        assert set(res.candidates) == {parse_word("0010"), parse_word("0101")}

    def test_vs_bruteforce_exhaustive(self):
        for m1 in range(0, 6):
            for m2 in range(0, 6):
                for y1 in product((0, 1), repeat=m1):
                    for y2 in product((0, 1), repeat=m2):
                        res = enumerate_scs(y1, y2)
                        assert set(res.candidates) == brute_scs_set(y1, y2)
                        assert all(len(x) == res.length for x in res.candidates)

    def test_vs_bruteforce_random_longer(self):
        rnd = random.Random(2)
        for _ in range(150):
            y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            assert set(enumerate_scs(y1, y2).candidates) == brute_scs_set(y1, y2)

    def test_vs_bruteforce_qary(self):
        rnd = random.Random(3)
        for _ in range(60):
            y1 = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, 6)))
            y2 = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, 6)))
            assert set(enumerate_scs(y1, y2).candidates) == brute_scs_set(y1, y2, 3)

    def test_candidates_are_supersequences(self):
        rnd = random.Random(4)
        for _ in range(100):
            y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 9)))
            y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 9)))
            res = enumerate_scs(y1, y2)
            for x in res.candidates:
                assert is_subsequence(y1, x) and is_subsequence(y2, x)
                assert len(x) == scs_length(y1, y2)

    def test_banded_equals_unbanded(self):
        rnd = random.Random(5)
        for _ in range(300):
            n = rnd.randint(1, 10)
            c = tuple(rnd.randrange(2) for _ in range(n))
            d1, d2 = min(rnd.randint(0, 3), n), min(rnd.randint(0, 3), n)
            drop1 = set(rnd.sample(range(n), d1))
            drop2 = set(rnd.sample(range(n), d2))
            y1 = tuple(s for i, s in enumerate(c) if i not in drop1)
            y2 = tuple(s for i, s in enumerate(c) if i not in drop2)
            full = enumerate_scs(y1, y2)
            asym = enumerate_scs(y1, y2, band=(d1, d2))
            sym = enumerate_scs(y1, y2, band=d1 + d2)
            assert full.candidates == asym.candidates == sym.candidates

    def test_cap_truncation(self):
        # one long run against its complement has C(14, 7) = 924 SCS words
        y1 = parse_word("10000000")
        y2 = parse_word("11111110")
        full = enumerate_scs(y1, y2)
        capped = enumerate_scs(y1, y2, cap=100)
        assert not full.truncated and len(full.candidates) == 924
        assert capped.truncated and len(capped.candidates) <= 100
        assert set(capped.candidates) <= set(full.candidates)


class TestEnumerateLcs:
    def test_examples(self):
        res = enumerate_lcs(parse_word("010"), parse_word("001"))
        assert set(res.candidates) == {parse_word("00"), parse_word("01")}
        res = enumerate_lcs(parse_word("0110"), parse_word("0110"))
        assert res.candidates == (parse_word("0110"),)
        res = enumerate_lcs(parse_word("00"), parse_word("11"))
        assert res.candidates == ((),)

    def test_vs_bruteforce_exhaustive(self):
        for m1 in range(0, 6):
            for m2 in range(0, 6):
                for y1 in product((0, 1), repeat=m1):
                    for y2 in product((0, 1), repeat=m2):
                        res = enumerate_lcs(y1, y2)
                        assert set(res.candidates) == brute_lcs_set(y1, y2)

    def test_vs_bruteforce_random(self):
        rnd = random.Random(6)
        for _ in range(150):
            y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            assert set(enumerate_lcs(y1, y2).candidates) == brute_lcs_set(y1, y2)


class TestCap:
    # a capped walk keeps the lexicographically first `cap` words and
    # reports truncation exactly when more exist
    def test_first_cap_words(self):
        rnd = random.Random(7)
        for enumerate_ in (enumerate_scs, enumerate_lcs):
            for _ in range(150):
                q = rnd.choice((2, 3))
                y1 = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 10)))
                y2 = tuple(rnd.randrange(q) for _ in range(rnd.randint(0, 10)))
                full = enumerate_(y1, y2)
                assert list(full.candidates) == sorted(full.candidates)
                for cap in (1, 2, 3, 5, 17):
                    res = enumerate_(y1, y2, cap=cap)
                    assert res.length == full.length
                    assert res.candidates == full.candidates[:cap]
                    assert res.truncated == (len(full.candidates) > cap)

    def test_cap_must_be_positive(self):
        for enumerate_ in (enumerate_scs, enumerate_lcs):
            with pytest.raises(ValueError):
                enumerate_((0,), (1,), cap=0)


class TestTrimmedWalks:
    # Pairs of traces of one word share long affixes and agreeing stretches,
    # so the walks run over the middles and the LCS walk skips stretches.
    SIZES = {2: 9, 3: 7, 4: 6}  # longest word per alphabet, for the brute sets

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_vs_bruteforce(self, q):
        rnd = random.Random(20 + q)
        trimmed = 0
        for deletion, enumerate_, brute in ((True, enumerate_scs, brute_scs_set),
                                            (False, enumerate_lcs, brute_lcs_set)):
            for y1, y2 in edited_pairs(rnd, 60, q, self.SIZES[q], deletion):
                trimmed += sum(common_affixes(y1, y2)) > 0
                res = enumerate_(y1, y2)
                assert set(res.candidates) == brute(y1, y2, q), (y1, y2)
                assert list(res.candidates) == sorted(res.candidates)
                assert not res.truncated
                for cap in (1, 2, 3, 5):
                    capped = enumerate_(y1, y2, cap=cap)
                    assert capped.length == res.length
                    assert capped.candidates == res.candidates[:cap]
                    assert capped.truncated == (len(res.candidates) > cap)
        assert trimmed > 60

    @pytest.mark.parametrize("deletion", [True, False])
    def test_affixes_wrap_every_word(self, deletion):
        # enumerate(P+X+S, P+Y+S) is P . enumerate(X, Y) . S, in order and
        # under every cap, at n near 150
        enumerate_ = enumerate_scs if deletion else enumerate_lcs
        rnd = random.Random(24 + deletion)
        for trial in range(12):
            q = (2, 4)[trial % 2]
            pre, mid, suf = (tuple(rnd.randrange(q) for _ in range(m))
                             for m in (rnd.randint(30, 60), rnd.randint(20, 50),
                                       rnd.randint(30, 60)))
            x = edited(rnd, mid, q, deletion, rnd.randint(1, 3))
            y = edited(rnd, mid, q, deletion, rnd.randint(1, 3))
            inner = enumerate_(x, y)
            for cap in (1, 4, 10 ** 6):
                outer = enumerate_(pre + x + suf, pre + y + suf, cap=cap)
                assert outer.length == len(pre) + inner.length + len(suf)
                assert outer.candidates == tuple(
                    pre + w + suf for w in inner.candidates[:cap])
                assert outer.truncated == (len(inner.candidates) > cap)

    def test_symbols_above_a_byte(self):
        # no bytes copy holds symbol 300: the walks fall back symbol by
        # symbol, and relabelling 1 -> 300 relabels every word alike
        rnd = random.Random(26)
        up = {0: 0, 1: 300}
        for deletion, enumerate_ in ((True, enumerate_scs),
                                     (False, enumerate_lcs)):
            for y1, y2 in edited_pairs(rnd, 40, 2, 30, deletion):
                wide = enumerate_(*(tuple(up[s] for s in y) for y in (y1, y2)))
                assert wide.candidates == tuple(
                    tuple(up[s] for s in w)
                    for w in enumerate_(y1, y2).candidates)


class TestLongTraces:
    def test_no_recursion_limit(self):
        rnd = random.Random(8)
        c = tuple(rnd.randrange(2) for _ in range(3000))
        for k in (1, 2):
            dels = [tuple(s for i, s in enumerate(c) if i not in drop)
                    for drop in (set(rnd.sample(range(3000), k)),
                                 set(rnd.sample(range(3000), k)))]
            ins = []
            for _ in range(2):
                z = list(c)
                for pos in sorted(rnd.sample(range(3001), k), reverse=True):
                    z.insert(pos, rnd.randrange(2))
                ins.append(tuple(z))
            for (y1, y2), enumerate_, sign in ((dels, enumerate_scs, 1),
                                                (ins, enumerate_lcs, -1)):
                res = enumerate_(y1, y2)
                lcs = (len(y1) + len(y2) - indel_distance(y1, y2)) // 2
                expected = lcs if sign < 0 else len(y1) + len(y2) - lcs
                assert res.length == expected and not res.truncated
                assert all(len(x) == expected for x in res.candidates)
