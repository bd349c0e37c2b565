import random
import warnings
from itertools import product

import pytest

from indelkit.channels import transmit_del
from indelkit.codes import (AllWordsCode, SvtCode, VtCode,
                            default_svt_window_modulus)
from indelkit.combinatorics import (EmbeddingLanes, embedding_number,
                                    insertion_ball)
from indelkit.decoders import (_best_leaf, brute_force_ml_star, decode_en,
                               decode_lazy, decode_ml_code,
                               mld_two_del_detailed, mld_two_ins_detailed,
                               ml_star_1del, ml_star_2del, mld_two_oracle,
                               objective_f,
                               two_del_condition_poly, two_del_lazy_en_gap)
from indelkit.supersequences import (DEFAULT_CAP, enumerate_lcs, enumerate_scs,
                                     lcs_dag, lcs_length, scs_dag, scs_length)
from indelkit.words import (format_word, indel_distance, is_subsequence,
                            parse_word, runs)
from reference import stream_rng


def pw(s):
    return parse_word(s)


class TestLazy:
    def test_identity(self):
        for s in ("0101", "", "1"):
            assert decode_lazy(pw(s)) == pw(s)


class TestEmbeddingNumberDecoder:
    def test_reference_values(self):
        assert decode_en(pw("00110"), 6) == pw("000110")
        assert decode_en(pw("011"), 5) == pw("01111")
        assert decode_en(pw("0110"), 4) == pw("0110")

    def test_errors(self):
        with pytest.raises(ValueError):
            decode_en(pw("0101"), 3)
        with pytest.raises(ValueError):
            decode_en(pw("01"), 5)

    def test_empty_input(self):
        assert decode_en((), 2) == (0, 0)

    def test_maximizes_embedding_one_insertion(self):
        # for a single added symbol, run prolonging is always the true argmax
        for m in range(0, 10):
            for y in product((0, 1), repeat=m):
                out = decode_en(y, m + 1)
                best = max(embedding_number(x, y)
                           for x in insertion_ball(y, 1, 2))
                assert embedding_number(out, y) == best, y

    def test_two_insertion_maximality_and_its_exceptions(self):
        # For two added symbols the run-prolonging rule is the argmax except
        # on words containing a two-symbol alternating substring of length
        # >= 4, where extending the alternation embeds strictly more often.
        # The rule is the decoder the optimal-decoder results are stated
        # for, so it is kept; this pins the exact exception counts.
        from indelkit.words import is_two_symbol_alternating
        expected_exceptions = {4: 2, 5: 2, 6: 6, 7: 10, 8: 14}
        for m in range(0, 9):
            exceptions = 0
            for y in product((0, 1), repeat=m):
                out = decode_en(y, m + 2)
                best = max(embedding_number(x, y)
                           for x in insertion_ball(y, 2, 2))
                mine = embedding_number(out, y)
                assert mine <= best
                if mine < best:
                    exceptions += 1
                    assert any(is_two_symbol_alternating(y[i:i + 4])
                               for i in range(m - 3)), y
            assert exceptions == expected_exceptions.get(m, 0), m

    def test_prolongs_first_longest(self):
        # two tied longest runs: the first one grows
        assert decode_en(pw("001100"), 7) == pw("0001100")
        # delta 2, tie r_i = 2 r_j resolved toward the single-run extension
        y = pw("0011")  # r_i = 2, r_j = 2 -> r_i < 2 r_j: both runs grow
        assert decode_en(y, 6) == pw("000111")


class TestMlCode:
    def test_reference_values(self):
        assert decode_ml_code(pw("001"), [pw("01001"), pw("11111")]) == pw("01001")
        assert decode_ml_code(pw("0"), [pw("00"), pw("01"), pw("10")]) == pw("00")

    def test_member_identity(self):
        code = [pw("0101"), pw("1010")]
        assert decode_ml_code(pw("0101"), code) == pw("0101")

    def test_zero_likelihood_warns(self):
        with pytest.warns(UserWarning):
            out = decode_ml_code(pw("11"), [pw("000"), pw("001")])
        assert out == pw("000")  # lexicographic fallback


class TestMldTwoDel:
    def test_reference_values(self):
        assert mld_two_del_detailed(pw("00"), pw("00")) == (pw("00"), False)
        assert mld_two_del_detailed(pw("0"), pw("1")) == (pw("01"), False)
        assert mld_two_del_detailed(pw("010"), pw("001")) == (pw("0010"),
                                                              False)

    def test_vs_bruteforce_exhaustive(self):
        for m1 in range(0, 6):
            for m2 in range(0, 6):
                for y1 in product((0, 1), repeat=m1):
                    for y2 in product((0, 1), repeat=m2):
                        assert mld_two_del_detailed(y1, y2) == (
                            mld_two_oracle(y1, y2)[0], False)

    def test_vs_bruteforce_random(self):
        rnd = random.Random(8)
        for _ in range(200):
            y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            assert mld_two_del_detailed(y1, y2) == (
                mld_two_oracle(y1, y2)[0], False)

    def test_output_is_common_supersequence(self):
        from indelkit.words import is_subsequence
        rnd = random.Random(9)
        for _ in range(100):
            n = rnd.randint(1, 10)
            c = tuple(rnd.randrange(2) for _ in range(n))
            y1 = tuple(s for s in c if rnd.random() > 0.2)
            y2 = tuple(s for s in c if rnd.random() > 0.2)
            out, _ = mld_two_del_detailed(y1, y2)
            assert is_subsequence(y1, out) and is_subsequence(y2, out)
            assert len(out) <= n


def literal_argmax(y1, y2, q, deletion):
    """The degraded decoder by definition: every word of the SCS (LCS)
    length that is a common super- (sub-)sequence, scored with the plain
    embedding-number DP; the first maximum in sorted order wins."""
    s = scs_length(y1, y2) if deletion else lcs_length(y1, y2)
    best, top = None, -1
    for x in product(range(q), repeat=s):
        if deletion and is_subsequence(y1, x) and is_subsequence(y2, x):
            score = embedding_number(x, y1) * embedding_number(x, y2)
        elif not deletion and is_subsequence(x, y1) and is_subsequence(x, y2):
            score = embedding_number(y1, x) * embedding_number(y2, x)
        else:
            continue
        if score > top:
            best, top = x, score
    return best


class TestDagSearchVsLiteralArgmax:
    def test_binary_exhaustive(self):
        words = [w for m in range(7) for w in product((0, 1), repeat=m)]
        for y1 in words:
            for y2 in words:
                assert mld_two_del_detailed(y1, y2) == (
                    literal_argmax(y1, y2, 2, True), False), (y1, y2)
                assert mld_two_ins_detailed(y1, y2) == (
                    literal_argmax(y1, y2, 2, False), False), (y1, y2)

    def test_ternary_random(self):
        rnd = random.Random(12)
        for _ in range(150):
            y1 = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, 6)))
            y2 = tuple(rnd.randrange(3) for _ in range(rnd.randint(0, 6)))
            assert mld_two_del_detailed(y1, y2) == (
                literal_argmax(y1, y2, 3, True), False), (y1, y2)
            assert mld_two_ins_detailed(y1, y2) == (
                literal_argmax(y1, y2, 3, False), False), (y1, y2)

    def test_long_traces(self):
        # an explicit stack: no recursion limit, whatever the length
        rnd = random.Random(13)
        c = tuple(rnd.randrange(2) for _ in range(3000))
        for k in (1, 2):
            y1, y2 = list(c), list(c)
            for y in (y1, y2):
                for pos in sorted(rnd.sample(range(len(y)), k), reverse=True):
                    del y[pos]
            y1, y2 = tuple(y1), tuple(y2)
            out, truncated = mld_two_del_detailed(y1, y2)
            lcs = (len(y1) + len(y2) - indel_distance(y1, y2)) // 2
            assert len(out) == len(y1) + len(y2) - lcs and not truncated
            assert is_subsequence(y1, out) and is_subsequence(y2, out)
            z1, z2 = list(c), list(c)
            for z in (z1, z2):
                for pos in sorted(rnd.sample(range(3001), k), reverse=True):
                    z.insert(pos, rnd.randrange(2))
            z1, z2 = tuple(z1), tuple(z2)
            out, truncated = mld_two_ins_detailed(z1, z2)
            lcs = (len(z1) + len(z2) - indel_distance(z1, z2)) // 2
            assert len(out) == lcs and not truncated
            assert is_subsequence(out, z1) and is_subsequence(out, z2)


def walk_pick(y1, y2, deletion=True, code=None):
    """The word the pruned walk itself picks, before any shortcut or code
    fallback of the decoders."""
    length, walk = (scs_dag if deletion else lcs_dag)(y1, y2)
    return _best_leaf(length, walk, (y1, y2), deletion, DEFAULT_CAP, code)[0]


def channel_pair(rnd, c, p):
    return tuple(tuple(s for s in c if rnd.random() >= p) for _ in range(2))


def insertion_pair(rnd, c, p, q):
    """Two Ins(p) traces of c: one uniform symbol at each gap w.p. p."""
    def trace():
        out = []
        for s in c:
            if rnd.random() < p:
                out.append(rnd.randrange(q))
            out.append(s)
        if rnd.random() < p:
            out.append(rnd.randrange(q))
        return tuple(out)
    return trace(), trace()


class TestPrunedWalkVsOracle:
    # The pruned walk against mld_two_oracle, the literal first strict
    # maximum of the embedding-number product over the full enumeration.

    def test_binary_exhaustive(self):
        words = [w for m in range(7) for w in product((0, 1), repeat=m)]
        for y1 in words:
            for y2 in words:
                for deletion in (True, False):
                    assert walk_pick(y1, y2, deletion) == mld_two_oracle(
                        y1, y2, deletion)[0], (y1, y2, deletion)

    def test_random_channel_pairs(self):
        rnd = random.Random(14)
        for trial in range(300):
            q = (2, 4)[trial % 2]
            c = tuple(rnd.randrange(q) for _ in range(rnd.randint(1, 120)))
            y1, y2 = channel_pair(rnd, c, rnd.uniform(0.0, 0.2))
            assert mld_two_del_detailed(y1, y2) == (
                mld_two_oracle(y1, y2)[0], False), (c, y1, y2)
        rnd = random.Random(17)
        for trial in range(300):
            q = (2, 4)[trial % 2]
            c = tuple(rnd.randrange(q) for _ in range(rnd.randint(1, 150)))
            z1, z2 = insertion_pair(rnd, c, rnd.uniform(0.0, 0.05), q)
            assert mld_two_ins_detailed(z1, z2) == (
                mld_two_oracle(z1, z2, deletion=False)[0], False), (c, z1, z2)

    @pytest.mark.parametrize("kind", ["vt", "svt"])
    def test_coded(self, kind):
        # Every VT residue (every SVT residue and parity) at the SCS length.
        # The front is keyed by the code's prefix state, so the codeword
        # pick stays exact where it differs from the unrestricted best.
        rnd = random.Random(15)
        picks_differ = 0
        for _ in range(60 if kind == "vt" else 200):
            c = tuple(rnd.randrange(2) for _ in range(rnd.randint(8, 40)))
            y1, y2 = channel_pair(rnd, c, rnd.uniform(0.05, 0.3))
            n = scs_length(y1, y2)
            if kind == "vt":
                codes = [VtCode(n, a) for a in range(n + 1)]
            else:
                P = default_svt_window_modulus(n)
                codes = [SvtCode(n, a, P, b) for a in range(P) for b in (0, 1)]
            for code in codes:
                best, member = mld_two_oracle(y1, y2, code=code)
                pick = best if member is None else member
                assert walk_pick(y1, y2, code=code) == pick, (y1, y2, code.a)
                if member is not None:
                    assert mld_two_del_detailed(y1, y2, code=code) == (
                        member, False)
                    picks_differ += member != best
        assert picks_differ > 0

    @pytest.mark.parametrize("kind", ["vt", "svt"])
    def test_coded_ternary_trace(self, kind):
        # A trace symbol outside the binary alphabet lies in every SCS, so
        # no SCS is a codeword: the walk and the oracle find none, and the
        # decoder keeps the unrestricted best.  Every fourth pair is equal,
        # which the containment shortcut decodes.
        rnd = random.Random(18)
        for trial in range(40):
            c = tuple(rnd.randrange(2) for _ in range(rnd.randint(4, 20)))
            y1, y2 = channel_pair(rnd, c, rnd.uniform(0.05, 0.3))
            i = rnd.randrange(len(y2) + 1)
            y2 = y2[:i] + (2,) + y2[i:]
            if trial % 4 == 0:
                y1 = y2
            n = scs_length(y1, y2)
            if kind == "vt":
                codes = [VtCode(n, a) for a in range(n + 1)]
            else:
                P = default_svt_window_modulus(n)
                codes = [SvtCode(n, a, P, b) for a in range(P) for b in (0, 1)]
            for code in codes:
                best, member = mld_two_oracle(y1, y2, code=code)
                assert member is None, (y1, y2, code.a)
                assert walk_pick(y1, y2, code=code) == best
                assert mld_two_del_detailed(y1, y2, code=code) == (best, False)

    def test_coded_exhaustive(self):
        # Every binary pair with |y1|, |y2| <= 4 and every code at its SCS
        # length n (VT at every residue, SVT at every (a, b) with a
        # codeword): the walk picks the oracle's best codeword, else its
        # best word, and so does the decoder.  VT at length n + 1 leaves
        # every candidate one symbol short: the decoder's VT fallback.
        words = [w for m in range(5) for w in product((0, 1), repeat=m)]
        picks = 0
        for y1 in words:
            for y2 in words:
                n = scs_length(y1, y2)
                codes = [VtCode(n, a) for a in range(n + 1)]
                if n:  # SVT needs a window modulus, defined from n = 1
                    P = default_svt_window_modulus(n)
                    for a, b in product(range(P), (0, 1)):
                        try:
                            codes.append(SvtCode(n, a, P, b))
                        except ValueError:  # no codeword
                            pass
                for code in codes:
                    best, member = mld_two_oracle(y1, y2, code=code)
                    pick = best if member is None else member
                    assert walk_pick(y1, y2, code=code) == pick, (y1, y2, code)
                    assert mld_two_del_detailed(y1, y2, code=code) == (
                        pick, False), (y1, y2, code)
                    picks += 1
                best = mld_two_oracle(y1, y2)[0]
                for a in range(n + 2):
                    code = VtCode(n + 1, a)
                    assert mld_two_del_detailed(y1, y2, code=code) == (
                        code.decode_1del(best), False), (y1, y2, a)
        assert picks == 13_585

    def test_coded_caps_pinned(self):
        # A code and a cap together.  Three VT and three SVT pairs of
        # Del(0.2) traces with at least three SCS words; each code is the
        # one that holds a seeded SCS word of its pair.  (word, truncated)
        # at caps 1, 2, 3 and 5: a capped walk returns its best codeword
        # scored so far, else its best word scored so far.
        pinned = [
            [("000101101011110000", True), ("000101101011110000", True),
             ("000101101011110000", True), ("000111010111110000", True)],
            [("11101101110010101", True), ("11101101110011010", True),
             ("11101110110010101", True), ("11101110110011010", True)],
            [("1111010000111011110", True), ("1111010000111101110", True),
             ("1111010000111110110", True), ("1111010000111110110", True)],
            [("100010110111", True), ("100010111011", True),
             ("100010111011", False), ("100010111011", False)],
            [("01100101010010101010", True), ("01100101010011010010", True),
             ("01100101010011010010", True), ("01100101010011010010", True)],
            [("10100110100", True), ("10100110100", True),
             ("10100110100", False), ("10100110100", False)],
        ]
        rnd = random.Random(19)
        got = []
        for kind in (VtCode, SvtCode):
            found = 0
            while found < 3:
                c = tuple(rnd.randrange(2) for _ in range(rnd.randint(10, 24)))
                y1, y2 = channel_pair(rnd, c, 0.2)
                words = enumerate_scs(y1, y2).candidates
                if len(words) < 3:
                    continue
                found += 1
                n = len(words[0])
                state = kind(n).fold(rnd.choice(words))
                code = (VtCode(n, state) if kind is VtCode
                        else SvtCode(n, state // 2, None, state % 2))
                got.append([(format_word(w), t) for w, t in
                            (mld_two_del_detailed(y1, y2, cap=cap, code=code)
                             for cap in (1, 2, 3, 5))])
        assert got == pinned

    def test_coded_walk_builds_no_rows_for_rejected_words(self, monkeypatch):
        # once a codeword is scored, a word the code rejects cannot win:
        # the walk computes no product for it (nor its rows), and computes
        # one for every other word it reaches
        products = []
        count = EmbeddingLanes.count
        monkeypatch.setattr(EmbeddingLanes, "count", lambda self, row: (
            products.append(1), count(self, row))[1])
        rnd = random.Random(21)
        passed_over = 0
        for _ in range(150):
            c = tuple(rnd.randrange(2) for _ in range(rnd.randint(10, 40)))
            y1, y2 = channel_pair(rnd, c, 0.15)
            length, walk = scs_dag(y1, y2)
            words = enumerate_scs(y1, y2).candidates
            if len(words) < 2:  # a single word is returned unscored
                continue
            code = VtCode(length, VtCode(length).fold(rnd.choice(words)))
            seen = []  # (codeword, product computed) per word reached

            def counted(skip):
                for item in walk(skip):
                    before, word = len(products), tuple(item[0])
                    yield item
                    seen.append((code.is_member(word), len(products) > before))
            pick = _best_leaf(length, counted, (y1, y2), True, DEFAULT_CAP,
                              code)[0]
            assert pick == mld_two_oracle(y1, y2, code=code)[1]
            first = next(i for i, (member, _) in enumerate(seen) if member)
            assert all(built for _, built in seen[:first + 1])
            assert all(built == member for member, built in seen[first + 1:])
            passed_over += sum(not built for _, built in seen)
        assert passed_over > 0

    def test_cap_budgets_scored_words(self):
        # a budget smaller than the number of SCS words truncates only
        # when it runs out before the pruned walk does
        rnd = random.Random(16)
        saved = 0
        for _ in range(200):
            c = tuple(rnd.randrange(2) for _ in range(rnd.randint(4, 30)))
            y1, y2 = channel_pair(rnd, c, 0.2)
            words = enumerate_scs(y1, y2).candidates
            for cap in (1, 2, 5):
                out, truncated = mld_two_del_detailed(y1, y2, cap=cap)
                if truncated:
                    assert out in words
                else:
                    assert out == mld_two_oracle(y1, y2)[0]
                    saved += len(words) > cap
                if len(words) > 1 and cap == 1:
                    assert truncated and out == words[0]
        assert saved > 0

    def test_paper_scale_pair_decodes_untruncated(self):
        # q=2, n=900, Del(0.05), trial 5 of the harness streams at seed 2024:
        # 172,800 SCS words, the most of the first 15 trials.  Scoring them
        # one by one took over 20 s; the pruned walk takes about 2 s.
        def trace(stream):
            return transmit_del(c, 0.05, stream_rng(2024, 0, 5, stream))

        c = AllWordsCode(900).sample(stream_rng(2024, 0, 5, 0))
        y1, y2 = trace(1), trace(2)
        out, truncated = mld_two_del_detailed(y1, y2)
        assert not truncated
        assert len(out) == scs_length(y1, y2) == 894
        assert is_subsequence(y1, out) and is_subsequence(y2, out)

        def score(x):
            return embedding_number(x, y1) * embedding_number(x, y2)

        # the codeword is 6 symbols longer than an SCS, so it is no
        # candidate; the output beats the lexicographically first ones
        top = score(out)
        assert all(top >= score(x)
                   for x in enumerate_scs(y1, y2, cap=40).candidates)


class TestMldTwoIns:
    def test_reference_values(self):
        assert mld_two_ins_detailed(pw("00"), pw("00")) == (pw("00"), False)
        assert mld_two_ins_detailed(pw("010"), pw("01")) == (pw("01"), False)
        assert mld_two_ins_detailed(pw("0100"), pw("0010")) == (pw("010"),
                                                                False)

    def test_vs_bruteforce_exhaustive(self):
        for m1 in range(0, 6):
            for m2 in range(0, 6):
                for y1 in product((0, 1), repeat=m1):
                    for y2 in product((0, 1), repeat=m2):
                        assert mld_two_ins_detailed(y1, y2) == (
                            mld_two_oracle(y1, y2, False)[0], False)

    def test_vs_bruteforce_random(self):
        rnd = random.Random(10)
        for _ in range(200):
            y1 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            y2 = tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 8)))
            assert mld_two_ins_detailed(y1, y2) == (
                mld_two_oracle(y1, y2, False)[0], False)


class TestObjective:
    def test_tiny_case_by_hand(self):
        # n = 2, k = 1, y = 0: I_1(0) = {00, 01, 10} with Emb 2, 1, 1
        assert objective_f(pw("0"), pw("0"), 1) == 4
        assert objective_f(pw("0"), pw("00"), 1) == 4

    def test_zero_contribution_from_match(self):
        # x equal to the unique supersequence with Emb > 0 contributes 0 there
        y = pw("00")
        x = pw("000")
        total = objective_f(y, x, 1)
        manual = sum(indel_distance(x, c) * embedding_number(c, y)
                     for c in insertion_ball(y, 1, 2))
        assert total == manual

    def test_lazy_score_is_qn(self):
        # sum of Emb over I_1(y) is q * n, so the unchanged output scores
        # exactly 2n for binary words (each candidate sits at distance 1)
        rnd = random.Random(11)
        for _ in range(40):
            m = rnd.randint(1, 9)
            y = tuple(rnd.randrange(2) for _ in range(m))
            assert objective_f(y, y, 1) == 2 * (m + 1)

    def test_code_restriction(self):
        from indelkit.codes import VtCode
        y = pw("110")
        code = VtCode(4, 0)
        full = objective_f(y, y, 1)
        restricted = objective_f(y, y, 1, code=code)
        assert restricted <= full
        manual = sum(indel_distance(y, c) * embedding_number(c, y)
                     for c in insertion_ball(y, 1, 2) if code.is_member(c))
        assert restricted == manual


class TestBruteForce:
    def test_one_deletion_prefers_lazy(self):
        rnd = random.Random(12)
        for _ in range(40):
            m = rnd.randint(1, 9)
            y = tuple(rnd.randrange(2) for _ in range(m))
            out = brute_force_ml_star(y, 1)
            assert objective_f(y, out, 1) <= objective_f(y, y, 1)

    def test_refuses_infeasible(self):
        with pytest.raises(ValueError):
            brute_force_ml_star((0,) * 24, 2)

    def test_known_values_k2(self):
        assert brute_force_ml_star(pw("00000000"), 2) == ml_star_2del(pw("00000000"))
        assert brute_force_ml_star(pw("01010101"), 2) != ml_star_2del(pw("01010101"))

    def test_global_minimality_small(self):
        # the returned word's score is minimal over the whole window
        for y in product((0, 1), repeat=4):
            out = brute_force_ml_star(y, 2)
            best = min(objective_f(y, x, 2)
                       for L in range(4, 8)
                       for x in product((0, 1), repeat=L))
            assert objective_f(y, out, 2) == best


class TestMlStar1Del:
    def test_returns_input(self):
        y = tuple(i % 2 for i in range(20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ml_star_1del(y) == y  # n = 21, no warning

    def test_warns_below_17(self):
        with pytest.warns(UserWarning):
            ml_star_1del(pw("0101"))


class TestMlStar2Del:
    def test_reference_values(self):
        assert ml_star_2del(pw("010101")) == pw("010101")
        assert ml_star_2del(pw("000000")) == pw("0000000")
        assert two_del_condition_poly(8, 1, 6) == 59
        assert two_del_condition_poly(8, 6, 1) == -56

    def test_output_lengths(self):
        for m in range(0, 10):
            for y in product((0, 1), repeat=m):
                out = ml_star_2del(y)
                assert len(out) in (m, m + 1)

    def test_crossover_trend(self):
        # the prolong branch triggers near r_longest ~ (2 - sqrt(2)) n for
        # large n: locate the exact polynomial crossover per n
        for n in (64, 128, 256):
            crossing = None
            for ri in range(1, n - 1):
                # worst case for the condition: a single extra run (r = 2)
                if two_del_condition_poly(n, ri, 2) < 0:
                    crossing = ri
                    break
            assert crossing is not None
            assert abs(crossing / n - (2 - 2 ** 0.5)) < 0.1


class TestLazyEnGap:
    def test_non_binary_refused(self):
        for y in ((0, 2, 1), (-1,), (1, 0, 3, 0)):
            with pytest.raises(ValueError, match="out of range"):
                two_del_lazy_en_gap(y)

    def test_known_polynomial_agreements(self):
        # regular cases where the closed form matches the exact sign
        for s, n in (("010101", 8), ("000000", 8), ("0101", 6), ("111", 5)):
            y = pw(s)
            prof = runs(y)
            poly = two_del_condition_poly(n, prof.r_max, prof.r)
            assert (two_del_lazy_en_gap(y) >= 0) == (poly >= 0)

    def test_known_polynomial_violation(self):
        # documented counterexample to the closed-form sign condition: the
        # exact gap prefers prolonging while the polynomial says otherwise
        y = pw("001110")
        prof = runs(y)
        assert two_del_condition_poly(8, prof.r_max, prof.r) == 6
        assert two_del_lazy_en_gap(y) == -2


class TestCodedMld:
    def test_vt_corrects_run_and_alternating(self):
        from indelkit.codes import VtCode
        from indelkit.combinatorics import deletion_ball
        for n in (6, 8):
            code = VtCode(n, 0)
            for c in code.enumerate_words():
                for y1 in deletion_ball(c, 1):
                    for y2 in deletion_ball(c, 1):
                        out = mld_two_del_detailed(y1, y2, code=code)
                        assert out == (c, False), (c, y1, y2)

    def test_svt_corrects_alternating_only(self):
        from indelkit.codes import SvtCode
        from indelkit.combinatorics import deletion_ball
        n = 8
        code = SvtCode(n, a=0, b=0)
        failures_run = failures_other = 0
        for c in code.enumerate_words():
            for y1 in deletion_ball(c, 1):
                for y2 in deletion_ball(c, 1):
                    out, _ = mld_two_del_detailed(y1, y2, code=code)
                    if out != c:
                        if y1 == y2:
                            failures_run += 1
                        else:
                            failures_other += 1
        # same-run double deletions are not correctable by SVT alone,
        # alternating ambiguities (y1 != y2) are
        assert failures_run == 115
        assert failures_other == 0

    def test_vt_fallback_skips_a_non_binary_candidate(self):
        # the SCS length 4 is one short of n = 5, but the best candidate
        # holds a 2, which VT refuses: the unrestricted best is returned
        assert mld_two_del_detailed(pw("120"), pw("200"),
                                    code=VtCode(5, 0)) == (pw("1200"), False)
