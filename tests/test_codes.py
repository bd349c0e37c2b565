import numpy as np
import pytest

from indelkit.codes import (AllWordsCode, DecodeFailure, SvtCode, VtCode,
                            default_svt_window_modulus, make_code)
from indelkit.combinatorics import deletion_ball, insertion_ball
from indelkit.words import parse_word


def pw(s):
    return parse_word(s)


class TestVtMembership:
    def test_examples(self):
        code = VtCode(4, 0)
        assert code.is_member(pw("0110"))   # 2 + 3 = 5 = 0 mod 5
        assert code.is_member(pw("0000"))
        assert not code.is_member(pw("1000"))  # checksum 1

    def test_enumeration_matches_membership(self):
        for n in (2, 5, 8):
            for a in range(n + 1):
                code = VtCode(n, a)
                members = set(code.enumerate_words())
                from itertools import product
                expected = {w for w in product((0, 1), repeat=n)
                            if sum((i + 1) * s for i, s in enumerate(w)) % (n + 1) == a}
                assert members == expected

    def test_vt0_2(self):
        assert set(VtCode(2, 0).enumerate_words()) == {pw("00"), pw("11")}

    def test_pigeonhole_size(self):
        for n in range(2, 13):
            assert len(VtCode(n, 0).enumerate_words()) >= 2 ** n // (n + 1)

    def test_residue_classes_partition_space(self):
        n = 9
        total = sum(len(VtCode(n, a).enumerate_words()) for a in range(n + 1))
        assert total == 2 ** n


class TestVtDecoding:
    def test_reference_value(self):
        code = VtCode(4, 0)
        assert code.decode_1del(pw("110")) == pw("0110")

    def test_run_interior_deletion(self):
        code = VtCode(6, 0)
        for c in code.enumerate_words():
            for y in deletion_ball(c, 1):
                assert code.decode_1del(y) == c

    def test_full_sweep_all_residues(self):
        # every codeword, every single deletion, every residue, n <= 10
        for n in (4, 7, 10):
            for a in range(n + 1):
                code = VtCode(n, a)
                for c in code.enumerate_words():
                    for y in deletion_ball(c, 1):
                        assert code.decode_1del(y) == c

    def test_algebraic_equals_search(self):
        for n in (4, 6, 9):
            for a in range(n + 1):
                code = VtCode(n, a)
                from itertools import product
                for y in product((0, 1), repeat=n - 1):
                    assert code.decode_1del(y) == code.decode_1del_search(y)

    def test_decoded_word_is_member_for_any_input(self):
        from itertools import product
        code = VtCode(8, 3)
        for y in product((0, 1), repeat=7):
            c = code.decode_1del(y)
            assert code.is_member(c)
            assert y in deletion_ball(c, 1)

    def test_length_check(self):
        with pytest.raises(ValueError):
            VtCode(5, 0).decode_1del(pw("01"))

    def test_sampling_uniform_members(self):
        code = VtCode(10, 0)
        members = set(code.enumerate_words())
        rng = np.random.default_rng(0)
        draws = [code.sample(rng) for _ in range(300)]
        assert set(draws) <= members
        assert len(set(draws)) > len(members) // 3


class TestSvt:
    def test_membership_example(self):
        code = SvtCode(6, a=0, b=0)
        assert code.is_member(pw("000000"))

    def test_default_window_modulus(self):
        assert default_svt_window_modulus(150) == 10
        assert default_svt_window_modulus(8) == 5

    def test_enumeration_counts_partition(self):
        n = 8
        P = default_svt_window_modulus(n)
        total = 0
        for a in range(P):
            for b in (0, 1):
                total += len(SvtCode(n, a, P, b).enumerate_words())
        assert total == 2 ** n

    def test_roundtrip_windows(self):
        # delete any position j, decode with every window covering j
        for n in (6, 8, 10):
            P = default_svt_window_modulus(n)
            for a in (0, 1):
                for b in (0, 1):
                    code = SvtCode(n, a, P, b)
                    for c in code.enumerate_words():
                        for j in range(n):
                            y = c[:j] + c[j + 1:]
                            for start in range(max(0, j - P + 2), j + 1):
                                assert code.decode_1del(y, start) == c, (c, j, start)

    def test_window_excluding_position_can_fail(self):
        code = SvtCode(8, a=0, b=0)
        c = next(w for w in code.enumerate_words() if w[0] != w[-1])
        y = c[1:]  # delete position 0
        with pytest.raises(DecodeFailure):
            # a window that cannot contain the deletion and admits no
            # consistent codeword
            for start in range(2, 8):
                code.decode_1del(y, start)

    def test_validation(self):
        with pytest.raises(ValueError):
            SvtCode(8, a=9, P=5)
        with pytest.raises(ValueError):
            SvtCode(8, a=0, P=1)
        with pytest.raises(ValueError):
            SvtCode(8, a=0, b=2)


class TestMakeCode:
    def test_kinds(self):
        assert isinstance(make_code({"code": "all"}, 6), AllWordsCode)
        assert isinstance(make_code({"code": "vt", "a": 1}, 6), VtCode)
        assert isinstance(make_code({"code": "svt"}, 8), SvtCode)
        with pytest.raises(ValueError):
            make_code({"code": "hamming"}, 6)
        # keys the kind does not read, "A" a typo for "a"
        for params in ({"code": "all", "a": 3}, {"code": "vt", "P": 5},
                       {"code": "vt", "A": 4}, {"code": "svt", "A": 1}):
            with pytest.raises(ValueError):
                make_code(params, 8)

    def test_all_words_code(self):
        code = AllWordsCode(5, 2)
        assert code.is_member(pw("01010"))
        assert not code.is_member(pw("0101"))
        rng = np.random.default_rng(1)
        w = code.sample(rng)
        assert len(w) == 5


class TestVtUnderIndependentOracle:
    def test_balls_disjoint(self):
        # single-deletion correction is exactly ball disjointness
        for n in (6, 9):
            code = VtCode(n, 0)
            seen = {}
            for c in code.enumerate_words():
                for y in deletion_ball(c, 1):
                    assert y not in seen or seen[y] == c
                    seen[y] = c

    def test_at_most_one_member_per_insertion_ball(self):
        from itertools import product
        for n in (6, 8):
            code = VtCode(n, 0)
            for y in product((0, 1), repeat=n - 1):
                members = [c for c in insertion_ball(y, 1, 2) if code.is_member(c)]
                assert len(members) == 1
