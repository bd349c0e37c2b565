from itertools import product

import numpy as np
import pytest

from indelkit.codes import (AllWordsCode, DecodeFailure, SvtCode, VtCode,
                            default_svt_window_modulus, make_code)
from indelkit.combinatorics import deletion_ball, insertion_ball
from indelkit.words import parse_word
from reference import buffered_rng


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
        # every n <= 12, every residue a (0 and n included) and every y:
        # the empty y at n = 1, the all-zero and all-one y
        for n in range(1, 13):
            for a in range(n + 1):
                code = VtCode(n, a)
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

    def test_refuses_a_non_binary_word(self):
        # the 2 folds to the automaton's DEAD state: no deficiency to read
        with pytest.raises(ValueError, match="binary"):
            VtCode(5, 0).decode_1del((2, 1, 0, 0))

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

    def test_refuses_exactly_the_empty_codes(self):
        refused = set()
        for n in range(1, 9):
            words = list(product((0, 1), repeat=n))
            for P in range(2, n + 2):
                for a in range(P):
                    for b in (0, 1):
                        empty = not any(
                            sum((i + 1) * s for i, s in enumerate(w)) % P == a
                            and sum(w) % 2 == b for w in words)
                        if empty:
                            refused.add((n, a, P, b))
                            with pytest.raises(ValueError) as err:
                                SvtCode(n, a, P, b)
                            assert (f"n={n}, a={a}, P={P}, b={b}"
                                    in str(err.value))
                        else:
                            assert SvtCode(n, a, P, b).enumerate_words()
        assert {(n, a, b) for n, a, P, b in refused
                if P == default_svt_window_modulus(n)} == {
            (1, 0, 1), (1, 1, 0), (2, 0, 1), (2, 1, 0), (2, 2, 0), (3, 0, 1),
            (3, 2, 0)}
        assert (4, 0, 5, 1) in refused

    def test_vt_codes_are_never_empty(self):
        for n in range(1, 11):
            for a in range(n + 1):
                assert VtCode(n, a).enumerate_words()


def folded_words(code, symbols, max_len):
    """(word, state) for every word over `symbols` of length <= max_len,
    with state code.prefix_state folded over the word from state 0."""
    level = [((), 0)]
    yield from level
    for i in range(1, max_len + 1):
        level = [(w + (s,), code.prefix_state(state, i, s))
                 for w, state in level for s in symbols]
        yield from level


class TestPrefixState:
    # The coded DAG walk keys its pruning fronts by the prefix state, so two
    # prefixes in one state must complete to codewords alike: a word is a
    # member exactly when it has length n and its folded state accepts.
    # A symbol outside the alphabet makes no word a member.

    def _check(self, code, accept, symbols, max_len=10):
        assert code.accept == accept
        for w, state in folded_words(code, symbols, max_len):
            assert code.is_member(w) == (len(w) == code.n
                                         and state == accept), (w, state)
            if any(s >= code.q for s in w):
                assert not code.is_member(w), w

    @pytest.mark.parametrize("q,max_len", [(2, 10), (3, 8)])
    def test_all_words(self, q, max_len):
        # the symbol q lies outside the alphabet
        for n in (0, 3, max_len):
            self._check(AllWordsCode(n, q), 0, range(q + 1), max_len)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_vt_every_residue(self, n):
        for a in range(n + 1):
            self._check(VtCode(n, a), a, (0, 1))

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_svt_every_residue_and_parity(self, n):
        P = default_svt_window_modulus(n)
        for a in range(P):
            for b in (0, 1):
                self._check(SvtCode(n, a, P, b), 2 * a + b, (0, 1))

    # the symbol 2 lies outside the binary alphabet
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_vt_outside_alphabet(self, n):
        for a in range(n + 1):
            self._check(VtCode(n, a), a, (0, 1, 2), max_len=7)

    @pytest.mark.parametrize("n", [4, 6])
    def test_svt_outside_alphabet(self, n):
        P = default_svt_window_modulus(n)
        for a in range(P):
            for b in (0, 1):
                self._check(SvtCode(n, a, P, b), 2 * a + b, (0, 1, 2), 7)


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

    @pytest.mark.parametrize("params,key", [
        ({"code": "vt", "a": "1"}, "'a'"), ({"code": "vt", "a": 1.0}, "'a'"),
        ({"code": "vt", "a": True}, "'a'"), ({"code": "svt", "b": True}, "'b'"),
        ({"code": "svt", "P": "5"}, "'P'"), ({"code": "svt", "P": 5.0}, "'P'"),
        ({"code": ["vt"]}, "code kind"),
    ])
    def test_value_types_named(self, params, key):
        with pytest.raises(ValueError, match=key):
            make_code(params, 8)

    def test_null_window_modulus_takes_the_default(self):
        assert make_code({"code": "svt", "P": None}, 8).P == \
            default_svt_window_modulus(8)

    def test_all_words_code(self):
        code = AllWordsCode(5, 2)
        assert code.is_member(pw("01010"))
        assert not code.is_member(pw("0101"))
        rng = np.random.default_rng(1)
        w = code.sample(rng)
        assert len(w) == 5


def _all_words_sample_loop(code, rng):
    """Reference form of AllWordsCode.sample: one int() per symbol."""
    return tuple(int(s) for s in rng.integers(0, code.q, size=code.n))


def _sample_member_loop(n, rng, member_mask_fn):
    """Reference form of the binary codes' sample (_PrefixCode.sample):
    one int() per symbol."""
    while True:
        batch = rng.integers(0, 2, size=(64, n), dtype=np.uint8)
        idx = np.flatnonzero(member_mask_fn(batch))
        if idx.size:
            return tuple(int(b) for b in batch[idx[0]])


def _int_member_mask(code, bits):
    """The members among the rows of bits, by int64 checksums: the
    reference of the codes' float64 _checksums."""
    sums = bits.astype(np.int64) @ np.arange(1, code.n + 1)
    if code.kind == "vt":
        return sums % (code.n + 1) == code.a
    return (sums % code.P == code.a) & (bits.sum(axis=1) % 2 == code.b)


class TestSamplersEqualLoops:
    # same words, same Python int symbols, same generator state afterwards,
    # from a fresh generator and from one holding a buffered half-word
    def _check(self, fast, loop, seeds=300):
        for seed in range(seeds):
            for make in (np.random.default_rng, buffered_rng):
                r1, r2 = make(seed), make(seed)
                w = fast(r1)
                assert w == loop(r2)
                assert all(type(s) is int for s in w)
                assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("n", [0, 1, 37, 150])
    def test_all_words(self, q, n):
        code = AllWordsCode(n, q)
        self._check(code.sample, lambda r: _all_words_sample_loop(code, r))

    # guard: the rejection batches are rng.integers(0, 2, (64, n),
    # dtype=np.uint8) read from the raw stream; n = 0 (no draw), odd and
    # even n, members found in late batches (n = 451)
    @pytest.mark.parametrize("code", [VtCode(12, 3), VtCode(40, 0),
                                      SvtCode(20, a=1, b=1), VtCode(0, 0),
                                      VtCode(1, 1), VtCode(7, 5),
                                      VtCode(150, 0), VtCode(451, 3),
                                      SvtCode(64, a=2, b=1)])
    def test_members(self, code):
        self._check(code.sample, lambda r: _sample_member_loop(
            code.n, r, lambda bits: _int_member_mask(code, bits)))


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
