import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from indelkit.channels import (ChannelSpec, cond_prob_del, cond_prob_del_term,
                               cond_prob_ins, cond_prob_ins_term,
                               cond_prob_kdel, ins_channel_law, transmit_del,
                               transmit_ins, transmit_kdel, uniform_symbols)
from indelkit.combinatorics import deletion_ball, embedding_number
from indelkit.words import is_subsequence, parse_word
from reference import buffered_rng


class TestChannelSpec:
    def test_roundtrip(self):
        for spec in (ChannelSpec("del"), ChannelSpec("ins", q=4),
                     ChannelSpec("kdel", k=2)):
            assert ChannelSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec("bad")
        with pytest.raises(ValueError):
            ChannelSpec("kdel", k=-1)
        with pytest.raises(ValueError):
            ChannelSpec("ins", q=1)
        # fields the kind ignores, which to_dict would drop
        for kw in (dict(kind="del", k=3), dict(kind="ins", k=1),
                   dict(kind="kdel", k=1, q=4), dict(kind="del", q=4)):
            with pytest.raises(ValueError):
                ChannelSpec.from_dict(kw)

    def test_serialized_forms(self):
        # the bytes a config writes for each kind; from_dict(to_dict())
        # cannot see a format that changes on both sides
        for spec, text in [
                (ChannelSpec("del"), '{"kind": "del"}'),
                (ChannelSpec("ins", q=4), '{"kind": "ins", "q": 4}'),
                (ChannelSpec("kdel", k=2), '{"kind": "kdel", "k": 2}')]:
            assert json.dumps(spec.to_dict()) == text

    def test_refuses_p_by_name(self):
        # the grid alone sets p: a channel that holds one is refused for it
        for d in ({"kind": "del", "p": 0.0}, {"kind": "ins", "p": 0.02, "q": 2},
                  {"kind": "kdel", "k": 1, "p": 0.0}):
            with pytest.raises(ValueError, match=r"unknown channel key\(s\) 'p'"):
                ChannelSpec.from_dict(d)
        with pytest.raises(TypeError, match="'p'"):
            ChannelSpec("del", p=0.02)

    def test_transmit_calls_the_kind_sampler(self):
        x = parse_word("0110101101")
        for spec, y in [
                (ChannelSpec("del"), transmit_del(x, 0.3, 7)),
                (ChannelSpec("ins", q=4), transmit_ins(x, 0.3, 4, 7)),
                (ChannelSpec("kdel", k=3), transmit_kdel(x, 3, 7))]:
            assert spec.transmit(x, 0.3, 7) == y


class TestTransmitDel:
    def test_boundaries(self):
        x = parse_word("0110101")
        assert transmit_del(x, 0.0, 1) == x
        assert transmit_del(x, 1.0, 1) == ()
        assert transmit_del((), 0.5, 1) == ()

    def test_deterministic_given_seed(self):
        x = parse_word("011010110")
        assert transmit_del(x, 0.3, 42) == transmit_del(x, 0.3, 42)
        assert transmit_del(x, 0.3, 42) != transmit_del(x, 0.3, 43) or True

    def test_output_is_subsequence(self):
        rng = np.random.default_rng(0)
        x = tuple(int(s) for s in rng.integers(0, 2, 60))
        for seed in range(50):
            y = transmit_del(x, 0.3, seed)
            assert is_subsequence(y, x)

    def test_deletion_fraction(self):
        # |x| = 450, p = 0.02, 10^5 symbol draws worth of trials
        x = tuple(int(s) for s in np.random.default_rng(1).integers(0, 2, 450))
        trials = 2000
        deleted = sum(450 - len(transmit_del(x, 0.02, seed))
                      for seed in range(trials))
        total = 450 * trials
        se = math.sqrt(0.02 * 0.98 * total)
        assert abs(deleted - 0.02 * total) <= 4 * se


class TestTransmitIns:
    def test_p_zero(self):
        x = parse_word("0101")
        assert transmit_ins(x, 0.0, 2, 3) == x

    def test_output_is_supersequence(self):
        x = parse_word("01101011")
        for seed in range(50):
            y = transmit_ins(x, 0.3, 2, seed)
            assert is_subsequence(x, y)
            assert len(y) <= 2 * len(x) + 1

    def test_insertion_count_mean(self):
        # mean added length is p * (|x| + 1)
        x = tuple(int(s) for s in np.random.default_rng(2).integers(0, 2, 500))
        trials = 2000
        added = sum(len(transmit_ins(x, 0.03, 2, seed)) - 500
                    for seed in range(trials))
        mean = 0.03 * 501 * trials
        se = math.sqrt(0.03 * 0.97 * 501 * trials)
        assert abs(added - mean) <= 4 * se

    def test_inserted_symbols_uniform(self):
        q = 4
        x = (0,) * 200
        counts = [0] * q
        for seed in range(400):
            y = transmit_ins(x, 0.2, q, seed)
            # every non-zero symbol was inserted
            for s in y:
                if s != 0:
                    counts[s] += 1
        total = sum(counts[1:])
        for s in range(1, q):
            se = math.sqrt(total * (1 / 3) * (2 / 3))
            assert abs(counts[s] - total / 3) <= 4.5 * se


def _transmit_del_loop(x, p, rng):
    """Reference form of transmit_del: one Python step per symbol."""
    if not x:
        return ()
    keep = rng.random(len(x)) >= p
    return tuple(s for s, k in zip(x, keep) if k)


def _transmit_ins_loop(x, p, q, rng):
    """Reference form of transmit_ins: one Python step per gap."""
    gaps = rng.random(len(x) + 1) < p
    symbols = rng.integers(0, q, size=int(gaps.sum()))
    out = []
    si = 0
    for i in range(len(x) + 1):
        if gaps[i]:
            out.append(int(symbols[si]))
            si += 1
        if i < len(x):
            out.append(x[i])
    return tuple(out)


class TestSamplersEqualLoops:
    # the samplers draw the same numbers as the per-symbol loops, leave the
    # generator in the same state, and give the same words, from a fresh
    # generator and from one holding a buffered half-word
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.5])
    def test_del_and_ins(self, q, p):
        words = np.random.default_rng(q)
        for seed in range(300):
            n = 0 if seed % 50 == 0 else int(words.integers(1, 80))
            x = tuple(words.integers(0, q, n).tolist())
            for fast, loop in ((lambda r: transmit_del(x, p, r),
                                lambda r: _transmit_del_loop(x, p, r)),
                               (lambda r: transmit_ins(x, p, q, r),
                                lambda r: _transmit_ins_loop(x, p, q, r))):
                for make in (np.random.default_rng, buffered_rng):
                    r1, r2 = make(seed), make(seed)
                    y = fast(r1)
                    assert y == loop(r2)
                    assert all(type(s) is int for s in y)
                    assert r1.bit_generator.state == r2.bit_generator.state


class TestUniformSymbolsEqualIntegers:
    # guard: uniform_symbols is rng.integers(0, q, size), symbol for symbol
    # and state for state, whichever numpy path it takes; a numpy whose
    # streams change fails here
    @pytest.mark.parametrize("size", [0, 1, 2, 7, 150])
    @pytest.mark.parametrize("q", [2, 3, 4, 8])
    def test_symbols_and_state(self, q, size):
        for seed in range(200):
            for make in (np.random.default_rng, buffered_rng):
                r1, r2 = make(seed), make(seed)
                got = uniform_symbols(r1, q, size)
                want = r2.integers(0, q, size=size)
                assert got.dtype == want.dtype == np.int64
                assert got.tolist() == want.tolist()
                assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 1 << 24, 1 << 25])
    def test_held_words_at_the_edges(self, q):
        # 32-bit words set as the held half-word, where a symbol boundary
        # falls among the low 8 bits that a float32 uniform drops: a float
        # draw for q = 3 or 2^25 reads 0 where integers reads 1
        for u in (0, 255, 256, 2 ** 31 - 1, 2 ** 31, -(-2 ** 32 // 3),
                  -(-2 ** 33 // 3), 2 ** 32 - 1):
            r1, r2 = np.random.default_rng(u), np.random.default_rng(u)
            for r in (r1, r2):
                state = r.bit_generator.state
                state.update(has_uint32=1, uinteger=u)
                r.bit_generator.state = state
            assert (uniform_symbols(r1, q, 3).tolist()
                    == r2.integers(0, q, size=3).tolist())
            assert r1.bit_generator.state == r2.bit_generator.state


class TestTransmitKdel:
    def test_boundaries(self):
        x = parse_word("01101")
        assert transmit_kdel(x, 0, 1) == x
        assert transmit_kdel(x, 5, 1) == ()
        with pytest.raises(ValueError):
            transmit_kdel(x, 6, 1)

    def test_equals_the_generator_expression(self):
        # the former per-symbol loop over the same rng.choice draw, with
        # the generator left in the same state
        for seed in range(40):
            x = tuple(np.random.default_rng(seed).integers(
                0, 2, seed % 13).tolist())
            for k in [k for k in sorted({0, 1, 2, len(x)}) if k <= len(x)]:
                r1 = np.random.default_rng(seed)
                r2 = np.random.default_rng(seed)
                drop = (set(r2.choice(len(x), size=k, replace=False).tolist())
                        if k else set())
                assert transmit_kdel(x, k, r1) == tuple(
                    s for i, s in enumerate(x) if i not in drop), (seed, k)
                assert r1.bit_generator.state == r2.bit_generator.state

    def test_empirical_matches_embedding_law(self):
        # Pr(y) = Emb(x; y) / C(5, 2) over D_2(01001); 20000 trials
        x = parse_word("01001")
        counts = {}
        trials = 20000
        for seed in range(trials):
            y = transmit_kdel(x, 2, seed)
            counts[y] = counts.get(y, 0) + 1
        for y in deletion_ball(x, 2):
            p = float(cond_prob_kdel(x, y))
            se = math.sqrt(p * (1 - p) * trials)
            assert abs(counts.get(y, 0) - p * trials) <= 4.5 * se
        assert counts[parse_word("001")] / trials == pytest.approx(0.3, abs=0.02)
        assert counts[parse_word("000")] / trials == pytest.approx(0.1, abs=0.02)


class TestCondProbDel:
    def test_worked_example(self):
        term = cond_prob_del_term(parse_word("01001"), parse_word("001"))
        assert (term.coeff, term.p_pow, term.one_minus_p_pow) == (3, 2, 3)
        p = 0.1
        assert cond_prob_del(parse_word("01001"), parse_word("001"), p) == \
            pytest.approx(3 * p ** 2 * (1 - p) ** 3)

    def test_identity(self):
        x = parse_word("0110")
        assert cond_prob_del(x, x, 0.2) == pytest.approx(0.8 ** 4)

    def test_total_probability(self):
        # exact: evaluate with Fraction p over every subsequence length
        for x in [parse_word("010011"), parse_word("0000"), parse_word("010101")]:
            p = Fraction(1, 7)
            total = Fraction(0)
            for t in range(0, len(x) + 1):
                for y in deletion_ball(x, t):
                    term = cond_prob_del_term(x, y)
                    total += (term.coeff * p ** term.p_pow
                              * (1 - p) ** term.one_minus_p_pow)
            assert total == 1

    def test_non_subsequence_zero(self):
        assert cond_prob_del(parse_word("01"), parse_word("10"), 0.3) == 0


class TestCondProbIns:
    def test_identity(self):
        x = parse_word("0101")
        assert cond_prob_ins(x, x, 0.2, 2) == pytest.approx(0.8 ** 5)

    def test_single_insertion_example(self):
        # (0, 00): (p/2) * (1-p) * Emb(00; 0) with Emb = 2
        p = 0.25
        assert cond_prob_ins(parse_word("0"), parse_word("00"), p, 2) == \
            pytest.approx((p / 2) * (1 - p) * 2)

    def test_agrees_with_exact_law_single_insertion(self):
        # the embedding form is exact on outputs needing at most 1 insertion
        p = Fraction(1, 5)
        for s in ("0", "01", "0110", "010"):
            x = parse_word(s)
            law = ins_channel_law(x, p, 2)
            n = len(x)
            for y, prob in law.items():
                if len(y) - n > 1:
                    continue
                term = cond_prob_ins_term(x, y, 2)
                formula = (Fraction(term.coeff, 2 ** term.q_pow)
                           * p ** term.p_pow * (1 - p) ** term.one_minus_p_pow)
                assert formula == prob, (x, y)

    def test_exact_law_sums_to_one(self):
        p = Fraction(1, 3)
        for s in ("", "0", "011", "0101"):
            law = ins_channel_law(parse_word(s), p, 2)
            assert sum(law.values()) == 1

    def test_embedding_form_overcounts_stacked_insertions(self):
        # Known divergence: two insertions in one gap are unreachable for the
        # per-gap sampler but get positive mass from the embedding form.
        x = parse_word("0")
        y = parse_word("011")  # needs two insertions after the single 0
        law = ins_channel_law(x, Fraction(1, 4), 2)
        assert y not in law
        assert cond_prob_ins(x, y, 0.25, 2) > 0

    def test_sampler_matches_exact_law(self):
        x = parse_word("010")
        p = 0.2
        law = ins_channel_law(x, p, 2)
        trials = 20000
        counts = {}
        for seed in range(trials):
            y = transmit_ins(x, p, 2, seed)
            counts[y] = counts.get(y, 0) + 1
        for y, prob in law.items():
            if prob < 0.002:
                continue
            se = math.sqrt(prob * (1 - prob) * trials)
            assert abs(counts.get(y, 0) - prob * trials) <= 4.5 * se, y


class TestCondProbKdel:
    def test_worked_example(self):
        assert cond_prob_kdel(parse_word("01001"), parse_word("001")) == Fraction(3, 10)
        assert cond_prob_kdel(parse_word("01001"), parse_word("000")) == Fraction(1, 10)

    def test_identity(self):
        x = parse_word("0110")
        assert cond_prob_kdel(x, x) == 1

    def test_total_probability(self):
        for m in range(1, 9):
            for x in product((0, 1), repeat=m):
                for k in (1, 2):
                    if k > m:
                        continue
                    total = sum(cond_prob_kdel(x, y) for y in deletion_ball(x, k))
                    assert total == 1
