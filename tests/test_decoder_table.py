"""Every name in the decoder table means the same decoder through the
command line, the Monte Carlo harness and the exact evaluator."""

import dataclasses
import json
from fractions import Fraction
from itertools import product
from math import comb

import pytest

import indelkit.harness as harness
from indelkit.channels import ChannelSpec
from indelkit.cli import main
from indelkit.combinatorics import embedding_number, insertion_ball
from indelkit.decoders import DECODERS, get_decoder
from indelkit.harness import ExperimentConfig, run_experiment
from indelkit.sweeps import exact_expected_distance
from indelkit.words import format_word, indel_distance, parse_word

pytestmark = pytest.mark.filterwarnings(
    "ignore:lazy decoding is only proven optimal")

K = 2  # deletions of the k-deletion channel the one-trace names run on


def cli_decode(capsys, name, traces):
    argv = ["decode", "--decoder", name, "--k", str(K)]
    assert main(argv + [format_word(y) for y in traces]) == 0
    return parse_word(capsys.readouterr().out.strip())


def tiny_config(name):
    dec = DECODERS[name]
    if dec.traces == 1:
        channel = ChannelSpec("kdel", k=K)
    elif "del" in dec.kinds:
        channel = ChannelSpec("del")
    else:
        channel = ChannelSpec("ins", q=2)
    return ExperimentConfig(channel=channel, t=dec.traces, n=6, q=2,
                            decoder=name, p_grid=(0.2,), trials_per_point=6,
                            master_seed=3)


@pytest.mark.parametrize("name", list(DECODERS))
def test_cli_decodes_the_harness_traces_alike(name, capsys, monkeypatch):
    calls = []

    def recording_get_decoder(*args):
        dec = get_decoder(*args)

        def fn(*fn_args, **kw):
            out = dec.fn(*fn_args, **kw)
            word = out if dec.traces == 1 else out[0]
            calls.append((fn_args[:dec.traces], word))
            return out

        return dataclasses.replace(dec, fn=fn)

    monkeypatch.setattr(harness, "get_decoder", recording_get_decoder)
    run_experiment(tiny_config(name), workers=1)
    assert len(calls) == 6
    for traces, word in calls:
        assert cli_decode(capsys, name, traces) == word


@pytest.mark.parametrize(
    "name", [name for name, dec in DECODERS.items() if dec.traces == 1])
def test_exact_evaluator_decodes_like_the_cli(name, capsys):
    n = 5
    total = 0
    for y in product((0, 1), repeat=n - K):
        out = cli_decode(capsys, name, [y])
        for c in insertion_ball(y, K, 2):
            total += indel_distance(out, c) * embedding_number(c, y)
    expected = Fraction(total, 2 ** n * n * comb(n, K))
    assert exact_expected_distance(name, n, K, method="enumerate") == expected


def test_en1_is_one_symbol_longer_everywhere(capsys):
    assert cli_decode(capsys, "en:1", [parse_word("00110")]) == parse_word(
        "000110")
    # target length |y| + 1 both on the 1- and on the 2-deletion channel
    assert exact_expected_distance("en:1", 9, 1) == Fraction(437, 2592)
    assert exact_expected_distance("en:1", 9, 1,
                                   method="enumerate") == Fraction(437, 2592)
    assert exact_expected_distance("en:1", 10, 2,
                                   method="enumerate") == Fraction(491, 2304)


def test_fast_paths_match_enumeration():
    for name, dec in DECODERS.items():
        if dec.fast_1del is not None:
            assert (exact_expected_distance(name, 7, 1)
                    == exact_expected_distance(name, 7, 1, method="enumerate"))


@pytest.mark.parametrize("decoder,channel", [
    ("no-such-decoder", {"kind": "del", "p": 0.0}),
    ("mld2ins", {"kind": "del", "p": 0.0}),
    ("mld2del", {"kind": "ins", "p": 0.0, "q": 2}),
    ("en:3", {"kind": "del", "p": 0.0}),
    ("en", {"kind": "del", "p": 0.0}),
])
def test_config_rejects_unfit_decoders(decoder, channel):
    cfg = {"channel": channel, "t": 2, "n": 20, "q": 2, "decoder": decoder,
           "p_grid": [0.01]}
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps(cfg))


def test_one_trace_names_reject_two_trace_uses(capsys):
    with pytest.raises(ValueError):
        exact_expected_distance("mld2del", 6, 1)
    with pytest.raises(SystemExit):
        main(["decode", "--decoder", "lazy", "010", "001"])
    with pytest.raises(SystemExit):
        main(["decode", "--decoder", "mld2del", "010"])
