import csv
import dataclasses
import importlib
import json
import multiprocessing
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

import indelkit.harness as harness
import indelkit.sweeps as sweeps
from indelkit.channels import (ChannelSpec, transmit_del, transmit_ins,
                               transmit_kdel)
from indelkit.codes import make_code
from indelkit.decoders import (get_decoder, mld_two_del_detailed,
                               mld_two_ins_detailed)
from indelkit.harness import (CSV_FIELDS, METRICS, ExperimentConfig,
                              _PresetSeed, _seed_states, _trial_components,
                              _trial_rngs, figure_config, run_experiment,
                              worker_count, write_figure_csv, write_rows_csv)
from indelkit.supersequences import DEFAULT_CAP, enumerate_lcs, enumerate_scs
from indelkit.words import parse_word
from reference import stream_rng


def pw(s):
    return parse_word(s)


def small_cfg(**kw):
    base = dict(channel=ChannelSpec("del"), t=2, n=40, q=2,
                decoder="mld2del", p_grid=(0.03,), trials_per_point=300,
                master_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def record_chunks(monkeypatch, log):
    """Make every _run_chunk call, in this process or a forked child,
    append (point, lo, hi, pid) to the file log."""
    run_chunk = harness._run_chunk

    def recording(cfg, point, p, lo, hi):
        with open(log, "a") as fh:
            fh.write(f"{point} {lo} {hi} {os.getpid()}\n")
        return run_chunk(cfg, point, p, lo, hi)

    monkeypatch.setattr(harness, "_run_chunk", recording)


def read_chunks(log):
    """The records of record_chunks, one sorted list per grid point; the
    log starts anew."""
    recs = sorted(tuple(map(int, line.split()))
                  for line in log.read_text().splitlines())
    log.unlink()
    return [[r for r in recs if r[0] == point]
            for point in sorted({r[0] for r in recs})]


class TestConfig:
    def test_json_roundtrip(self):
        cfg = small_cfg(code={"code": "vt", "a": 0})
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(t=3)
        with pytest.raises(ValueError):
            small_cfg(trials_per_point=0)
        with pytest.raises(ValueError):
            small_cfg(scs_cap=0)
        with pytest.raises(ValueError):
            small_cfg(channel=ChannelSpec("kdel", k=2))  # no two-trace kdel decoder
        with pytest.raises(ValueError):
            small_cfg(decoder="lazy")  # one-trace decoder at t=2
        # p_grid alone sets the transmission probability
        with pytest.raises(ValueError):
            small_cfg(channel=ChannelSpec("del", p=0.02))
        ins = dict(decoder="mld2ins", channel=ChannelSpec("ins", q=2))
        with pytest.raises(ValueError):
            small_cfg(**{**ins, "channel": ChannelSpec("ins", p=0.01, q=2)})
        with pytest.raises(ValueError):
            small_cfg(**{**ins, "channel": ChannelSpec("ins", q=4)})
        with pytest.raises(ValueError):  # the insertion decoder takes no code
            small_cfg(**ins, code={"code": "vt", "a": 0})
        small_cfg(**ins)
        small_cfg(**{**ins, "channel": ChannelSpec("ins", q=4)}, q=4)
        with pytest.raises(ValueError):  # a typo for "a"
            small_cfg(code={"code": "vt", "A": 4})
        one = dict(channel=ChannelSpec("kdel", k=1), t=1, n=7)
        with pytest.raises(ValueError):  # lazy takes no code
            small_cfg(**one, decoder="lazy", code={"code": "vt", "a": 0})
        small_cfg(**one, decoder="brute", code={"code": "vt", "a": 0})
        with pytest.raises(ValueError):  # more deletions than symbols
            small_cfg(channel=ChannelSpec("kdel", k=5), t=1, n=3, decoder="brute")
        small_cfg(channel=ChannelSpec("kdel", k=3), t=1, n=3, decoder="brute")
        with pytest.raises(ValueError):  # kdel reads no p: one law, two labels
            small_cfg(**one, decoder="lazy", p_grid=(0.0, 0.3))

    @pytest.mark.parametrize("kw,match", [
        (dict(n=0), "n >= 1"), (dict(n=-3), "n >= 1"), (dict(q=0), "q >= 2"),
        (dict(q=1), "q >= 2"), (dict(p_grid=()), "p_grid"),
    ])
    def test_degenerate_sizes_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            small_cfg(**kw)

    @pytest.mark.parametrize("change,match", [
        ({"seedd": 3, "codee": {}}, r"unknown config key\(s\) 'codee', 'seedd'"),
        ({"channel": {"kind": "del", "pp": 0.1}}, r"unknown channel key\(s\) 'pp'"),
        ({"channel": {"p": 0.0}}, "channel lacks the key 'kind'"),
        ({"channel": {"kind": "del", "p": "0.1"}}, "channel key 'p'"),
        ({"channel": [0.1]}, "config key 'channel'"),
        ({"p_grid": 0.05}, "config key 'p_grid'"),
        ({"p_grid": ["0.05"]}, "grid probabilities"),
        ({"n": "40"}, "config key 'n'"),
        ({"trials_per_point": True}, "config key 'trials_per_point'"),
        ({"metrics": ["failure_rate"]}, r"config key\(s\) 'metrics'"),
        ({"code": {"code": "vt", "a": "1"}}, "code 'vt' key 'a' must be an int"),
        ({"code": {"code": "svt", "P": "5"}}, "key 'P' must be an int or null"),
        ({"master_seed": -1}, "master_seed must be >= 0"),
        ({"trials_per_point": 2 ** 32 + 1}, "trials_per_point must be in"),
        ({"p_grid": [False, 0.05]}, "grid probabilities"),
    ])
    def test_from_json_names_the_bad_key(self, change, match):
        d = {**json.loads(small_cfg().to_json()), **change}
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_json(json.dumps(d))

    def test_seed_bounds(self):
        # numpy hashes no negative seed; a trial index is one 32-bit word
        with pytest.raises(ValueError, match="master_seed"):
            small_cfg(master_seed=-1)
        with pytest.raises(ValueError, match="trials_per_point"):
            small_cfg(trials_per_point=2 ** 32 + 1)
        small_cfg(master_seed=2 ** 70, trials_per_point=2 ** 32)

    def test_from_json_names_a_missing_key(self):
        for key in ("channel", "t", "n", "q"):
            d = json.loads(small_cfg().to_json())
            del d[key]
            with pytest.raises(ValueError, match=f"config lacks the key '{key}'"):
                ExperimentConfig.from_json(json.dumps(d))
        with pytest.raises(ValueError, match="must be a JSON object"):
            ExperimentConfig.from_json("[]")
        # a config that leaves the defaulted fields out still loads
        d = {"channel": {"kind": "del"}, "t": 2, "n": 40, "q": 2}
        assert ExperimentConfig.from_json(json.dumps(d)) == ExperimentConfig(
            channel=ChannelSpec("del"), t=2, n=40, q=2)

    TAIL = ('  "trials_per_point": 300,\n  "master_seed": 5,\n'
            '  "scs_cap": 50000\n}')

    @pytest.mark.parametrize("kw,text", [
        ({}, '{\n  "channel": {\n    "kind": "del",\n    "p": 0.0\n  },\n'
             '  "t": 2,\n  "n": 40,\n  "q": 2,\n  "code": {\n    "code": "all"'
             '\n  },\n  "decoder": "mld2del",\n  "p_grid": [\n    0.03\n  ],\n'),
        (dict(channel=ChannelSpec("ins", q=4), q=4, decoder="mld2ins"),
         '{\n  "channel": {\n    "kind": "ins",\n    "p": 0.0,\n    "q": 4\n'
         '  },\n  "t": 2,\n  "n": 40,\n  "q": 4,\n  "code": {\n'
         '    "code": "all"\n  },\n  "decoder": "mld2ins",\n'
         '  "p_grid": [\n    0.03\n  ],\n'),
        (dict(channel=ChannelSpec("kdel", k=1), t=1, n=7, decoder="brute",
              code={"code": "vt", "a": 0}, p_grid=(0.0,)),
         '{\n  "channel": {\n    "kind": "kdel",\n    "k": 1\n  },\n'
         '  "t": 1,\n  "n": 7,\n  "q": 2,\n  "code": {\n    "code": "vt",\n'
         '    "a": 0\n  },\n  "decoder": "brute",\n  "p_grid": [\n    0.0\n'
         '  ],\n'),
    ])
    def test_serialized_forms(self, kw, text):
        # the bytes a config file holds for each channel kind
        assert small_cfg(**kw).to_json() == text + self.TAIL


class TestRunExperiment:
    def test_p_zero_is_perfect(self):
        res = run_experiment(small_cfg(p_grid=(0.0,), trials_per_point=50),
                             workers=1)
        pt = res.points[0]
        assert pt.levenshtein_rate == 0.0
        assert pt.failure_rate == 0.0

    def test_deterministic_across_workers(self, tmp_path, monkeypatch):
        log = tmp_path / "chunks"
        record_chunks(monkeypatch, log)
        for trials, workers, chunks in [
                (31, 2, [(0, 16), (16, 31)]),  # uneven chunks
                (31, 3, [(0, 11), (11, 22), (22, 31)]),
                (1, 2, [(0, 1)])]:  # one chunk, run here with no child
            cfg = small_cfg(p_grid=(0.03, 0.1), trials_per_point=trials)
            rows = run_experiment(cfg, workers=1).rows()
            read_chunks(log)
            assert run_experiment(cfg, workers=workers).rows() == rows
            for point in read_chunks(log):
                assert [(lo, hi) for _, lo, hi, _ in point] == chunks
                assert [pid == os.getpid() for *_, pid in point] \
                    == [True] + [False] * (len(chunks) - 1)

    def test_one_chunk_per_worker(self, tmp_path, monkeypatch):
        log = tmp_path / "chunks"
        record_chunks(monkeypatch, log)
        cfg = small_cfg(p_grid=(0.02, 0.05), trials_per_point=30)
        rows = run_experiment(cfg, workers=2).rows()
        # one list per grid point
        assert [[(lo, hi) for _, lo, hi, _ in point]
                for point in read_chunks(log)] == [[(0, 15), (15, 30)]] * 2
        assert run_experiment(cfg, workers=1).rows() == rows
        assert [[(lo, hi) for _, lo, hi, _ in point]
                for point in read_chunks(log)] == [[(0, 30)]] * 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_child_per_chunk_after_the_first(self, workers, tmp_path,
                                                 monkeypatch):
        log = tmp_path / "chunks"
        record_chunks(monkeypatch, log)
        run_experiment(small_cfg(p_grid=(0.02, 0.05, 0.1), trials_per_point=30),
                       workers=workers)
        chunks = read_chunks(log)
        # chunk 0 of each point runs here, each other chunk in its own child
        assert [point[0][3] for point in chunks] == [os.getpid()] * 3
        children = [pid for point in chunks for *_, pid in point[1:]]
        assert len(set(children)) == len(children) == 3 * (workers - 1)
        assert os.getpid() not in children
        assert multiprocessing.active_children() == []

    def test_deterministic_across_runs(self):
        cfg = small_cfg(trials_per_point=150)
        r1 = run_experiment(cfg, workers=1)
        r2 = run_experiment(cfg, workers=1)
        assert r1.points[0].levenshtein_rate == r2.points[0].levenshtein_rate

    def test_seed_changes_results(self):
        r1 = run_experiment(small_cfg(master_seed=1), workers=1)
        r2 = run_experiment(small_cfg(master_seed=2), workers=1)
        assert r1.points[0].levenshtein_rate != r2.points[0].levenshtein_rate

    def test_components_sum_to_ler(self):
        res = run_experiment(small_cfg(trials_per_point=400), workers=1)
        pt = res.points[0]
        assert pt.run_component + pt.alt_component == pytest.approx(
            pt.levenshtein_rate)

    def test_kdel_lazy_rate(self):
        # one-deletion channel with the unchanged-output decoder: the
        # distance is exactly 1 every trial, so the rate is exactly 1/n
        cfg = ExperimentConfig(channel=ChannelSpec("kdel", k=1), t=1, n=100,
                               q=2, decoder="lazy", p_grid=(0.0,),
                               trials_per_point=200, master_seed=3)
        res = run_experiment(cfg, workers=1)
        assert res.points[0].levenshtein_rate == pytest.approx(1 / 100)
        assert res.points[0].failure_rate == 1.0

    def test_brute_decodes_within_the_code(self):
        # VT corrects every single deletion, so the optimum over the code is
        # the codeword itself
        cfg = ExperimentConfig(channel=ChannelSpec("kdel", k=1), t=1, n=7,
                               q=2, code={"code": "vt", "a": 0},
                               decoder="brute", p_grid=(0.0,),
                               trials_per_point=60, master_seed=1)
        assert run_experiment(cfg, workers=1).points[0].failure_rate == 0.0

    def test_brute_decodes_over_the_config_alphabet(self, monkeypatch):
        outs = []

        def recording_get_decoder(*args):
            dec = get_decoder(*args)

            def fn(*fn_args, **kw):
                outs.append(dec.fn(*fn_args, **kw))
                return outs[-1]

            return dataclasses.replace(dec, fn=fn)

        monkeypatch.setattr(harness, "get_decoder", recording_get_decoder)
        cfg = ExperimentConfig(channel=ChannelSpec("kdel", k=1), t=1, n=5,
                               q=3, decoder="brute", p_grid=(0.0,),
                               trials_per_point=20, master_seed=1)
        run_experiment(cfg, workers=1)
        assert len(outs) == 20
        assert all(0 <= s < 3 for out in outs for s in out)
        assert any(2 in out for out in outs)

    def test_insertion_experiment_runs(self):
        cfg = ExperimentConfig(channel=ChannelSpec("ins", q=2), t=2, n=40,
                               q=2, decoder="mld2ins", p_grid=(0.03,),
                               trials_per_point=200, master_seed=4)
        res = run_experiment(cfg, workers=1)
        assert 0 <= res.points[0].levenshtein_rate < 0.1

    def test_csv_rows_schema(self, tmp_path):
        res = run_experiment(small_cfg(trials_per_point=50), workers=1)
        rows = res.rows()
        assert [r["metric"] for r in rows] == list(METRICS)
        path = tmp_path / "out.csv"
        write_rows_csv(rows, str(path), CSV_FIELDS)
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert list(got[0].keys()) == CSV_FIELDS
        assert len(got) == len(rows)
        assert all(r["truncated_trials"] == "0" for r in got)

    def test_truncated_trials_reach_the_csv(self, tmp_path):
        # a budget of one scored candidate truncates every trial with
        # several SCS
        res = run_experiment(small_cfg(trials_per_point=50, scs_cap=1,
                                       p_grid=(0.1,)), workers=1)
        truncated = res.points[0].truncated_trials
        assert truncated > 0
        path = tmp_path / "out.csv"
        write_rows_csv(res.rows(), str(path), CSV_FIELDS)
        with open(path) as fh:
            assert {r["truncated_trials"] for r in csv.DictReader(fh)} == {
                str(truncated)}


class Unpicklable(Exception):
    """Pickles, but unpickling calls __init__ with one argument of two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def with_hook(exc):
    exc.hook = lambda: None  # no lambda pickles
    return exc


def raiser(exc):
    def act():
        raise exc
    return act


class TestChunkFailures:
    # 30 trials at 3 workers: chunks [0, 10) here, [10, 20) and [20, 30) in
    # children; `actions` maps a chunk's lo to what it does before its trials
    CFG = small_cfg(p_grid=(0.03,), trials_per_point=30)

    def run(self, monkeypatch, actions, workers=3):
        run_chunk = harness._run_chunk

        def patched(cfg, point, p, lo, hi):
            if lo in actions:
                actions[lo]()
            return run_chunk(cfg, point, p, lo, hi)

        monkeypatch.setattr(harness, "_run_chunk", patched)
        start = time.perf_counter()
        try:
            run_experiment(self.CFG, workers=workers)
        finally:
            # a sleeping child ends by terminate(), not by its sleep
            assert time.perf_counter() - start < 20
            assert multiprocessing.active_children() == []

    def test_a_child_exception_is_raised_here(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^chunk \[10, 20\) failed$"):
            self.run(monkeypatch, {10: raiser(ValueError("chunk [10, 20) failed")),
                                   20: lambda: time.sleep(60)})

    @pytest.mark.parametrize("exc,text", [
        (Unpicklable("x", "y"), "Unpicklable: x and y"),
        (with_hook(KeyError("k")), "KeyError: 'k'"),
    ])
    def test_an_exception_that_does_not_pickle_comes_as_its_text(
            self, exc, text, monkeypatch):
        with pytest.raises(RuntimeError, match=f"^{re.escape(text)}$"):
            self.run(monkeypatch, {20: raiser(exc)})

    def test_a_child_that_exits_without_sums_is_named(self, monkeypatch):
        with pytest.raises(RuntimeError,
                           match=r"trials \[10, 20\) exited with code 3 "):
            self.run(monkeypatch, {10: lambda: os._exit(3),
                                   20: lambda: time.sleep(60)})

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, ValueError])
    def test_an_exception_here_ends_every_child(self, exc, monkeypatch):
        with pytest.raises(exc, match="stop"):
            self.run(monkeypatch, {0: raiser(exc("stop")),
                                   10: lambda: time.sleep(60),
                                   20: lambda: time.sleep(60)})

    def test_one_worker_raises_here_with_no_child(self, monkeypatch):
        with pytest.raises(ValueError, match="chunk 0"):
            self.run(monkeypatch, {0: raiser(ValueError("chunk 0"))}, workers=1)


class TestSeedKernel:
    # _seed_states / _trial_rngs against numpy's own SeedSequence
    EDGE = [(0, 0, 0), (2 ** 32 - 1, 1, 5), (2 ** 32, 0, 2 ** 32 - 1),
            (2 ** 64 + 5, 3, 2 ** 32 - 1), (2024, 2 ** 32 - 1, 7),
            (2 ** 100 + 2 ** 64, 0, 1)]

    def _tuples(self):
        rng = np.random.default_rng(11)
        out = list(self.EDGE)
        for _ in range(150):
            # seeds of one, two and three 32-bit words
            seed = int.from_bytes(rng.bytes(9), "little") >> int(rng.integers(0, 72))
            trial = int(rng.integers(0, 2 ** 32)) >> int(rng.integers(0, 32))
            out.append((seed, int(rng.integers(0, 20)), trial))
        return out

    def test_states_equal_seed_sequence(self):
        for seed, point, trial in self._tuples():
            lo = max(0, trial - 2)
            states = _seed_states(seed, point, lo, trial + 1, 3)
            assert states.shape == (trial + 1 - lo, 3, 4)
            assert states.dtype == np.uint64
            for i, tr in enumerate(range(lo, trial + 1)):
                for stream in range(3):
                    want = np.random.SeedSequence(
                        (seed, point, tr, stream)).generate_state(4, np.uint64)
                    assert states[i, stream].tolist() == want.tolist()

    def test_draws_equal_stream_rng(self):
        for seed, point, trial in self._tuples()[:40]:
            rngs, = _trial_rngs(seed, point, trial, trial + 1, 3)
            for stream, rng in enumerate(rngs):
                want = stream_rng(seed, point, trial, stream).random(20)
                assert rng.random(20).tolist() == want.tolist()

    def test_bounds(self):
        for args in [(-1, 0, 0, 1), (0, -1, 0, 1), (0, 2 ** 32, 0, 1),
                     (0, 0, 0, 2 ** 32 + 1), (0, 0, 5, 4)]:
            with pytest.raises(ValueError):
                _seed_states(*args, 2)
        assert _seed_states(0, 0, 2 ** 32 - 1, 2 ** 32, 1).shape == (1, 1, 4)

    def test_preset_seed_refuses_another_request(self):
        seed = _PresetSeed(_seed_states(1, 0, 0, 1, 1)[0, 0])
        assert seed.generate_state(4, np.uint64) is seed.state
        for args in [(4,), (8, np.uint64), (4, np.uint32)]:
            with pytest.raises(RuntimeError, match="not \\(4, uint64\\)"):
                seed.generate_state(*args)


def _literal_sums(cfg, point=0):
    """The exact sums of one grid point from a plain per-trial loop over
    `stream_rng`, numpy's own SeedSequence per stream."""
    code = make_code(cfg.code, cfg.n, cfg.q)
    kind, k, p, t = cfg.channel.kind, cfg.channel.k, cfg.p_grid[point], cfg.t
    dec = get_decoder(cfg.decoder, t, kind)
    sums = [0] * 5
    for trial in range(cfg.trials_per_point):
        c = code.sample(stream_rng(cfg.master_seed, point, trial, 0))
        ys = []
        for stream in range(1, t + 1):
            rng = stream_rng(cfg.master_seed, point, trial, stream)
            ys.append(transmit_del(c, p, rng) if kind == "del"
                      else transmit_ins(c, p, cfg.q, rng) if kind == "ins"
                      else transmit_kdel(c, k, rng))
        out, trunc = dec.decode(ys, k, code, cfg.scs_cap)
        d, ru, au = _trial_components(c, out, t, kind)
        for i, v in enumerate((d, out != c, ru, au, trunc)):
            sums[i] += v
    return tuple(sums)


def _point_sums(pt, n):
    """(sum_d, failures, run_units, alt_units, truncated) of a PointResult,
    read back from its rates."""
    units = (pt.levenshtein_rate * n * pt.trials, pt.failure_rate * pt.trials,
             pt.run_component * n * pt.trials, pt.alt_component * n * pt.trials)
    assert all(abs(u - round(u)) < 1e-6 for u in units)
    return tuple(round(u) for u in units) + (pt.truncated_trials,)


class TestBatchSeedingEqualsLiteralLoop:
    CONFIGS = {
        "del": small_cfg(n=30, p_grid=(0.08,), trials_per_point=60,
                         master_seed=2 ** 64 + 5),
        "ins": small_cfg(channel=ChannelSpec("ins", q=4), q=4, n=30,
                         decoder="mld2ins", p_grid=(0.05,),
                         trials_per_point=60, master_seed=2 ** 32),
        "kdel": small_cfg(channel=ChannelSpec("kdel", k=2), t=1, n=8,
                          decoder="brute", code={"code": "vt", "a": 2},
                          p_grid=(0.0,), trials_per_point=40, master_seed=0),
        "vt": small_cfg(n=30, code={"code": "vt", "a": 1}, p_grid=(0.08,),
                        trials_per_point=60, master_seed=2 ** 32 - 1),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sums(self, name, workers, monkeypatch):
        cfg = self.CONFIGS[name]
        if workers == 1:  # blocks split the run; two workers split it in chunks
            monkeypatch.setattr(harness, "SEED_BLOCK", 7)
        pt = run_experiment(cfg, workers=workers).points[0]
        want = _literal_sums(cfg)
        assert _point_sums(pt, cfg.n) == want
        assert want[1] > 0  # failures: the decoded words depend on the draws


class TestPinnedSums:
    # exact integer sums (sum_d, failures, run_units, alt_units, truncated)
    # at seed 2024; any change to sampling, decoding or attribution moves them
    @pytest.mark.parametrize("channel,decoder,p,trials,sums", [
        (ChannelSpec("del"), "mld2del", 0.05, 100, (181, 73, 105, 76, 0)),
        (ChannelSpec("ins", q=2), "mld2ins", 0.01, 200, (6, 5, 4, 2, 0)),
    ])
    def test_seed_2024(self, channel, decoder, p, trials, sums):
        cfg = ExperimentConfig(channel=channel, t=2, n=150, q=2,
                               decoder=decoder, p_grid=(p,),
                               trials_per_point=trials, master_seed=2024)
        pt = run_experiment(cfg, workers=1).points[0]
        assert _point_sums(pt, 150) == sums

    # (channel, q, code, decoder, sums) at n = 60, p = 0.05, 300 trials:
    # the coded rejection batches and the q = 2 and q = 4 symbol draws
    SMALL_RUNS = {
        "vt": (ChannelSpec("del"), 2, {"code": "vt", "a": 0}, "mld2del",
               (99, 31, 35, 64, 0)),
        "svt": (ChannelSpec("del"), 2, {"code": "svt", "a": 0}, "mld2del",
                (156, 108, 124, 32, 0)),
        "del-q4": (ChannelSpec("del"), 4, {"code": "all"}, "mld2del",
                   (128, 83, 60, 68, 0)),
        "ins-q2": (ChannelSpec("ins", q=2), 2, {"code": "all"}, "mld2ins",
                   (97, 67, 51, 46, 0)),
        "ins-q4": (ChannelSpec("ins", q=4), 4, {"code": "all"}, "mld2ins",
                   (31, 20, 11, 20, 0)),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(SMALL_RUNS))
    def test_small_runs(self, name, workers):
        channel, q, code, decoder, sums = self.SMALL_RUNS[name]
        cfg = ExperimentConfig(channel=channel, t=2, n=60, q=q, code=code,
                               decoder=decoder, p_grid=(0.05,),
                               trials_per_point=300, master_seed=2024)
        pt = run_experiment(cfg, workers=workers).points[0]
        assert _point_sums(pt, 60) == sums


class TestAttribution:
    # _trial_components(c, output, t, kind) -> (distance, run, alternating)
    def test_correct(self):
        c = pw("0110")
        assert _trial_components(c, c, 2, "del") == (0, 0, 0)
        assert _trial_components(c, c, 2, "ins") == (0, 0, 0)

    def test_run_error(self):
        # lost one symbol of the 00 run in both traces
        assert _trial_components(pw("00110"), pw("0110"), 2, "del") == (1, 1, 0)

    def test_alternating_error(self):
        # right length, swapped segment
        assert _trial_components(pw("0011001"), pw("0011010"), 2,
                                 "del") == (2, 0, 2)

    def test_mixed_error(self):
        # one symbol short and swapped: d_L = 3, one unit of it a run loss
        assert _trial_components(pw("001100"), pw("01010"), 2,
                                 "del") == (3, 1, 2)

    def test_insertion_mirror(self):
        c = pw("0110")
        assert _trial_components(c, pw("01110"), 2, "ins") == (1, 1, 0)
        assert _trial_components(c, pw("1010"), 2, "ins") == (2, 0, 2)
        assert _trial_components(c, pw("10101"), 2, "ins") == (3, 1, 2)
        # an output shorter than the codeword is no insertion run loss
        assert _trial_components(c, pw("011"), 2, "ins") == (1, 0, 1)

    def test_single_trace_not_split(self):
        assert _trial_components(pw("00110"), pw("0110"), 1, "kdel") == (1, 0, 0)
        assert _trial_components(pw("0011"), pw("0101"), 1, "del") == (2, 0, 0)


@pytest.mark.parametrize("name", ["exact_expected_distance",
                                  "sweep_brute_force_window",
                                  "sweep_two_del_condition"])
def test_harness_keeps_the_sweeps_the_benchmark_calls(name):
    # benchmarks/bench.py calls these as harness.<name>, and Tier-1 does
    # not collect benchmarks/
    assert getattr(harness, name) is getattr(sweeps, name)


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def benchmark_library_names():
    """(module, name) for every library name that benchmarks/*.py reads:
    lib.<module>.<name>, <alias>.<name> after `<alias> = lib.<module>`
    (h for harness, ch for channels), and `from indelkit.<module> import`
    lists."""
    names = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        text = re.sub(r"#.*", "", path.read_text())
        names |= set(re.findall(r"\blib\.(\w+)\.(\w+)", text))
        for alias, module in re.findall(r"^\s*(\w+) = lib\.(\w+)\s*$",
                                        text, re.M):
            names |= {(module, name) for name in
                      re.findall(rf"\b{alias}\.(\w+)", text)}
        for module, group, line in re.findall(
                r"^from indelkit\.(\w+) import (?:\(([^)]*)\)|(.*))", text,
                re.M):
            names |= {(module, name.split()[0])
                      for name in (group or line).split(",") if name.strip()}
    return names


def test_benchmark_reads_only_names_the_library_has():
    # Tier-1 does not collect benchmarks/, so its library surface is
    # checked here, without importing or changing those files
    names = benchmark_library_names()
    modules = {module for module, _ in names}
    imported = re.search(r"^MODULES = \(([^)]*)\)",
                         (BENCHMARKS / "bench.py").read_text(), re.M)
    for module in re.findall(r'"(\w+)"', imported.group(1)):
        importlib.import_module(f"indelkit.{module}")  # bench.import_fresh
    assert {"harness", "channels", "codes", "combinatorics", "decoders",
            "supersequences", "words"} <= modules
    assert ("harness", "exact_expected_distance") in names  # h.<name>
    missing = [f"indelkit.{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"indelkit.{module}"),
                              name)]
    assert missing == []


def test_benchmark_keyword_calls():
    # the keyword sets benchmarks/*.py pass, one call each
    y1, y2 = pw("0110"), pw("0101")
    for decode in (mld_two_del_detailed, mld_two_ins_detailed):
        out, truncated = decode(y1, y2, band=(1, 1), cap=DEFAULT_CAP)
        assert isinstance(out, tuple) and truncated is False
    for enumerate_ in (enumerate_scs, enumerate_lcs):
        assert enumerate_(y1, y2, band=(1, 1), cap=DEFAULT_CAP).candidates
    assert harness.exact_expected_distance(
        "mlstar2", 6, k=2, method="enumerate") > 0


class TestFigures:
    def test_figure_config_scales(self):
        cfg = figure_config("fig1", "desk")
        assert cfg.n == 150 and cfg.trials_per_point == 20_000
        cfg = figure_config("fig1", "paper")
        assert cfg.n == 450 and cfg.trials_per_point == 200_000
        cfg = figure_config("fig5", "paper")
        assert cfg.n == 500
        # q and code pass through for every figure
        assert figure_config("fig3", q=4).q == 4
        cfg = figure_config("fig5", q=4)
        assert cfg.q == 4 and cfg.channel == ChannelSpec("ins", q=4)
        assert (figure_config("fig1", code={"code": "vt", "a": 0}).code
                == {"code": "vt", "a": 0})
        with pytest.raises(ValueError):  # the insertion decoder takes no code
            figure_config("fig5", code={"code": "vt", "a": 0})
        with pytest.raises(ValueError):  # VT codes are binary
            figure_config("fig3", q=4, code={"code": "vt", "a": 0})
        with pytest.raises(ValueError):
            figure_config("fig4")

    def test_figure_csv_schema(self, tmp_path):
        # tiny stand-in config so the test stays fast: schema only
        rows = [{"metric": "levenshtein_rate", "q": 2, "n": 10, "p": 0.01,
                 "code": "all", "measured_rate": 0.0, "stderr": 0.0,
                 "formula_rate": 5e-4, "trials": 10, "seed": 1}]
        path = tmp_path / "fig.csv"
        write_figure_csv(rows, str(path))
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        for col in ("p", "measured_rate", "stderr", "formula_rate"):
            assert col in got[0]

    def test_svg_writer(self, tmp_path):
        from indelkit.harness import write_figure_svg
        rows = [{"metric": "levenshtein_rate", "q": 2, "n": 10, "p": p,
                 "code": "all", "measured_rate": p * p, "stderr": 0.0,
                 "formula_rate": 1.2 * p * p, "trials": 10, "seed": 1}
                for p in (0.01, 0.02, 0.05)]
        path = tmp_path / "fig.svg"
        write_figure_svg(rows, str(path), title="demo")
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestWorkerCount:
    def test_env_override(self):
        old = os.environ.get("INDELKIT_WORKERS")
        os.environ["INDELKIT_WORKERS"] = "3"
        try:
            assert worker_count() == 3
        finally:
            if old is None:
                del os.environ["INDELKIT_WORKERS"]
            else:
                os.environ["INDELKIT_WORKERS"] = old

    def test_explicit_wins(self):
        assert worker_count(2) == 2

    @pytest.mark.parametrize("cpus,want", [(1, 1), (3, 3), (20, 8)])
    def test_default_counts_the_cpus_this_process_may_use(self, cpus, want,
                                                          monkeypatch):
        monkeypatch.delenv("INDELKIT_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert worker_count() == want
        # without an affinity mask, the CPU count, still capped at 8
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert worker_count() == want
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count() == 1

    @pytest.mark.parametrize("count", [0, -3])
    def test_refuses_a_count_below_one(self, count, monkeypatch):
        monkeypatch.delenv("INDELKIT_WORKERS", raising=False)
        with pytest.raises(ValueError, match=f"--workers must be >= 1, not {count}"):
            worker_count(count)
        monkeypatch.setenv("INDELKIT_WORKERS", str(count))
        with pytest.raises(ValueError,
                           match=f"INDELKIT_WORKERS must be >= 1, not {count}"):
            worker_count()
        with pytest.raises(ValueError, match="--workers"):
            run_experiment(small_cfg(trials_per_point=1), workers=count)

    @pytest.mark.parametrize("env", ["abc", "2.5", "3x"])
    def test_refuses_an_env_value_that_is_no_integer(self, env, monkeypatch):
        monkeypatch.setenv("INDELKIT_WORKERS", env)
        with pytest.raises(ValueError,
                           match=f"INDELKIT_WORKERS must be an integer, not '{env}'"):
            worker_count()
        assert worker_count(1) == 1  # an explicit count wins over the env
