import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import indelkit
from indelkit.cli import main
from indelkit.decoders import DECODERS, brute_force_ml_star
from indelkit.harness import FIGURES, METRICS
from indelkit.words import parse_word


def run_cli(*argv):
    src = os.path.dirname(os.path.dirname(indelkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "indelkit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_decode_subcommand(capsys):
    assert main(["decode", "--decoder", "mld2del", "010", "001"]) == 0
    assert capsys.readouterr().out.strip() == "0010"
    assert main(["decode", "--decoder", "lazy", "0101"]) == 0
    assert capsys.readouterr().out.strip() == "0101"
    assert main(["decode", "--decoder", "en:1", "00110"]) == 0
    assert capsys.readouterr().out.strip() == "000110"
    assert main(["decode", "--decoder", "mlstar2", "000000"]) == 0
    assert capsys.readouterr().out.strip() == "0000000"
    assert main(["decode", "--decoder", "mld2ins", "0100", "0010"]) == 0
    assert capsys.readouterr().out.strip() == "010"
    assert main(["decode", "--decoder", "brute", "--k", "2", "0000"]) == 0
    assert capsys.readouterr().out.strip() == "00000"


def test_decode_rejects_bad_traces_without_traceback():
    # one trace for a two-trace decoder, a non-digit
    with pytest.raises(SystemExit, match="reads 2 trace"):
        main(["decode", "--decoder", "mld2del", "0212"])
    with pytest.raises(SystemExit, match="invalid literal"):
        main(["decode", "--decoder", "en:1", "01a"])


def test_decode_brute_searches_the_traces_alphabet(capsys):
    # a ternary trace decodes over Sigma_3, as a q = 3 config would
    y = parse_word("0120")
    assert main(["decode", "--decoder", "brute", "--k", "1", "0120"]) == 0
    assert parse_word(capsys.readouterr().out.strip()) == (
        brute_force_ml_star(y, 1, q=3))


def test_decode_warns_when_truncated(capsys, monkeypatch):
    assert main(["decode", "--decoder", "mld2del", "010", "001"]) == 0
    assert capsys.readouterr().err == ""
    truncating = replace(DECODERS["mld2del"],
                         fn=lambda y1, y2, **kw: ((0, 0, 1, 0), True))
    monkeypatch.setitem(DECODERS, "mld2del", truncating)
    assert main(["decode", "--decoder", "mld2del", "010", "001"]) == 0
    got = capsys.readouterr()
    assert got.out.strip() == "0010"
    assert "warning" in got.err and "cap" in got.err


def test_simulate_subcommand(tmp_path, capsys):
    cfg = {
        "channel": {"kind": "del"},
        "t": 2, "n": 30, "q": 2,
        "code": {"code": "all"},
        "decoder": "mld2del",
        "p_grid": [0.02],
        "trials_per_point": 60,
        "master_seed": 11,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "results.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path),
                 "--workers", "1"]) == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["metric"] for r in rows] == list(METRICS)
    assert all(r["decoder"] == "mld2del" for r in rows)
    # --seed overrides the config's master seed, and nothing else
    seeded = tmp_path / "seeded.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(seeded),
                 "--workers", "1", "--seed", "12"]) == 0
    cfg_path.write_text(json.dumps({**cfg, "master_seed": 12}))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path),
                 "--workers", "1"]) == 0
    assert seeded.read_text() == out_path.read_text()
    assert all(r["seed"] == "12"
               for r in csv.DictReader(seeded.read_text().splitlines()))


def test_bad_worker_counts_are_refused(tmp_path, monkeypatch):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"channel": {"kind": "del"}, "t": 2,
                                    "n": 10, "q": 2, "p_grid": [0.02],
                                    "trials_per_point": 4}))
    simulate = ["simulate", "--config", str(cfg_path),
                "--out", str(tmp_path / "out.csv")]
    for count in ("0", "-3"):
        with pytest.raises(SystemExit, match=f"--workers must be >= 1, not {count}"):
            main(simulate + ["--workers", count])
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(["reproduce-figure", "fig1", "--workers", count,
                  "--out", str(tmp_path / "fig.csv")])
    monkeypatch.setenv("INDELKIT_WORKERS", "0")
    with pytest.raises(SystemExit, match="INDELKIT_WORKERS must be >= 1"):
        main(simulate)
    monkeypatch.setenv("INDELKIT_WORKERS", "abc")
    with pytest.raises(SystemExit, match="INDELKIT_WORKERS must be an integer"):
        main(simulate)
    assert not (tmp_path / "out.csv").exists()


def test_reproduce_figure_names_come_from_the_table(capsys):
    with pytest.raises(SystemExit):  # argparse: exit code 2
        main(["reproduce-figure", "fig4"])
    err = capsys.readouterr().err
    assert "invalid choice" in err and all(fig in err for fig in FIGURES)


def test_analyze_subcommand(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["analyze", "--q", "2", "--n", "150", "--p", "0.01", "0.02",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["del_p_err"]) == pytest.approx(5e-4)
    assert "vt_success_bound" in rows[0]


def test_oracle_check_emb(capsys):
    assert main(["oracle-check", "emb", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "embedding-number DP vs subset enumeration, |x| <= 5: 0 mismatches" in out
    assert "packed embedding lanes (both forms) vs DP, |x| <= 5: 0 mismatches" in out
    assert ("packed embedding lane pairs (both forms) vs DP products, "
            "|x| <= 5: 0 mismatches") in out
    assert "weighted insertion ball vs subset enumeration, |y| + t <= 5: 0 mismatches" in out
    assert "insertion ball stream vs subset enumeration, |y| + t <= 5: 0 mismatches" in out


def test_oracle_check_emb_reports_a_lanes_mismatch(capsys, monkeypatch):
    from indelkit.combinatorics import EmbeddingLanes
    # a wrong count wherever Emb(x; y) > 0: 19 pairs with |x| <= 2, 2 forms
    monkeypatch.setattr(EmbeddingLanes, "count", lambda self, row: 0)
    assert main(["oracle-check", "emb", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "DP vs subset enumeration, |x| <= 2: 0 mismatches" in out
    assert "lanes (both forms) vs DP, |x| <= 2: 38 mismatches" in out
    assert "VIOLATIONS FOUND" in out


def test_oracle_check_emb_reports_a_pair_mismatch(capsys, monkeypatch):
    from indelkit.combinatorics import EmbeddingLanes
    count = EmbeddingLanes.count
    # a count one off wherever the lanes hold two traces: each of the
    # 49 pairs checked with |x| <= 2, while the one-trace line stays clean
    monkeypatch.setattr(EmbeddingLanes, "count", lambda self, row: count(
        self, row) + (len(self.ds) == 2))
    assert main(["oracle-check", "emb", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "lanes (both forms) vs DP, |x| <= 2: 0 mismatches" in out
    assert "lane pairs (both forms) vs DP products, |x| <= 2: 49 mismatches" in out
    assert "VIOLATIONS FOUND" in out


def test_oracle_check_emb_reports_a_stream_mismatch(capsys, monkeypatch):
    import indelkit.combinatorics as combinatorics
    stream = combinatorics.insertion_ball_blocks

    def wrong_last_row(m, t, ys):
        # one weight off in the last row of each of the 6 calls with
        # m + t <= 2
        for lo, words, weights in stream(m, t, ys):
            weights[-1, 0] += 1
            yield lo, words, weights
    monkeypatch.setattr(combinatorics, "insertion_ball_blocks", wrong_last_row)
    assert main(["oracle-check", "emb", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "weighted insertion ball vs subset enumeration, |y| + t <= 2: 0 mismatches" in out
    assert "insertion ball stream vs subset enumeration, |y| + t <= 2: 6 mismatches" in out
    assert "VIOLATIONS FOUND" in out


@pytest.mark.filterwarnings("error::UserWarning")
def test_oracle_check_1del(capsys):
    assert main(["oracle-check", "1del", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert "lazy at n=9: law 1/9, enumeration 1/9" in out
    assert "en:1 at n=9: law 437/2592, enumeration 437/2592" in out
    assert "mlstar1 at n=9: law 1/9, enumeration 1/9" in out
    assert "OK" in out


def test_oracle_check_1del_report_holds_no_warning():
    # n = 6 is below mlstar1's proven range, where a direct call warns
    res = run_cli("oracle-check", "1del", "--n", "6")
    assert res.returncode == 0
    assert "mlstar1 at n=6: law 1/6, enumeration 1/6" in res.stdout
    assert "Warning" not in res.stdout and res.stderr == ""


@pytest.mark.filterwarnings("error::UserWarning")
def test_oracle_check_1del_reports_a_wrong_law(capsys, monkeypatch):
    wrong = replace(DECODERS["en:1"], fast_1del=lambda n: Fraction(1, n))
    monkeypatch.setitem(DECODERS, "en:1", wrong)
    assert main(["oracle-check", "1del", "--n", "6"]) == 1
    out = capsys.readouterr().out
    assert "en:1 at n=6: law 1/6, enumeration 133/576  <- MISMATCH" in out
    assert "VIOLATIONS FOUND" in out


@pytest.mark.parametrize("argv", [
    ["analyze", "--q", "2", "--n", "10", "--p", "0"],
    ["oracle-check", "1del", "--n", "1"],
    ["oracle-check", "2del", "--n", "2"],
    ["oracle-check", "emb", "--n", "0"],
    ["oracle-check", "scs", "--n", "-1"],
    ["oracle-check", "mld2", "--n", "-1"],
    ["oracle-check", "mld2", "--n", "0"],
    ["decode", "--decoder", "en:1", "01a"],
    ["simulate", "--config", os.devnull, "--out", os.devnull],
    ["reproduce-figure", "fig1", "--seed", "-1", "--workers", "1"],
    # sizes past a check's bound are refused before any work
    ["oracle-check", "emb", "--n", str(10 ** 6)],
    ["oracle-check", "scs", "--n", str(10 ** 6)],
    ["oracle-check", "mld2", "--n", str(10 ** 6)],
    ["oracle-check", "2del", "--n", str(10 ** 6)],
])
def test_value_errors_exit_with_one_line(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("which,top", [("2del", 13), ("emb", 10), ("scs", 7),
                                       ("mld2", 8), ("1del", 21)])
def test_oracle_check_names_its_bound(which, top, capsys):
    # one past the bound; the bound itself takes minutes, so it is not run
    with pytest.raises(SystemExit, match=f"oracle-check {which} needs "
                       f"[0-9]+ <= --n <= {top}, not {top + 1}$"):
        main(["oracle-check", which, "--n", str(top + 1)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("change,key", [
    ({"seedd": 3}, "seedd"),
    ({"channel": {"kind": "del", "pp": 0.1}}, "pp"),
    ({"p_grid": 0.05}, "p_grid"),
    ({"code": {"code": "vt", "a": "1"}}, "a"),
    ({"code": {"code": "svt", "P": 5.5}}, "P"),
])
def test_simulate_config_typos_exit_with_one_line(tmp_path, change, key):
    cfg = {"channel": {"kind": "del"}, "t": 2, "n": 30, "q": 2,
           "p_grid": [0.02], "trials_per_point": 10, **change}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("simulate", "--config", str(path),
                  "--out", str(tmp_path / "results.csv"))
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1 and repr(key) in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "results.csv").exists()


def test_simulate_refuses_an_empty_svt_code(tmp_path):
    # SVT(n=3, a=0, b=1) at the default P = 4 has no codeword to sample
    cfg = {"channel": {"kind": "del"}, "t": 2, "n": 3, "q": 2,
           "code": {"code": "svt", "a": 0, "b": 1}, "decoder": "mld2del",
           "p_grid": [0.02], "trials_per_point": 10}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("simulate", "--config", str(path),
                  "--out", str(tmp_path / "results.csv"))
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1 and "no codewords" in res.stderr
    assert not (tmp_path / "results.csv").exists()


def test_simulate_rejects_a_negative_seed(tmp_path):
    cfg = {"channel": {"kind": "del"}, "t": 2, "n": 30, "q": 2,
           "p_grid": [0.02], "trials_per_point": 10}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("simulate", "--config", str(path), "--seed", "-1",
                  "--out", str(tmp_path / "results.csv"))
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1 and "master_seed" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "results.csv").exists()


def test_oracle_check_2del_reports_known_violations(capsys):
    # n = 8 carries the documented closed-form violations; exit code 1
    assert main(["oracle-check", "2del", "--n", "8"]) == 1
    out = capsys.readouterr().out
    assert "18 closed-form sign violations" in out


@pytest.mark.parametrize("n", ["1", "2", "14"])
def test_oracle_check_2del_rejects_sizes_before_sweeping(n):
    # the window sweep's range 3..13 is checked before the condition sweep
    # runs, so nothing is printed and n = 14 fails at once
    res = run_cli("oracle-check", "2del", "--n", n)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.strip() == f"oracle-check 2del needs 3 <= --n <= 13, not {n}"


def test_oracle_check_scs(capsys):
    assert main(["oracle-check", "scs", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert ("468 binary pairs with |y1| <= 4 and |y2| = min(4, |y1| + 2): "
            "0 mismatches") in out


def test_oracle_check_scs_reports_a_mismatch(capsys, monkeypatch):
    import indelkit.supersequences as supersequences
    enumerate_scs = supersequences.enumerate_scs

    def drop_first(y1, y2):
        res = enumerate_scs(y1, y2)
        return replace(res, candidates=res.candidates[1:])

    # every pair has an SCS, so each of the 28 pairs at n = 2 loses one
    monkeypatch.setattr(supersequences, "enumerate_scs", drop_first)
    assert main(["oracle-check", "scs", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "28 binary pairs" in out and "28 mismatches" in out
    assert "VIOLATIONS FOUND" in out


def test_oracle_check_mld2(capsys):
    assert main(["oracle-check", "mld2", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "3969 binary pairs with |y1|, |y2| <= 5: 0 mismatches" in out


def test_oracle_check_mld2_reports_a_mismatch(capsys, monkeypatch):
    import indelkit.decoders as decoders
    monkeypatch.setattr(decoders, "mld_two_ins_detailed",
                        lambda y1, y2: (tuple(y1), False))
    assert main(["oracle-check", "mld2", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "<lambda> y1='0' y2='1'" in out and "VIOLATIONS FOUND" in out


def test_reproduce_figure_tiny(tmp_path, capsys, monkeypatch):
    # shrink the desk config through the figure_config seams for a fast run
    import indelkit.harness as harness
    orig = harness.figure_config

    def tiny(fig, scale="desk", master_seed=2024, code=None, q=2):
        cfg = orig(fig, scale, master_seed, code=code, q=q)
        return harness.ExperimentConfig(
            channel=cfg.channel, t=cfg.t, n=30, q=cfg.q, code=cfg.code,
            decoder=cfg.decoder, p_grid=(0.02,), trials_per_point=40,
            master_seed=cfg.master_seed)

    monkeypatch.setattr(harness, "figure_config", tiny)
    out = tmp_path / "fig1.csv"
    assert main(["reproduce-figure", "fig1", "--out", str(out),
                 "--workers", "1", "--plot"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for col in ("p", "measured_rate", "stderr", "formula_rate"):
        assert col in rows[0]
    assert (tmp_path / "fig1.svg").exists()
