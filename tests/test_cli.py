import csv
import json

import pytest

from indelkit.cli import main


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


def test_simulate_subcommand(tmp_path, capsys):
    cfg = {
        "channel": {"kind": "del", "p": 0.0},
        "t": 2, "n": 30, "q": 2,
        "code": {"code": "all"},
        "decoder": "mld2del",
        "p_grid": [0.02],
        "trials_per_point": 60,
        "master_seed": 11,
        "metrics": ["levenshtein_rate", "failure_rate"],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "results.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path),
                 "--workers", "1"]) == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["metric"] for r in rows} == {"levenshtein_rate", "failure_rate"}
    assert all(r["decoder"] == "mld2del" for r in rows)


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
    assert "0 mismatches" in capsys.readouterr().out


def test_oracle_check_1del(capsys):
    assert main(["oracle-check", "1del", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert "1/9" in out and "OK" in out


def test_oracle_check_2del_reports_known_violations(capsys):
    # n = 8 carries the documented closed-form violations; exit code 1
    assert main(["oracle-check", "2del", "--n", "8"]) == 1
    out = capsys.readouterr().out
    assert "18 closed-form sign violations" in out


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
