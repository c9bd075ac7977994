"""Command-line front end: parsing, artifacts, exit codes, SVG."""

import json
import math

import numpy as np
import pytest

from isoshape.cli import (
    SCALE_CSV_HEADER,
    main,
    parse_config,
    sweep_svg,
)
from isoshape.energy import total_energy
from isoshape.errors import ConfigError, DegenerateDeficitError, ValidationError
from isoshape.geometry import load_configuration
from isoshape.optimize import SweepRecord


def test_parse_defaults():
    cfg = parse_config(["eval"])
    assert cfg.command == "eval"
    assert (cfg.params.d, cfg.params.p, cfg.params.alpha) == (2, 2.0, 1.0)
    assert cfg.params.gamma == 0.01
    assert cfg.n == 128
    assert cfg.seed == 0
    assert cfg.out == "."
    assert cfg.svg is False
    assert len(cfg.gammas) == 11
    assert cfg.gammas[0] == pytest.approx(1e-3)
    assert cfg.gammas[-1] == pytest.approx(1e2)
    assert cfg.opts.max_iter == 2000


def test_parse_file_and_flag_precedence(tmp_path):
    fp = tmp_path / "run.json"
    fp.write_text(json.dumps({"gamma": 0.5, "n": 64, "seed": 4}))
    cfg = parse_config(["minimize", "--config", str(fp), "--gamma", "0.7"])
    assert cfg.params.gamma == 0.7
    assert cfg.n == 64
    assert cfg.seed == 4


def test_parse_rejections(tmp_path):
    with pytest.raises(ConfigError, match="--gamma and --gammas"):
        parse_config(["sweep", "--gamma", "1", "--gammas", "1,2"])

    fp = tmp_path / "bad.json"
    fp.write_text(json.dumps({"spam": 1}))
    with pytest.raises(ConfigError, match="spam"):
        parse_config(["eval", "--config", str(fp)])

    fp.write_text(json.dumps({"n": "big"}))
    with pytest.raises(ConfigError, match="'n'"):
        parse_config(["eval", "--config", str(fp)])

    fp.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(["eval", "--config", str(fp)])

    with pytest.raises(ConfigError, match="config file not found"):
        parse_config(["eval", "--config", str(tmp_path / "absent.json")])

    with pytest.raises(ConfigError, match="energy parameters"):
        parse_config(["eval", "--alpha", "2.5"])
    with pytest.raises(ConfigError, match="'n'"):
        parse_config(["eval", "--n", "4"])
    with pytest.raises(ConfigError, match="--gammas"):
        parse_config(["sweep", "--gammas", "1,abc"])
    for gammas in ("-1,1", "0.1,nan", "inf", ","):
        with pytest.raises(ConfigError, match="'gammas'"):
            parse_config(["sweep", f"--gammas={gammas}"])
    for raw in ([], [0.1, float("nan")], [float("inf")]):
        fp.write_text(json.dumps({"gammas": raw}))
        with pytest.raises(ConfigError, match="'gammas'"):
            parse_config(["sweep", "--config", str(fp)])
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config(["verify", "--seed", "-1"])

    # the constraint is always the unit-volume projection, and the stop
    # tolerance is fixed
    for raw in ({"mode": "penalty"}, {"lam": 1}, {"g_tol": 1e-6}):
        fp.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(["minimize", "--config", str(fp)])


def test_parse_sorts_gammas():
    cfg = parse_config(["sweep", "--gammas", "1,0.1,10"])
    assert cfg.gammas == (0.1, 1.0, 10.0)


def test_eval_writes_closed_form(tmp_path, capsys):
    # p = 1, gamma = 0: the unit-volume ball has weighted perimeter
    # d omega_d r0^d = 2 exactly in d = 2
    code = main(["eval", "--p", "1", "--gamma", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert doc["breakdown"]["total"] == pytest.approx(2.0, rel=1e-10)
    assert doc["params"]["p"] == 1.0
    assert "eval: total=2" in capsys.readouterr().out


def test_minimize_round_trip(tmp_path):
    code = main(["minimize", "--n", "32", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "minimize.json").read_text())
    config = load_configuration(tmp_path / "shape.json")
    cfg = parse_config(["minimize", "--n", "32"])
    bd = total_energy(config, cfg.params)
    assert bd.total == pytest.approx(doc["breakdown"]["total"], abs=1e-12)
    assert bd.riesz == pytest.approx(doc["breakdown"]["riesz"], abs=1e-12)
    assert doc["record"]["converged"] is True


def test_minimize_breakdown_is_the_record(tmp_path):
    # alpha > 3/2 runs on the volume rule; minimize.json's breakdown is
    # the record's, at the rule the run minimized with
    code = main(["minimize", "--n", "16", "--alpha", "1.75",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "minimize.json").read_text())
    assert doc["breakdown"]["total"] == doc["record"]["energy"]


def test_sweep_byte_reproducible(tmp_path):
    fp = tmp_path / "run.json"
    fp.write_text(json.dumps({"max_iter": 120, "n": 24}))
    argv = ["sweep", "--config", str(fp), "--gammas", "0.005,0.01", "--svg"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    csv_a = (out_a / "sweep.csv").read_bytes()
    assert csv_a == (out_b / "sweep.csv").read_bytes()
    assert (out_a / "sweep.svg").read_bytes() == (
        out_b / "sweep.svg").read_bytes()
    lines = csv_a.decode().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.0050000000000000001"


def test_scale_check_table(tmp_path, capsys):
    code = main(["scale-check", "--gamma", "0.25", "--n", "48",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "scale_check.csv").read_text().splitlines()
    assert lines[0] == SCALE_CSV_HEADER
    assert len(lines) == 7
    rows = {tuple(l.split(",")[1:3]): l.split(",") for l in lines[1:]}
    row = rows[("3", "1")]
    assert float(row[4]) == pytest.approx(16.0, rel=1e-12)
    assert float(row[5]) <= 1e-6
    assert row[6] == "pass"
    assert "m=16" in capsys.readouterr().out


def test_scale_check_critical_row(tmp_path):
    # d = 3: the grid point (p, alpha) = (3, 1) sits at p* = d - alpha + 1
    code = main(["scale-check", "--d", "3", "--n", "12", "--gamma", "0.5",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "scale_check.csv").read_text().splitlines()
    crit = [l for l in lines[1:] if l.endswith("critical")]
    assert len(crit) == 1
    assert crit[0].split(",")[1:3] == ["3", "1"]


def test_fuglede_artifact(tmp_path):
    code = main(["fuglede", "--n", "48", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "fuglede.csv").read_text().splitlines()
    assert lines[0].startswith("mode_k,eps")
    assert len(lines) == 16  # header + 5 modes x 3 epsilons


def test_verify_exit_codes(tmp_path, monkeypatch):
    def fake_green(seed=0, n_samples=1_000_000):
        return [{"check": "stub", "trials": 1, "violations": 0,
                 "worst_margin": 0.5, "params": {}}]

    def fake_red(seed=0, n_samples=1_000_000):
        return [{"check": "stub", "trials": 1, "violations": 2,
                 "worst_margin": -0.5, "params": {}}]

    monkeypatch.setattr("isoshape.oracle.run_all_checks", fake_green)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "verify.json").is_file()

    monkeypatch.setattr("isoshape.oracle.run_all_checks", fake_red)
    assert main(["verify", "--out", str(tmp_path)]) == 1


def test_exit_code_mapping(tmp_path, monkeypatch):
    assert main(["eval", "--alpha", "9"]) == 2
    assert main(["eval", "--config", str(tmp_path / "none.json")]) == 2
    for gammas in ("0.1,nan", "inf", ","):
        assert main(["sweep", f"--gammas={gammas}",
                     "--out", str(tmp_path)]) == 2

    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    assert main(["eval", "--out", str(blocker / "sub")]) == 2

    def boom(seed=0, n_samples=1_000_000):
        raise DegenerateDeficitError("stub failure")

    monkeypatch.setattr("isoshape.oracle.run_all_checks", boom)
    assert main(["verify", "--out", str(tmp_path)]) == 3


def test_gamma_zero_is_a_config_error(tmp_path, capsys):
    # fuglede divides by gamma and scale-check maps it to a mass: both
    # reject gamma = 0 before any work, and write no artifact
    for command in ("fuglede", "scale-check"):
        assert main([command, "--gamma", "0", "--n", "16",
                     "--out", str(tmp_path)]) == 2
        assert "'gamma'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _fake_records():
    gammas = np.logspace(-3, 2, 6)
    return [SweepRecord(gamma=float(g), p=2.0, alpha=1.0, d=2,
                        energy=2.0 + float(g), perimeter=2.0,
                        riesz=1.0, volume=1.0, n_components=1,
                        asphericity=1e-6, iterations=5, converged=True)
            for g in gammas]


def test_sweep_svg_structure():
    svg = sweep_svg(_fake_records())
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "1e-3" in svg and "1e+2" in svg
    assert "energy" in svg and "asphericity" in svg

    bad = [SweepRecord(gamma=1.0, p=2.0, alpha=1.0, d=2, energy=math.inf,
                       perimeter=math.inf, riesz=math.inf, volume=math.nan,
                       n_components=0, asphericity=math.inf, iterations=0,
                       converged=False)]
    with pytest.raises(ValidationError):
        sweep_svg(bad)
