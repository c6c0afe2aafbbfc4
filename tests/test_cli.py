import json
import math
from pathlib import Path

import numpy as np
import pytest

from roughlaplace.cli import ExperimentConfig, main, run


def read(out_dir: Path, name: str) -> str:
    return (out_dir / name).read_text()


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig.from_dict({"kind": "nope"})

    def test_extras_capture(self):
        cfg = ExperimentConfig.from_dict({"kind": "kappa", "count": 7, "H": 0.3})
        assert cfg.extras["count"] == 7
        assert cfg.H == 0.3

    def test_window_violation_named(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "simulate", "H": 0.4, "p": 2.8, "q": 1.6}
        )
        errors = cfg.validate()
        assert any("1/q" in e for e in errors)

    def test_hash_covers_numeric_fields(self):
        base = {"kind": "kappa", "H": 0.4, "seed": 1}
        h1 = ExperimentConfig.from_dict(base).config_hash()
        h2 = ExperimentConfig.from_dict({**base, "seed": 2}).config_hash()
        h3 = ExperimentConfig.from_dict({**base, "H": 0.45}).config_hash()
        assert len({h1, h2, h3}) == 3


class TestRuns:
    def test_kappa_csv_matches_ladder(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"kind": "kappa", "H": 0.4, "count": 9})
        out = run(cfg, tmp_path)
        rows = read(out, "kappa.csv").strip().splitlines()[1:]
        kappas = [float(r.split(",")[1]) for r in rows]
        assert np.allclose(kappas, [0, 1, 2, 2.5, 3, 3.5, 4, 4.5, 5], atol=1e-12)
        manifest = json.loads(read(out, "manifest.json"))
        assert manifest["status"] == "complete"
        assert "kappa.csv" in manifest["artifacts"]

    def test_pvar_corpus(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"kind": "pvar", "n_max": 6})
        out = run(cfg, tmp_path)
        rows = read(out, "cosine_pvar.csv").strip().splitlines()[1:]
        diffs = [float(r.split(",")[4]) for r in rows]
        assert max(diffs) < 1e-12

    def test_determinism_byte_identical(self, tmp_path):
        raw = {"kind": "simulate", "H": 0.4, "grid_size": 33, "d": 1,
               "n_samples": 5, "seed": 42}
        out1 = run(ExperimentConfig.from_dict(raw), tmp_path / "a")
        out2 = run(ExperimentConfig.from_dict(raw), tmp_path / "b")
        assert read(out1, "samples.csv") == read(out2, "samples.csv")
        assert read(out1, "summary.json") == read(out2, "summary.json")

    def test_lift_artifacts(self, tmp_path):
        raw = {"kind": "lift", "H": 0.4, "grid_size": 17, "d": 2, "seed": 3}
        out = run(ExperimentConfig.from_dict(raw), tmp_path)
        chen = json.loads(read(out, "chen.json"))
        assert chen["chen_residual"] < 1e-10
        assert (out / "rough_level1.csv").exists()
        assert (out / "rough_level2.csv").exists()

    def test_rde_run(self, tmp_path):
        raw = {"kind": "rde", "H": 0.4, "grid_size": 65, "n": 2, "d": 2,
               "seed": 5, "eps_list": [0.5]}
        out = run(ExperimentConfig.from_dict(raw), tmp_path)
        ladder = json.loads(read(out, "ladder.json"))
        assert "ladder" in ladder
        sol = read(out, "solution.csv")
        assert sol.splitlines()[0] == "t,x1,x2"

    def test_invalid_config_rejected(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"kind": "simulate", "grid_size": 1})
        with pytest.raises(ValueError, match="grid_size"):
            run(cfg, tmp_path)

    def test_manifest_written_before_artifacts_on_failure(self, tmp_path, monkeypatch):
        import roughlaplace.cli as cli_mod

        def boom(rc):
            rc.declare("never.csv")
            rc.manifest("started")
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli_mod._RUNNERS, "kappa", boom)
        cfg = ExperimentConfig.from_dict({"kind": "kappa"})
        with pytest.raises(RuntimeError, match="synthetic"):
            run(cfg, tmp_path)
        out = tmp_path / f"kappa-{cfg.config_hash()}"
        manifest = json.loads(read(out, "manifest.json"))
        assert manifest["status"] == "failed"
        assert manifest["artifacts"] == ["never.csv"]


class TestMain:
    def test_kappa_subcommand(self, tmp_path, capsys):
        rc = main(["kappa", "--out", str(tmp_path), "--seed", "3"])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert Path(printed).exists()

    def test_schema_subcommand(self, tmp_path):
        target = tmp_path / "SCHEMA.md"
        assert main(["schema", "--out", str(target)]) == 0
        text = target.read_text()
        for section in ("simulate", "lift", "pvar", "rde", "hessian", "laplace", "kappa"):
            assert f"## {section}" in text

    def test_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "kappa", "H": 0.3, "count": 8}))
        rc = main(["kappa", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0

    def test_kind_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "kappa"}))
        rc = main(["pvar", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2

    def test_invalid_window_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"kind": "simulate", "H": 0.4, "p": 2.8, "q": 1.6})
        )
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "1/q" in capsys.readouterr().err

    def test_workers_flag_accepted(self, tmp_path):
        rc = main(["kappa", "--out", str(tmp_path), "--workers", "4"])
        assert rc == 0


def test_scale_test_run_small(tmp_path):
    raw = {"kind": "scale-test", "H": 0.4, "grid_size": 33, "d": 2,
           "n_samples": 200, "seed": 9, "c": 0.5}
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    res = json.loads(read(out, "scale_test.json"))
    assert 0.0 <= res["ks_statistic"] <= 1.0
    assert res["p_value"] > 0.001


def test_taylor_slope_run_small(tmp_path):
    raw = {"kind": "taylor-slope", "H": 0.4, "grid_size": 129, "n": 1, "d": 1,
           "n_samples": 4, "seed": 2, "eps_list": [2**-k for k in range(2, 7)],
           "field_name": "tanh"}
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    slopes = json.loads(read(out, "slopes.json"))
    assert 1.5 <= slopes["m1"]["slope"] <= 2.5
    assert 2.4 <= slopes["m2"]["slope"] <= 3.6


def test_laplace_run_small(tmp_path):
    raw = {
        "kind": "laplace", "H": 0.4, "grid_size": 65, "n": 2, "d": 2,
        "seed": 4, "eps_list": [0.5, 0.4, 0.3], "truncation": 4,
        "n_samples": 400, "field_name": "constant",
        "field_params": {"S": [[1.0, 0.3], [-0.2, 0.8]]},
        "functional_name": "endpoint_linear",
        "functional_params": {"v": [0.7, -0.5]},
        "alpha0_samples": 400, "hessian_N": 4, "fit_order": 1,
    }
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    report = json.loads(read(out, "report.json"))
    assert report["first_order_residual"] < 1e-6
    assert report["alpha0"] > 0
    table = read(out, "mc_table.csv").strip().splitlines()
    assert table[0] == "eps,J_hat,se,n"
    assert len(table) == 4


def test_hessian_run_small(tmp_path):
    raw = {
        "kind": "hessian", "H": 0.4, "grid_size": 129, "n": 1, "d": 1,
        "seed": 6, "truncation": 3, "field_name": "tanh",
        "functional_name": "endpoint_quadratic",
        "functional_params": {"Q": [[0.4]]},
        "N_list": [2, 4],
    }
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    A = np.array([[float(v) for v in row.split(",")]
                  for row in read(out, "hessian.csv").strip().splitlines()])
    assert A.shape == (3, 3)
    assert np.abs(A - A.T).max() < 1e-10
    tail = json.loads(read(out, "hs_tail.json"))
    assert tail["partial_sums"][0] <= tail["partial_sums"][1]
    # two truncations: one increment, no ratio, so no tail bound
    assert tail["increments"] == [tail["partial_sums"][1] - tail["partial_sums"][0]]
    assert tail["increment_ratios"] == [] and tail["tail_bound"] is None
