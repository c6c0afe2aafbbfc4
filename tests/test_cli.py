import json
import math
from pathlib import Path

import numpy as np
import pytest

from roughlaplace.cli import ExperimentConfig, main, run
from roughlaplace.grids import TimeGrid


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

    def test_workers_give_identical_laplace_artifacts(self, tmp_path, capsys):
        # 4200 samples make three Monte Carlo blocks of the default 2048, and
        # five restarts run in the pool as well
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "kind": "laplace", "H": 0.4, "grid_size": 33, "n": 2, "d": 2, "seed": 4,
            "eps_list": [0.6, 0.5, 0.4], "truncation": 4, "n_samples": 4200,
            "field_name": "constant", "field_params": {"S": [[1.0, 0.3], [-0.2, 0.8]]},
            "functional_name": "endpoint_quadratic",
            "functional_params": {"Q": [[0.5, 0.1], [0.1, 0.3]], "v": [0.4, -0.3]},
            "alpha0_samples": 4200, "hessian_N": 4,
        }))
        outs = []
        for w in (1, 2):
            rc = main(["laplace", "--config", str(cfg_path), "--out", str(tmp_path / f"w{w}"),
                       "--workers", str(w)])
            assert rc == 0
            outs.append(Path(capsys.readouterr().out.strip()))
        for name in ("report.json", "mc_table.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert json.loads(read(outs[1], "manifest.json"))["workers"] == 2

    def test_workers_below_one_exit_code(self, tmp_path, capsys):
        rc = main(["kappa", "--out", str(tmp_path), "--workers", "0"])
        assert rc == 2
        assert "workers must be at least 1" in capsys.readouterr().err


def test_scale_test_run_small(tmp_path):
    raw = {"kind": "scale-test", "H": 0.4, "grid_size": 33, "d": 2,
           "n_samples": 200, "seed": 9, "c": 0.5}
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    res = json.loads(read(out, "scale_test.json"))
    assert 0.0 <= res["ks_statistic"] <= 1.0
    assert res["p_value"] > 0.001


def test_scale_test_areas_match_per_path_lifts(tmp_path, monkeypatch):
    # the blocked running-signature areas equal the dense per-path route
    # scale_rough(lift(p, 2), c, H) bit for bit, across several blocks
    import scipy.stats

    import roughlaplace.cli as cli_mod
    from roughlaplace.fbm import sample_fbm_ensemble
    from roughlaplace.roughpath import lift, scale_rough

    seen = []
    ks_2samp = scipy.stats.ks_2samp

    def capture(a, b):
        seen.append((a, b))
        return ks_2samp(a, b)

    monkeypatch.setattr(scipy.stats, "ks_2samp", capture)
    monkeypatch.setattr(cli_mod, "_SCALE_BLOCK", 24)
    raw = {"kind": "scale-test", "H": 0.4, "grid_size": 33, "d": 2,
           "n_samples": 64, "seed": 12, "c": 0.25}
    cfg = ExperimentConfig.from_dict(raw)
    out = run(cfg, tmp_path)
    assert json.loads(read(out, "manifest.json"))["status"] == "complete"
    (scaled, plain), = seen

    def area(X):
        return 0.5 * (X.inc2[0, -1, 0, 1] - X.inc2[0, -1, 1, 0])

    grid = TimeGrid.uniform(33)
    e1 = sample_fbm_ensemble(grid, 0.4, 2, 64, 12)
    e2 = sample_fbm_ensemble(grid, 0.4, 2, 64, 13)
    assert np.array_equal(scaled, [area(scale_rough(lift(p, 2), 0.25, 0.4)) for p in e1])
    assert np.array_equal(plain, [area(lift(p, 2)) for p in e2])


def test_scale_test_incompatible_c(tmp_path):
    raw = {"kind": "scale-test", "H": 0.4, "grid_size": 33, "d": 2,
           "n_samples": 8, "seed": 1, "c": 1 / 3}
    with pytest.raises(ValueError, match=r"c = 0\.333.* 32-step grid"):
        run(ExperimentConfig.from_dict(raw), tmp_path)


def assert_stage_timings(out, stages):
    timings = json.loads(read(out, "manifest.json"))["timings"]
    assert set(timings) == set(stages)
    assert all(t >= 0.0 for t in timings.values())


def test_scale_test_manifest_timings(tmp_path):
    raw = {"kind": "scale-test", "H": 0.4, "grid_size": 17, "d": 2,
           "n_samples": 16, "seed": 3}
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    assert_stage_timings(out, {"sample_s", "signature_s", "ks_s"})


def test_shipped_configs_validate():
    from roughlaplace.cli import _RUNNERS

    paths = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))
    assert paths
    for path in paths:
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert cfg.validate() == [], path.name
        assert cfg.kind in _RUNNERS, path.name


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
    assert_stage_timings(out, {"minimize_s", "constants_s", "mc_s", "fit_s"})


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
    assert_stage_timings(out, {"cm_s", "hessian_s", "hs_tail_s"})


@pytest.mark.parametrize("field_name", ["tanh", "rotation"])
def test_hessian_run_two_dim(tmp_path, field_name):
    # n = d = 2: the Hessian basis and the hs_tail basis both take d from
    # the field; rotation has finite-difference derivatives only
    raw = {
        "kind": "hessian", "H": 0.4, "grid_size": 65, "n": 2, "d": 2,
        "seed": 6, "truncation": 3, "field_name": field_name,
        "functional_name": "endpoint_quadratic",
        "functional_params": {"Q": [[0.4, 0.1], [0.1, 0.3]]},
        "N_list": [2, 4],
    }
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    A = np.array([[float(v) for v in row.split(",")]
                  for row in read(out, "hessian.csv").strip().splitlines()])
    assert A.shape == (6, 6)
    assert np.all(np.isfinite(A)) and np.abs(A - A.T).max() < 1e-10
    assert json.loads(read(out, "hessian_meta.json"))["dim"] == 2
    tail = json.loads(read(out, "hs_tail.json"))
    assert 0.0 < tail["partial_sums"][0] <= tail["partial_sums"][1]
    assert json.loads(read(out, "manifest.json"))["status"] == "complete"
