import io
import json
import os
import re
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from roughlaplace.cli import (
    _RUNNERS,
    EXPERIMENT_KINDS,
    SCHEMA_DOC,
    ExperimentConfig,
    _path_csv,
    ks_2samp_exact,
    main,
    run,
)
from roughlaplace.fbm import cm_map, sample_fbm
from roughlaplace.functionals import make_field, make_functional
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.hessian import hessian_matrix
from roughlaplace.roughpath import lift
from roughlaplace.taylor import expansion_context


def read(out_dir: Path, name: str) -> str:
    return (out_dir / name).read_text()


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig.from_dict({"kind": "nope"})

    def test_extras_capture(self):
        cfg = ExperimentConfig.from_dict({"kind": "pvar", "n_max": 7, "H": 0.3})
        assert cfg.extras["n_max"] == 7
        assert cfg.H == 0.3

    def test_window_violation_named(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "simulate", "H": 0.4, "p": 2.8, "q": 1.6}
        )
        errors = cfg.validate()
        assert any("1/q" in e for e in errors)

    def test_hash_covers_numeric_fields(self):
        base = {"kind": "pvar", "H": 0.4, "seed": 1}
        h1 = ExperimentConfig.from_dict(base).config_hash()
        h2 = ExperimentConfig.from_dict({**base, "seed": 2}).config_hash()
        h3 = ExperimentConfig.from_dict({**base, "H": 0.45}).config_hash()
        assert len({h1, h2, h3}) == 3


class TestRuns:
    def test_pvar_corpus(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"kind": "pvar", "n_max": 6})
        out = run(cfg, tmp_path)
        rows = read(out, "cosine_pvar.csv").strip().splitlines()[1:]
        diffs = [float(r.split(",")[4]) for r in rows]
        assert max(diffs) < 1e-12
        manifest = json.loads(read(out, "manifest.json"))
        assert manifest["status"] == "complete"
        assert manifest["artifacts"] == ["cosine_pvar.csv"]
        assert_stage_timings(out, {"pvar_s"})

    def test_determinism_byte_identical(self, tmp_path):
        raw = {"kind": "simulate", "H": 0.4, "grid_size": 33, "d": 1,
               "n_samples": 5, "seed": 42}
        out1 = run(ExperimentConfig.from_dict(raw), tmp_path / "a")
        out2 = run(ExperimentConfig.from_dict(raw), tmp_path / "b")
        assert read(out1, "samples.csv") == read(out2, "samples.csv")
        assert read(out1, "summary.json") == read(out2, "summary.json")
        assert_stage_timings(out1, {"sample_s", "csv_s"})

    def test_lift_artifacts(self, tmp_path):
        raw = {"kind": "lift", "H": 0.4, "grid_size": 17, "d": 2, "seed": 3}
        out = run(ExperimentConfig.from_dict(raw), tmp_path)
        chen = json.loads(read(out, "chen.json"))
        assert chen["chen_residual"] < 1e-10
        assert (out / "rough_level1.csv").exists()
        assert (out / "rough_level2.csv").exists()
        assert_stage_timings(out, {"sample_s", "lift_s", "csv_s", "chen_s"})

    def test_rde_run(self, tmp_path):
        raw = {"kind": "rde", "H": 0.4, "grid_size": 65, "n": 2, "d": 2,
               "seed": 5, "eps_list": [0.5]}
        out = run(ExperimentConfig.from_dict(raw), tmp_path)
        ladder = json.loads(read(out, "ladder.json"))
        assert "ladder" in ladder and "observed_order" in ladder["ladder"]
        sol = read(out, "solution.csv")
        assert sol.splitlines()[0] == "t,x1,x2"
        assert_stage_timings(out, {"sample_s", "solve_s"})

    def test_invalid_config_rejected(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"kind": "simulate", "grid_size": 1})
        with pytest.raises(ValueError, match="grid_size"):
            run(cfg, tmp_path)

    @pytest.mark.parametrize("N_list", [[2, 3], [], [0, 8], [8.0, 16], [True, 8], "8"])
    def test_bad_N_list_rejected_before_any_stage(self, tmp_path, N_list):
        cfg = ExperimentConfig.from_dict({
            "kind": "hessian", "grid_size": 33, "truncation": 2, "N_list": N_list})
        assert any("N_list must reach mode 4" in e for e in cfg.validate())
        with pytest.raises(ValueError, match="N_list"):
            run(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []  # no output directory, no artifact

    @pytest.mark.parametrize("eps_list", [[0.5, 0.0], [0.5, -0.3], [float("nan")], 0.5])
    def test_bad_eps_list_rejected_before_any_stage(self, tmp_path, eps_list):
        cfg = ExperimentConfig.from_dict({"kind": "laplace", "grid_size": 33, "eps_list": eps_list})
        with pytest.raises(ValueError, match="eps_list must be a list of positive numbers"):
            run(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [
        {"alpha0_samples": 1}, {"n_samples": 1}, {"alpha0_samples": True},
        {"n_samples": 100.0}, {"alpha0_samples": "2000"},
    ])
    def test_bad_laplace_sample_counts_rejected_before_any_stage(self, tmp_path, bad):
        cfg = ExperimentConfig.from_dict({"kind": "laplace", "grid_size": 33, **bad})
        key = next(iter(bad))
        with pytest.raises(ValueError, match=f"{key} must be an int of at least 2"):
            run(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_manifest_written_before_artifacts_on_failure(self, tmp_path, monkeypatch):
        import roughlaplace.cli as cli_mod

        def boom(rc):
            rc.declare("never.csv")
            rc.manifest("started")
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli_mod._RUNNERS, "pvar", boom)
        cfg = ExperimentConfig.from_dict({"kind": "pvar"})
        with pytest.raises(RuntimeError, match="synthetic"):
            run(cfg, tmp_path)
        out = tmp_path / f"pvar-{cfg.config_hash()}"
        manifest = json.loads(read(out, "manifest.json"))
        assert manifest["status"] == "failed"
        assert manifest["artifacts"] == ["never.csv"]

    @pytest.mark.parametrize("kind, bad", [
        ("laplace", {"truncation": "4"}), ("hessian", {"truncation": 0}),
        ("hessian", {"truncation": 97}), ("laplace", {"hessian_N": 2.5}),
        ("laplace", {"hessian_N": True}),
    ])
    def test_bad_mode_count_rejected_before_any_stage(self, tmp_path, kind, bad):
        cfg = ExperimentConfig.from_dict({"kind": kind, "grid_size": 33, **bad})
        key, value = next(iter(bad.items()))
        with pytest.raises(ValueError, match=rf"{key} must be an int in \[1, 96\].*got {value!r}"):
            run(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad, message", [
        ({"fit_order": 4}, "fit_order 4 needs at least 5 eps values; eps_list has 4"),
        ({"fit_order": "2"}, "fit_order must be a non-negative int; got '2'"),
        ({"use_shift": "no"}, "use_shift must be true or false; got 'no'"),
    ])
    def test_bad_laplace_fit_and_shift_rejected_before_any_stage(self, tmp_path, bad, message):
        cfg = ExperimentConfig.from_dict({"kind": "laplace", "grid_size": 33,
                                          "eps_list": [0.6, 0.5, 0.4, 0.3], **bad})
        with pytest.raises(ValueError, match=message):
            run(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestArtifactFiles:
    """Every CSV artifact is written by one formatter, 17 significant digits,
    so each file reads back to the arrays the library returned bit for bit."""

    def test_csv_roundtrip_lossless(self):
        g = TimeGrid(np.array([0.0, 1 / 3, 0.7071067811865476, 1.0]))
        vals = np.array([[0.0, 1e-17], [np.pi, -2 / 3], [1e300, 5e-124], [-1.0, 3.3]])
        text = _path_csv(SampledPath(g, vals))
        assert text.splitlines()[0] == "t,x1,x2"
        rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1:], vals)
        assert np.array_equal(rows[:, 0], g.points)

    @pytest.fixture(scope="class")
    def lift_run(self, tmp_path_factory):
        raw = {"kind": "lift", "H": 0.3, "grid_size": 17, "d": 2, "seed": 3, "level": 3}
        cfg = ExperimentConfig.from_dict(raw)
        return cfg, run(cfg, tmp_path_factory.mktemp("lift"))

    def test_driver_csv_is_the_path(self, lift_run):
        cfg, out = lift_run
        text = read(out, "driver.csv")
        assert text.splitlines()[0] == "t,x1,x2"
        rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        grid = TimeGrid.uniform(cfg.grid_size)
        assert np.array_equal(rows[:, 0], grid.points)
        assert np.array_equal(rows[:, 1:], sample_fbm(grid, cfg.H, cfg.d, cfg.seed).values)

    def test_rough_level_csv_rows_are_increments(self, lift_run):
        cfg, out = lift_run
        grid = TimeGrid.uniform(cfg.grid_size)
        X = lift(sample_fbm(grid, cfg.H, cfg.d, cfg.seed), 3)
        n = len(grid)
        for k in (1, 2, 3):
            text = read(out, f"rough_level{k}.csv")
            assert text.splitlines()[0] == "i,j," + ",".join(f"v{m}" for m in range(2**k))
            rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
            assert len(rows) == n * (n + 1) // 2
            i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
            assert np.all(i <= j)
            want = X.increment(i, j)[k - 1].reshape(len(rows), -1)
            assert np.array_equal(rows[:, 2:], want)

    @pytest.fixture(scope="class")
    def hessian_run(self, tmp_path_factory):
        raw = {
            "kind": "hessian", "H": 0.4, "grid_size": 65, "n": 2, "d": 2, "seed": 6,
            "truncation": 3, "field_name": "tanh", "functional_name": "endpoint_quadratic",
            "functional_params": {"Q": [[0.4, 0.1], [0.1, 0.3]]}, "N_list": [2, 4],
        }
        cfg = ExperimentConfig.from_dict(raw)
        out = run(cfg, tmp_path_factory.mktemp("hessian"))
        grid = TimeGrid.uniform(cfg.grid_size)
        gamma = cm_map(np.array([[0.2, 0.2], [0.3, 0.3]]), cfg.H, grid).induced_path
        return cfg, out, gamma

    def test_hessian_csv_is_the_matrix(self, hessian_run):
        cfg, out, gamma = hessian_run
        text = read(out, "hessian.csv")
        A = np.loadtxt(io.StringIO(text), delimiter=",")  # no header line
        ctx = expansion_context(make_field("tanh", {"n": 2, "d": 2}), gamma)
        want = hessian_matrix(make_functional("endpoint_quadratic", cfg.functional_params),
                              ctx, cfg.truncation, cfg.H)
        assert want.shape == (6, 6)
        assert np.array_equal(A, want)

    def test_hessian_meta_gamma_hash_is_crc32(self, hessian_run):
        # the hash must not depend on the process (Python's str/bytes hash()
        # is salted per process), so it is the CRC-32 of the gamma samples
        cfg, out, gamma = hessian_run
        meta = json.loads(read(out, "hessian_meta.json"))
        assert meta == {"N": 3, "basis": "cameron-martin images of L2 cosine modes",
                        "H": 0.4, "dim": 2, "gamma_hash": zlib.crc32(gamma.values.tobytes())}


class TestMain:
    def test_pvar_subcommand(self, tmp_path, capsys):
        rc = main(["pvar", "--out", str(tmp_path), "--seed", "3"])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert Path(printed).exists()

    def test_schema_subcommand(self, tmp_path):
        target = tmp_path / "SCHEMA.md"
        assert main(["schema", "--out", str(target)]) == 0
        text = target.read_text()
        for section in ("simulate", "lift", "pvar", "rde", "hessian", "laplace"):
            assert f"## {section}" in text

    def test_schema_and_runners_cover_every_kind(self):
        # one schema section and one runner per kind, and nothing else, so a
        # removed kind cannot leave a stale section or runner behind
        assert sorted(re.findall(r"^## (.+)$", SCHEMA_DOC, flags=re.M)) == sorted(EXPERIMENT_KINDS)
        assert sorted(_RUNNERS) == sorted(EXPERIMENT_KINDS)

    def test_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "pvar", "H": 0.3, "n_max": 4}))
        rc = main(["pvar", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0

    def test_kind_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "simulate"}))
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

    @pytest.mark.parametrize("key, value", [
        ("grid_size", "33"), ("n_samples", "5"), ("H", "0.4"), ("d", 2.0), ("grid_size", True),
    ])
    def test_mistyped_value_named_with_exit_code(self, tmp_path, capsys, key, value):
        # each value is checked for its type before any comparison
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "simulate", "grid_size": 33, "n_samples": 5,
                                        key: value}))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{key} must be a" in err and f"got {value!r}" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value", [
        ("truncation", "4"), ("hessian_N", 2.5), ("fit_order", 4), ("use_shift", "no"),
    ])
    def test_bad_laplace_key_named_with_exit_code(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "laplace", "grid_size": 33,
                                        "eps_list": [0.6, 0.5, 0.4, 0.3], key: value}))
        rc = main(["laplace", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("invalid config:") and key in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind, bad, message", [
        ("scale-test", {"grid_size": 129, "c": 0.3},
         "c = 0.3 is incompatible with a 128-step grid"),
        ("scale-test", {"c": "0.5"}, "c must be a real number in (0, 1]; got '0.5'"),
        ("scale-test", {"c": 1.5}, "c must be a real number in (0, 1]; got 1.5"),
        ("lift", {"level": "3"}, "level must be the int 2 or 3; got '3'"),
        ("lift", {"level": 4}, "level must be the int 2 or 3; got 4"),
        ("lift", {"level": 2.0}, "level must be the int 2 or 3; got 2.0"),
        ("pvar", {"n_max": "3"}, "n_max must be a positive int; got '3'"),
        ("pvar", {"n_max": 0}, "n_max must be a positive int; got 0"),
        ("pvar", {"n_max": True}, "n_max must be a positive int; got True"),
        ("pvar", {"p_list": ["2"]}, "p_list must be a non-empty list of real numbers of at "
                                    "least 1; got ['2']"),
        ("pvar", {"p_list": [2.0, 0.5]}, "got [2.0, 0.5]"),
        ("pvar", {"p_list": [True]}, "got [True]"),
        ("pvar", {"p_list": []}, "got []"),
        ("pvar", {"p_list": 2.0}, "p_list must be a non-empty list of real numbers of at "
                                  "least 1; got 2.0"),
    ])
    def test_bad_kind_key_named_with_exit_code(self, tmp_path, capsys, kind, bad, message):
        # rejected before the output directory and its manifest exist
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "grid_size": 33, **bad}))
        rc = main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("invalid config:") and message in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

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

    def test_hessian_short_N_list_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "kind": "hessian", "H": 0.4, "grid_size": 33, "n": 1, "d": 1, "truncation": 2,
            "field_name": "tanh", "functional_name": "endpoint_quadratic",
            "functional_params": {"Q": [[0.4]]}, "N_list": [2, 3],
        }))
        rc = main(["hessian", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "N_list must reach mode 4" in capsys.readouterr().err
        assert not list(tmp_path.glob("hessian-*"))  # rejected before hessian.csv

    def test_workers_below_one_exit_code(self, tmp_path, capsys):
        rc = main(["pvar", "--out", str(tmp_path), "--workers", "0"])
        assert rc == 2
        assert "workers must be at least 1" in capsys.readouterr().err


def test_scale_test_run_small(tmp_path):
    raw = {"kind": "scale-test", "H": 0.4, "grid_size": 33, "d": 2,
           "n_samples": 200, "seed": 9, "c": 0.5}
    out = run(ExperimentConfig.from_dict(raw), tmp_path)
    res = json.loads(read(out, "scale_test.json"))
    assert 0.0 <= res["ks_statistic"] <= 1.0
    assert res["p_value"] > 0.001


def test_scale_test_streams_mc_blocks(tmp_path, monkeypatch):
    # each ensemble is drawn in Monte Carlo blocks that tile [0, n) in order,
    # and each block is reduced to its areas before the next is drawn
    import roughlaplace.cli as cli_mod
    from roughlaplace.fbm import FbmSampler
    from roughlaplace.laplace import _MC_BLOCK

    events = []
    batch, endpoint_areas = FbmSampler.batch, cli_mod._endpoint_areas

    def record_batch(self, lo, hi, out=None):
        events.append(("draw", lo, hi))
        return batch(self, lo, hi, out)

    def record_areas(values, m, factor):
        events.append(("areas", len(values)))
        return endpoint_areas(values, m, factor)

    monkeypatch.setattr(FbmSampler, "batch", record_batch)
    monkeypatch.setattr(cli_mod, "_endpoint_areas", record_areas)
    n = 2 * _MC_BLOCK + 7
    raw = {"kind": "scale-test", "H": 0.4, "grid_size": 17, "d": 2, "n_samples": n, "seed": 3}
    run(ExperimentConfig.from_dict(raw), tmp_path)
    draws = [(lo, hi) for _, lo, hi in events[::2]]
    # the rescaled ensemble, then the plain one
    tiles = [(0, _MC_BLOCK), (_MC_BLOCK, 2 * _MC_BLOCK), (2 * _MC_BLOCK, n)]
    assert draws == tiles + tiles
    assert max(hi - lo for lo, hi in draws) <= _MC_BLOCK
    assert events[1::2] == [("areas", hi - lo) for lo, hi in draws]


def test_scale_test_peak_memory_flat_in_n_samples(tmp_path):
    # the traced peak is one block's draw, not the ensembles: at 8 blocks of
    # samples it is within 10 % of the peak at 2 blocks (whole ensembles
    # made it about 4 times as large)
    import tracemalloc

    from roughlaplace.laplace import _MC_BLOCK

    def peak(blocks):
        raw = {"kind": "scale-test", "H": 0.4, "grid_size": 65, "d": 2,
               "n_samples": blocks * _MC_BLOCK, "seed": 3}
        tracemalloc.start()
        try:
            run(ExperimentConfig.from_dict(raw), tmp_path / str(blocks))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 1.1 * peak(2)


def _scale_areas_vs_lifts(tmp_path, monkeypatch, raw, block, mc_block=None):
    """Run the scale-test kind with ``_SCALE_BLOCK = block`` (and sampling
    blocks of ``mc_block`` paths, when given) and check its areas against
    the dense per-path route scale_rough(lift(p, 2), c, H) bit for bit."""
    import roughlaplace.cli as cli_mod
    from roughlaplace.fbm import sample_fbm_ensemble
    from roughlaplace.roughpath import lift, scale_rough

    seen = []
    ks_2samp_exact = cli_mod.ks_2samp_exact

    def capture(a, b):
        seen.append((a, b))
        return ks_2samp_exact(a, b)

    monkeypatch.setattr(cli_mod, "ks_2samp_exact", capture)
    monkeypatch.setattr(cli_mod, "_SCALE_BLOCK", block)
    if mc_block is not None:
        monkeypatch.setattr(cli_mod, "_MC_BLOCK", mc_block)
    cfg = ExperimentConfig.from_dict({"kind": "scale-test", "H": 0.4, **raw})
    out = run(cfg, tmp_path)
    assert json.loads(read(out, "manifest.json"))["status"] == "complete"
    (scaled, plain), = seen

    def area(X):
        X2 = X.increment(0, -1)[1]
        return 0.5 * (X2[0, 1] - X2[1, 0])

    grid = TimeGrid.uniform(raw["grid_size"])
    n, d, seed, c = raw["n_samples"], raw["d"], raw["seed"], raw["c"]
    e1 = sample_fbm_ensemble(grid, 0.4, d, n, seed)
    e2 = sample_fbm_ensemble(grid, 0.4, d, n, seed + 1)
    assert np.array_equal(
        scaled, [area(scale_rough(lift(SampledPath(grid, v), 2), c, 0.4)) for v in e1]
    )
    assert np.array_equal(plain, [area(lift(SampledPath(grid, v), 2)) for v in e2])


def test_scale_test_areas_match_per_path_lifts(tmp_path, monkeypatch):
    # the blocked area sums equal the dense per-path route
    # scale_rough(lift(p, 2), c, H) bit for bit, across several blocks
    raw = {"grid_size": 33, "d": 2, "n_samples": 64, "seed": 12, "c": 0.25}
    _scale_areas_vs_lifts(tmp_path, monkeypatch, raw, 24)


@pytest.mark.parametrize(
    "grid_size, d, n_samples, c, block, mc_block",
    [
        # d = 3: the area still reads coordinates 0 and 1
        pytest.param(33, 3, 50, 0.5, 24, None, id="33-3-50-0.5-24"),
        # the shipped block size, a partial last block
        pytest.param(129, 3, 300, 0.75, 256, None, id="129-3-300-0.75-256"),
        # the full horizon, factor 1
        pytest.param(257, 2, 37, 1.0, 16, None, id="257-2-37-1.0-16"),
        # one full block
        pytest.param(129, 2, 40, 0.5, 40, None, id="129-2-40-0.5-40"),
        # 16-path sampling blocks, the last partial: the lifts are compared
        # across sampling-block boundaries
        pytest.param(33, 2, 50, 0.5, 8, 16, id="33-2-50-0.5-8-mc16"),
    ],
)
def test_scale_test_areas_match_per_path_lifts_grids(
    tmp_path, monkeypatch, grid_size, d, n_samples, c, block, mc_block
):
    raw = {"grid_size": grid_size, "d": d, "n_samples": n_samples, "seed": 5, "c": c}
    _scale_areas_vs_lifts(tmp_path, monkeypatch, raw, block, mc_block)


@pytest.mark.parametrize("d", [2, 3])
def test_endpoint_areas_match_running_signature(monkeypatch, d):
    # paths that start away from 0, so the x_0 (x) S^1 term counts too
    import roughlaplace.cli as cli_mod
    from roughlaplace.roughpath import running_signature

    monkeypatch.setattr(cli_mod, "_SCALE_BLOCK", 8)
    rng = np.random.default_rng(d)
    values = rng.standard_normal((21, 17, d)).cumsum(axis=1)
    for m, factor in ((16, 1.0), (5, 1.7), (1, 0.3)):
        S2 = factor * running_signature(values, 2)[1][:, m]
        want = 0.5 * (S2[:, 0, 1] - S2[:, 1, 0])
        assert np.array_equal(cli_mod._endpoint_areas(values, m, factor), want)


class TestKs2sampExact:
    """The equal-size exact KS test against ``scipy.stats.ks_2samp``."""

    @staticmethod
    def assert_same(a, b, method="auto"):
        from scipy.stats import ks_2samp

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = ks_2samp(a, b, method=method)
        got = ks_2samp_exact(a, b)
        if caught:
            # at D = 1/n scipy's exact sum can round above 1, and scipy falls
            # back to an asymptotic formula; the exact p-value there is 1
            assert "Exact calculation unsuccessful" in str(caught[0].message)
            assert got == (float(want.statistic), 1.0) == (1 / a.size, 1.0)
        else:
            assert got == (float(want.statistic), float(want.pvalue))

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 333, 4000])
    def test_random_samples(self, n):
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.05, 0.3, 2.0):
            self.assert_same(rng.standard_normal(n), rng.standard_normal(n) + shift)

    def test_exact_above_scipy_auto_limit(self):
        # above n = 10000 scipy's default turns asymptotic; the test here
        # stays exact and agrees with scipy's exact method
        n = 12000
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.05, 0.3):
            self.assert_same(rng.standard_normal(n), rng.standard_normal(n) + shift,
                             method="exact")

    @pytest.mark.parametrize("n", [5, 40, 1000])
    def test_ties(self, n):
        # few distinct values: both samples tie within and across
        rng = np.random.default_rng(n + 1)
        for levels in (2, 3, 10):
            self.assert_same(rng.integers(0, levels, n).astype(float),
                             rng.integers(0, levels, n).astype(float))

    def test_one_step_gap_has_p_one(self):
        a = np.arange(5.0)
        assert ks_2samp_exact(a, a + 0.5) == (0.2, 1.0)
        self.assert_same(a, a + 0.5)

    def test_h_zero(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(30)
        self.assert_same(a, rng.permutation(a))
        assert ks_2samp_exact(a, a[::-1]) == (0.0, 1.0)

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError, match="equal nonzero sizes, got 3 and 4"):
            ks_2samp_exact(np.zeros(3), np.zeros(4))


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
    assert_stage_timings(out, {"sample_s", "slope_m1_s", "slope_m2_s"})


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


def test_run_pipeline_quick():
    # the demo script reads its names from the package root, so a dropped
    # re-export fails here; one BLAS thread keeps the run small
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_pipeline.py"), "--quick"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "== expansion fit ==" in proc.stdout


# --- the config schema ------------------------------------------------------
# Every case below goes through ``main`` and must exit 2 naming the key
# before the output root exists.

def _rejected(tmp_path, capsys, raw, *names):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    rc = main([raw["kind"], "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("invalid config:") and "Traceback" not in err
    for name in names:
        assert repr(name) in err or f"{name} must" in err, (name, err)
    assert not (tmp_path / "runs").exists()
    return err


# one value per key that its check rejects for every kind reading the key
OUT_OF_RANGE = {
    "H": 0.7, "p": -1.0, "q": 0, "grid_size": 1, "n": 0, "d": 0, "seed": -1,
    "eps_list": [0.0], "truncation": 97, "n_samples": 0, "field_name": "tanhh",
    "field_params": {"coef_seed": -1}, "functional_name": "endpoint",
    "functional_params": {"v": "x"},
    "weight_name": "two", "weight_params": {"v": [1.0]}, "level": 4, "n_max": 0, "p_list": [0.5],
    "c": 1.5, "N_list": [2, 3], "gamma_coeffs": [], "alpha0_samples": 1, "hessian_N": 97,
    "fit_order": -1, "use_shift": 1,
}


def _schema_cases():
    from roughlaplace.cli import KEYS

    for key in KEYS:
        wrong_type = 1 if key.name.endswith("_name") else "1"
        for kind in key.kinds:
            for label, value in (("type", wrong_type), ("range", OUT_OF_RANGE.get(key.name))):
                yield pytest.param(kind, key.name, value, id=f"{kind}-{key.name}-{label}")


def test_out_of_range_table_covers_every_key():
    from roughlaplace.cli import KEYS

    assert set(OUT_OF_RANGE) == {key.name for key in KEYS}


@pytest.mark.parametrize("kind, name, value", _schema_cases())
def test_every_key_checked_from_the_table(tmp_path, capsys, kind, name, value):
    # parameter errors name their config key as a prefix
    err = _rejected(tmp_path, capsys, {"kind": kind, "grid_size": 33, name: value})
    assert name in err


# (kind, a key it reads, that key misspelled)
MISSPELLED = [
    ("simulate", "n_samples", "n_sample"), ("lift", "level", "levle"), ("pvar", "p_list", "plist"),
    ("rde", "eps_list", "eps_lst"), ("taylor-slope", "gamma_coeffs", "gamma_coefs"),
    ("hessian", "N_list", "N_lst"), ("laplace", "hessian_N", "hesian_N"),
    ("scale-test", "n_samples", "nsamples"),
]


def test_misspelled_cases_cover_every_kind():
    assert sorted(kind for kind, *_ in MISSPELLED) == sorted(EXPERIMENT_KINDS)


@pytest.mark.parametrize("kind, key, typo", MISSPELLED)
def test_misspelled_key_names_nearest(tmp_path, capsys, kind, key, typo):
    _rejected(tmp_path, capsys, {"kind": kind, typo: 1}, typo, key)


def _reading(params_key):
    from roughlaplace.cli import KEYS

    return [kind for key in KEYS if key.name == params_key for kind in key.kinds]


@pytest.mark.parametrize("spec, raw, typo, nearest", [
    pytest.param(spec, raw, typo, nearest, id=f"{kind}-{spec}")
    for spec, raw, typo, nearest in [
        ("field", {"field_params": {"coef_sed": 3}}, "coef_sed", "coef_seed"),
        ("field", {"field_name": "rotation", "n": 2, "d": 2, "field_params": {"kapa": 1.0}},
         "kapa", "kappa"),
        ("functional", {"functional_params": {"vv": [1.0]}}, "vv", "v"),
        ("weight", {"weight_name": "endpoint_linear", "weight_params": {"vv": [1.0]}},
         "vv", "v"),
    ]
    for kind in _reading(f"{spec}_params")
    for raw in [{"kind": kind, **raw}]
])
def test_misspelled_param_names_nearest(tmp_path, capsys, spec, raw, typo, nearest):
    err = _rejected(tmp_path, capsys, {"grid_size": 33, **raw}, typo, nearest)
    assert f"{spec}_params:" in err


@pytest.mark.parametrize("kind, raw, key", [
    ("laplace", {"hesian_N": 4}, "hesian_N"),
    ("rde", {"field_params": {"coef_sed": 3}}, "coef_sed"),
    ("hessian", {"functional_name": "endpoint_quadratic",
                 "functional_params": {"Q": [[0.4]], "vv": [1.0]}}, "vv"),
    ("laplace", {"weight_name": "endpoint_linear", "weight_params": {"vv": [1.0]}}, "vv"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("simulate", {"seed": -3}, "seed"),
    ("rde", {"eps_list": ["0.5"]}, "eps_list"),
    ("rde", {"eps_list": []}, "eps_list"),
    ("hessian", {"gamma_coeffs": [[0.2], [0.3, 0.1]]}, "gamma_coeffs"),
    ("rde", {"field_name": "rotation", "n": 3, "d": 2}, "n"),
    ("simulate", {"level": 7}, "level"),
    # n inside field_params built a 3-dimensional field under the config's n = 1
    ("rde", {"n": 1, "field_params": {"n": 3}}, "field_params"),
    ("taylor-slope", {"eps_list": [0.5, 0.35, 0.25]}, "eps_list"),
])
def test_silently_wrong_configs_rejected(tmp_path, capsys, kind, raw, key):
    # configs that ran with a key ignored, or failed only after the manifest
    _rejected(tmp_path, capsys, {"kind": kind, "grid_size": 33, **raw}, key)


def test_extra_rejects_a_key_outside_the_table():
    cfg = ExperimentConfig.from_dict({"kind": "pvar"})
    assert cfg.extra("n_max") == 16 and "n_max" not in cfg.extras  # no default leaks
    for key in ("level", "grid_size", "nope"):
        with pytest.raises(KeyError, match=key):
            cfg.extra(key)


def test_taylor_slope_default_eps_list(tmp_path):
    # without eps_list the kind runs on the slope fit's own ladder 2^-3 .. 2^-9,
    # and its hash is that of the config that spells the ladder out
    raw = {"kind": "taylor-slope", "grid_size": 33, "n_samples": 2, "seed": 2}
    ladder = [2.0**-j for j in range(3, 10)]
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.eps_list == ladder
    spelled_out = ExperimentConfig.from_dict({**raw, "eps_list": ladder})
    assert cfg.config_hash() == spelled_out.config_hash()
    out = run(cfg, tmp_path)
    slopes = json.loads(read(out, "slopes.json"))
    assert slopes["m1"]["eps_list"] == slopes["m2"]["eps_list"] == ladder
    assert json.loads(read(out, "manifest.json"))["config"]["eps_list"] == ladder


def test_builders_name_the_nearest():
    with pytest.raises(ValueError, match="unknown field 'tanhh'; nearest: 'tanh'"):
        make_field("tanhh", {"n": 1, "d": 1})
    with pytest.raises(ValueError, match="has no parameter 'scal'; nearest: 'scale'"):
        make_field("tanh", {"n": 1, "d": 1, "scal": 0.3})
    with pytest.raises(ValueError, match="unknown functional 'endpoint_lin'; nearest: "
                                         "'endpoint_linear'"):
        make_functional("endpoint_lin", {"v": [1.0]})
    with pytest.raises(ValueError, match="functional 'zero' has no parameter 'v'$"):
        make_functional("zero", {"v": [1.0]})
    with pytest.raises(ValueError, match="n must be 2; got 3"):
        make_field("rotation", {"n": 3, "d": 2})


def test_schema_subcommand_documents_every_key(tmp_path):
    from roughlaplace.cli import KEYS

    target = tmp_path / "SCHEMA.md"
    assert main(["schema", "--out", str(target)]) == 0
    text = target.read_text().split("# Config keys", 1)[1]
    for key in KEYS:
        assert f"| `{key.name}` |" in text and f"must {key.what} |" in text


# config_hash of every shipped config and of the digest script's inline
# configs: the schema must not move a hash (a leaked default would)
PINNED_HASHES = {
    "hessian_tanh": "2161b23f0ce1ae30", "laplace_gaussian": "d3c97a735fd6e0cd",
    "scale_test_h04": "c07072f40fd0d595", "simulate_h04": "ba757cd629d4546e",
    "taylor_slopes_h04": "e9451744c20d0142", "laplace_gaussian_v": "d90356283f3d6afc",
    "lift_h03": "c497b1f8b9bcc577", "rde_tanh": "0ae43c73a24b5e0d",
    "pvar_cosine": "9a5d59bdb4ba2157", "scale_h03": "4ec0ecdec002016b",
    "laplace_tanh": "08efadadd879e595",
}


def test_pinned_config_hashes():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    hashes = {}
    for name, raw in digests.configs().items():
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.validate() == [], name
        hashes[name] = cfg.config_hash()
    assert hashes == PINNED_HASHES
