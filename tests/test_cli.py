import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from rosdos import cli, storage
from rosdos.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from rosdos.evaluation import baseline_tsvd, summarize
from rosdos.pipeline import Diagnostics, PipelineConfig, rosdos
from rosdos.synth import ManifoldSpec, NoiseSpec, make_dataset


def run(argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_m1_gaussian_alpha_one_msnr(self, tmp_path, capsys, m1_gaussian_msnr):
        code = run(
            ["simulate", "--manifold", "m1", "--p", 200, "--n", 5000,
             "--noise", "gaussian", "--alpha", 1, "--seed", 7, "--out", tmp_path]
        )
        assert code == EXIT_OK
        meta = storage.load_json(tmp_path / "meta.json")
        assert abs(meta["msnr_db"] - m1_gaussian_msnr(200, 1.0)) <= 2.0
        assert "mSNR" in capsys.readouterr().out

    def test_separable_alpha_half_msnr(self, tmp_path):
        code = run(
            ["simulate", "--manifold", "m1", "--p", 200, "--n", 5000,
             "--noise", "separable", "--alpha", 0.5, "--seed", 7, "--out", tmp_path]
        )
        assert code == EXIT_OK
        meta = storage.load_json(tmp_path / "meta.json")
        assert abs(meta["msnr_db"] - 3.5) <= 2.0

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["simulate", "--manifold", "m3", "--p", 20, "--n", 200,
                 "--noise", "gaussian", "--alpha", 0.5, "--seed", 3, "--out", out])
        for name in ("clean.csv", "noisy.csv", "latent.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_outputs_complete(self, tmp_path):
        run(["simulate", "--manifold", "m1", "--p", 20, "--n", 100,
             "--noise", "gaussian", "--alpha", 1, "--seed", 0, "--out", tmp_path])
        clean = storage.load_matrix(tmp_path / "clean.csv")
        noisy = storage.load_matrix(tmp_path / "noisy.csv")
        latent = storage.load_matrix(tmp_path / "latent.csv")
        assert clean.shape == noisy.shape == (20, 100)
        assert latent.shape == (1, 100)

    def test_bad_flags_exit_two(self, tmp_path):
        assert run(
            ["simulate", "--manifold", "m1", "--p", 3, "--n", 50,
             "--noise", "gaussian", "--alpha", 1, "--out", tmp_path]
        ) == EXIT_USAGE

    def test_one_sample_exit_two(self, tmp_path, capsys):
        assert run(
            ["simulate", "--manifold", "m3", "--p", 10, "--n", 1,
             "--noise", "gaussian", "--out", tmp_path / "x"]
        ) == EXIT_USAGE
        assert "at least two samples" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("flags,message", [
        (["--n", 0, "--noise", "gaussian"], "n must be >= 2"),
        (["--n", -5, "--noise", "separable"], "n must be >= 2"),
        (["--n", 50, "--noise", "separable", "--seed", -1],
         "manifold seed must be an integer >= 0, got -1"),
    ])
    def test_bad_size_or_seed_exit_two(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        assert run(["simulate", "--manifold", "m3", "--p", 10, *flags,
                    "--out", out]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    # 20 ** 300 overflows a float
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "300"])
    def test_bad_alpha_exit_two(self, tmp_path, capsys, alpha):
        assert run(
            ["simulate", "--manifold", "m1", "--p", 20, "--n", 30,
             "--noise", "separable", "--alpha", alpha, "--out", tmp_path]
        ) == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "noisy.csv").exists()


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    run(["simulate", "--manifold", "m1", "--p", 60, "--n", 300,
         "--noise", "gaussian", "--alpha", 1, "--seed", 0, "--out", out])
    return out


class TestDenoise:
    def test_k_one_identity(self, tmp_path, dataset):
        out = tmp_path / "den"
        code = run(
            ["denoise", "--input", dataset / "noisy.csv", "--mode", "shrink-only",
             "--K", 50, "--k", 1, "--out", out]
        )
        assert code == EXIT_OK
        noisy = storage.load_matrix(dataset / "noisy.csv")
        denoised = storage.load_matrix(out / "denoised.csv")
        assert np.array_equal(noisy, denoised)

    def test_roseland_smoke(self, tmp_path, dataset):
        out = tmp_path / "den"
        code = run(
            ["denoise", "--input", dataset / "noisy.csv", "--mode", "roseland",
             "--K", 50, "--k", 10, "--out", out]
        )
        assert code == EXIT_OK
        diag = storage.load_json(out / "diagnostics.json")
        assert diag["config"]["global_mode"] == "roseland"
        assert "timings" in diag and "config" in diag

    def test_invalid_k_exit_two(self, tmp_path, dataset, capsys):
        code = run(
            ["denoise", "--input", dataset / "noisy.csv", "--K", 50, "--k", 0,
             "--out", tmp_path / "x"]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "k" in err and "K" in err
        code = run(
            ["denoise", "--input", dataset / "noisy.csv", "--K", 50, "--k", 5,
             "--h", "inf", "--out", tmp_path / "x"]
        )
        assert code == EXIT_USAGE
        assert "h must be" in capsys.readouterr().err
        for t in ("nan", "-1", "inf"):
            code = run(
                ["denoise", "--input", dataset / "noisy.csv", "--K", 50, "--k", 5,
                 "--t", t, "--out", tmp_path / "x"]
            )
            assert code == EXIT_USAGE
            assert "t must be positive and finite" in capsys.readouterr().err
        for mode in ("roseland", "global-shrink", "shrink-only"):
            code = run(
                ["denoise", "--input", dataset / "noisy.csv", "--mode", mode,
                 "--K", 50, "--k", 5, "--seed", -1, "--out", tmp_path / "x"]
            )
            assert code == EXIT_USAGE
            assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_every_flag_reaches_its_config_field(self, tmp_path, dataset):
        out = tmp_path / "den"
        code = run(
            ["denoise", "--input", dataset / "noisy.csv", "--mode", "global-shrink",
             "--h", 2.5, "--gamma", 0.4, "--q", 5, "--t", 2, "--K", 40, "--k", 7,
             "--k-imp", 8, "--seed", 3, "--out", out]
        )
        assert code == EXIT_OK
        expected = PipelineConfig(
            global_mode="global-shrink", h=2.5, gamma=0.4, q_prime=5, t=2.0,
            K=40, k_local=7, k_imp=8, seed=3,
        )
        for name, value in dataclasses.asdict(expected).items():
            assert value != getattr(PipelineConfig(), name), name
        diag = storage.load_json(out / "diagnostics.json")
        assert diag["config"] == dataclasses.asdict(expected)

    def test_no_pipeline_flag_records_the_config_defaults(self, tmp_path, dataset):
        out = tmp_path / "den"
        assert run(["denoise", "--input", dataset / "noisy.csv",
                    "--out", out]) == EXIT_OK
        diag = storage.load_json(out / "diagnostics.json")
        assert diag["config"] == dataclasses.asdict(PipelineConfig())

    def test_underflowing_diffusion_time_exit_two(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(["simulate", "--manifold", "m1", "--p", 60, "--n", 400,
             "--noise", "gaussian", "--alpha", 0.5, "--seed", 0, "--out", data])
        code = run(["denoise", "--input", data / "noisy.csv", "--K", 30,
                    "--t", "1e6", "--out", tmp_path / "x"])
        assert code == EXIT_USAGE
        assert "underflows" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_too_few_landmarks_exit_two(self, tmp_path, dataset, capsys):
        code = run(["denoise", "--input", dataset / "noisy.csv", "--K", 30,
                    "--k", 5, "--gamma", 0.05, "--out", tmp_path / "x"])
        assert code == EXIT_USAGE
        assert "landmark count round(300^0.05) = 1 < 2" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_missing_input_exit_one(self, tmp_path):
        assert run(
            ["denoise", "--input", tmp_path / "nope.csv", "--out", tmp_path]
        ) == EXIT_IO


class TestEvaluate:
    def test_clean_vs_clean(self, tmp_path, dataset, capsys):
        out = tmp_path / "m.json"
        code = run(["evaluate", "--clean", dataset / "clean.csv",
                    "--denoised", dataset / "clean.csv", "--out", out])
        assert code == EXIT_OK
        assert storage.load_json(out)["nrmse_median"] == 0.0

    def test_do_nothing_matches_noise_ratio(self, tmp_path, dataset):
        out = tmp_path / "m.json"
        run(["evaluate", "--clean", dataset / "clean.csv",
             "--denoised", dataset / "noisy.csv",
             "--noisy", dataset / "noisy.csv", "--out", out])
        rep = storage.load_json(out)
        assert rep["nrmse_median"] == pytest.approx(
            rep["noise_ratio_median"], abs=1e-12
        )

    def test_round_trip_matches_memory(self, tmp_path, dataset):
        from rosdos.evaluation import summarize

        out = tmp_path / "m.json"
        run(["evaluate", "--clean", dataset / "clean.csv",
             "--denoised", dataset / "noisy.csv",
             "--noisy", dataset / "noisy.csv", "--out", out])
        clean = storage.load_matrix(dataset / "clean.csv")
        noisy = storage.load_matrix(dataset / "noisy.csv")
        rep = summarize(clean, noisy, noise=noisy - clean)
        disk = storage.load_json(out)
        assert np.allclose(disk["nrmse"], rep["nrmse"], atol=1e-12)

    def test_metrics_json_is_the_summarize_dict(self, tmp_path, dataset):
        out = tmp_path / "m.json"
        run(["evaluate", "--clean", dataset / "clean.csv",
             "--denoised", dataset / "noisy.csv",
             "--noisy", dataset / "noisy.csv", "--out", out])
        clean = storage.load_matrix(dataset / "clean.csv")
        noisy = storage.load_matrix(dataset / "noisy.csv")
        disk = storage.load_json(out)
        assert disk == summarize(clean, noisy, noise=noisy - clean)
        assert set(disk) == {"nrmse", "nrmse_median", "nrmse_mean",
                             "noise_ratio_median", "msnr_db"}

    def test_shape_mismatch_exit_two(self, tmp_path, dataset):
        small = tmp_path / "small.csv"
        storage.save_matrix(small, np.ones((3, 4)))
        assert run(
            ["evaluate", "--clean", dataset / "clean.csv",
             "--denoised", small, "--out", tmp_path / "m.json"]
        ) == EXIT_USAGE


    def test_noisy_shape_mismatch_exit_two(self, tmp_path, dataset, capsys):
        small = tmp_path / "small.csv"
        storage.save_matrix(small, np.ones((3, 4)))
        assert run(
            ["evaluate", "--clean", dataset / "clean.csv",
             "--denoised", dataset / "noisy.csv", "--noisy", small,
             "--out", tmp_path / "m.json"]
        ) == EXIT_USAGE
        assert "shape mismatch: clean (60, 300) vs noisy (3, 4)" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m.json")


class TestExperiment:
    def small_config(self, tmp_path):
        cfg = {
            "p": 60, "n": 400,
            "manifolds": ["m1"], "noises": ["gaussian"], "alphas": [1.0, 0.5],
            "pipeline": {"K": 30, "k_local": 5},
            "baselines": ["raw"],
            "seed": 11,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_reduced_twelve_cell_grid(self, tmp_path):
        out = tmp_path / "grid"
        cfg = {
            "p": 100, "n": 1000,
            "pipeline": {"K": 50, "k_local": 10},
            "seed": 5,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_OK
        with open(out / "summary.csv") as fh:
            lines = fh.read().strip().splitlines()
        # 2 manifolds x 2 noises x 3 alphas x 4 methods + header
        assert len(lines) == 1 + 12 * 4
        keys = set()
        for line in lines[1:]:
            manifold, noise, alpha, method = line.split(",")[:4]
            keys.add((manifold, noise, alpha, method))
        assert len(keys) == 48
        assert not os.path.exists(out / "failures.json")

    def test_rerun_identical_summary(self, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            path = self.small_config(tmp_path)
            assert run(["experiment", "--config", path, "--out", out]) == EXIT_OK
        s1 = (outs[0] / "summary.csv").read_bytes()
        s2 = (outs[1] / "summary.csv").read_bytes()
        assert s1 == s2

    def test_colliding_cell_names_exit_two(self, tmp_path, capsys):
        out = tmp_path / "grid"
        cfg = {
            "p": 60, "n": 400,
            "manifolds": ["m1"], "noises": ["gaussian"],
            "alphas": [1.0 / 3.0, 0.33333334],
            "pipeline": {"K": 30, "k_local": 5},
            "baselines": ["raw"], "seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_USAGE
        assert "m1-gaussian-0.333333" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("change,message", [
        ({"pipeline": {"K": 400, "k_local": 5}}, "K (400) < n (400)"),
        ({"pipeline": {"K": 30, "k_local": 5, "kk": 3}}, "unknown pipeline keys ['kk']"),
        ({"pipeline": {"K": 30, "k_local": 5, "seed": 3}}, "unknown pipeline keys ['seed']"),
        ({"baselines": ["raw", "svd"]}, "unknown baselines ['svd']"),
        ({"n": "400"}, "n must be an integer, got '400'"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"manifolds": "m1"}, "manifolds must be a JSON array, got 'm1'"),
        ({"manifolds": ["m2"]}, "unknown manifold kind 'm2'"),
        ({"alphas": ["0.5"]}, "alpha must be a real number, got '0.5'"),
        ({"noises": []}, "the experiment grid has no cells"),
        ({"pipeline": {"K": 30, "k_local": 5, "gamma": "0.5"}},
         "gamma must be a real number in (0, 1), got '0.5'"),
        ({"pipeline": {"K": 30, "k_local": 5, "t": -1}},
         "t must be positive and finite, got -1"),
        ({"pipeline": {"K": 30, "k_local": 5, "t": "1"}},
         "t must be positive and finite, got '1'"),
        ({"baseline": ["raw"]}, "unknown experiment keys ['baseline']"),
        ({"sed": 7}, "unknown experiment keys ['sed']"),
        ({"output_dir": "results/"}, "unknown experiment keys ['output_dir']"),
        ({"pipeline": []}, "pipeline must be an object, got []"),
        ({"pipeline": {"K": 30, "k_local": 5, "gamma": 0.05}},
         "landmark count round(400^0.05) = 1 < 2"),
        ({"p": 4}, "p must be >= 5, got 4"),
        ({"p": 4, "manifolds": ["m1", "m3"]}, "p must be >= 5, got 4"),
        ({"p": 12, "pipeline": {"K": 30, "k_local": 5, "global_mode": "shrink-only"}},
         "matrix too small: min(p,n)=12 must exceed 21"),
        ({"manifolds": [["m1"]]}, "unknown manifold kind ['m1']"),
        ({"alphas": [1.0, 200]}, "p ** alpha overflows: p=60, alpha=200"),
    ])
    def test_bad_config_exit_two_before_any_cell(
        self, tmp_path, monkeypatch, capsys, change, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "make_dataset", fail)
        out = tmp_path / "grid"
        path = self.small_config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("config", [[1, 2], "m1", 3])
    def test_config_not_an_object_exit_two(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "grid"
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"must hold a JSON object, got {type(config).__name__}" in err
        assert not os.path.exists(out)

    def test_baselines_share_one_shrinkage(self, tmp_path, monkeypatch):
        # tsvd and global-shrink reuse one whole-matrix shrinkage per cell, and
        # every report is summarize's dict computed outside the CLI, plus the
        # cell's config and wall-clock time
        out = tmp_path / "grid"
        cfg = {
            "p": 60, "n": 400,
            "manifolds": ["m1"], "noises": ["gaussian", "separable"], "alphas": [0.5],
            "pipeline": {"K": 30, "k_local": 5, "global_mode": "shrink-only"},
            "baselines": ["raw", "tsvd", "global-shrink"], "seed": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        calls = []
        real = cli.eoptshrink

        def counting(X, **kwargs):
            calls.append(X.shape)
            return real(X, **kwargs)

        monkeypatch.setattr(cli, "eoptshrink", counting)
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_OK
        assert calls == [(60, 400), (60, 400)]

        for noise in cfg["noises"]:
            seed = cli._cell_seed(cfg["seed"], f"m1-{noise}-0.5")
            ds = make_dataset(ManifoldSpec("m1", 60, 400, seed),
                              NoiseSpec(noise, 0.5, seed + 1))
            pcfg = PipelineConfig(**cfg["pipeline"], seed=seed)
            shrink = real(ds.noisy, k=pcfg.k_imp)
            expected = {
                "rosdos": rosdos(ds.noisy, pcfg)[0],
                "raw": ds.noisy,
                "tsvd": baseline_tsvd(ds.noisy, max(shrink.effective_rank, 1)),
                "global-shrink": shrink.denoised,
            }
            for method, est in expected.items():
                report = storage.load_json(
                    out / f"m1-{noise}-0.5" / f"report_{method}.json")
                config = {"method": method, **dataclasses.asdict(pcfg)}
                assert report.pop("config_echo") == config, (noise, method)
                assert report.pop("wallclock_seconds") >= 0.0, (noise, method)
                want = summarize(ds.clean, est, noise=ds.noise)
                assert report == want, (noise, method)

    def test_cell_diagnostics_written(self, tmp_path):
        # each cell records its run's notes; at master seed 4 the baseline
        # shrinkage of this cell reads rank 0
        out = tmp_path / "grid"
        cfg = {
            "p": 50, "n": 400,
            "manifolds": ["m1"], "noises": ["gaussian"], "alphas": [0],
            "pipeline": {"q_prime": 50, "K": 30, "k_local": 5},
            "baselines": ["raw", "tsvd", "global-shrink"], "seed": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_OK
        diag = storage.load_json(out / "m1-gaussian-0" / "diagnostics.json")
        assert diag["embedding_dim"] == 19
        assert any("q_prime=50 to 19" in w for w in diag["warnings"])
        assert diag["baseline_warnings"] == ["effective rank 0: denoised matrix is zero"]
        assert diag["config"]["seed"] == cli._cell_seed(4, "m1-gaussian-0")
        assert len(diag["local_ranks"]) == 400

        # without a shrinking baseline there is no baseline_warnings key
        small = tmp_path / "small"
        assert run(["experiment", "--config", self.small_config(tmp_path),
                    "--out", small]) == EXIT_OK
        diag = storage.load_json(small / "m1-gaussian-1" / "diagnostics.json")
        assert "baseline_warnings" not in diag and diag["warnings"] == []

    def test_failing_cell_recorded(self, tmp_path, monkeypatch):
        # a cell that fails at run time is recorded, and the others still run
        real = cli.make_dataset

        def fail_m1(mspec, nspec):
            if mspec.kind == "m1":
                raise ValueError("m1 sampler failed")
            return real(mspec, nspec)

        monkeypatch.setattr(cli, "make_dataset", fail_m1)
        out = tmp_path / "grid"
        cfg = {
            "p": 60, "n": 400,
            "manifolds": ["m1", "m3"], "noises": ["gaussian"], "alphas": [1.0],
            "pipeline": {"K": 30, "k_local": 5},
            "baselines": ["raw"], "seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_OK
        failures = storage.load_json(out / "failures.json")
        assert failures == [
            {"cell": "m1-gaussian-1", "error": "m1 sampler failed"}
        ]
        assert os.path.exists(out / "m3-gaussian-1" / "report_raw.json")

    def test_small_p_roseland_raw_only_still_runs(self, tmp_path):
        # no whole-matrix shrinkage, so p=12 passes the up-front checks; every
        # local patch is too small to shrink and falls back
        out = tmp_path / "grid"
        cfg = {
            "p": 12, "n": 400,
            "manifolds": ["m3"], "noises": ["gaussian"], "alphas": [1.0],
            "pipeline": {"K": 30, "k_local": 5},
            "baselines": ["raw"], "seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["experiment", "--config", path, "--out", out]) == EXIT_OK
        assert not os.path.exists(out / "failures.json")
        diag = storage.load_json(out / "m3-gaussian-1" / "diagnostics.json")
        assert diag["fallbacks"] == 400


class TestStorage:
    def test_matrix_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 13)) * 10.0 ** rng.integers(-8, 8, (7, 13))
        path = tmp_path / "m.csv"
        storage.save_matrix(path, M, {"note": "test"})
        back = storage.load_matrix(path)
        assert np.array_equal(back, M)

    def test_header_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# comment\n\n1.0,2.0\n3.0,4.0\n")
        M = storage.load_matrix(path)
        assert np.array_equal(M, [[1.0, 3.0], [2.0, 4.0]])
        path.write_text("  # indented\n \n1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(storage.load_matrix(path), M)

    def test_saved_bytes_match_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 9)) * 10.0 ** rng.integers(-300, 300, (5, 9))
        M[0, 0], M[1, 1], M[2, 2] = -0.0, 5e-324, np.finfo(float).max
        path = tmp_path / "m.csv"
        storage.save_matrix(path, M, {"note": "x"})
        expected = "# note: x\n" + "".join(
            ",".join(f"{v:.17g}" for v in col) + "\n" for col in M.T
        )
        assert path.read_bytes() == expected.encode()
        assert np.array_equal(storage.load_matrix(path), M)

    @pytest.mark.parametrize("text", ["", "# a: 1\n# b: 2\n", "\n  \n"])
    def test_no_data_rows_rejected(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="contains no data rows"):
                storage.load_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            storage.load_matrix(path)

    @staticmethod
    def report_record():
        rng = np.random.default_rng(2)
        S = rng.standard_normal((20, 2000))
        noise = 0.3 * rng.standard_normal(S.shape)
        config = {"method": "raw", **dataclasses.asdict(PipelineConfig())}
        return {**summarize(S, S + noise, noise), "wallclock_seconds": 1.25,
                "config_echo": config}

    @staticmethod
    def diagnostics_record():
        diag = Diagnostics(
            global_effective_rank=None,
            local_ranks=[1, 2, -1, 3] * 50, fallbacks=1,
            fallback_reasons={"matrix too small: min(p,n)=3 must exceed 21": 1},
            embedding_dim=4, timings={"recovery": 0.125, "neighborhoods": 1e-3},
            warnings=["embedding dimension cut from q_prime=50 to 4"])
        return {**dataclasses.asdict(diag),
                "config": dataclasses.asdict(PipelineConfig(h=0.5)),
                "wallclock_seconds": 2.5}

    @pytest.mark.parametrize("make", ["report_record", "diagnostics_record"])
    def test_json_bytes_match_json_dump(self, tmp_path, make):
        record = getattr(self, make)()
        path = tmp_path / "r.json"
        storage.save_json(path, record)
        reference = tmp_path / "ref.json"
        with open(reference, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()
        assert storage.load_json(path) == record
