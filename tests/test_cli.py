"""End-to-end tests for the command-line surface.

Commands run in-process through cli.main so exit codes and outputs are
checked directly; the subprocess tests run the entry point declared in
pyproject.toml the way the installed console-script wrapper does.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
from cvgfa import cli, engine, io, metrics
from cvgfa.errors import UsageError
from cvgfa.model import FitOptions, Hyperparameters, VariationalState, _keep_rows


def run_cli(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim1_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sim1"
    assert run_cli("simulate", "sim1", "--n", 20, "--seed", 3, "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def sim1_fit(tmp_path_factory, sim1_dataset):
    out = tmp_path_factory.mktemp("fit") / "run"
    code = run_cli(
        "fit", sim1_dataset, "--k", 7, "--restarts", 2, "--seed", 11,
        "--max-sweeps", 25, "--out", out,
    )
    assert code == 0
    return out


# manifests that every command reading one rejects (exit 3), by id
MALFORMED_MANIFESTS = [
    ("no-n_samples", lambda m: m.pop("n_samples")),
    ("text-n_samples", lambda m: m.update(n_samples="20")),
    ("text-group", lambda m: m.update(groups=["group_0.csv"])),
    ("text-n_columns", lambda m: m["groups"][0].update(n_columns="abc")),
    ("number-file", lambda m: m["groups"][0].update(data_file=5)),
    ("zero-n_samples", lambda m: m.update(n_samples=0)),
    ("duplicate-name", lambda m: m["groups"][2].update(name=m["groups"][0]["name"])),
    ("zero-n_columns", lambda m: m["groups"][1].update(n_columns=0)),
]


class TestSimulate:
    def test_writes_full_directory(self, sim1_dataset):
        data, manifest = io.read_dataset(sim1_dataset)
        assert data.n_groups == 4
        assert data.n_samples == 20
        # --d defaults to n columns for every group
        assert all(x.shape == (20, 20) for x in data.groups)
        assert manifest["generator"]["kind"] == "sim1"
        assert manifest["generator"]["seed"] == 3
        assert manifest["generator"]["loading_variance"] == 4.0

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "sim2", "--n", 15, "--seed", 6, "--out", out) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dims_flag(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli(
            "simulate", "sim1", "--n", 10, "--d", "8,6,4,5", "--out", out
        ) == 0
        data, _ = io.read_dataset(out)
        assert [x.shape[1] for x in data.groups] == [8, 6, 4, 5]

    def test_single_dim_replicated(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli("simulate", "sim1", "--n", 10, "--d", "7", "--out", out) == 0
        data, _ = io.read_dataset(out)
        assert [x.shape[1] for x in data.groups] == [7, 7, 7, 7]

    def test_pattern_file_spec(self, tmp_path):
        from cvgfa.simdata import simulation1_pattern

        pfile = tmp_path / "pattern.json"
        io.write_pattern(pfile, simulation1_pattern())
        out = tmp_path / "ds"
        assert run_cli("simulate", pfile, "--n", 8, "--out", out) == 0
        _, manifest = io.read_dataset(out)
        assert manifest["generator"]["kind"] == "custom"

    def test_bad_dims_usage_error(self, tmp_path):
        code = run_cli(
            "simulate", "sim1", "--n", 10, "--d", "8,oops", "--out", tmp_path / "x"
        )
        assert code == 2

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("simulate", "sim1", "--n", 10, "--seed", -1, "--out", out) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
        assert not out.exists()


class TestFit:
    def test_restart_layout(self, sim1_fit):
        agg = json.loads((sim1_fit / "aggregate.json").read_text())
        assert agg["seeds"] == [11, 12]
        assert agg["summary"]["n_ok"] == 2
        for seed in (11, 12):
            rdir = sim1_fit / f"restart_{seed}"
            assert (rdir / "checkpoint.json").is_file()
            assert (rdir / "trace.csv").is_file()

    def test_best_points_at_lowest_mse(self, sim1_fit):
        agg = json.loads((sim1_fit / "aggregate.json").read_text())
        best = json.loads((sim1_fit / "best.json").read_text())
        mses = {r["seed"]: r["train_mse"] for r in agg["restarts"]}
        assert best["train_mse"] == min(mses.values())
        assert mses[best["seed"]] == best["train_mse"]
        state, hyper, info = io.read_checkpoint(sim1_fit / best["checkpoint"])
        assert hyper.K == 7
        assert best["train_mse"] == info["fit"]["train_mse"]

    def test_max_sweeps_one_gives_one_trace_row(self, tmp_path, sim1_dataset):
        out = tmp_path / "run"
        assert run_cli(
            "fit", sim1_dataset, "--k", 5, "--restarts", 1,
            "--max-sweeps", 1, "--out", out,
        ) == 0
        lines = (out / "restart_0" / "trace.csv").read_text().splitlines()
        assert lines[0] == io.TRACE_HEADER == "sweep,objective,train_mse,k_active"
        # one row, at the cap, which carries the fit's objective
        (row,) = [line.split(",") for line in lines[1:]]
        assert len(row) == 4 and row[0] == "1"
        assert math.isfinite(float(row[1]))

    def test_max_sweeps_caps_every_restart(self, tmp_path, sim1_dataset):
        out = tmp_path / "run"
        assert run_cli(
            "fit", sim1_dataset, "--k", 5, "--restarts", 2,
            "--max-sweeps", 2, "--out", out,
        ) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        # two sweeps, too few for the stopping rule
        for row in agg["restarts"]:
            assert row["sweeps_run"] == 2
            assert row["converged"] is False

    def test_a_looser_tol_stops_sooner(self, tmp_path, sim1_dataset):
        sweeps = {}
        for tol in (None, 1e-3):
            out = tmp_path / f"run-{tol}"
            flags = [] if tol is None else ["--tol", tol]
            assert run_cli(
                "fit", sim1_dataset, "--k", 5, "--restarts", 1, *flags, "--out", out
            ) == 0
            (row,) = json.loads((out / "aggregate.json").read_text())["restarts"]
            assert row["converged"] is True
            sweeps[tol] = row["sweeps_run"]
        assert sweeps[1e-3] < sweeps[None]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_non_finite_tol_usage_error(self, tmp_path, sim1_dataset, capsys, source):
        # at inf the rule would hold at once and call any fit converged;
        # JSON has no inf, but 1e999 reads as one
        out = tmp_path / "run"
        if source == "flag":
            args = [sim1_dataset, "--tol", "inf"]
        else:
            cfg = tmp_path / "config.json"
            text = json.dumps(
                {"dataset_path": str(sim1_dataset), "fit": {"rel_tolerance": math.inf}}
            )
            cfg.write_text(text.replace("Infinity", "1e999"))
            args = ["--config", cfg]
        assert run_cli("fit", *args, "--k", 5, "--restarts", 1, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: rel_tolerance must be positive and finite\n"
        )
        assert not out.exists()

    def test_trace_has_a_row_for_every_sweep(self, sim1_fit):
        agg = json.loads((sim1_fit / "aggregate.json").read_text())
        for row in agg["restarts"]:
            rdir = sim1_fit / row["restart_dir"]
            _, _, info = io.read_checkpoint(rdir / "checkpoint.json")
            fit = info["fit"]
            lines = (rdir / "trace.csv").read_text().splitlines()
            assert lines[0] == io.TRACE_HEADER
            rows = [line.split(",") for line in lines[1:]]
            # numbered from 1, one row per sweep
            assert len(rows) == row["sweeps_run"] == fit["sweeps_run"] > 1
            assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
            assert all(len(r) == 4 for r in rows)
            # only the last row has an objective, the one aggregate.json records
            assert all(r[1] == "" for r in rows[:-1])
            assert float(rows[-1][1]) == row["objective"] < 0.0
            # the row carries the exact MSE the checkpoint records; the
            # trace's last MSE is the sweep's estimate of it
            assert row["train_mse"] == fit["train_mse"]
            assert float(rows[-1][2]) == pytest.approx(fit["train_mse"], rel=1e-12)
            assert int(rows[-1][3]) == row["k_active"]

    def test_aborted_restart_names_its_sweep(
        self, monkeypatch, tmp_path, sim1_dataset
    ):
        sweep = cli.engine.sweep
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            # sweeps 1 to 3 run; the fourth fails
            if len(calls) == 4:
                raise cli.engine.NumericalError("planted", context={"group": 0})
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli.engine, "sweep", spy)
        out = tmp_path / "run"
        assert run_cli(
            "fit", sim1_dataset, "--k", 5, "--restarts", 1,
            "--max-sweeps", 4, "--out", out,
        ) == 4
        status = json.loads((out / "restart_0" / "status.json").read_text())
        # the sweep is its row number in trace.csv
        assert status["context"] == {"sweep": 4, "group": 0}

    def test_defaults_recorded_in_metadata(self, tmp_path):
        ds = tmp_path / "ds"
        assert run_cli(
            "simulate", "sim1", "--n", 15, "--d", "8,12,6,10", "--out", ds
        ) == 0
        out = tmp_path / "run"
        assert run_cli(
            "fit", ds, "--restarts", 1, "--max-sweeps", 2, "--out", out
        ) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        hp = agg["hyperparameters"]
        assert hp["kappa0"] == 1.0
        for name in ("c0", "d0", "e0", "f0", "g0", "h0"):
            assert hp[name] == 0.1
        # truncation defaults to min(n_samples, widest group)
        assert hp["K"] == 12
        assert agg["truncation_defaulted"] is True
        assert cli.DEFAULT_N_RESTARTS == 20

    def test_rerun_byte_identical(self, tmp_path, sim1_dataset):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_cli(
                "fit", sim1_dataset, "--k", 6, "--restarts", 1, "--seed", 4,
                "--max-sweeps", 10, "--out", out,
            ) == 0
        for name in ("trace.csv", "checkpoint.json"):
            assert (outs[0] / "restart_4" / name).read_bytes() == (
                outs[1] / "restart_4" / name
            ).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, sim1_dataset):
        out = tmp_path / "run"
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset_path": str(sim1_dataset),
                    "output_dir": str(out),
                    "hyper": {"K": 4},
                    "fit": {"max_sweeps": 50, "seed": 9},
                    "n_restarts": 1,
                }
            )
        )
        assert run_cli("fit", "--config", cfg, "--max-sweeps", 2) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [9]
        assert agg["hyperparameters"]["K"] == 4
        assert agg["truncation_defaulted"] is False
        # explicit flag wins over the config value
        assert agg["fit_options"]["max_sweeps"] == 2
        # two sweeps, at the flag's cap
        _, _, info = io.read_checkpoint(out / "restart_9" / "checkpoint.json")
        assert info["fit"]["sweeps_run"] == 2
        assert agg["restarts"][0]["sweeps_run"] == 2

    def test_unknown_config_key_usage_error(self, tmp_path, sim1_dataset):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset_path": str(sim1_dataset), "oops": 1}))
        assert run_cli("fit", "--config", cfg) == 2

    def test_active_factor_threshold_is_not_a_fit_key(
        self, tmp_path, sim1_dataset, capsys
    ):
        # which factors count as active is model.ACTIVE_MASS, not a knob
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset_path": str(sim1_dataset),
                    "fit": {"active_factor_threshold": 3.0},
                }
            )
        )
        out = tmp_path / "run"
        assert run_cli("fit", "--config", cfg, "--max-sweeps", 2, "--out", out) == 2
        assert "active_factor_threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            pytest.param({"hyper": {"K": "abc"}}, "hyper.K", id="K-text"),
            pytest.param({"hyper": {"K": 7.5}}, "hyper.K", id="K-fraction"),
            pytest.param({"hyper": {"K": True}}, "hyper.K", id="K-bool"),
            pytest.param({"hyper": {"c0": "0.1"}}, "hyper.c0", id="c0-text"),
            pytest.param({"hyper": {"d0": False}}, "hyper.d0", id="d0-bool"),
            pytest.param({"fit": {"max_sweeps": "x"}}, "fit.max_sweeps", id="sweeps-text"),
            pytest.param(
                {"fit": {"rel_tolerance": None}}, "fit.rel_tolerance", id="tol-null"
            ),
            pytest.param({"fit": {"seed": 1.5}}, "fit.seed", id="seed-fraction"),
            pytest.param({"n_restarts": "two"}, "n_restarts", id="restarts-text"),
            pytest.param({"output_dir": 5}, "output_dir", id="out-number"),
        ],
    )
    def test_config_value_of_the_wrong_type_usage_error(
        self, tmp_path, sim1_dataset, capsys, config, key
    ):
        # a value of the wrong JSON type exits 2 and names its key, whether
        # it would crash the fit or be truncated into a valid one
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset_path": str(sim1_dataset), **config}))
        out = tmp_path / "run"
        assert run_cli("fit", "--config", cfg, "--max-sweeps", 2, "--out", out) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_restarts", [2.7, True, math.inf, math.nan, 0])
    def test_run_config_rejects_a_restart_count_that_is_not_whole(self, n_restarts):
        # through the library, where no JSON type check runs first
        run = cli.RunConfig(
            hyper=Hyperparameters(K=3),
            fit=FitOptions(),
            n_restarts=n_restarts,
            dataset_path="data",
            output_dir="out",
        )
        with pytest.raises(UsageError, match="n_restarts must be an integer"):
            run.validate()

    def test_missing_dataset_everywhere(self):
        assert run_cli("fit", "--restarts", 1) == 2

    def test_unreadable_dataset_data_error(self, tmp_path):
        assert run_cli("fit", tmp_path / "nope", "--restarts", 1) == 3

    @pytest.mark.parametrize(
        "command, corrupt",
        [
            # fit's cases keep their bare ids
            pytest.param(command, corrupt, id=name if command == "fit" else f"eval-{name}")
            for command in ("fit", "eval")
            for name, corrupt in MALFORMED_MANIFESTS
        ],
    )
    def test_malformed_manifest_data_error(
        self, tmp_path, sim1_dataset, sim1_fit, command, corrupt
    ):
        ds = tmp_path / "ds"
        shutil.copytree(sim1_dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        corrupt(manifest)
        (ds / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        if command == "fit":
            argv = ["fit", ds, "--restarts", 1]
        else:
            # eval reads no group data file, so the manifest alone must
            # reject these
            for path in ds.glob("group_*.csv"):
                path.unlink()
            best = json.loads((sim1_fit / "best.json").read_text())
            argv = ["eval", sim1_fit / best["checkpoint"], ds, "--mode", "sim1"]
        assert run_cli(*argv, "--out", out) == 3
        assert not out.exists()

    def test_empty_group_file_data_error(self, tmp_path, sim1_dataset, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(sim1_dataset, ds)
        (ds / "group_group2.csv").write_text("")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("fit", ds, "--restarts", 1, "--out", out)
        assert code == 3
        assert caught == []
        assert f"{ds / 'group_group2.csv'} holds no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_restarts_usage_error(self, sim1_dataset):
        assert run_cli("fit", sim1_dataset, "--restarts", 0) == 2

    def test_threads_two_matches_serial(self, tmp_path, sim1_dataset):
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        for out, threads in ((serial, 1), (threaded, 2)):
            assert run_cli(
                "fit", sim1_dataset, "--k", 5, "--restarts", 2, "--seed", 0,
                "--max-sweeps", 8, "--out", out, "--threads", threads,
            ) == 0
        for seed in (0, 1):
            assert (serial / f"restart_{seed}" / "trace.csv").read_bytes() == (
                threaded / f"restart_{seed}" / "trace.csv"
            ).read_bytes()

    @pytest.mark.parametrize(
        "threads, restarts, cpus, want",
        [(1, 3, 4, 1), (2, 3, 4, 2), (8, 3, 4, 3), (3, 5, 2, 2), (2, 2, None, 1)],
    )
    def test_threads_clamped_to_restarts_and_cpus(
        self, monkeypatch, tmp_path, sim1_dataset, threads, restarts, cpus, want
    ):
        seen = []

        def fake_run_restarts(data, hyper, opts, n_restarts, workers=1):
            seen.append(workers)
            return [
                {"seed": s, "report": None, "error": "skipped", "context": {}}
                for s in range(n_restarts)
            ]

        monkeypatch.setattr(cli.engine, "run_restarts", fake_run_restarts)
        # a platform without an affinity set: the count of the host's CPUs
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        # every restart "fails", so the command stops with exit code 4
        assert run_cli(
            "fit", sim1_dataset, "--k", 3, "--restarts", restarts,
            "--threads", threads, "--out", tmp_path / "out",
        ) == 4
        assert seen == [want]

    def test_threads_clamped_to_the_cpus_the_process_may_use(
        self, monkeypatch, tmp_path, sim1_dataset
    ):
        # the host has more CPUs than the process is allowed to run on
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        out = tmp_path / "out"
        assert run_cli(
            "fit", sim1_dataset, "--k", 3, "--restarts", 2, "--max-sweeps", 3,
            "--threads", 2, "--out", out,
        ) == 0
        assert json.loads((out / "aggregate.json").read_text())["workers"] == 1


class TestEval:
    def test_sim1_mode(self, tmp_path, sim1_dataset, sim1_fit):
        best = json.loads((sim1_fit / "best.json").read_text())
        out = tmp_path / "eval.json"
        assert run_cli(
            "eval", sim1_fit / best["checkpoint"], sim1_dataset,
            "--mode", "sim1", "--out", out,
        ) == 0
        result = json.loads(out.read_text())
        assert result["mode"] == "sim1"
        stability = result["stability"]
        assert len(stability["per_group"]) == 4
        assert 0.0 <= stability["ssi"] <= 1.0
        assert stability["n_dense_selected"] == [0, 0, 0, 0]
        assert result["k_active"] >= 0
        assert result["train_mse"] > 0.0

    def test_train_mse_is_the_exact_value_fit_recorded(
        self, tmp_path, sim1_dataset, sim1_fit
    ):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        out = tmp_path / "eval.json"
        assert run_cli("eval", ckpt, sim1_dataset, "--mode", "sim1", "--out", out) == 0
        data, _ = io.read_dataset(sim1_dataset)
        state, _, info = io.read_checkpoint(ckpt)
        want = metrics.train_mse(data, state)
        assert info["fit"]["train_mse"] == want
        assert json.loads(out.read_text())["train_mse"] == want

    def test_reads_no_group_data_file(self, tmp_path, sim1_dataset, sim1_fit):
        ds = tmp_path / "ds"
        shutil.copytree(sim1_dataset, ds)
        gone = sorted(ds.glob("group_*.csv"))
        assert len(gone) == 4
        for path in gone:
            path.unlink()
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        outputs = []
        for dataset, name in ((sim1_dataset, "with"), (ds, "without")):
            out = tmp_path / f"{name}.json"
            assert run_cli("eval", ckpt, dataset, "--mode", "sim1", "--out", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_no_recorded_train_mse_reports_null(self, tmp_path, sim1_dataset, sim1_fit):
        # a checkpoint written through the API without fit info
        best = json.loads((sim1_fit / "best.json").read_text())
        state, hyper, _ = io.read_checkpoint(sim1_fit / best["checkpoint"])
        ckpt, out = tmp_path / "ckpt.json", tmp_path / "eval.json"
        io.write_checkpoint(ckpt, state, hyper)
        assert run_cli("eval", ckpt, sim1_dataset, "--mode", "sim1", "--out", out) == 0
        result = json.loads(out.read_text())
        assert result["train_mse"] is None
        assert result["k_active"] == best["k_active"]

    @pytest.mark.parametrize(
        "value", ["x", True, -1.0, math.nan, math.inf, [], None, 10**400]
    )
    def test_bad_recorded_train_mse_data_error(
        self, tmp_path, sim1_dataset, sim1_fit, capsys, value
    ):
        best = json.loads((sim1_fit / "best.json").read_text())
        obj = json.loads((sim1_fit / best["checkpoint"]).read_text())
        obj["fit"]["train_mse"] = value
        ckpt, out = tmp_path / "ckpt.json", tmp_path / "eval.json"
        # NaN and Infinity as json writes them, which json.load reads back
        ckpt.write_text(json.dumps(obj))
        assert run_cli("eval", ckpt, sim1_dataset, "--mode", "sim1", "--out", out) == 3
        assert "train_mse" in capsys.readouterr().err
        assert not out.exists()

    def test_k_active_matches_best_json(self, tmp_path, sim1_dataset, sim1_fit):
        best = json.loads((sim1_fit / "best.json").read_text())
        out = tmp_path / "eval.json"
        assert run_cli(
            "eval", sim1_fit / best["checkpoint"], sim1_dataset,
            "--mode", "sim1", "--out", out,
        ) == 0
        assert json.loads(out.read_text())["k_active"] == best["k_active"]

    @pytest.mark.parametrize(
        "name, cut",
        [
            pytest.param("truth_group1.csv", lambda m: m[:3], id="loading-rows"),
            pytest.param("truth_group2.csv", lambda m: m[:, :15], id="loading-columns"),
            pytest.param("truth_factors.csv", lambda m: m[:10], id="factor-rows"),
            pytest.param("truth_factors.csv", lambda m: m[:, :5], id="factor-columns"),
        ],
    )
    def test_truth_of_the_wrong_shape_data_error(
        self, tmp_path, sim1_dataset, sim1_fit, capsys, name, cut
    ):
        ds = tmp_path / "ds"
        shutil.copytree(sim1_dataset, ds)
        io.write_matrix_csv(ds / name, cut(io.read_matrix_csv(ds / name)))
        best = json.loads((sim1_fit / "best.json").read_text())
        out = tmp_path / "eval.json"
        assert run_cli(
            "eval", sim1_fit / best["checkpoint"], ds, "--mode", "sim1", "--out", out
        ) == 3
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_sim2_mode(self, tmp_path):
        ds = tmp_path / "ds"
        assert run_cli("simulate", "sim2", "--n", 20, "--seed", 2, "--out", ds) == 0
        fit_dir = tmp_path / "run"
        assert run_cli(
            "fit", ds, "--k", 8, "--restarts", 1, "--max-sweeps", 20,
            "--out", fit_dir,
        ) == 0
        out = tmp_path / "eval.json"
        assert run_cli(
            "eval", fit_dir / "restart_0" / "checkpoint.json", ds,
            "--mode", "sim2", "--out", out,
        ) == 0
        result = json.loads(out.read_text())
        stability = result["stability"]
        # one dense factor in each sim2 group
        assert stability["n_dense_selected"] == [1, 1, 1, 1]
        assert len(stability["per_group"]) == 4
        for row in stability["per_group"]:
            assert set(row) == {"group", "ssi_sparse", "dsi_dense", "dense_max_corr"}
        assert "dense_max_corr_mean" in result

    def test_sim2_sparse_ssi_reads_the_sparse_rows(self, tmp_path):
        # a sim2 group has one dense factor; when the four densest rows were
        # taken as dense, no sparse row with an entry above the threshold
        # was left, and the sparse SSI read 0.0 in every group
        ds = tmp_path / "ds"
        assert run_cli("simulate", "sim2", "--n", 20, "--seed", 0, "--out", ds) == 0
        fit_dir = tmp_path / "run"
        assert run_cli(
            "fit", ds, "--k", 8, "--restarts", 1, "--out", fit_dir
        ) == 0
        out = tmp_path / "eval.json"
        assert run_cli(
            "eval", fit_dir / "restart_0" / "checkpoint.json", ds,
            "--mode", "sim2", "--out", out,
        ) == 0
        stability = json.loads(out.read_text())["stability"]
        assert stability["n_dense_selected"] == [1, 1, 1, 1]
        assert stability["ssi"] > 0.0

    def test_sim2_mode_splits_all_k_rows(self, tmp_path):
        # a state that holds 2 of the K rows: the split runs over all K
        # rows, the others zero, as it does for the same state with those
        # rows held at the prior
        ds = tmp_path / "ds"
        assert run_cli("simulate", "sim2", "--n", 20, "--seed", 2, "--out", ds) == 0
        fit_dir = tmp_path / "run"
        assert run_cli(
            "fit", ds, "--k", 8, "--restarts", 1, "--max-sweeps", 20,
            "--out", fit_dir,
        ) == 0
        state, hyper, _ = io.read_checkpoint(fit_dir / "restart_0" / "checkpoint.json")
        assert len(state.factors) >= 2
        _keep_rows(state, np.arange(len(state.factors)) < 2)
        results = []
        for name, held in (("few", state), ("all", oracle.full_state(state, hyper))):
            ckpt, out = tmp_path / f"{name}.json", tmp_path / f"{name}_eval.json"
            io.write_checkpoint(ckpt, held, hyper)
            assert run_cli("eval", ckpt, ds, "--mode", "sim2", "--out", out) == 0
            result = json.loads(out.read_text())
            assert result.pop("checkpoint") == str(ckpt)
            results.append(result)
        assert results[0] == results[1]
        assert results[0]["k_active"] == 2

    @pytest.mark.parametrize(
        "command, args",
        [
            ("eval", ["{dataset}", "--mode", "sim1"]),
            ("rank", ["--groups", "0,1"]),
            ("reconstruct", ["--observed", "x.csv", "--observed-groups", "0", "--target", "1"]),
        ],
    )
    def test_seed_flag_is_gone(
        self, tmp_path, sim1_dataset, sim1_fit, capsys, command, args
    ):
        # these commands are deterministic and never read a seed
        best = json.loads((sim1_fit / "best.json").read_text())
        argv = [command, str(sim1_fit / best["checkpoint"])]
        argv += [a.format(dataset=sim1_dataset) for a in args]
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--seed", "0", "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_prints_json_without_out(self, sim1_dataset, sim1_fit, capsys):
        best = json.loads((sim1_fit / "best.json").read_text())
        assert run_cli(
            "eval", sim1_fit / best["checkpoint"], sim1_dataset, "--mode", "sim1"
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["mode"] == "sim1"

    def test_checkpoint_dataset_mismatch(self, tmp_path, sim1_fit):
        other = tmp_path / "other"
        assert run_cli("simulate", "sim1", "--n", 9, "--out", other) == 0
        best = json.loads((sim1_fit / "best.json").read_text())
        assert run_cli(
            "eval", sim1_fit / best["checkpoint"], other, "--mode", "sim1"
        ) == 3

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(
                lambda m: m["generator"].pop("factors_file"), id="no-factors_file"
            ),
            pytest.param(
                lambda m: m["generator"].update(factors_file=7), id="number-factors_file"
            ),
            pytest.param(lambda m: m.update(generator="sim1"), id="text-generator"),
            pytest.param(
                lambda m: m["groups"][1].pop("truth_file"), id="no-truth_file"
            ),
        ],
    )
    def test_manifest_without_truth_entries_data_error(
        self, tmp_path, sim1_dataset, sim1_fit, corrupt
    ):
        ds = tmp_path / "ds"
        shutil.copytree(sim1_dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        corrupt(manifest)
        (ds / "manifest.json").write_text(json.dumps(manifest))
        best = json.loads((sim1_fit / "best.json").read_text())
        out = tmp_path / "eval.json"
        assert run_cli(
            "eval", sim1_fit / best["checkpoint"], ds, "--mode", "sim1", "--out", out
        ) == 3
        assert not out.exists()


def planted_checkpoint(path):
    """Two groups, two factors; factor 0 loads on columns 0 and 1 only."""
    k, dims = 2, [6, 6]
    rho, w_mean = [], []
    for d in dims:
        r = np.full((k, d), 1e-4)
        w = np.zeros((k, d))
        r[0, :2] = 1.0
        w[0, :2] = 3.0
        rho.append(r)
        w_mean.append(w)
    state = VariationalState(
        rho=rho,
        w_mean=w_mean,
        w_var=[np.ones((k, d)) for d in dims],
        f_mean=np.zeros((4, k)),
        f_var=np.ones((4, k)),
        beta_a=np.ones(k),
        beta_b=np.ones(k),
        tau_rate=[np.ones(4) for _ in dims],
        alpha_shape=np.ones(2),
        alpha_rate=np.ones(2),
        aux_s_mean=np.zeros((2, k)),
        aux_t_mean=np.zeros((2, k)),
    )
    io.write_checkpoint(path, state, Hyperparameters(K=k))
    return path


class TestRank:
    def test_scores_sorted_descending(self, tmp_path):
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        out = tmp_path / "rank"
        assert run_cli("rank", ckpt, "--groups", "0,1", "--out", out) == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "column,score"
        scores = [float(line.split(",")[1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        # the planted shared columns outrank everything else
        top = {int(line.split(",")[0]) for line in lines[1:3]}
        assert top == {0, 1}

    def test_no_labels_no_auc(self, tmp_path):
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        out = tmp_path / "rank"
        assert run_cli("rank", ckpt, "--groups", "0,1", "--out", out) == 0
        result = json.loads((out / "rank.json").read_text())
        assert "auc" not in result
        assert result["n_columns"] == 6

    def test_labels_give_auc(self, tmp_path):
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        labels = tmp_path / "labels.csv"
        labels.write_text("1\n1\n0\n0\n0\n0\n")
        out = tmp_path / "rank"
        assert run_cli(
            "rank", ckpt, "--groups", "0,1", "--labels", labels, "--out", out
        ) == 0
        result = json.loads((out / "rank.json").read_text())
        assert result["auc"] == 1.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("e0", math.inf),
            ("h0", math.inf),
            ("e0", math.nan),
            ("K", math.inf),
            ("K", -math.inf),
        ],
    )
    def test_non_finite_hyperparameter_data_error(self, tmp_path, field, value):
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        obj = json.loads(ckpt.read_text())
        obj["hyperparameters"][field] = value
        # json writes Infinity, -Infinity and NaN, and reads them back
        ckpt.write_text(json.dumps(obj))
        out = tmp_path / "rank"
        assert run_cli("rank", ckpt, "--groups", "0,1", "--out", out) == 3
        assert not (out / "scores.csv").exists()

    def test_older_checkpoint_version_data_error(self, tmp_path, capsys):
        # only the current version is read: an older fit has to be run again
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        obj = json.loads(ckpt.read_text())
        obj["version"] = 4
        ckpt.write_text(json.dumps(obj))
        out = tmp_path / "rank"
        assert run_cli("rank", ckpt, "--groups", "0,1", "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: {ckpt} has schema version 4, expected 5\n"
        )
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "2", "-1", "0.5"])
    def test_labels_other_than_zero_one_data_error(self, tmp_path, bad):
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        labels = tmp_path / "labels.csv"
        labels.write_text(f"1\n1\n{bad}\n0\n0\n0\n")
        out = tmp_path / "rank"
        assert run_cli(
            "rank", ckpt, "--groups", "0,1", "--labels", labels, "--out", out
        ) == 3
        # nothing is written before the labels are read
        assert not out.exists()

    # six columns: rows missing or extra, or a single class, leave no AUC
    @pytest.mark.parametrize(
        "rows", ["1\n1\n0\n0\n0\n", "1\n1\n0\n0\n0\n0\n0\n", "0\n" * 6, "1\n" * 6]
    )
    def test_labels_without_an_auc_data_error(self, tmp_path, rows):
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        labels = tmp_path / "labels.csv"
        labels.write_text(rows)
        out = tmp_path / "rank"
        assert run_cli(
            "rank", ckpt, "--groups", "0,1", "--labels", labels, "--out", out
        ) == 3
        assert not out.exists()

    def test_bad_group_pair(self, tmp_path):
        ckpt = planted_checkpoint(tmp_path / "ckpt.json")
        assert run_cli("rank", ckpt, "--groups", "0", "--out", tmp_path) == 2
        assert run_cli("rank", ckpt, "--groups", "0,5", "--out", tmp_path) == 2


class TestReconstruct:
    def test_round_trip_outputs(self, tmp_path, sim1_dataset, sim1_fit):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        observed = tmp_path / "observed.csv"
        data, _ = io.read_dataset(sim1_dataset)
        io.write_matrix_csv(observed, np.hstack([data.groups[0], data.groups[1]]))
        out = tmp_path / "rec"
        assert run_cli(
            "reconstruct", ckpt, "--observed", observed,
            "--observed-groups", "0,1", "--target", 2,
            "--truth", sim1_dataset / "group_group3.csv", "--out", out,
        ) == 0
        result = json.loads((out / "reconstruct.json").read_text())
        assert result["target_group"] == 2
        assert result["observed_groups"] == [0, 1]
        assert result["mse"] > 0.0
        recon = io.read_matrix_csv(out / "reconstruction.csv")
        assert recon.shape == data.groups[2].shape

    def test_no_truth_no_mse(self, tmp_path, sim1_dataset, sim1_fit):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        observed = tmp_path / "observed.csv"
        data, _ = io.read_dataset(sim1_dataset)
        io.write_matrix_csv(observed, data.groups[0])
        out = tmp_path / "rec"
        assert run_cli(
            "reconstruct", ckpt, "--observed", observed,
            "--observed-groups", "0", "--target", 1, "--out", out,
        ) == 0
        result = json.loads((out / "reconstruct.json").read_text())
        assert "mse" not in result

    def test_empty_group_list_usage_error(self, tmp_path, sim1_fit):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        observed = tmp_path / "observed.csv"
        io.write_matrix_csv(observed, np.ones((2, 20)))
        assert run_cli(
            "reconstruct", ckpt, "--observed", observed,
            "--observed-groups", "", "--target", 1, "--out", tmp_path,
        ) == 2

    @pytest.mark.parametrize(
        "groups, target, message",
        [
            ("0,0", 1, "listed twice"),
            ("0,4", 1, "group index 4 out of range"),
            ("-1", 1, "group index -1 out of range"),
            ("0", 4, "--target 4 out of range"),
        ],
    )
    def test_bad_group_usage_error(
        self, tmp_path, sim1_fit, capsys, groups, target, message
    ):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        observed = tmp_path / "observed.csv"
        io.write_matrix_csv(observed, np.ones((2, 40)))
        out = tmp_path / "rec"
        assert run_cli(
            "reconstruct", ckpt, "--observed", observed,
            "--observed-groups", groups, "--target", target, "--out", out,
        ) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("flag", ["--observed", "--truth"])
    def test_non_finite_input_data_error(
        self, tmp_path, sim1_dataset, sim1_fit, flag, bad
    ):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        data, _ = io.read_dataset(sim1_dataset)
        files = {"--observed": data.groups[0].copy(), "--truth": data.groups[1].copy()}
        files[flag][3, 5] = bad
        for name, matrix in files.items():
            io.write_matrix_csv(tmp_path / f"{name[2:]}.csv", matrix)
        out = tmp_path / "rec"
        assert run_cli(
            "reconstruct", ckpt, "--observed", tmp_path / "observed.csv",
            "--observed-groups", "0", "--target", 1,
            "--truth", tmp_path / "truth.csv", "--out", out,
        ) == 3
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--observed", "--truth"])
    def test_empty_input_data_error(self, tmp_path, sim1_dataset, sim1_fit, flag, capsys):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        data, _ = io.read_dataset(sim1_dataset)
        io.write_matrix_csv(tmp_path / "observed.csv", data.groups[0])
        io.write_matrix_csv(tmp_path / "truth.csv", data.groups[1])
        empty = tmp_path / f"{flag[2:]}.csv"
        empty.write_text("")
        out = tmp_path / "rec"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "reconstruct", ckpt, "--observed", tmp_path / "observed.csv",
                "--observed-groups", "0", "--target", 1,
                "--truth", tmp_path / "truth.csv", "--out", out,
            )
        assert code == 3
        assert caught == []
        assert f"{empty} holds no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_matches_the_per_row_oracle_bytewise(self, tmp_path, sim1_dataset, sim1_fit):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        data, _ = io.read_dataset(sim1_dataset)
        # listed out of sorted order, as the columns are concatenated
        observed = np.hstack([data.groups[3], data.groups[0]])
        io.write_matrix_csv(tmp_path / "observed.csv", observed)
        out = tmp_path / "rec"
        assert run_cli(
            "reconstruct", ckpt, "--observed", tmp_path / "observed.csv",
            "--observed-groups", "3,0", "--target", 1, "--out", out,
        ) == 0
        state, hyper, _ = io.read_checkpoint(ckpt)
        width = state.dims[3]
        f_hat = np.array([
            oracle.predict_factors(state, hyper, {3: row[:width], 0: row[width:]})[0]
            for row in observed
        ])
        io.write_matrix_csv(tmp_path / "oracle.csv", engine.reconstruct_group(state, f_hat, 1))
        assert (out / "reconstruction.csv").read_bytes() == (
            tmp_path / "oracle.csv"
        ).read_bytes()

    def test_wrong_width_data_error(self, tmp_path, sim1_fit):
        best = json.loads((sim1_fit / "best.json").read_text())
        ckpt = sim1_fit / best["checkpoint"]
        observed = tmp_path / "observed.csv"
        io.write_matrix_csv(observed, np.ones((2, 3)))
        assert run_cli(
            "reconstruct", ckpt, "--observed", observed,
            "--observed-groups", "0", "--target", 1, "--out", tmp_path,
        ) == 3


def run_console_script(*args):
    """Run the `cvgfa` script declared in pyproject.toml in a child process.

    The child does what the installer's generated wrapper does: import the
    declared function and exit with its return value. The `src` directory of
    the imported package comes first on the child's PYTHONPATH, so the child
    runs the code under test even when no install (or a stale one) exists.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["cvgfa"]
    module, func = target.split(":")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


class TestParser:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_main_runs_the_current_binding_of_a_command(self, monkeypatch):
        # the command is looked up by name at each call, not bound into the
        # parser that every call reuses
        seen = []
        def fake_rank(args):
            seen.append(args.checkpoint)
            return 0

        monkeypatch.setattr(cli, "cmd_rank", fake_rank)
        assert cli.main(["rank", "a.json", "--groups", "0,1"]) == 0
        assert cli.main(["rank", "b.json", "--groups", "0,1"]) == 0
        assert seen == ["a.json", "b.json"]


class TestConsoleScript:
    def test_entry_point_exists(self):
        proc = run_console_script("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "reconstruct" in proc.stdout

    def test_no_command_is_usage_error(self):
        proc = run_console_script()
        assert proc.returncode == 2
