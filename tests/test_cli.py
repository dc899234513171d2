import csv
import json

import numpy as np
import pytest

from drureg.cli import main
from drureg.nn import TrainedModel, one_hot_encode
from drureg.sampling import Dataset

TOY_CONFIG = {
    "seed": 42,
    "population": {"n_population": 8000, "n_targets": 2},
    "bias": {"gamma_true": 2.0, "d_true": [1, -1], "n_sample": 500},
    "sweep": {"n_replicates": 2, "prev_sample_size": 3000},
    "methods": ["nn_plain", "dru_informed"],
    "covariate_subsets": [["gender", "age"], ["gender"]],
}


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TOY_CONFIG))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Corruptions of a dataset CSV at `data`; each returns the file it broke.
def edit_rows(edit):
    def corrupt(data):
        data.write_text("\n".join(edit(data.read_text().splitlines())) + "\n")
        return data
    return corrupt


def edit_sidecar(edit):
    def corrupt(data):
        sidecar = data.with_suffix(".provenance.json")
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        return sidecar
    return corrupt


def edit_bytes(edit):
    def corrupt(data):
        data.write_bytes(edit(data.read_bytes()))
        return data
    return corrupt


class TestGenerate:
    def test_writes_expected_files(self, toy_config, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--config", toy_config, "--out", out) == 0
        pop = Dataset.from_csv(out / "population.csv")
        assert pop.n_rows == 8000
        for t in range(2):
            sample = Dataset.from_csv(out / f"sample_target_{t}.csv")
            assert sample.n_rows == 500
            assert sample.provenance["bias"]["gamma_true"] == [2.0, 2.0]

    def test_same_seed_is_byte_identical(self, toy_config, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        run("generate", "--config", toy_config, "--out", out1)
        run("generate", "--config", toy_config, "--out", out2)
        for name in ("population.csv", "sample_target_0.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"population": {"n_pop": 10}}))
        assert run("generate", "--config", bad, "--out", tmp_path / "x") == 2
        assert "n_pop" in capsys.readouterr().err

    @pytest.mark.parametrize("bias, key", [
        ({"gamma_true": "abc", "d_true": [1, -1, 1]}, "gamma_true"),
        ({"gamma_true": 2.0, "d_true": [1, "x", 1]}, "d_true"),
        ({"gamma_true": [2.0, True, 2.0], "d_true": [1, -1, 1]}, "gamma_true"),
        ({"gamma_true": 2.0, "d_true": 1.5}, "d_true"),
    ])
    def test_malformed_bias_vector_exits_2(self, tmp_path, capsys, bias, key):
        bad = tmp_path / "bad_bias.json"
        bad.write_text(json.dumps({"population": {"n_population": 500, "n_targets": 3},
                                   "bias": bias}))
        assert run("generate", "--config", bad, "--out", tmp_path / "x") == 2
        assert f"bias.{key}" in capsys.readouterr().err

    def test_malformed_model_covariates_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps({"model": {"covariates": ["age", 3]}}))
        assert run("generate", "--config", bad, "--out", tmp_path / "x") == 2
        assert "model.covariates" in capsys.readouterr().err

    def test_per_target_gamma_list(self, tmp_path):
        cfg = tmp_path / "gammas.json"
        cfg.write_text(json.dumps({"population": {"n_population": 3000, "n_targets": 3},
                                   "bias": {"gamma_true": [1.5, 2, 3.0], "d_true": [1, -1, 1],
                                            "n_sample": 200}}))
        out = tmp_path / "gen"
        assert run("generate", "--config", cfg, "--out", out) == 0
        sample = Dataset.from_csv(out / "sample_target_2.csv")
        assert sample.provenance["bias"]["gamma_true"] == [1.5, 2.0, 3.0]

    def test_unwritable_output_dir_is_io_error(self, toy_config, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        code = run("generate", "--config", toy_config, "--out", blocker / "sub")
        assert code == 1
        assert "i/o error" in capsys.readouterr().err


class TestTrain:
    @pytest.fixture
    def generated(self, toy_config, tmp_path):
        out = tmp_path / "gen"
        run("generate", "--config", toy_config, "--out", out)
        return out

    def _train_config(self, tmp_path, **model):
        doc = dict(TOY_CONFIG)
        doc["model"] = model
        path = tmp_path / f"train_{model.get('loss', 'x')}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_training_reduces_loss(self, generated, tmp_path):
        cfg = self._train_config(tmp_path, loss="squared", target=0)
        out = tmp_path / "tr"
        assert run("train", "--config", cfg, "--data", generated / "sample_target_0.csv",
                   "--out", out) == 0
        report = json.loads((out / "train_report.json").read_text())
        trace = report["train_loss_trace"]
        assert trace[-1] < trace[0]
        assert report["epochs_run"] == len(trace)

    def test_dru_gamma_one_matches_plain(self, generated, tmp_path):
        data = generated / "sample_target_0.csv"
        out_dru, out_sq = tmp_path / "dru", tmp_path / "sq"
        run("train", "--config", self._train_config(tmp_path, loss="dru", gamma=1.0, direction=1),
            "--data", data, "--out", out_dru)
        run("train", "--config", self._train_config(tmp_path, loss="squared"),
            "--data", data, "--out", out_sq)
        dataset = Dataset.from_csv(data)
        features = one_hot_encode(dataset.covariates, dataset.level_counts)
        pred_dru = TrainedModel.from_json((out_dru / "model.json").read_text()).predict(features)
        pred_sq = TrainedModel.from_json((out_sq / "model.json").read_text()).predict(features)
        assert np.abs(pred_dru - pred_sq).max() < 1e-6

    def test_missing_outcome_column_exits_2(self, generated, tmp_path, capsys):
        cfg = self._train_config(tmp_path, loss="squared", target=7)
        code = run("train", "--config", cfg, "--data", generated / "sample_target_0.csv",
                   "--out", tmp_path / "tr2")
        assert code == 2
        assert "target_7" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        edit_rows(lambda lines: [lines[0], "x" + lines[1][1:]] + lines[2:]),
        edit_rows(lambda lines: lines + ["1,0,1,0"]),
        edit_sidecar(lambda sidecar: {}),
        edit_sidecar(lambda sidecar: {**sidecar, "level_counts": ["x"]}),
        edit_bytes(lambda raw: b"\xff\xfe" + raw),
        edit_bytes(lambda raw: b""),
    ], ids=["non_integer_field", "short_row", "empty_sidecar", "non_integer_level_count",
            "not_utf8", "empty_file"])
    def test_malformed_dataset_exits_2(self, generated, tmp_path, capsys, corrupt):
        data = generated / "sample_target_0.csv"
        broken = corrupt(data)
        code = run("train", "--config", self._train_config(tmp_path, loss="squared"),
                   "--data", data, "--out", tmp_path / "tr3")
        assert code == 2
        assert str(broken) in capsys.readouterr().err


class TestOracle:
    def test_reports_tiny_discrepancy(self, tmp_path, capsys):
        assert run("oracle", "--out", tmp_path / "or", "--seed", 7) == 0
        out = capsys.readouterr().out
        assert "max discrepancy" in out
        manifest = json.loads((tmp_path / "or" / "manifest.json").read_text())
        assert manifest["stats"]["max_ru_discrepancy"] < 1e-9
        assert manifest["stats"]["max_dru_discrepancy"] < 1e-9

    def test_infeasible_instances_reported_not_fatal(self, tmp_path, capsys):
        assert run("oracle", "--out", tmp_path / "or2", "--seed", 3) == 0
        assert "infeasible" in capsys.readouterr().out


class TestConfigBounds:
    @pytest.mark.parametrize("command, section, key, value, message", [
        ("oracle", "oracle", "max_points", 1, "oracle.max_points"),
        ("oracle", "oracle", "gamma_low", 0.9, "oracle.gamma_low"),
        ("oracle", "oracle", "gamma_low", float("nan"), "oracle.gamma_low"),
        ("oracle", "oracle", "gamma_high", 0.5, "oracle.gamma_high"),
        ("sweep", "sweep", "hidden_width", 0, "sweep.hidden_width"),
        ("sweep", "sweep", "meta_min_cell_rows", 0, "sweep.meta_min_cell_rows"),
        ("sweep", "sweep", "prev_sample_size", 0, "sweep.prev_sample_size"),
        ("sweep", "bias", "n_sample", 12, "batch_size 12"),
        ("sweep", "train", "learning_rate", float("nan"), "train.learning_rate"),
        ("sweep", "population", "effect_scale", float("nan"), "population.effect_scale"),
        ("sweep", "train", "adam_epsilon", float("inf"), "train.adam_epsilon"),
        ("sweep", "train", "adam_beta1", 1.0, "adam_beta1"),
        ("sweep", "train", "adam_beta2", -0.5, "adam_beta2"),
        ("sweep", "train", "adam_epsilon", 0.0, "adam_epsilon"),
    ])
    def test_value_that_fails_every_run_exits_2(self, tmp_path, capsys, command, section,
                                                 key, value, message):
        doc = {**TOY_CONFIG, section: {**TOY_CONFIG.get(section, {}), key: value}}
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", out, "--jobs", 1) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"methods": ["nn_plain", "nn_plain"]}, "methods repeats 'nn_plain'"),
        ({"covariate_subsets": [["gender"], ["gender"]]}, "covariate_subsets repeats ['gender']"),
        ({"population": {**TOY_CONFIG["population"], "covariates": [["gender", 2], ["gender", 3]]},
          "covariate_subsets": [["gender"]]}, "population.covariates repeats 'gender'"),
    ], ids=["method", "subset", "covariate"])
    def test_repeated_entry_exits_2(self, tmp_path, capsys, edit, message):
        # a repeated method or subset would pool two runs under one run key,
        # and a repeated covariate name would resolve to its first column
        cfg = tmp_path / "repeats.json"
        cfg.write_text(json.dumps({**TOY_CONFIG, **edit}))
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", out, "--jobs", 1) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, jobs_argv, jobs_env", [
        ("oracle", ["--jobs", 0], None),
        ("sweep", ["--jobs", -3], None),
        ("sweep", [], "0"),
    ])
    def test_jobs_below_one_exits_2(self, toy_config, tmp_path, capsys, monkeypatch, command,
                                    jobs_argv, jobs_env):
        if jobs_env is not None:
            monkeypatch.setenv("DRUREG_JOBS", jobs_env)
        out = tmp_path / "out"
        assert run(command, "--config", toy_config, "--out", out, *jobs_argv) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_toy_sweep_cardinality_and_columns(self, toy_config, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--config", toy_config, "--out", out, "--jobs", 1) == 0
        records = read_csv(out / "records.csv")
        # 2 replicates x 2 subsets x 2 methods x 2 targets
        assert len(records) == 16
        assert list(records[0]) == ["replicate", "subset", "method", "target",
                                    "y_hat", "y_true", "y_unweighted", "b_contribution"]
        summary = read_csv(out / "summary.csv")
        assert list(summary[0]) == ["method", "mean_b", "freq_b_positive"]
        assert {row["method"] for row in summary} == {"nn_plain", "dru_informed"}

    def test_rerun_from_manifest_is_byte_identical(self, toy_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run("sweep", "--config", toy_config, "--out", out1, "--jobs", 2)
        run("sweep", "--config", out1 / "manifest.json", "--out", out2, "--jobs", 1)
        for name in ("records.csv", "summary.csv", "histogram.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_exit_3_when_too_many_runs_fail(self, tmp_path, capsys):
        doc = dict(TOY_CONFIG)
        doc["train"] = {"learning_rate": 1e300}  # every network fit diverges
        doc["methods"] = ["nn_plain", "dru_informed"]
        cfg = tmp_path / "failing.json"
        cfg.write_text(json.dumps(doc))
        assert run("sweep", "--config", cfg, "--out", tmp_path / "sf", "--jobs", 1) == 3
        manifest = json.loads((tmp_path / "sf" / "manifest.json").read_text())
        assert manifest["stats"]["n_failed"] == manifest["stats"]["n_runs"]
        assert manifest["stats"]["failures"]

    def test_env_seed_override(self, toy_config, tmp_path, monkeypatch):
        monkeypatch.setenv("DRUREG_SEED", "777")
        out = tmp_path / "senv"
        run("generate", "--config", toy_config, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["seed"] == 777
