import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drureg
from drureg.cli import main
from drureg.errors import InfeasibleError
from drureg.nn import TrainedModel, one_hot_encode
from drureg.sampling import Dataset, grid_levels

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


def set_field(column, value):
    # the first data row's field under `column` becomes `value`
    def edit(lines):
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = value
        return [lines[0], ",".join(row)] + lines[2:]
    return edit_rows(edit)


def edit_sidecar(edit):
    def corrupt(data):
        sidecar = data.with_suffix(".provenance.json")
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        return sidecar
    return corrupt


def repeat_covariate_name(data):
    # the sidecar and the CSV header both name the second covariate like the first
    def repeat(names):
        return names[:1] * 2 + names[2:]
    edit_sidecar(lambda doc: {**doc, "covariate_names": repeat(doc["covariate_names"])})(data)
    return edit_rows(lambda lines: [",".join(repeat(lines[0].split(",")))] + lines[1:])(data)


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
        ({"gamma_true": 2.0, "d_true": [1, -1]}, "d_true"),
    ])
    def test_malformed_bias_vector_exits_2(self, tmp_path, capsys, bias, key):
        bad = tmp_path / "bad_bias.json"
        bad.write_text(json.dumps({"population": {"n_population": 500, "n_targets": 3},
                                   "bias": bias}))
        assert run("generate", "--config", bad, "--out", tmp_path / "x") == 2
        assert f"bias.{key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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
        counts = dataset.level_counts
        features = one_hot_encode(grid_levels(counts), counts)[dataset.cells]
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
        repeat_covariate_name,
        set_field("education", "7"),  # education has 3 levels
        set_field("target_0", "2"),
        set_field("cell_id", "-1"),  # no row's levels ravel to -1
    ], ids=["non_integer_field", "short_row", "empty_sidecar", "non_integer_level_count",
            "not_utf8", "empty_file", "repeated_covariate_name", "level_out_of_range",
            "non_binary_outcome", "cell_id_mismatch"])
    def test_malformed_dataset_exits_2(self, generated, tmp_path, capsys, corrupt):
        data = generated / "sample_target_0.csv"
        broken = corrupt(data)
        # the model reads only gender and age: a bad field elsewhere must
        # still be caught where the file is read
        config = self._train_config(tmp_path, loss="squared", covariates=["gender", "age"])
        code = run("train", "--config", config, "--data", data, "--out", tmp_path / "tr3")
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

    def test_nan_lp_value_breaks_the_gate(self, tmp_path, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN gap must not read as agreement
        monkeypatch.setattr("drureg.cli.sup_oracle_lp", lambda *args, **kwargs: np.nan)
        assert run("oracle", "--out", tmp_path / "or", "--seed", 7) == 0
        stats = json.loads((tmp_path / "or" / "manifest.json").read_text())["stats"]
        assert stats["max_ru_discrepancy"] == np.inf
        assert stats["max_dru_discrepancy"] == np.inf

    def test_infeasible_greedy_against_a_feasible_lp_breaks_the_gate(self, tmp_path,
                                                                     monkeypatch):
        def infeasible(*args, **kwargs):
            raise InfeasibleError("no worst case")
        monkeypatch.setattr("drureg.cli.worst_case_dru", infeasible)
        assert run("oracle", "--out", tmp_path / "or", "--seed", 7) == 0
        stats = json.loads((tmp_path / "or" / "manifest.json").read_text())["stats"]
        assert stats["max_dru_discrepancy"] == np.inf
        assert stats["max_ru_discrepancy"] < 1e-9


class TestConfigBounds:
    @pytest.mark.parametrize("command, section, key, value, message", [
        ("oracle", "oracle", "max_points", 1, "oracle.max_points"),
        ("sweep", "sweep", "hidden_width", 0, "sweep.hidden_width"),
        ("sweep", "sweep", "meta_min_cell_rows", 0, "sweep.meta_min_cell_rows"),
        ("sweep", "sweep", "prev_sample_size", 0, "sweep.prev_sample_size"),
        ("sweep", "bias", "n_sample", 12, "batch_size 12"),
        ("sweep", "bias", "n_sample", 1, "at least 2 rows"),
        ("sweep", "train", "learning_rate", float("nan"), "train.learning_rate"),
        ("sweep", "population", "effect_scale", float("nan"), "population.effect_scale"),
        # a class constant of TrainConfig, not a key
        ("sweep", "train", "adam_beta1", 0.9, "unknown key(s) ['adam_beta1']"),
        ("generate", "model", "covariates", [], "model.covariates"),
        ("generate", "population", "covariates", [["gender", True]], "population.covariates"),
        ("generate", "population", "effect_scale", 1000.0, "NaN"),  # exp(tilt) overflows
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

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "config file CFG must hold a JSON object, got list"),
        ('{"resolved_config": "x"}', "config file CFG must hold a JSON object, got str"),
        ('{"sede": 1}', "'sede'"),
        ('{"train": 5}', "config section 'train'"),
        ('{"train": {"max_epochs": "5"}}', "train.max_epochs"),
        ('{"population": {"covariates": [["gender"]]}}', "population.covariates"),
        ('{"population": {"base_shares": ["0.4"]}}', "population.base_shares"),
        ('{"methods": []}', "'methods'"),
        ('{"covariate_subsets": [[]]}', "'covariate_subsets'"),
        ("{", None),  # not JSON: the message names the file
        (None, None),  # no such file
    ], ids=["not_an_object", "manifest_config_not_an_object", "unknown_top_level_key",
            "section_not_an_object", "scalar_of_wrong_type", "malformed_covariates",
            "non_numeric_base_shares", "empty_methods", "malformed_subsets", "invalid_json",
            "unreadable_file"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        assert run("generate", "--config", cfg, "--out", out) == 2
        # CFG stands for the config file's path
        assert (message or "CFG").replace("CFG", str(cfg)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"methods": ["nn_plain", "nn_plain"]}, "methods repeats 'nn_plain'"),
        ({"covariate_subsets": [["gender"], ["gender"]]}, "covariate_subsets repeats ['gender']"),
        ({"covariate_subsets": [["age", "age"]]}, "covariate_subsets repeats 'age'"),
        ({"population": {**TOY_CONFIG["population"], "covariates": [["gender", 2], ["gender", 3]]},
          "covariate_subsets": [["gender"]]}, "population.covariates repeats 'gender'"),
    ], ids=["method", "subset", "name_in_subset", "covariate"])
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


class TestSettingResolution:
    """Each setting comes from its flag, else its DRUREG_* variable, else the
    config file, else the default."""

    @pytest.fixture
    def oracle_config(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"seed": 5, "oracle": {"n_instances": 2}}))
        return path

    @pytest.mark.parametrize("flag, variable, seed", [
        (None, None, 5), (None, "6", 6), ("7", "6", 7),
    ], ids=["config", "variable_beats_config", "flag_beats_variable"])
    def test_seed_precedence(self, oracle_config, tmp_path, monkeypatch, flag, variable, seed):
        if variable is not None:
            monkeypatch.setenv("DRUREG_SEED", variable)
        out = tmp_path / "or"
        argv = ["oracle", "--config", oracle_config, "--out", out]
        assert run(*argv, *(["--seed", flag] if flag else [])) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["seed"] == seed

    def test_out_variable_used_without_flag(self, oracle_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DRUREG_OUT", str(tmp_path / "from_env"))
        assert run("oracle", "--config", oracle_config) == 0
        assert (tmp_path / "from_env" / "manifest.json").is_file()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variable, value, flag", [
        ("DRUREG_SEED", "abc", "--seed"), ("DRUREG_JOBS", "x", "--jobs"),
    ])
    def test_malformed_variable_is_a_usage_error(self, toy_config, tmp_path, monkeypatch, capsys,
                                                 variable, value, flag):
        monkeypatch.setenv(variable, value)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            run("generate", "--config", toy_config, "--out", out)
        assert exit_info.value.code == 2
        assert f"argument {flag}: invalid int value: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag", "variable"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, source):
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps({**TOY_CONFIG, "seed": -1 if source == "config" else 1}))
        if source == "variable":
            monkeypatch.setenv("DRUREG_SEED", "-2")
        out = tmp_path / "out"
        argv = ["generate", "--config", cfg, "--out", out]
        assert run(*argv, *(["--seed", -3] if source == "flag" else [])) == 2
        assert "config key seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


def run_fresh(code):
    """Run `code` in a new interpreter that imports drureg from this checkout."""
    src = str(Path(drureg.__file__).resolve().parents[1])
    prelude = f"import sys; sys.path.insert(0, {src!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestColdStart:
    @pytest.mark.parametrize("module", ["drureg.cli", "drureg"])
    def test_import_loads_neither_scipy_optimize_nor_multiprocessing(self, module):
        # only the LP oracle needs scipy.optimize, and only --jobs > 1 a process pool
        run_fresh(f"import {module}\n"
                  "heavy = {'scipy.optimize', 'multiprocessing'} & set(sys.modules)\n"
                  "assert not heavy, sorted(heavy)\n")

    def test_first_lp_oracle_call_matches_greedy_worst_case(self):
        run_fresh("import numpy as np\n"
                  "from drureg.robustness import DiscreteDistribution, sup_oracle_lp, "
                  "worst_case_ru\n"
                  "rng = np.random.default_rng(5)\n"
                  "dist = DiscreteDistribution(rng.random(40), np.full(40, 1 / 40))\n"
                  "assert 'scipy.optimize' not in sys.modules\n"
                  "lp = sup_oracle_lp(dist, 2.5)\n"
                  "assert abs(lp - worst_case_ru(dist, 2.5).sup_value) < 1e-9, lp\n")
