import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drureg.config import (
    bias_spec_from_config,
    population_spec_from_config,
    train_config_from_config,
    validate_config,
)
from drureg.errors import ConfigError, UndefinedScoreError
from drureg.harness import (
    MethodSpec,
    RunRecord,
    SweepConfig,
    SweepResult,
    b_score,
    histogram_data,
    run_sweep,
    summarize,
)
from drureg.losses import MetaInfo
from drureg.nn import TrainConfig
from drureg.robustness import eta
from drureg.sampling import biased_sample, generate_population


def small_setup(n_replicates=1, n_population=15_000, n_sample=600, n_targets=2,
                gamma=2.0, directions=(1, -1), seed=0):
    resolved = validate_config({
        "population": {"n_population": n_population, "n_targets": n_targets},
        "bias": {"gamma_true": gamma, "d_true": list(directions), "n_sample": n_sample},
        "sweep": {"prev_sample_size": 4000},
    })
    pops = [population_spec_from_config(resolved, seed + 10 + i) for i in range(n_replicates)]
    biases = [bias_spec_from_config(resolved, seed + 50 + i) for i in range(n_replicates)]
    cfg = train_config_from_config(resolved)
    return pops, biases, cfg


class TestBScore:
    def test_perfect_prediction_scores_one(self):
        assert b_score([0.3, 0.2], [0.3, 0.2], [0.25, 0.3]) == 1.0

    def test_unweighted_prediction_scores_zero(self):
        assert b_score([0.3, 0.2], [0.25, 0.3], [0.25, 0.3]) == 0.0

    def test_ratio_of_sums_example(self):
        # baseline gaps {0.10, 0.05}, model gaps {0.05, 0.05} -> 0.05 / 0.15
        value = b_score([0.30, 0.25], [0.25, 0.30], [0.20, 0.30])
        assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_undefined_when_all_baselines_vanish(self):
        with pytest.raises(UndefinedScoreError):
            b_score([0.3, 0.2], [0.1, 0.1], [0.3, 0.2])

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=6))
    def test_never_exceeds_one(self, triples):
        y_true = [t for t, _, _ in triples]
        y_hat = [h for _, h, _ in triples]
        y_unw = [u for _, _, u in triples]
        try:
            assert b_score(y_true, y_hat, y_unw) <= 1.0 + 1e-12
        except UndefinedScoreError:
            pass


class TestMethodSpec:
    informed = (
        MetaInfo(gamma=1.5, direction=1),
        MetaInfo(gamma=2.0, direction=-1),
        MetaInfo(gamma=3.0, direction=1),
    )

    def test_wrong_gamma_reverses_order(self):
        metas = MethodSpec("dru_wrong_gamma").resolve_metas(self.informed)
        assert [m.gamma for m in metas] == [3.0, 2.0, 1.5]
        assert [m.direction for m in metas] == [1, -1, 1]

    def test_wrong_d_flips_every_sign(self):
        metas = MethodSpec("dru_wrong_d").resolve_metas(self.informed)
        assert [m.gamma for m in metas] == [1.5, 2.0, 3.0]
        assert [m.direction for m in metas] == [-1, 1, -1]

    def test_wrong_both(self):
        metas = MethodSpec("dru_wrong_both").resolve_metas(self.informed)
        assert [m.gamma for m in metas] == [3.0, 2.0, 1.5]
        assert [m.direction for m in metas] == [-1, 1, -1]

    def test_pinball_levels_push_toward_the_population(self):
        ps = MethodSpec("pinball").resolve_pinball_ps(self.informed)
        assert ps[0] == pytest.approx(1 - eta(1.5))
        assert ps[1] == pytest.approx(eta(2.0))
        assert ps[0] < 0.5 < ps[1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            MethodSpec("mrp")


class TestRunSweep:
    def test_single_run_yields_one_record_per_target(self):
        pops, biases, cfg = small_setup()
        result = run_sweep(pops, biases, [["gender", "age"]], ["nn_plain"], cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=1)
        assert len(result.records) == 2
        assert [r.target for r in result.records] == [0, 1]
        assert not result.failures

    def test_deterministic_across_jobs(self):
        pops, biases, cfg = small_setup(n_replicates=2)
        kw = dict(covariate_subsets=[["gender"]], methods=["nn_plain"], cfg=cfg, base_seed=2)
        r1 = run_sweep(pops, biases, sweep_cfg=SweepConfig(prev_sample_size=4000, jobs=1), **kw)
        r2 = run_sweep(pops, biases, sweep_cfg=SweepConfig(prev_sample_size=4000, jobs=2), **kw)
        assert r1.records == r2.records

    def test_failed_runs_are_recorded_and_sweep_continues(self):
        pops, biases, cfg = small_setup()
        bad_cfg = TrainConfig(learning_rate=1e300)  # every network fit diverges
        result = run_sweep(pops, biases, [["gender"]], ["nn_plain", "regression_poststrat"],
                           bad_cfg, SweepConfig(prev_sample_size=4000), base_seed=3)
        assert [f.method for f in result.failures] == ["nn_plain"]
        # the closed-form baseline does not train a network and still succeeds
        assert {r.method for r in result.records} == {"regression_poststrat"}

    def test_empty_inputs_rejected(self):
        pops, biases, cfg = small_setup()
        with pytest.raises(ConfigError):
            run_sweep([], [], [["gender"]], ["nn_plain"], cfg)

    def test_meta_estimation_failure_only_hits_informed_methods(self):
        pops, biases, cfg = small_setup()
        # prev sample far too small for any cell to clear the row threshold
        sweep_cfg = SweepConfig(prev_sample_size=40, meta_min_cell_rows=30)
        result = run_sweep(pops, biases, [["gender"]],
                           ["dru_informed", "pinball", "nn_plain"], cfg, sweep_cfg,
                           base_seed=9)
        assert sorted(f.method for f in result.failures) == ["dru_informed", "pinball"]
        assert {r.method for r in result.records} == {"nn_plain"}

    def test_coverage_matches_brute_force_cell_sets(self):
        pops, biases, cfg = small_setup(n_replicates=2, n_population=2000, n_sample=150)
        subsets = [["gender", "age", "area", "education", "employment", "past_vote"], ["age"]]
        result = run_sweep(pops, biases, subsets, ["regression_poststrat"], cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=6)
        expected = []
        for replicate, (pop_spec, bias) in enumerate(zip(pops, biases)):
            population = generate_population(pop_spec)
            for subset in subsets:
                cols = population.column_index(subset)
                cells = {tuple(row) for row in population.covariates[:, cols].tolist()}
                unseen = []
                for t in range(population.n_targets):
                    sample = biased_sample(population, bias, t)
                    seen = {tuple(row) for row in sample.covariates[:, cols].tolist()}
                    unseen.append(len(cells - seen))
                expected.append({"replicate": replicate, "subset": "+".join(subset),
                                 "cells": len(cells), "max_unseen_in_training": max(unseen)})
        assert result.coverage == expected
        # 2,000 rows leave some of the 1,440 full cells empty, and 150 sample
        # rows cannot reach all of the populated ones
        assert all(0 < row["max_unseen_in_training"] < row["cells"] < 1440
                   for row in expected[::2])

    def test_unbiased_samples_leave_little_bias_to_move(self):
        # no bias to remove: an exact-fit estimator scores near zero; the
        # network's score sits lower because its optimizer noise is divided
        # by the (tiny) baseline deviation, but it must not collapse
        pops, biases, cfg = small_setup(
            n_replicates=30, n_population=12_000, n_sample=700, n_targets=5,
            gamma=1.0, directions=(1, -1, 1, -1, -1), seed=100)
        result = run_sweep(pops, biases, [["gender", "age"]],
                           ["regression_poststrat", "nn_plain"], cfg,
                           SweepConfig(prev_sample_size=3000, jobs=2), base_seed=4)
        assert not result.failures
        by_method = {}
        for (_, _, method), b in result.run_b_values().items():
            by_method.setdefault(method, []).append(b)
        assert len(by_method["regression_poststrat"]) == 30
        assert abs(float(np.mean(by_method["regression_poststrat"]))) <= 0.2
        assert float(np.mean(by_method["nn_plain"])) > -2.5


class TestSummaries:
    @staticmethod
    def synthetic_result(b_by_run):
        """One-target records engineered to hit exact b values."""
        records = []
        for idx, b in enumerate(b_by_run):
            # |true - hat| = (1 - b) * |true - unweighted| makes the run score b
            records.append(RunRecord(
                replicate=idx, subset=("x",), method="nn_plain", target=0,
                y_hat=0.5 - (1 - b) * 0.1, y_true=0.5, y_unweighted=0.4,
            ))
        return SweepResult(records=records, failures=[])

    def test_mean_and_frequency(self):
        rows = summarize(self.synthetic_result([0.5, -0.5]))
        assert len(rows) == 1 and rows[0]["method"] == "nn_plain"
        assert rows[0]["mean_b"] == pytest.approx(0.0, abs=1e-12)
        assert rows[0]["freq_b_positive"] == 0.5

    def test_all_positive(self):
        rows = summarize(self.synthetic_result([1.0, 1.0, 1.0]))
        assert rows[0]["mean_b"] == pytest.approx(1.0)
        assert rows[0]["freq_b_positive"] == 1.0

    def test_summary_recomputable_from_records(self):
        pops, biases, cfg = small_setup()
        result = run_sweep(pops, biases, [["gender"]], ["nn_plain", "dru_informed"], cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=5)
        rows = summarize(result)
        by_run = result.run_b_values()
        for row in rows:
            values = [b for (_, _, m), b in by_run.items() if m == row["method"]]
            assert row["mean_b"] == pytest.approx(float(np.mean(values)), abs=1e-15)

    def test_histogram_counts_cover_every_run(self):
        result = self.synthetic_result([0.5, -0.5, 0.25, 0.99])
        rows = histogram_data(result, n_bins=12)
        assert sum(r["count"] for r in rows) == 4
        assert all(r["bin_left"] < r["bin_right"] for r in rows)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            summarize(SweepResult(records=[], failures=[]))
