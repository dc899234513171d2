import concurrent.futures
import gc
import weakref
from types import SimpleNamespace

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
from drureg import harness, sampling
from drureg.errors import ConfigError, NumericError, SchemaError, UndefinedScoreError
from drureg.harness import (
    METHOD_KINDS,
    METHODS,
    RunRecord,
    SweepConfig,
    SweepResult,
    _fit_regression,
    b_score,
    histogram_data,
    lookup_method,
    run_sweep,
    summarize,
)
from drureg.losses import MetaInfo
from drureg.nn import TrainConfig, one_hot_encode, split_sizes
from drureg.poststrat import build_cell_table
from drureg.robustness import eta
from drureg.sampling import (
    BiasSpec,
    biased_sample,
    cell_design,
    default_population_spec,
    generate_population,
    grid_levels,
)


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
    """Each method's entry in the METHODS table."""

    informed = (
        MetaInfo(gamma=1.5, direction=1),
        MetaInfo(gamma=2.0, direction=-1),
        MetaInfo(gamma=3.0, direction=1),
    )

    def test_wrong_gamma_reverses_order(self):
        metas = METHODS["dru_wrong_gamma"].metas(self.informed)
        assert [m.gamma for m in metas] == [3.0, 2.0, 1.5]
        assert [m.direction for m in metas] == [1, -1, 1]

    def test_wrong_d_flips_every_sign(self):
        metas = METHODS["dru_wrong_d"].metas(self.informed)
        assert [m.gamma for m in metas] == [1.5, 2.0, 3.0]
        assert [m.direction for m in metas] == [-1, 1, -1]

    def test_wrong_both(self):
        metas = METHODS["dru_wrong_both"].metas(self.informed)
        assert [m.gamma for m in metas] == [3.0, 2.0, 1.5]
        assert [m.direction for m in metas] == [-1, 1, -1]

    def test_pinball_levels_push_toward_the_population(self):
        pinball = METHODS["pinball"]
        ps = [pinball.loss(m).pinball_p for m in pinball.metas(self.informed)]
        assert ps[0] == pytest.approx(1 - eta(1.5))
        assert ps[1] == pytest.approx(eta(2.0))
        assert ps[0] < 0.5 < ps[1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            lookup_method("mrp")

    def test_pinball_without_direction_is_the_median(self):
        assert METHODS["pinball"].loss(MetaInfo(gamma=2.0, direction=0)).pinball_p == 0.5

    @pytest.mark.parametrize("kind", [k for k in METHOD_KINDS if k.startswith("dru_")])
    @pytest.mark.parametrize("meta", [MetaInfo(2.0, 0), MetaInfo(1.0, 1)])
    def test_dru_falls_back_to_squared_without_directional_information(self, kind, meta):
        method = METHODS[kind]
        (transformed,) = method.metas((meta,))
        assert method.loss(transformed).kind == "squared"

    def test_unknown_kind_after_a_valid_one_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a network was trained")

        monkeypatch.setattr("drureg.harness.train_stack", no_fit)
        monkeypatch.setattr("drureg.harness.generate_population", no_fit)
        pops, biases, cfg = small_setup()
        with pytest.raises(ConfigError, match="mrp"):
            run_sweep(pops, biases, [["gender"]], ["nn_plain", "mrp"], cfg)


class TestMethodMapping:
    """What each method trains, seen at the trainer: fixed informed metas
    make the expected loss, widths and alpha net of every fit exact."""

    informed = (MetaInfo(gamma=2.0, direction=1), MetaInfo(gamma=3.0, direction=-1))

    def test_every_method_fits_its_loss_and_widths(self, monkeypatch):
        fits = []

        def recording_train_stack(stack, cfg):
            for fit in stack:
                loss, alpha = fit.loss, fit.alpha
                meta = None if loss.meta is None else (loss.meta.gamma, loss.meta.direction)
                fits.append((loss.kind, meta, loss.pinball_p, fit.h.layers[0].output_width,
                             None if alpha is None else alpha.layers[0].output_width))
            return [(SimpleNamespace(predict=lambda x: np.full(len(x), 0.5)), None)] * len(stack)

        monkeypatch.setattr("drureg.harness.train_stack", recording_train_stack)
        monkeypatch.setattr("drureg.harness.estimate_true_meta",
                            lambda sample, population, t, min_cell_rows: self.informed[t])
        pops, biases, cfg = small_setup()
        methods = ["dru_informed", "nn_plain", "regression_poststrat", "pinball",
                   "dru_wrong_gamma", "dru_wrong_d", "dru_wrong_both"]
        result = run_sweep(pops, biases, [["gender", "age"]], methods, cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=1)
        assert not result.failures
        assert len(result.records) == 2 * len(methods)
        # regression_poststrat trains nothing; pinball's h is twice as wide
        assert fits == [
            ("dru", (2.0, 1), None, 4, 4), ("dru", (3.0, -1), None, 4, 4),
            ("squared", None, None, 4, None), ("squared", None, None, 4, None),
            ("pinball", None, 1 - eta(2.0), 8, None), ("pinball", None, eta(3.0), 8, None),
            ("dru", (3.0, 1), None, 4, 4), ("dru", (2.0, -1), None, 4, 4),
            ("dru", (2.0, -1), None, 4, 4), ("dru", (3.0, 1), None, 4, 4),
            ("dru", (3.0, -1), None, 4, 4), ("dru", (2.0, 1), None, 4, 4),
        ]


def test_fit_regression_matches_the_per_target_column_stack():
    # 3,000 rows leave full cells empty in the population, and 800 sample
    # rows leave more unseen, so the least-squares problem is rank deficient
    pop = generate_population(default_population_spec(n_population=3_000, seed=41))
    subset = pop.covariate_names
    table = build_cell_table(pop, subset)
    assert (table.fractions == 0).any()
    cell_features = one_hot_encode(grid_levels(table.level_counts), table.level_counts)
    design = np.column_stack([cell_features, np.ones(cell_features.shape[0])])
    bias = BiasSpec((2.0,) * 5, (1, -1, 1, -1, -1), 800, seed=42)
    for t in range(pop.n_targets):
        sample = biased_sample(pop, [bias], t)[0]
        rows, y = sample.cells, sample.outcomes[:, t].astype(float)  # every covariate, in order
        a = np.column_stack([cell_features[rows], np.ones(rows.size)])
        beta, *_ = np.linalg.lstsq(a, y, rcond=None)
        expected = np.column_stack([cell_features, np.ones(cell_features.shape[0])]) @ beta
        assert _fit_regression(design, rows, y).tobytes() == expected.tobytes()


class TestSweepConfig:
    @pytest.mark.parametrize("key", ["prev_sample_size", "hidden_width", "meta_min_cell_rows"])
    def test_value_below_one_rejected(self, key):
        with pytest.raises(ConfigError, match=f"sweep.{key}"):
            SweepConfig(**{key: 0})


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
        r1 = run_sweep(pops, biases, sweep_cfg=SweepConfig(prev_sample_size=4000), jobs=1, **kw)
        r2 = run_sweep(pops, biases, sweep_cfg=SweepConfig(prev_sample_size=4000), jobs=2, **kw)
        assert r1.records == r2.records

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        pops, biases, cfg = small_setup()
        with pytest.raises(ConfigError, match="jobs"):
            run_sweep(pops, biases, [["gender"]], ["nn_plain"], cfg, jobs=jobs)

    @pytest.mark.parametrize("jobs, n_replicates, workers", [(64, 2, 2), (2, 3, 2)])
    def test_pool_starts_at_most_one_worker_per_replicate(self, monkeypatch, jobs,
                                                          n_replicates, workers):
        # a fork pool starts all max_workers processes at its first task; this
        # stand-in records the size and maps in this process, starting none
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        pops, biases, cfg = small_setup(n_replicates=n_replicates)
        result = run_sweep(pops, biases, [["gender"]], ["regression_poststrat"], cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=2, jobs=jobs)
        assert opened == [workers]
        assert {r.replicate for r in result.records} == set(range(n_replicates))

    @pytest.mark.parametrize("bad", ["unknown_covariate", "mixed_schemas"])
    def test_bad_schema_rejected_before_any_population_is_drawn(self, monkeypatch, bad):
        drawn = []
        real_generate = harness.generate_population
        monkeypatch.setattr(harness, "generate_population",
                            lambda spec: drawn.append(spec) or real_generate(spec))
        pops, biases, cfg = small_setup(n_replicates=2)
        subsets = [["gender"], ["gender", "age"]]
        if bad == "unknown_covariate":
            subsets.append(["gender", "region"])
            error, match = SchemaError, "unknown covariate 'region'"
        else:
            pops[1] = default_population_spec(n_population=1000, n_targets=2, seed=3,
                                              covariate_levels=(("gender", 2), ("age", 4)))
            error, match = ConfigError, "one covariate schema"
        with pytest.raises(error, match=match):
            run_sweep(pops, biases, subsets, ["regression_poststrat"], cfg,
                      SweepConfig(prev_sample_size=4000))
        assert len(drawn) == 0

    def test_one_cell_design_per_subset_shared_by_every_replicate(self, monkeypatch):
        designs, stacks = [], []
        real_design, real_train_stack = harness.cell_design, harness.train_stack
        monkeypatch.setattr(harness, "cell_design",
                            lambda *args: designs.append(real_design(*args)) or designs[-1])
        monkeypatch.setattr(harness, "train_stack",
                            lambda fits, cfg: stacks.append(fits) or real_train_stack(fits, cfg))
        pops, biases, cfg = small_setup(n_replicates=2)
        result = run_sweep(pops, biases, [["gender", "age"], ["age"]],
                           ["nn_plain", "regression_poststrat", "dru_informed"], cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=4, jobs=1)
        assert not result.failures
        assert len(designs) == 2 and len(stacks) == 2  # one design per subset, one stack per replicate
        tables = [features for _, features in designs]
        for fits in stacks:
            # subset by subset: 2 network methods x 2 targets, each on its subset's one table
            assert [next(i for i, x in enumerate(tables) if x is fit.table) for fit in fits] == \
                [0] * 4 + [1] * 4

    def test_one_row_cdf_per_replicate_and_target(self, monkeypatch):
        # a target's previous-election and evaluation samples share one CDF
        built = []
        row_cdf = sampling._row_cdf
        monkeypatch.setattr(sampling, "_row_cdf", lambda population, t, gamma, d:
                            built.append(t) or row_cdf(population, t, gamma, d))
        pops, biases, cfg = small_setup(n_replicates=2)
        result = run_sweep(pops, biases, [["gender"]], ["regression_poststrat"], cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=2)
        assert not result.failures
        assert built == [0, 1, 0, 1]

    def test_failed_runs_are_recorded_and_sweep_continues(self):
        pops, biases, cfg = small_setup()
        bad_cfg = TrainConfig(learning_rate=1e300)  # every network fit diverges
        result = run_sweep(pops, biases, [["gender"]], ["nn_plain", "regression_poststrat"],
                           bad_cfg, SweepConfig(prev_sample_size=4000), base_seed=3)
        assert [f.method for f in result.failures] == ["nn_plain"]
        # the closed-form baseline does not train a network and still succeeds
        assert {r.method for r in result.records} == {"regression_poststrat"}

    def test_one_batch_training_split_runs_every_method(self):
        pops, biases, cfg = small_setup(n_replicates=2, n_population=5000, n_sample=13,
                                        n_targets=5, directions=(1, -1, 1, -1, -1))
        assert split_sizes(13, cfg)[1] == cfg.batch_size == 12
        result = run_sweep(pops, biases, [["gender", "age"]], list(METHOD_KINDS), cfg,
                           SweepConfig(prev_sample_size=4000), base_seed=5)
        assert not result.failures
        assert len(result.records) == 2 * len(METHOD_KINDS) * 5

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

    def test_run_fails_at_its_first_failing_target_and_keeps_no_records(self, monkeypatch):
        pops, biases, cfg = small_setup(n_targets=3, directions=(1, -1, 1))
        methods = ["dru_informed", "nn_plain", "regression_poststrat", "pinball"]
        args = (pops, biases, [["gender", "age"]], methods, cfg,
                SweepConfig(prev_sample_size=4000))
        clean = run_sweep(*args, base_seed=8)
        assert not clean.failures
        real_train_stack = harness.train_stack

        def failing_train_stack(fits, cfg):
            outcomes = real_train_stack(fits, cfg)
            # fits run in subset -> method -> target order: nn_plain's are 3..5
            assert all(fit.loss.kind == "squared" and fit.alpha is None for fit in fits[3:6])
            outcomes[4], outcomes[5] = NumericError("first"), NumericError("second")
            return outcomes

        monkeypatch.setattr(harness, "train_stack", failing_train_stack)
        result = run_sweep(*args, base_seed=8)
        assert [(f.method, f.error) for f in result.failures] == [
            ("nn_plain", "NumericError: first")]
        assert not [r for r in result.records if r.method == "nn_plain"]
        assert result.records == [r for r in clean.records if r.method != "nn_plain"]

    @pytest.mark.parametrize("sweep_cfg", [SweepConfig(prev_sample_size=4000),
                                           SweepConfig(prev_sample_size=40, meta_min_cell_rows=30)],
                             ids=["meta", "meta_failure"])
    def test_plan_releases_the_population(self, monkeypatch, sweep_cfg):
        populations = []
        real_generate = harness.generate_population

        def generate(spec):
            population = real_generate(spec)
            populations.append(weakref.ref(population))
            return population

        monkeypatch.setattr(harness, "generate_population", generate)
        pops, biases, cfg = small_setup()
        designs = []
        for subset in [("gender",), ("gender", "age")]:
            lookup, x = cell_design(pops[0].covariate_names, pops[0].level_counts, subset)
            designs.append((subset, lookup, x, np.column_stack([x, np.ones(len(x))])))
        plan = harness._plan_replicate((0, pops[0], biases[0], designs,
                                        list(METHOD_KINDS), cfg, sweep_cfg, 3))
        gc.collect()
        assert len(populations) == 1 and populations[0]() is None
        assert len(plan[2]) == 2 * len(METHOD_KINDS)  # the plan itself is kept

    def test_regression_rows_do_not_depend_on_the_network_methods(self):
        pops, biases, cfg = small_setup(n_replicates=2)
        kw = dict(covariate_subsets=[["gender", "age"], ["age"]], cfg=cfg,
                  sweep_cfg=SweepConfig(prev_sample_size=4000), base_seed=3)
        full = run_sweep(pops, biases, methods=list(METHOD_KINDS), **kw)
        alone = run_sweep(pops, biases, methods=["regression_poststrat"], **kw)
        assert not full.failures and not alone.failures
        assert alone.records == [r for r in full.records if r.method == "regression_poststrat"]

    def test_unbiased_samples_leave_little_bias_to_move(self):
        # no bias to remove: an exact-fit estimator scores near zero; the
        # network's score sits lower because its optimizer noise is divided
        # by the (tiny) baseline deviation, but it must not collapse
        pops, biases, cfg = small_setup(
            n_replicates=30, n_population=12_000, n_sample=700, n_targets=5,
            gamma=1.0, directions=(1, -1, 1, -1, -1), seed=100)
        result = run_sweep(pops, biases, [["gender", "age"]],
                           ["regression_poststrat", "nn_plain"], cfg,
                           SweepConfig(prev_sample_size=3000), base_seed=4, jobs=2)
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
