"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them live).
The method-comparison sweep runs at desk scale: 50 replicates of a 100k
population with 2k-row biased samples, all seven estimation methods.
"""

import functools
import json

import numpy as np
import pytest

from conftest import analytic_param_grads, fd_param_grads, max_rel_error, sample_smooth_instance
from drureg.cli import main as cli_main
from drureg.config import (
    bias_spec_from_config,
    population_spec_from_config,
    train_config_from_config,
    validate_config,
)
from drureg.errors import InfeasibleError
from drureg.harness import SweepConfig, b_score, run_sweep, summarize
from drureg.losses import LossSpec, MetaInfo, dru_loss, ru_loss, squared_loss
from drureg.robustness import (
    DiscreteDistribution,
    cvar,
    eta,
    sup_oracle_lp,
    worst_case_dru,
    worst_case_ru,
)
from drureg.sampling import BiasSpec, biased_sample, default_population_spec, generate_population

JOBS = 2


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        return wrapper

    return decorate


@criterion("loss identities at gamma=1")
def test_loss_identities():
    rng = np.random.default_rng(1)
    z = rng.uniform(-10, 10, 10_000)
    a = rng.uniform(0, 5, 10_000)
    y = rng.uniform(-10, 10, 10_000)
    base = squared_loss(z, y)
    for d in (-1, 1):
        dev = np.abs(dru_loss(z, a, y, MetaInfo(gamma=1.0, direction=d)) - base)
        assert dev.max() < 1e-12
    dev = np.abs(ru_loss(z, a, y, 1.0) - base)
    assert dev.max() < 1e-12


@criterion("gradient suite vs central finite differences")
def test_gradient_suite():
    rng = np.random.default_rng(2)
    specs = []
    for _ in range(15):
        specs.append(LossSpec("squared"))
        specs.append(LossSpec("pinball", pinball_p=float(rng.uniform(0.1, 0.9))))
        specs.append(LossSpec("ru", meta=MetaInfo(gamma=float(rng.uniform(1.1, 4.0)), direction=0)))
        specs.append(LossSpec("dru", meta=MetaInfo(gamma=float(rng.uniform(1.1, 4.0)),
                                                   direction=int(rng.choice((-1, 1))))))
    n_points = 0
    for spec in specs:
        h, alpha, X, y = sample_smooth_instance(rng, spec)
        analytic_h, analytic_a = analytic_param_grads(h, alpha, X, y, spec)
        numeric_h, numeric_a = fd_param_grads(h, alpha, X, y, spec, step=1e-5)
        assert max_rel_error(analytic_h, numeric_h) < 1e-4
        n_points += sum(w.size + b.size for w, b in analytic_h)
        if alpha is not None:
            assert max_rel_error(analytic_a, numeric_a) < 1e-4
            n_points += sum(w.size + b.size for w, b in analytic_a)
    assert n_points >= 200


@criterion("worst-case oracle equivalence (greedy vs LP)")
def test_oracle_equivalence():
    rng = np.random.default_rng(3)
    n_feasible = 0
    for _ in range(100):
        k = int(rng.integers(2, 21))
        probs = rng.random(k) + 0.05
        probs /= probs.sum()
        dist = DiscreteDistribution(values=rng.uniform(0, 10, k), probs=probs)
        gamma = float(rng.uniform(1.0, 4.0))
        signs = rng.choice((-1, 1), size=k)
        direction = int(rng.choice((-1, 1)))

        ru = worst_case_ru(dist, gamma)
        assert abs(ru.sup_value - sup_oracle_lp(dist, gamma)) < 1e-9
        try:
            dru = worst_case_dru(dist, signs, MetaInfo(gamma=gamma, direction=direction))
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                sup_oracle_lp(dist, gamma, constraint=(signs, direction))
            continue
        n_feasible += 1
        lp = sup_oracle_lp(dist, gamma, constraint=(signs, direction))
        assert abs(dru.sup_value - lp) < 1e-9
        assert dru.sup_value <= ru.sup_value + 1e-9
    assert n_feasible >= 30


@criterion("eta values and CVaR hand examples")
def test_eta_and_cvar():
    assert eta(1.0) == 0.5
    assert eta(3.0) == 0.75
    for gamma in np.linspace(1.0, 10.0, 50):
        e = eta(gamma)
        assert abs(gamma * (1.0 - e) + e / gamma - 1.0) < 1e-12
    quarters = DiscreteDistribution(values=np.array([1.0, 2.0, 3.0, 4.0]),
                                    probs=np.full(4, 0.25))
    assert cvar(quarters, 0.5) == pytest.approx(3.5, abs=1e-12)
    point = DiscreteDistribution(values=np.array([4.2]), probs=np.array([1.0]))
    assert cvar(point, 0.37) == pytest.approx(4.2, abs=1e-12)
    two = DiscreteDistribution(values=np.array([0.0, 10.0]), probs=np.array([0.5, 0.5]))
    assert cvar(two, 0.75) == pytest.approx(10.0, abs=1e-12)


@criterion("sampler fidelity: ratio containment and direction")
def test_sampler_fidelity():
    gamma = 2.0
    spec = default_population_spec(
        n_population=200_000, n_targets=1, seed=41,
        covariate_levels=(("gender", 2), ("age", 5), ("area", 4)))
    pop = generate_population(spec)
    sample = biased_sample(pop, [BiasSpec((gamma,), (1,), 100_000, seed=42)], 0)[0]

    n_cells = int(np.prod(pop.level_counts))
    pc, sc = pop.cells, sample.cells
    pop_rows = np.bincount(pc, minlength=n_cells)
    samp_rows = np.bincount(sc, minlength=n_cells)
    pop_mu = np.bincount(pc, weights=pop.outcomes[:, 0], minlength=n_cells) / np.maximum(pop_rows, 1)
    samp_mu = np.bincount(sc, weights=sample.outcomes[:, 0], minlength=n_cells) / np.maximum(samp_rows, 1)
    contained = total = 0
    for j in range(n_cells):
        if pop_rows[j] < 100 or samp_rows[j] < 100:
            continue
        total += 1
        se = 3.0 * np.sqrt(samp_mu[j] * (1.0 - samp_mu[j]) / samp_rows[j] + 1e-12)
        ok = True
        for p_freq, s_freq in ((pop_mu[j], samp_mu[j]), (1 - pop_mu[j], 1 - samp_mu[j])):
            lo = p_freq / max(s_freq + se, 1e-12)
            hi = p_freq / max(s_freq - se, 1e-12)
            if hi < 1.0 / gamma or lo > gamma:
                ok = False
        contained += ok
    assert total >= 30
    assert contained / total >= 0.95

    pop_small = generate_population(default_population_spec(
        n_population=100_000, n_targets=1, seed=43,
        covariate_levels=(("gender", 2), ("age", 5))))
    mu = pop_small.target_mean(0)
    hits = sum(
        mu > biased_sample(pop_small, [BiasSpec((gamma,), (1,), 10_000, seed=500 + r)], 0)[0].target_mean(0)
        for r in range(100)
    )
    assert hits >= 95


@criterion("method ordering at desk scale (50 replicates)")
def test_method_ordering():
    resolved = validate_config({"sweep": {"n_replicates": 50}})
    n = resolved["sweep"]["n_replicates"]
    pops = [population_spec_from_config(resolved, 7000 + i) for i in range(n)]
    biases = [bias_spec_from_config(resolved, 8000 + i) for i in range(n)]
    result = run_sweep(
        pops, biases, resolved["covariate_subsets"], resolved["methods"],
        train_config_from_config(resolved),
        SweepConfig(prev_sample_size=resolved["sweep"]["prev_sample_size"],
                    meta_min_cell_rows=resolved["sweep"]["meta_min_cell_rows"]),
        base_seed=resolved["seed"], jobs=JOBS,
    )
    assert not result.failures
    rows = {row["method"]: row for row in summarize(result)}
    for method, row in sorted(rows.items()):
        print(f"    {method:22s} mean_b={row['mean_b']:+.4f} "
              f"freq_b>0={row['freq_b_positive']:.4f}")
    assert rows["dru_informed"]["mean_b"] > rows["nn_plain"]["mean_b"]
    assert rows["dru_wrong_d"]["mean_b"] < 0.0
    assert rows["dru_informed"]["freq_b_positive"] > rows["nn_plain"]["freq_b_positive"]


@criterion("b-score anchors")
def test_b_score_anchors():
    y_true = [0.31, 0.24, 0.17, 0.12, 0.08]
    y_unw = [0.18, 0.36, 0.09, 0.2, 0.15]
    assert b_score(y_true, y_true, y_unw) == 1.0
    assert b_score(y_true, y_unw, y_unw) == 0.0


@criterion("manifest reruns are byte-identical")
def test_manifest_determinism(tmp_path):
    config = {
        "seed": 99,
        "population": {"n_population": 15_000, "n_targets": 3},
        "bias": {"gamma_true": 2.0, "d_true": [1, -1, -1], "n_sample": 700},
        "sweep": {"n_replicates": 2, "prev_sample_size": 3000},
        "methods": ["nn_plain", "dru_informed"],
        "covariate_subsets": [["gender", "age"], ["gender"]],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    gen1, gen2 = tmp_path / "g1", tmp_path / "g2"
    assert cli_main(["generate", "--config", str(cfg_path), "--out", str(gen1)]) == 0
    assert cli_main(["generate", "--config", str(gen1 / "manifest.json"), "--out", str(gen2)]) == 0
    for name in ("population.csv", "sample_target_0.csv", "sample_target_2.csv", "manifest.json"):
        assert (gen1 / name).read_bytes() == (gen2 / name).read_bytes()

    sw1, sw2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(sw1),
                     "--jobs", str(JOBS)]) == 0
    assert cli_main(["sweep", "--config", str(sw1 / "manifest.json"), "--out", str(sw2),
                     "--jobs", "1"]) == 0
    for name in ("records.csv", "summary.csv", "histogram.csv", "manifest.json"):
        assert (sw1 / name).read_bytes() == (sw2 / name).read_bytes()
