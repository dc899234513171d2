"""Command-line entry point: generate data, train one model, verify the
worst-case oracles, or run the full method-comparison sweep.

Each of --config/--out/--seed/--jobs comes from its flag, else its DRUREG_*
variable (parsed like the flag: a malformed one exits 2), else its default: no
config file, out, the config's seed, all cores. Seeds must be >= 0. Only sweep
uses --jobs, starting at most one worker per replicate; the other commands
only check that it is >= 1. Every command writes a manifest pinning the
resolved config and seed; rerunning any command with --config pointed at its
manifest reproduces the outputs byte for byte.

Exit codes: 0 success, 1 I/O error, 2 usage or config/parse error, 3 partial
sweep failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    bias_spec_from_config,
    config_hash,
    load_config,
    population_spec_from_config,
    sweep_config_from_config,
    train_config_from_config,
    validate_config,
)
from .errors import ConfigError, DruRegError, InfeasibleError
from .harness import _derive_seed, histogram_data, run_sweep, summarize
from .losses import LossSpec, MetaInfo
from .nn import init_networks, train
from .robustness import DiscreteDistribution, sup_oracle_lp, worst_case_dru, worst_case_ru
from .sampling import Dataset, biased_sample, cell_design, generate_population


def _resolve_common(args) -> tuple[dict, Path, int, int]:
    resolved = load_config(args.config) if args.config else {}
    if args.seed is not None:
        resolved = {**resolved, "seed": args.seed}
    resolved = validate_config(resolved)  # checks a flag's or variable's seed too
    if args.jobs < 1:
        raise ConfigError(f"--jobs (or DRUREG_JOBS) must be >= 1, got {args.jobs}")
    return resolved, args.out, resolved["seed"], args.jobs


def _write_manifest(out_dir: Path, command: str, resolved: dict,
                    outputs: list[str], stats: dict) -> None:
    manifest = {
        "command": command,
        "config_sha256": config_hash(resolved),
        "resolved_config": resolved,
        "versions": {
            "drureg": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": sorted(outputs),
        "stats": stats,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def cmd_generate(args) -> int:
    resolved, out_dir, seed, _ = _resolve_common(args)
    pop_spec = population_spec_from_config(resolved, _derive_seed(seed, 1))
    bias = bias_spec_from_config(resolved, _derive_seed(seed, 2))
    out_dir.mkdir(parents=True, exist_ok=True)
    population = generate_population(pop_spec)
    population.to_csv(out_dir / "population.csv")
    outputs = ["population.csv", "population.provenance.json"]
    for t in range(population.n_targets):
        (sample,) = biased_sample(population, [bias], t)
        sample.to_csv(out_dir / f"sample_target_{t}.csv")
        outputs += [f"sample_target_{t}.csv", f"sample_target_{t}.provenance.json"]
    _write_manifest(out_dir, "generate", resolved, outputs, {
        "population_rows": population.n_rows,
        "sample_rows": bias.n_sample,
        "n_targets": population.n_targets,
    })
    print(f"wrote population ({population.n_rows} rows) and "
          f"{population.n_targets} biased samples to {out_dir}")
    return 0


def cmd_train(args) -> int:
    resolved, out_dir, seed, _ = _resolve_common(args)
    data = Dataset.from_csv(args.data)
    model_cfg = resolved["model"]
    target = model_cfg["target"]
    data.check_target(target)
    lookup, cell_features = cell_design(data.covariate_names, data.level_counts,
                                        model_cfg["covariates"] or data.covariate_names)
    features = cell_features[lookup[data.cells]]
    y = data.outcomes[:, target].astype(float)

    loss = LossSpec.from_dict({**model_cfg, "kind": model_cfg["loss"]})

    h, alpha = init_networks(features.shape[1], model_cfg["hidden_width"], loss,
                             _derive_seed(seed, 10), _derive_seed(seed, 11))
    model, report = train(h, alpha, features, y, loss, train_config_from_config(resolved),
                          seed=_derive_seed(seed, 12))

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.json").write_text(model.to_json())
    (out_dir / "train_report.json").write_text(
        json.dumps(asdict(report), indent=2, sort_keys=True))
    _write_manifest(out_dir, "train", resolved,
                    ["model.json", "train_report.json"],
                    {"epochs_run": report.epochs_run, "stopped_early": report.stopped_early,
                     "data_rows": data.n_rows})
    print(f"trained {loss.kind} model for target {target}: {report.epochs_run} epochs"
          f"{' (early stop)' if report.stopped_early else ''}")
    return 0


def _worse_gap(max_gap: float, gap: float) -> float:
    # max() would drop a NaN gap, so it counts as infinite
    return max(max_gap, np.inf if np.isnan(gap) else abs(gap))


def cmd_oracle(args) -> int:
    resolved, out_dir, seed, _ = _resolve_common(args)
    oracle_cfg = resolved["oracle"]
    rng = np.random.default_rng(_derive_seed(seed, 20))
    max_ru_gap = 0.0
    max_dru_gap = 0.0
    n_infeasible = 0
    for i in range(oracle_cfg["n_instances"]):
        k = int(rng.integers(2, oracle_cfg["max_points"] + 1))
        probs = rng.random(k) + 0.05
        probs /= probs.sum()
        losses = DiscreteDistribution(values=rng.uniform(0.0, 10.0, k), probs=probs)
        gamma = float(rng.uniform(1.0, 4.0))
        signs = rng.choice((-1, 1), size=k)
        direction = int(rng.choice((-1, 1)))

        ru = worst_case_ru(losses, gamma)
        ru_lp = sup_oracle_lp(losses, gamma)
        max_ru_gap = _worse_gap(max_ru_gap, ru.sup_value - ru_lp)
        line = f"[{i:03d}] gamma={gamma:.3f} ru greedy={ru.sup_value:.9f} lp={ru_lp:.9f}"
        try:
            dru_lp = sup_oracle_lp(losses, gamma, constraint=(signs, direction))
        except InfeasibleError:
            dru_lp = np.nan  # against a feasible greedy this is a NaN gap
        try:
            dru = worst_case_dru(losses, signs, MetaInfo(gamma=gamma, direction=direction))
            max_dru_gap = _worse_gap(max_dru_gap, dru.sup_value - dru_lp)
            line += f" dru greedy={dru.sup_value:.9f} lp={dru_lp:.9f}"
        except InfeasibleError:
            n_infeasible += 1
            line += " dru=infeasible"
            if not np.isnan(dru_lp):  # the LP found a worst case the greedy says cannot exist
                max_dru_gap = np.inf
        print(line)
    print(f"max discrepancy: ru={max_ru_gap:.3e} dru={max_dru_gap:.3e} "
          f"({n_infeasible} dru-infeasible instances)")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "oracle", resolved, [], {
        "max_ru_discrepancy": max_ru_gap,
        "max_dru_discrepancy": max_dru_gap,
        "n_infeasible": n_infeasible,
        "n_instances": oracle_cfg["n_instances"],
    })
    return 0


def cmd_sweep(args) -> int:
    resolved, out_dir, seed, jobs = _resolve_common(args)
    n_replicates = resolved["sweep"]["n_replicates"]
    populations = [population_spec_from_config(resolved, _derive_seed(seed, 1, i))
                   for i in range(n_replicates)]
    bias_specs = [bias_spec_from_config(resolved, _derive_seed(seed, 2, i))
                  for i in range(n_replicates)]
    result = run_sweep(
        populations, bias_specs, resolved["covariate_subsets"], resolved["methods"],
        train_config_from_config(resolved),
        sweep_config_from_config(resolved),
        base_seed=seed, jobs=jobs,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "records.csv",
               ["replicate", "subset", "method", "target",
                "y_hat", "y_true", "y_unweighted", "b_contribution"],
               [[r.replicate, "+".join(r.subset), r.method, r.target,
                 r.y_hat, r.y_true, r.y_unweighted, r.b_contribution]
                for r in result.records])
    summary = summarize(result) if result.records else []
    _write_csv(out_dir / "summary.csv",
               ["method", "mean_b", "freq_b_positive"],
               [[row["method"], row["mean_b"], row["freq_b_positive"]] for row in summary])
    _write_csv(out_dir / "histogram.csv",
               ["method", "bin_left", "bin_right", "count"],
               [[row["method"], row["bin_left"], row["bin_right"], row["count"]]
                for row in histogram_data(result)])

    n_runs = result.n_runs()
    n_failed = len(result.failures)
    success_rate = (n_runs - n_failed) / n_runs if n_runs else 0.0
    _write_manifest(out_dir, "sweep", resolved,
                    ["records.csv", "summary.csv", "histogram.csv"],
                    {"n_runs": n_runs, "n_failed": n_failed,
                     "success_rate": success_rate,
                     "failures": [f"{f.replicate}/{'+'.join(f.subset)}/{f.method}: {f.error}"
                                  for f in result.failures]})
    for row in summary:
        print(f"{row['method']:22s} mean_b={row['mean_b']:+.4f} "
              f"freq_b>0={row['freq_b_positive']:.4f}")
    if success_rate < 0.9:
        print(f"only {success_rate:.1%} of runs succeeded", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drureg",
        description="Directional robust regression: data generation, training, "
                    "oracle verification, and method-comparison sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("generate", cmd_generate, "write a synthetic population and biased samples"),
        ("train", cmd_train, "train one model on a dataset CSV"),
        ("oracle", cmd_oracle, "cross-check greedy worst cases against the LP solver"),
        ("sweep", cmd_sweep, "run the full method-comparison sweep"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=os.environ.get("DRUREG_CONFIG"),
                         help="config JSON or a run's manifest (default: $DRUREG_CONFIG)")
        cmd.add_argument("--out", type=Path, default=os.environ.get("DRUREG_OUT") or "out",
                         help="output directory (default: $DRUREG_OUT, else out)")
        cmd.add_argument("--seed", type=int, default=os.environ.get("DRUREG_SEED"),
                         help="seed >= 0 (default: $DRUREG_SEED, else the config's)")
        cmd.add_argument("--jobs", type=int,
                         default=os.environ.get("DRUREG_JOBS", os.cpu_count() or 1),
                         help="sweep worker processes (default: $DRUREG_JOBS, else all cores)")
        cmd.set_defaults(func=func)
        if name == "train":
            cmd.add_argument("--data", required=True, help="dataset CSV to train on")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DruRegError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
