"""The four workloads: the config each sends to ``drureg``, its set-up, and the
checks on its outputs.

Every workload is a closed loop with one client: the next ``drureg`` call
starts when the previous one has returned. Inputs derive from the workload
seed alone; drureg itself only sees the generated config files and seeds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FULL_SUBSET = ["gender", "age", "area", "education", "employment", "past_vote"]
D_TRUE = [1, -1, 1, -1, -1]
MAX_ORACLE_GAP = 1e-9


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Call:
    """One drureg invocation: its argv, the ops it attempts and where it writes."""

    argv: list[str]
    ops: int
    out: Path
    targets: int = 0  # outcome targets per sweep run


class Workload:
    name = ""
    why = ""
    op = ""  # what one op is, for the human-readable report

    def __init__(self, tiny: bool):
        self.tiny = tiny

    def setup(self, seed: int, work: Path, run_cli, load_config) -> dict:
        """Write the configs and validate them; generate inputs if the workload reads any.

        ``run_cli(argv, out)`` runs drureg and returns (exit code, output);
        ``load_config(path)`` validates a config file as drureg does.
        """
        raise NotImplementedError

    def call(self, state: dict, index: int, seed: int, out: Path) -> Call:
        raise NotImplementedError

    def check(self, call: Call, code: int, stdout: str) -> tuple[int, str]:
        """(failed ops, output digest) for a finished call."""
        raise NotImplementedError

    @staticmethod
    def write_config(path: Path, doc: dict, load_config) -> tuple[Path, dict]:
        """Write a config file and validate it as drureg will; returns the resolved config."""
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return path, load_config(path)


class Sweep(Workload):
    """``drureg sweep`` with one replicate per call."""

    op = "run (replicate x subset x method)"

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self, seed, work, run_cli, load_config):
        path, resolved = self.write_config(work / "sweep.json", {"seed": seed, **self.config()},
                                           load_config)
        runs = (resolved["sweep"]["n_replicates"] * len(resolved["covariate_subsets"])
                * len(resolved["methods"]))
        return {"config": path, "runs": runs, "targets": resolved["population"]["n_targets"]}

    def call(self, state, index, seed, out):
        argv = ["sweep", "--config", str(state["config"]), "--out", str(out),
                "--seed", str(seed), "--jobs", "1"]
        return Call(argv, state["runs"], out, state["targets"])

    def check(self, call, code, stdout):
        # exit 0, no RunFailure, one finite b-score per (replicate, subset, method)
        records = call.out / "records.csv"
        if code != 0 or not records.is_file():
            return call.ops, ""
        manifest = json.loads((call.out / "manifest.json").read_text())
        groups: dict[tuple, list[tuple[float, float]]] = {}
        with records.open(newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["replicate"], row["subset"], row["method"])
                baseline = abs(float(row["y_true"]) - float(row["y_unweighted"]))
                groups.setdefault(key, []).append((float(row["b_contribution"]), baseline))
        good = 0
        for rows in groups.values():
            removed = sum(r for r, _ in rows)
            baseline = sum(b for _, b in rows)
            b = removed / baseline if baseline > 0 else math.nan
            good += len(rows) == call.targets and math.isfinite(b)
        failed = max(call.ops - good, int(manifest["stats"]["n_failed"]))
        return failed, sha256(records)


class SweepDesk(Sweep):
    name = "sweep-desk"
    why = ("acceptance-sweep traffic at the default desk config: 60 tiny network fits per "
           "replicate, so nn.train is ~95% of the time")

    def config(self):
        doc = {"sweep": {"n_replicates": 1}}
        if self.tiny:
            doc["population"] = {"n_population": 5000}
            doc["bias"] = {"n_sample": 300}
            doc["sweep"]["prev_sample_size"] = 2000
            doc["train"] = {"max_epochs": 2}
        return doc


class PrepScale(Sweep):
    name = "prep-scale"
    why = ("regression_poststrat only on a 1M population with 5 subsets up to 1,440 cells: "
           "nn trains nothing, time goes to sampling, harness and poststrat")

    def config(self):
        subsets = [FULL_SUBSET, ["gender", "age"], ["age", "area", "education"],
                   ["area", "education", "employment", "past_vote"],
                   ["gender", "age", "area", "education", "employment"]]
        scale = 50 if self.tiny else 1
        return {
            "population": {"n_population": 1_000_000 // scale},
            "bias": {"n_sample": 20_000 // scale},
            "sweep": {"n_replicates": 1, "prev_sample_size": 200_000 // scale},
            "methods": ["regression_poststrat"],
            "covariate_subsets": subsets,
        }


class TrainSingle(Workload):
    name = "train-single"
    why = ("one dRU model per drureg train call on a 20k-row sample CSV: one model on large "
           "data, the opposite shape to the sweep's 60 small ones")
    op = "fit (drureg train call)"

    def setup(self, seed, work, run_cli, load_config):
        rows = 500 if self.tiny else 20_000
        generate = {"seed": seed, "population": {"n_population": 5000 if self.tiny else 100_000},
                    "bias": {"n_sample": rows, "d_true": D_TRUE, "gamma_true": 2.0}}
        data = work / "data"
        config, _ = self.write_config(work / "generate.json", generate, load_config)
        code, _ = run_cli(["generate", "--config", str(config), "--out", str(data),
                           "--seed", str(seed), "--jobs", "1"], data)
        if code != 0:
            raise RuntimeError(f"drureg generate exited with code {code}")
        models = []
        for target, direction in enumerate(D_TRUE):
            # At most 3 epochs with patience 3 never stops early, so every fit
            # does the same work whatever the seed; sweep-desk covers early stopping.
            doc = {"model": {"loss": "dru", "gamma": 2.0, "direction": direction,
                             "target": target},
                   "train": {"max_epochs": 1 if self.tiny else 3, "patience": 3}}
            models.append(self.write_config(work / f"model_{target}.json", doc, load_config)[0])
        return {"data": data, "models": models}

    def call(self, state, index, seed, out):
        target = seed % len(D_TRUE)
        argv = ["train", "--config", str(state["models"][target]),
                "--data", str(state["data"] / f"sample_target_{target}.csv"),
                "--out", str(out), "--seed", str(seed), "--jobs", "1"]
        return Call(argv, 1, out)

    def check(self, call, code, stdout):
        # model.json round-trips through TrainedModel.from_json and predicts
        # finite values on every covariate cell
        from drureg.nn import TrainedModel, one_hot_encode
        from drureg.sampling import DEFAULT_COVARIATES

        path = call.out / "model.json"
        if code != 0 or not path.is_file():
            return 1, ""
        text = path.read_text()
        model = TrainedModel.from_json(text)
        counts = [c for _, c in DEFAULT_COVARIATES]
        cells = np.indices(counts).reshape(len(counts), -1).T
        preds = model.predict(one_hot_encode(cells, counts))
        ok = model.to_json() == text and bool(np.isfinite(preds).all())
        return int(not ok), sha256(path)


class OracleCheck(Workload):
    name = "oracle-check"
    why = ("greedy worst cases against the LP oracle on distributions of up to 2,000 points: "
           "the only workload that runs robustness")
    op = "oracle instance"

    def setup(self, seed, work, run_cli, load_config):
        instances = 5 if self.tiny else 50
        doc = {"seed": seed, "oracle": {"n_instances": instances, "max_points": 2000}}
        return {"config": self.write_config(work / "oracle.json", doc, load_config)[0],
                "instances": instances}

    def call(self, state, index, seed, out):
        argv = ["oracle", "--config", str(state["config"]), "--out", str(out),
                "--seed", str(seed), "--jobs", "1"]
        return Call(argv, state["instances"], out)

    def check(self, call, code, stdout):
        # every greedy sup agrees with the LP to 1e-9; a call that breaks
        # this counts all its instances as failed
        path = call.out / "manifest.json"
        if code != 0 or not path.is_file():
            return call.ops, ""
        stats = json.loads(path.read_text())["stats"]
        ok = (stats["n_instances"] == call.ops
              and max(stats["max_ru_discrepancy"], stats["max_dru_discrepancy"]) <= MAX_ORACLE_GAP)
        return (0 if ok else call.ops), hashlib.sha256(stdout.encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (SweepDesk, PrepScale, TrainSingle, OracleCheck)}
