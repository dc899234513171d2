"""Spans around the calls between drureg's modules, recorded from outside.

A module that does ``from .nn import train`` keeps its own reference to
``train``, so wrapping ``drureg.nn.train`` alone records nothing when the
harness trains. ``Tracer.install`` therefore wraps every public function one
drureg module imports from another under the name its caller looks it up by
(``drureg.harness.train``, ``drureg.cli.train``, ...), plus the calls that
stay inside one module but cross a boundary the benchmark reports
(``config.validate_config``, ``Dataset.from_csv``, ``Dataset.to_csv``).

Spans live in flat in-memory arrays (id = index, parent, root, name, start,
end, failed) and are written out once, when the run ends. A span's layer is
the drureg module that defines the function it wraps; spans the benchmark
opens itself are named ``bench.*`` and belong to no layer.
"""

from __future__ import annotations

import importlib
import inspect
import math
from array import array
from functools import wraps
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "harness", "nn", "losses", "sampling", "poststrat", "robustness")

# Every traced run emits all of these, with these units.
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                          ("failures", "count"))},
    "nn.fits": "count",
    "nn.train_s": "s",
    "nn.fit_ms_p50": "ms",
    "nn.fit_ms_p90": "ms",
    "nn.steps": "count",
    "nn.adam_updates": "count",
    "nn.us_per_step.squared": "us",
    "nn.us_per_step.dru": "us",
    "nn.us_per_step.pinball": "us",
    "nn.useful_epoch_ratio": "ratio",
    "losses.value_calls": "count",
    "losses.value_s": "s",
    "losses.grad_calls": "count",
    "losses.grad_s": "s",
    "sampling.population_spec_s": "s",
    "sampling.generate_population_s": "s",
    "sampling.biased_sample_s": "s",
    "sampling.biased_sample_calls": "count",
    "sampling.estimate_meta_s": "s",
    "sampling.csv_read_s": "s",
    "poststrat.cell_table_s": "s",
    "poststrat.poststratify_s": "s",
    "poststrat.poststratify_calls": "count",
    "robustness.greedy_us": "us",
    "robustness.lp_ms": "ms",
    "robustness.lp_solves": "count",
    "robustness.infeasible_count": "count",
    "config.validate_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_pct": "%",
}

# Spans whose summed duration, or number, is a metric of its own.
_SPAN_TIMES = {
    "nn.train": "nn.train_s",
    "losses.loss_value": "losses.value_s",
    "losses.loss_gradients": "losses.grad_s",
    "sampling.default_population_spec": "sampling.population_spec_s",
    "sampling.generate_population": "sampling.generate_population_s",
    "sampling.biased_sample": "sampling.biased_sample_s",
    "sampling.estimate_true_meta": "sampling.estimate_meta_s",
    "sampling.Dataset.from_csv": "sampling.csv_read_s",
    "poststrat.build_cell_table": "poststrat.cell_table_s",
    "poststrat.poststratify": "poststrat.poststratify_s",
    "config.validate_config": "config.validate_s",
}
_SPAN_COUNTS = {
    "nn.train": "nn.fits",
    "losses.loss_value": "losses.value_calls",
    "losses.loss_gradients": "losses.grad_calls",
    "sampling.biased_sample": "sampling.biased_sample_calls",
    "poststrat.poststratify": "poststrat.poststratify_calls",
    "robustness.sup_oracle_lp": "robustness.lp_solves",
}
_GREEDY = ("robustness.worst_case_ru", "robustness.worst_case_dru")


def _add(acc: dict, metric: str, value: float) -> None:
    acc[metric] = acc.get(metric, 0.0) + value


class Tracer:
    """Records spans; ``install`` patches drureg and ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.root = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.errors: dict[int, str] = {}
        # (span, loss kind, mini-batch steps, networks, epochs run, best epoch)
        self.fits: list[tuple[int, str, int, int, int, int]] = []
        self.extra: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._train = None
        self._train_signature = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._name_id(name)
        stack, errors = self._stack, self.errors
        parent, root, names = self.parent, self.root, self.name
        start, end, failed = self.start, self.end, self.failed

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            root.append(stack[0] if stack else idx)
            names.append(nid)
            end.append(0.0)
            failed.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed[idx] = 1
                errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span; returns (span id, result)."""
        idx = len(self.start)
        return idx, self.wrap(name, fn)(*args)

    def current_root(self) -> int:
        return self._stack[0]

    def note(self, span: int, metric: str, value: float) -> None:
        """Attach an additive measurement, such as bytes written, to a root span."""
        _add(self.extra.setdefault(span, {}), metric, value)

    def _record_fit(self, idx, args, kwargs, result) -> None:
        # One step is one mini-batch: epochs_run x ceil(n_train / batch_size),
        # n_train being the rows left after the validation split. Each step
        # makes one Adam update per network trained (2 when alpha is trained).
        bound = self._train_signature.bind(*args, **kwargs).arguments
        cfg, report = bound["cfg"], result[1]
        n = int(np.asarray(bound["features"]).shape[0])
        n_val = min(max(int(round(n * cfg.validation_fraction)), 1), n - 1) if n > 1 else 0
        steps = report.epochs_run * math.ceil((n - n_val) / cfg.batch_size)
        networks = 1 if bound["alpha"] is None else 2
        trace = report.val_loss_trace
        best = 1 + min(range(len(trace)), key=trace.__getitem__) if trace else 0
        self.fits.append((idx, bound["loss"].kind, steps, networks, report.epochs_run, best))

    def install(self) -> None:
        modules = [importlib.import_module(f"drureg.{name}") for name in LAYERS]
        config, nn, sampling = (importlib.import_module(f"drureg.{m}")
                                for m in ("config", "nn", "sampling"))
        self._train = nn.train
        self._train_signature = inspect.signature(nn.train)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__.startswith("drureg.") and obj.__module__ != mod.__name__:
                    self._patch(mod, attr, obj)
        self._patch(config, "validate_config", config.validate_config)
        dataset = sampling.Dataset
        self._patch(dataset, "to_csv", dataset.__dict__["to_csv"])
        from_csv = dataset.__dict__["from_csv"]
        self._patches.append((dataset, "from_csv", from_csv))
        dataset.from_csv = classmethod(self.wrap("sampling.Dataset.from_csv", from_csv.__func__))

    def _patch(self, owner, attr: str, fn) -> None:
        layer = fn.__module__.rsplit(".", 1)[-1]
        hook = self._record_fit if fn is self._train else None
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(f"{layer}.{fn.__qualname__}", fn, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        return (np.array(self.parent, dtype=np.int64), np.array(self.root, dtype=np.int64),
                np.array(self.name, dtype=np.int64), np.array(self.start), np.array(self.end))

    def save(self, path: Path) -> None:
        parent, root, name, start, end = self._arrays()
        np.savez(path, id=np.arange(len(start)), parent=parent, root=root, name=name,
                 start=start, end=end, failed=np.array(self.failed, dtype=np.int8),
                 names=np.array(self.names))

    def _per_root(self) -> tuple[dict[int, dict[str, float]], np.ndarray]:
        """Additive per-layer measures of each root span, and every span's duration."""
        parent, root, name, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=dur.size)
        layer_of = [n.split(".", 1)[0] for n in self.names]
        bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        out: dict[int, dict[str, float]] = {}
        ancestors = [0] * dur.size  # bitmask of the layers above each span
        for i in range(dur.size):
            span_name = self.names[name[i]]
            layer = layer_of[name[i]]
            p = parent[i]
            mask = 0 if p < 0 else ancestors[p] | bit.get(layer_of[name[p]], 0)
            ancestors[i] = mask
            acc = out.setdefault(int(root[i]), {})
            if layer not in bit:
                continue
            _add(acc, f"{layer}.calls", 1.0)
            _add(acc, f"{layer}.self_s", float(self_time[i]))
            _add(acc, f"{layer}.failures", float(self.failed[i]))
            if not mask & bit[layer]:
                _add(acc, f"{layer}.busy_s", float(dur[i]))
            if span_name in _SPAN_TIMES:
                _add(acc, _SPAN_TIMES[span_name], float(dur[i]))
            if span_name in _SPAN_COUNTS:
                _add(acc, _SPAN_COUNTS[span_name], 1.0)
            if span_name == "robustness.worst_case_dru" and self.errors.get(i) == "InfeasibleError":
                _add(acc, "robustness.infeasible_count", 1.0)
        for idx, _, steps, networks, _, _ in self.fits:
            acc = out.setdefault(int(root[idx]), {})
            _add(acc, "nn.steps", float(steps))
            _add(acc, "nn.adam_updates", float(steps * networks))
        for span, values in self.extra.items():
            for metric, value in values.items():
                _add(out.setdefault(span, {}), metric, value)
        return out, dur

    def summarize(self, setup_roots: list[int],
                  call_roots: list[int]) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics over the recorded spans, and each layer's mean
        share (in percent) of the traced calls' time.

        Totals (counts, bytes, seconds) describe one set-up plus one call:
        counts and bytes are exact, from the first set-up and the first call;
        seconds are the mean set-up plus the mean call. Per-item figures
        (fit percentiles, per-step and per-solve times, epoch ratio) cover
        every traced item of the run.
        """
        per_root, dur = self._per_root()
        metrics: dict[str, float] = {}
        for metric, unit in PER_LAYER_UNITS.items():
            if unit in ("count", "bytes"):
                metrics[metric] = sum(per_root.get(roots[0], {}).get(metric, 0.0)
                                      for roots in (setup_roots, call_roots) if roots)
            elif unit == "s":
                metrics[metric] = sum(
                    float(np.mean([per_root.get(r, {}).get(metric, 0.0) for r in roots]))
                    for roots in (setup_roots, call_roots) if roots)

        name = np.array(self.name, dtype=np.int64)

        def durations(*span_names):
            ids = [self._name_ids[s] for s in span_names if s in self._name_ids]
            return dur[np.isin(name, ids)]

        fit_ms = durations("nn.train") * 1e3
        metrics["nn.fit_ms_p50"] = float(np.percentile(fit_ms, 50)) if fit_ms.size else 0.0
        metrics["nn.fit_ms_p90"] = float(np.percentile(fit_ms, 90)) if fit_ms.size else 0.0
        for kind in ("squared", "dru", "pinball"):
            fits = [(dur[idx], steps) for idx, k, steps, _, _, _ in self.fits if k == kind]
            steps = sum(s for _, s in fits)
            metrics[f"nn.us_per_step.{kind}"] = 1e6 * sum(d for d, _ in fits) / steps if steps else 0.0
        epochs = sum(fit[4] for fit in self.fits)
        metrics["nn.useful_epoch_ratio"] = sum(fit[5] for fit in self.fits) / epochs if epochs else 0.0
        greedy = durations(*_GREEDY)
        metrics["robustness.greedy_us"] = float(greedy.mean() * 1e6) if greedy.size else 0.0
        lp = durations("robustness.sup_oracle_lp")
        metrics["robustness.lp_ms"] = float(lp.mean() * 1e3) if lp.size else 0.0
        shares = {layer: 100.0 * float(np.mean([per_root.get(r, {}).get(f"{layer}.busy_s", 0.0)
                                                / dur[r] for r in call_roots]))
                  for layer in LAYERS}
        return metrics, shares
