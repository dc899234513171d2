"""drureg benchmark: drives ``drureg.cli.main`` in-process and checks its outputs.

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; drureg is imported from ``src/``.
One run sets up ``SETUPS`` times, then calls drureg in a closed loop (one
client, ``--jobs 1``) until ``--seconds`` have passed, checks every output
and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics (see ``END_TO_END``), tracing off;
* ``--trace 1``: the per-layer metrics of ``tracing.PER_LAYER_UNITS``. Each
  call then runs twice on the same input, once traced and once not, so the
  run also measures what tracing costs and that it changes no output.

Scratch files, outputs and the span file go under ``.bench_build/perfbench/``.
``perfbench/README.md`` gives the workloads, the metrics and the held-out seed.
"""

from __future__ import annotations

import os

# Pin BLAS threading before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("DRUREG_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUPS = 5
# Seed kept out of all tuning; later claims are re-checked on it.
HELD_OUT_SEED = 9001
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "sys.path.insert(0, 'src')\n"
                "import drureg.cli\n"
                "print(time.perf_counter() - t)\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import drureg's CLI in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_loc": sum(len(p.read_text().splitlines()) for p in (SRC / "drureg").rglob("*.py")),
        "blas_threads": 1,
        "jobs": 1,
    }


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Calls drureg, through the tracer's spans while one is installed."""

    def __init__(self, cli, config, tracer):
        self.cli, self.config, self.tracer = cli, config, tracer
        self.tracing = False

    def main(self, argv: list[str], out: Path) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            if not self.tracing:
                return self.cli.main(argv), buf.getvalue()
            root = self.tracer.current_root()
            _, code = self.tracer.call("cli.main", self.cli.main, argv)
        self.tracer.note(root, "cli.bytes_written", bytes_under(out) if out.is_dir() else 0)
        return code, buf.getvalue()

    def load_config(self, path: Path) -> dict:
        if self.tracing:
            return self.tracer.call("config.load_config", self.config.load_config, path)[1]
        return self.config.load_config(path)

    def traced(self, name: str, fn, *args):
        """Run ``fn`` with drureg patched, as the root span ``name``."""
        self.tracer.install()
        self.tracing = True
        try:
            return self.tracer.call(name, fn, *args)
        finally:
            self.tracing = False
            self.tracer.uninstall()


def run(args, workload, runner: Runner, tmp: Path) -> dict:
    tracer = runner.tracer
    setup_seconds, states, setup_roots = [], [], []
    for j in range(SETUPS):
        imported = import_seconds()
        work = tmp / f"setup{j}"
        work.mkdir()
        setup_args = (derive_seed(args.seed, 2, j), work, runner.main, runner.load_config)
        start = perf_counter()
        if tracer:
            span, state = runner.traced("bench.setup", workload.setup, *setup_args)
            setup_roots.append(span)
        else:
            state = workload.setup(*setup_args)
        setup_seconds.append(imported + perf_counter() - start)
        states.append(state)

    attempted = failed = completed = 0
    busy = 0.0
    overheads, call_roots, mismatches = [], [], 0
    deadline = perf_counter() + args.seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        seed = derive_seed(args.seed, 1, i)
        state = states[i % SETUPS]
        modes = ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,)
        seconds, digests = {}, {}
        for traced in modes:
            call = workload.call(state, i, seed, tmp / f"call{i}-{int(traced)}")
            start = perf_counter()
            if traced:
                span, (code, stdout) = runner.traced("bench.call", runner.main, call.argv, call.out)
                call_roots.append(span)
            else:
                code, stdout = runner.main(call.argv, call.out)
            seconds[traced] = perf_counter() - start
            try:
                bad, digests[traced] = workload.check(call, code, stdout)
            except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed op
                print(f"perfbench: call {i} output check raised {exc!r}")
                bad, digests[traced] = call.ops, ""
            shutil.rmtree(call.out, ignore_errors=True)
            print(f"perfbench: call {i} seed {seed} traced={int(traced)} exit={code} "
                  f"{seconds[traced]:.4f}s failed={bad}/{call.ops} sha256={digests[traced]}")
            attempted += call.ops
            failed += bad
            if not traced:
                completed += call.ops - bad
                busy += seconds[traced]
        if tracer:
            overheads.append(seconds[True] / seconds[False] - 1.0)
            mismatches += digests[True] != digests[False]
        i += 1

    if tracer:
        metrics, shares = tracer.summarize(setup_roots, call_roots)
        metrics["trace.overhead_pct"] = 100.0 * statistics.median(overheads)
        units = PER_LAYER_UNITS
        print("perfbench: busy share per layer in the traced calls (%):",
              json.dumps({k: round(v, 2) for k, v in shares.items()}))
        spans = WORK / f"spans-{args.workload}-{args.seed}.npz"
        tracer.save(spans)
        print(f"perfbench: {len(tracer.start)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "ops_per_s": completed / busy,
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"perfbench: {completed} x {workload.op} in {busy:.3f}s; "
              f"set-ups {[round(s, 4) for s in setup_seconds]}")
    return {
        "correct": failed == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drureg" / "cli.py").is_file():
        print(f"perfbench: no drureg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from drureg import cli, config

    print("perfbench: env", json.dumps(environment(), sort_keys=True))
    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    runner = Runner(cli, config, Tracer() if args.trace else None)
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, workload, runner, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
