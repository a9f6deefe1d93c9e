"""hmt benchmark: cold operations through the CLI and library, timed, checked, traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact-volumes --seed 314159 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each operation of the workload runs in a fresh interpreter, one process at
a time, in rounds (every operation once per round) until the next round
would overrun --seconds; at least one round runs.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are setup_s, pass_s and peak_rss_mb; with
--trace 1 each operation also runs traced right after its untraced run,
and the metrics are the per-layer figures of the traced runs plus the
tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS  # before numpy loads, here and in every worker
os.environ["PYTHONHASHSEED"] = "0"

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOAD_NAMES, workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
# Times are reported in seconds at a fixed reference speed: raw time times
# REFERENCE_S / the reference kernel's time measured with it.  The values
# are the kernels' medians on the machine the README describes.
PROBE_REFERENCE_S = 0.00108  # worker.probe_kernel
LAPACK_REFERENCE_S = 0.117  # LapackReference.measure
IMPORT_REFERENCE_S = 0.30  # import_reference

# (name, unit, better) of every per-layer metric a traced run prints
LAYER_METRICS = (
    ("words.enumerate_s", "s", "lower"),
    ("words.words_enumerated", "count", "lower"),
    ("words.height_s", "s", "lower"),
    ("words.height_calls", "count", "lower"),
    ("words.irreducible_s", "s", "lower"),
    ("words.irreducible_calls", "count", "lower"),
    ("words.predicate_calls_per_row", "count", "lower"),
    ("volumes.build_system_s", "s", "lower"),
    ("volumes.build_system_calls", "count", "lower"),
    ("volumes.exact_s", "s", "lower"),
    ("volumes.exact_calls", "count", "lower"),
    ("volumes.mc_s", "s", "lower"),
    ("volumes.mc_draws_per_s", "1/s", "higher"),
    ("limits.self_s", "s", "lower"),
    ("limits.orders_computed", "count", "lower"),
    ("limits.orders_emitted", "count", "higher"),
    ("limits.free_cumulants_s", "s", "lower"),
    ("limits.conversion_s", "s", "lower"),
    ("ensembles.sample_s", "s", "lower"),
    ("ensembles.entries_per_s", "1/s", "higher"),
    ("spectra.eigvalsh_s", "s", "lower"),
    ("spectra.eigvalsh_calls", "count", "lower"),
    ("spectra.norm_s", "s", "lower"),
    ("spectra.eigenvalues_used_per_computed", "ratio", "higher"),
    ("spectra.stats_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("cli.reject_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def op_metric(workload: str, op: str) -> str:
    return f"op.{workload}.{op}_s"


def all_layer_metrics() -> list[tuple[str, str, str]]:
    ops = [(op_metric(w.name, op.name), "s", "lower")
           for w in workloads(0, ".").values() for op in w.ops]
    return list(LAYER_METRICS) + ops


class LapackReference:
    """A fixed symmetric eigensolve, timed in this process between workers."""

    REPEATS = 5

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((1024, 1024))
        self.matrix = a + a.T

    def measure(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            scipy.linalg.eigh(self.matrix, eigvals_only=True, driver="ev", check_finite=False)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_reference(root: Path) -> float:
    """Start-up of a fresh interpreter that imports what hmt imports, but not hmt."""
    spawned = monotonic()
    ready = subprocess.run(
        [sys.executable, "-c", "import time, numpy, scipy.linalg, scipy.special; "
         "print(time.clock_gettime(time.CLOCK_MONOTONIC))"],
        cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True).stdout
    return float(ready) - spawned


class Runner:
    """Runs the operations of one workload, each in a fresh worker, and checks them."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".perfbench"
        self.out_dir = self.work / "out"
        self.trace_dir = self.work / "trace"
        for directory in (self.out_dir, self.trace_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.workload = workloads(seed, str(self.out_dir))[workload]
        self.ctx = checks.Context(seed, self.out_dir, self.work / "cache")
        self.lapack = LapackReference() if self.workload.reference == "lapack" else None
        self.lapack_s = self.lapack.measure() if self.lapack else None

    def execute(self, op, traced: bool, tag: str) -> dict | None:
        """Run one operation cold; None if the worker itself failed."""
        stem = f"{self.workload.name}.{op.name}.{tag}"
        spec = {"cli": list(op.cli), "lib": op.lib, "reference": self.workload.reference,
                "trace": traced, "result_file": str(self.work / f"{stem}.result.json"),
                "trace_file": str(self.trace_dir / f"{stem}.spans.json")}
        result_file = Path(spec["result_file"])
        result_file.unlink(missing_ok=True)
        err_path = self.work / f"{stem}.stderr"
        reference_setup = import_reference(self.root)
        with open(err_path, "w", encoding="utf-8") as err:
            spawned = monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec), str(self.root)],
                cwd=self.root, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result_file.exists():
            tail = err_path.read_text(encoding="utf-8")[-2000:]
            print(f"perfbench: {op.name}: worker exited {proc.returncode}\n{tail}", file=sys.stderr)
            return None
        outcome = json.loads(result_file.read_text(encoding="utf-8"))
        outcome["setup_s"] = (outcome["ready"] - spawned) * IMPORT_REFERENCE_S / reference_setup
        outcome["rss_mb"] = usage.ru_maxrss / 1024.0
        if self.lapack:
            before, self.lapack_s = self.lapack_s, self.lapack.measure()
            outcome["factor"] = LAPACK_REFERENCE_S / statistics.fmean((before, self.lapack_s))
        else:
            outcome["factor"] = statistics.fmean(PROBE_REFERENCE_S / t for t in outcome["probe_s"])
        outcome["time_s"] = outcome["op_s"] * outcome["factor"]
        prefix = op.cli[op.cli.index("--output-prefix") + 1] if "--output-prefix" in op.cli else None
        outcome["artifact_bytes"] = artifact_bytes(outcome, prefix)
        outcome["problems"] = checks.CHECKS[op.name](outcome, self.ctx)
        for problem in outcome["problems"]:
            print(f"perfbench: CHECK FAILED {self.workload.name}/{op.name}: {problem}",
                  file=sys.stderr)
        return outcome

    def run_round(self, index: int, trace: bool) -> tuple[dict, dict]:
        """Every operation once, untraced; with `trace`, each also traced right after."""
        untraced, traced = {}, {}
        for op in self.workload.ops:
            untraced[op.name] = self.execute(op, False, f"r{index}")
            if trace:
                traced[op.name] = self.execute(op, True, f"r{index}t")
        return untraced, traced


def artifact_bytes(outcome: dict, prefix: str | None) -> int:
    """Bytes the command wrote: its stdout plus any files under its output prefix."""
    total = len(outcome.get("stdout", "").encode())
    if prefix:
        directory, stem = os.path.split(prefix)
        total += sum(entry.stat().st_size for entry in os.scandir(directory)
                     if entry.name.startswith(stem + "_"))
    return total


def op_medians(rounds: list[dict]) -> dict[str, float]:
    """Each operation's median time across the rounds; pass_s is their sum."""
    return {name: statistics.median(r[name]["time_s"] for r in rounds if r[name])
            for name in rounds[0] if any(r[name] for r in rounds)}


def layer_metrics(round_: dict[str, dict | None]) -> dict[str, float]:
    """Per-layer figures of one traced round, times rescaled like their operation's."""
    s: dict[str, float] = defaultdict(float)
    for op, out in round_.items():
        if out is None:
            continue
        layers, counters, factor = out["layers"], out["counters"], out["factor"]

        def seconds(name, key="total_s"):
            return layers.get(name, {}).get(key, 0.0) * factor

        def calls(name):
            return layers.get(name, {}).get("calls", 0)

        for prefix, name in (("words.enumerate", "words.enumerate_words"),
                             ("words.height", "words.height"),
                             ("words.irreducible", "words.is_irreducible"),
                             ("volumes.build_system", "volumes.build_system"),
                             ("volumes.exact", "volumes.volume_exact"),
                             ("volumes.mc", "volumes.volume_mc"),
                             ("limits.free_cumulants", "limits.free_cumulants"),
                             ("ensembles.sample", "ensembles.sample_matrix"),
                             ("spectra.eigvalsh", "spectra.eigvalsh"),
                             ("spectra.norm", "spectra.spectral_norm"),
                             ("spectra.stats", "spectra.histogram")):
            s[f"{prefix}_s"] += seconds(name)
            s[f"{prefix}_calls"] += calls(name)
        if op == "words-k5-mc":
            predicates = sum(calls(name) for name in (
                "words.height", "words.is_irreducible", "words.is_noncrossing"))
            s["words.predicate_calls_per_row"] += predicates / max(1, out["stdout"].count("\n") - 1)
        s["limits.self_s"] += seconds("limits.limit_moment", "self_s") + seconds(
            "limits.moment_table", "self_s")
        s["limits.conversion_s"] += seconds("limits.cumulants_to_moments") + seconds(
            "limits.moments_to_cumulants")
        s["cli.self_s"] += seconds("cli.main", "self_s")
        s["cli.artifact_bytes"] += out["artifact_bytes"]
        if op == "hankel-m18-refused":
            s["cli.reject_s"] += seconds("cli.main")
        for name, value in counters.items():
            s[name] += value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {name: s.get(name, 0.0) for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}
    m["volumes.mc_draws_per_s"] = ratio(s["volumes.mc_draws"], s["volumes.mc_s"])
    m["ensembles.entries_per_s"] = ratio(s["ensembles.entries"], s["ensembles.sample_s"])
    m["spectra.eigenvalues_used_per_computed"] = ratio(
        s["spectra.norm_eigenvalues_used"], s["spectra.norm_eigenvalues_computed"])
    return m


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Whole rounds until the next would overrun `seconds`; at least one."""
    untraced: list[dict] = []
    traced: list[dict] = []
    start = monotonic()
    while True:
        plain, with_spans = runner.run_round(len(untraced), trace)
        untraced.append(plain)
        if trace:
            traced.append(with_spans)
        elapsed = monotonic() - start
        if elapsed + elapsed / len(untraced) > seconds:
            return untraced, traced


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(root, workload, seed)
    untraced, traced = measure(runner, seconds, trace)
    attempted = failed = 0
    correct = True
    for round_ in untraced + traced:
        for op, outcome in round_.items():
            attempted += 1
            if outcome is None:
                failed += 1
            elif outcome["problems"]:
                correct = False
    done = [o for r in untraced for o in r.values() if o]
    op_times = op_medians(untraced)
    untraced_pass = sum(op_times.values())
    raw_pass = sum(statistics.median(r[op]["op_s"] for r in untraced if r[op]) for op in op_times)
    print(f"perfbench: {workload} seed={seed} rounds={len(untraced)} untraced "
          f"+ {len(traced)} traced; median time_s: "
          + " ".join(f"{op}={t:.3f}" for op, t in op_times.items())
          + f"; unscaled pass {raw_pass:.3f} s", file=sys.stderr)
    if not trace:
        metrics = {
            "setup_s": (statistics.median(o["setup_s"] for o in done), "s"),
            "pass_s": (untraced_pass, "s"),
            "peak_rss_mb": (max(o["rss_mb"] for o in done), "MB"),
        }
    else:
        per_round = [layer_metrics(r) for r in traced]
        units = {name: unit for name, unit, _ in all_layer_metrics()}
        values = {name: statistics.median(r.get(name, 0.0) for r in per_round)
                  for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}
        traced_pass = sum(op_medians(traced).values())
        values["trace.untraced_pass_s"] = untraced_pass
        values["trace.traced_pass_s"] = traced_pass
        values["trace.overhead_s"] = traced_pass - untraced_pass
        for w in workloads(seed, ".").values():
            for op in w.ops:
                values[op_metric(w.name, op.name)] = (
                    op_times.get(op.name, 0.0) if w.name == workload else 0.0)
        metrics = {name: (values[name], units[name]) for name in units}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=314159)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that each check rejects a planted wrong value")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hmt" / "cli.py").is_file():
        print(f"perfbench: no hmt source tree (src/hmt) under {root}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.run(Runner, root, args.seed, all_layer_metrics())
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
