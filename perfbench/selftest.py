"""Show that each check can fail: feed it a planted wrong value.

Each case runs the real operation once (cold, untimed), requires its real
output to pass, then plants one wrong value in a copy of that output and
requires the same check to reject it.  It also requires BENCHMARK.json to
list exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import copy
import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import checks


def _edit_csv(text: str, key: str, key_value: str, columns: tuple[str, ...], change) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if row[key] == key_value:
            for column in columns:
                row[column] = change(row[column])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def plant_markov(outcome: dict) -> None:
    outcome["stdout"] = _edit_csv(outcome["stdout"], "order", "14", ("value",),
                                  lambda v: str(Fraction(v) + 1))


def plant_toeplitz(outcome: dict) -> None:
    outcome["stdout"] = _edit_csv(outcome["stdout"], "order", "10", ("value",),
                                  lambda v: str(Fraction(v) * Fraction(1001, 1000)))


def plant_norm(outcome: dict) -> None:
    outcome["stdout"] = _edit_csv(outcome["stdout"], "n", "256",
                                  ("ratio_sqrt_2nlogn_mean", "ratio_n_mean"),
                                  lambda v: repr(float(v) * 1.05))


def plant_exit_2(outcome: dict) -> None:
    outcome["rc"] = 2


CASES = (
    ("words-cumulants", "markov-words-m14", "Markov m14 + 1", plant_markov),
    ("exact-volumes", "toeplitz-m10", "Toeplitz m10 x (1 + 1e-3)", plant_toeplitz),
    ("spectra", "norm-scan", "n = 256 norm x 1.05", plant_norm),
    ("exact-volumes", "hankel-m18-refused", "refused request exits 2", plant_exit_2),
)


def check_benchmark_json(root: Path, layer_metrics: list) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != ["setup_s", "pass_s", "peak_rss_mb"]:
        problems.append("end_to_end metrics differ from setup_s, pass_s, peak_rss_mb")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != [tuple(m) for m in layer_metrics]:
        problems.append("per_layer metrics differ from what a traced run prints")
    return problems


def run(runner_factory, root: Path, seed: int, layer_metrics: list) -> int:
    failures = 0
    for workload, op_name, label, plant in CASES:
        runner = runner_factory(root, workload, seed)
        op = next(o for o in runner.workload.ops if o.name == op_name)
        outcome = runner.execute(op, traced=False, tag="selftest")
        if outcome is None or outcome["problems"]:
            print(f"FAIL {workload}/{op_name}: the real output does not pass its check")
            failures += 1
            continue
        planted = copy.deepcopy(outcome)
        plant(planted)
        problems = checks.CHECKS[op_name](planted, runner.ctx)
        verdict = "PASS" if problems else "FAIL"
        failures += not problems
        print(f"{verdict} {workload}/{op_name}: real output accepted; planted "
              f"'{label}' {'rejected: ' + problems[0] if problems else 'ACCEPTED'}")
    for problem in check_benchmark_json(root, layer_metrics):
        print(f"FAIL BENCHMARK.json: {problem}")
        failures += 1
    print(f"self-test: {'all checks reject their planted values' if not failures else 'FAILED'}")
    return 1 if failures else 0
