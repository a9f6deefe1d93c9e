"""Checks of every operation's output against values computed apart from the program.

Each check takes the worker's outcome for one operation and returns a list
of problems; an empty list means the output is correct.  Reference values
come from oracles.py, which does not import ``hmt``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

# Volume sums by the walk Monte Carlo: fixed seed, samples per word, and how
# many of its standard errors an exact value may lie from it.
WALK_SEED = 20031
WALK_SAMPLES = 50_000
WALK_Z = 4.0
M4_LIMITS = {"hankel-n1024": Fraction(2), "toeplitz-n2048": Fraction(8, 3)}
M4_BAND = 0.05
M4_Z = 4.0
NORM_BAND = (0.7, 1.3)
NORM_RTOL = 1e-9
FROBENIUS_RTOL = 1e-9


class Context:
    """Reference values for one run, computed on first use."""

    def __init__(self, seed: int, out_dir: Path, cache_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.cache_dir = cache_dir
        self.series = oracles.moments_from_cumulants(oracles.markov_cumulants(24), 24)
        self._walk: dict[str, tuple[float, float]] = {}

    def walk_sum(self, kind: str, k: int = 5) -> tuple[float, float]:
        """Walk Monte Carlo volume sum, kept on disk since it depends on no input."""
        if kind not in self._walk:
            path = self.cache_dir / f"walk-{kind}-k{k}-n{WALK_SAMPLES}-s{WALK_SEED}.json"
            if path.exists():
                value = tuple(json.loads(path.read_text()))
            else:
                value = oracles.walk_volume_sum(kind, k, WALK_SAMPLES, WALK_SEED)
                path.parent.mkdir(parents=True, exist_ok=True)
                partial = path.with_suffix(".partial")
                partial.write_text(json.dumps(value))
                partial.replace(path)
            self._walk[kind] = value
        return self._walk[kind]


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _exit(outcome: dict, expected: int) -> list[str]:
    if outcome["rc"] != expected:
        return [f"exit code {outcome['rc']}, expected {expected}: {outcome.get('stderr', '')!r}"]
    return []


def _moment_column(outcome: dict) -> dict[int, Fraction]:
    return {int(r["order"]): Fraction(r["value"]) for r in _rows(outcome["stdout"])}


def _series_match(moments: dict[int, Fraction], series: dict[int, Fraction],
                  max_order: int) -> list[str]:
    return [f"m{order} = {moments.get(order)}, series gives {series[order]}"
            for order in range(2, max_order + 1, 2) if moments.get(order) != series[order]]


def _volume_moments(kind: str):
    def check(outcome: dict, ctx: Context) -> list[str]:
        problems = _exit(outcome, 0)
        if problems:
            return problems
        m = _moment_column(outcome)
        if sorted(m) != list(range(11)) or m[0] != 1 or any(m[o] != 0 for o in range(1, 11, 2)):
            problems.append(f"orders or trivial moments wrong: {m}")
        m10 = m.get(10, Fraction(-1))
        mc, se = ctx.walk_sum(kind)
        if abs(float(m10) - mc) > WALK_Z * se:
            problems.append(f"{kind} m10 = {m10} ({float(m10):.6f}) is more than "
                            f"{WALK_Z} stderr from the walk Monte Carlo {mc:.4f} +/- {se:.4f}")
        if kind == "toeplitz" and not oracles.catalan(5) <= m10 <= oracles.odd_double_factorial(5):
            problems.append(f"toeplitz m10 = {m10} outside [Catalan(5), 9!!]")
        return problems
    return check


def check_refused(outcome: dict, ctx: Context) -> list[str]:
    problems = _exit(outcome, 3)
    if outcome["stdout"]:
        problems.append(f"refused request wrote {len(outcome['stdout'])} bytes to stdout")
    return problems


def check_markov_words(outcome: dict, ctx: Context) -> list[str]:
    return _exit(outcome, 0) or _series_match(_moment_column(outcome), ctx.series, 14)


def check_cumulant_route(outcome: dict, ctx: Context) -> list[str]:
    moments = {int(o): Fraction(v) for o, v in outcome["value"]["moments"].items()}
    return _series_match(moments, ctx.series, 14)


def check_roundtrip(outcome: dict, ctx: Context) -> list[str]:
    moments = {int(o): Fraction(v) for o, v in outcome["value"]["moments"].items()}
    cumulants = {int(o): Fraction(v) for o, v in outcome["value"]["cumulants"].items()}
    problems = _series_match(moments, ctx.series, 24)
    if cumulants != oracles.markov_cumulants(24):
        problems.append("moments_to_cumulants did not return the input cumulant table")
    return problems


def check_word_table(outcome: dict, ctx: Context) -> list[str]:
    problems = _exit(outcome, 0)
    if problems:
        return problems
    rows = _rows(outcome["stdout"])
    words = sorted(r["word"] for r in rows)
    expected = sorted(oracles.word_string(w) for w in oracles.pair_partitions(5))
    if words != expected:
        problems.append(f"{len(rows)} rows do not list the {len(expected)} words of length 10")
    noncrossing = [r for r in rows if r["noncrossing"] == "True"]
    irreducible = [r for r in rows if r["irreducible"] == "True"]
    if len(noncrossing) != oracles.catalan(5):
        problems.append(f"{len(noncrossing)} noncrossing rows, expected {oracles.catalan(5)}")
    if len(irreducible) != oracles.irreducible_counts(5)[-1]:
        problems.append(f"{len(irreducible)} irreducible rows, expected "
                        f"{oracles.irreducible_counts(5)[-1]}")
    total = sum(2 ** int(r["height"]) for r in rows)
    if total != ctx.series[10]:
        problems.append(f"sum of 2^height = {total}, series m10 = {ctx.series[10]}")
    if any(float(r["p_toeplitz"]) != 1.0 for r in noncrossing):
        problems.append("p_toeplitz != 1 on a noncrossing word")
    if any(not 0.0 <= float(r[col]) <= 1.0 for r in rows for col in ("p_toeplitz", "p_hankel")):
        problems.append("a volume outside [0, 1]")
    return problems


def _simulated(op: str, ensemble: str, n: int, replicates: int, dist: str):
    def check(outcome: dict, ctx: Context) -> list[str]:
        problems = _exit(outcome, 0)
        if problems:
            return problems
        prefix = ctx.out_dir / op
        payload = json.loads(Path(f"{prefix}_moments.json").read_text())
        m4 = next(r for r in payload["results"] if r["order"] == 4)
        limit = float(M4_LIMITS[op])
        # the 5% band alone fails on some seeds (Toeplitz replicates scatter);
        # a value outside it must still lie within M4_Z of its own stderr
        if abs(m4["mean"] - limit) > max(M4_BAND * limit, M4_Z * m4["stderr"]):
            problems.append(f"m4 = {m4['mean']:.5f} +/- {m4['stderr']:.5f}, limit {limit:.5f}")
        eigs = np.loadtxt(f"{prefix}_eigenvalues.csv", skiprows=1)
        if eigs.shape != (n * replicates,):
            problems.append(f"{eigs.shape} pooled eigenvalues, expected {n * replicates}")
        pooled = float(np.sum(eigs * eigs)) * n
        frobenius = sum(
            oracles.frobenius_squared(ensemble, n, oracles.stream_key(
                oracles.TAG_REPLICATE, ctx.seed, rep), dist)
            for rep in range(replicates))
        if abs(pooled - frobenius) > FROBENIUS_RTOL * frobenius:
            problems.append(f"n * sum(lambda^2) = {pooled!r}, Frobenius norms give {frobenius!r}")
        return problems
    return check


def check_norm_scan(outcome: dict, ctx: Context) -> list[str]:
    problems = _exit(outcome, 0)
    if problems:
        return problems
    rows = {int(r["n"]): r for r in _rows(outcome["stdout"])}
    if sorted(rows) != [256, 1024, 4096]:
        return [f"norm-scan rows for n = {sorted(rows)}"]
    for n, row in rows.items():
        ratio = float(row["ratio_sqrt_2nlogn_mean"])
        if not NORM_BAND[0] <= ratio <= NORM_BAND[1]:
            problems.append(f"n = {n}: norm / sqrt(2 n log n) = {ratio} outside {NORM_BAND}")
    n = 256
    norms = [oracles.markov_norm(n, oracles.stream_key(oracles.TAG_REPLICATE, ctx.seed, n, rep))
             for rep in range(int(rows[n]["replicates"]))]
    expected = float(np.mean(norms)) / math.sqrt(2 * n * math.log(n))
    got = float(rows[n]["ratio_sqrt_2nlogn_mean"])
    if abs(got - expected) > NORM_RTOL * expected:
        problems.append(f"n = 256 ratio {got!r}, numpy.linalg.eigvalsh gives {expected!r}")
    return problems


CHECKS = {
    "toeplitz-m10": _volume_moments("toeplitz"),
    "hankel-m10": _volume_moments("hankel"),
    "hankel-m18-refused": check_refused,
    "markov-words-m14": check_markov_words,
    "cumulant-route-m14": check_cumulant_route,
    "roundtrip-m24": check_roundtrip,
    "words-k5-mc": check_word_table,
    "hankel-n1024": _simulated("hankel-n1024", "hankel", 1024, 20, "triangular"),
    "toeplitz-n2048": _simulated("toeplitz-n2048", "toeplitz", 2048, 10, "gaussian"),
    "norm-scan": check_norm_scan,
}

