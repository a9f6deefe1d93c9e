"""Command-line front end: words, moments, simulate, norm-scan.

Every run is reproducible: all randomness flows from the --seed flag
through documented stream derivation, identical invocations write
byte-identical artifacts, and JSON outputs follow the schema shipped in
hmt/schemas/artifact.schema.json.

Exit codes: 0 success, 2 invalid arguments, 3 capacity/budget exceeded,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .ensembles import ENSEMBLES, distribution_from_tag, sample_matrix
from .errors import CapacityError, InvalidArgumentError, NumericError
from .limits import MOMENT_FAMILIES, MomentEstimate, limit_moment, moment_table
from .rng import TAG_REPLICATE, TAG_VOLUME_MC, mix
from .spectra import empirical_spectrum, histogram, spectral_norm
from .volumes import (
    DEFAULT_DIMENSION_CAP,
    VolumeEstimate,
    build_system,
    volume_exact,
    volume_mc,
)
from .words import (
    DEFAULT_WORD_CAP,
    dihedral_orbits,
    dihedral_representative,
    enumerate_words,
    height,
    is_irreducible,
    is_noncrossing,
)

DEFAULT_SEED = 314159
DEFAULT_MC_SAMPLES = 100_000
# n * n cap: one dense float64 matrix stays within 512 MB.  markov and wigner
# sampling also holds the n(n-1)/2 upper-triangle stream (256 MB at n = 8192),
# which this cap does not count: norm-scan --ns 8192 peaks near 850 MB RSS
# until the sampler draws the triangle row by row (ROADMAP item 5, stream copy).
MATRIX_ENTRY_BUDGET = 1 << 26
# work caps, in the units each command's cost grows with
SIMULATE_WORK_BUDGET = 1 << 40  # replicates * n^3: one full eigensolve per replicate
NORM_SCAN_WORK_BUDGET = 1 << 34  # replicates * sum(n^2): sampling and Lanczos matvecs

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_NUMERIC = 4


@dataclass
class RunConfig:
    """Parsed flags of one invocation, echoed into every JSON artifact."""

    subcommand: str
    family: str | None = None
    ensemble: str | None = None
    k: int | None = None
    order: int | None = None
    max_order: int | None = None
    n: int | None = None
    ns: tuple[int, ...] | None = None
    replicates: int | None = None
    dist: str | None = None
    mean: float | None = None
    seed: int = DEFAULT_SEED
    method: str | None = None
    samples: int | None = None
    bins: int | None = None
    scale: str | None = None
    threads: int = 1
    output: str | None = None
    output_prefix: str | None = None
    format: str = "csv"

    def public_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmt",
        description=(
            "Limiting spectral moments of random Hankel, Markov and Toeplitz "
            "matrices: word tables, exact/Monte-Carlo moments, ensemble "
            "simulation and spectral-norm scans."
        ),
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"hmt {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_format=True):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="master seed; all randomness derives from it")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (outputs do not depend on this)")
        if with_format:
            p.add_argument("-o", "--output", default=None,
                           help="output path (default: stdout)")
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="artifact format")

    p_words = sub.add_parser(
        "words", help="per-word table: height, predicates, p_T, p_H",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_words.add_argument("--k", type=int, required=True, help="half-length of the words")
    p_words.add_argument("--method", choices=("auto", "exact", "mc"), default="auto",
                         help="volume method; auto switches to mc above the exact cap")
    p_words.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                         help="Monte Carlo samples per word")
    add_common(p_words)

    p_mom = sub.add_parser(
        "moments", help="limiting moments of one family up to an order",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_mom.add_argument("--family", choices=MOMENT_FAMILIES, required=True)
    p_mom.add_argument("--max-order", dest="max_order", type=int, default=8,
                       help="largest (even) order to emit")
    p_mom.add_argument("--order", type=int, default=None,
                       help="emit a single order instead of the whole table")
    p_mom.add_argument("--method", choices=("exact", "mc"), default="exact")
    p_mom.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                       help="Monte Carlo samples per word")
    add_common(p_mom)

    p_sim = sub.add_parser(
        "simulate", help="sample an ensemble, emit spectra/histogram/moment artifacts",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_sim.add_argument("--ensemble", choices=ENSEMBLES, required=True)
    p_sim.add_argument("--n", type=int, required=True, help="matrix size")
    p_sim.add_argument("--replicates", type=int, default=20)
    p_sim.add_argument("--dist", choices=("rademacher", "gaussian", "triangular",
                                          "shifted_gaussian"), default="gaussian")
    p_sim.add_argument("--mean", type=float, default=0.0,
                       help="entry mean (shifted_gaussian only)")
    p_sim.add_argument("--bins", type=int, default=60, help="histogram bins")
    p_sim.add_argument("--scale", choices=("sqrt_n", "n"), default="sqrt_n",
                       help="eigenvalue scaling: 1/sqrt(n) or 1/n")
    p_sim.add_argument("--max-order", dest="max_order", type=int, default=8,
                       help="largest even empirical moment to emit")
    p_sim.add_argument("--output-prefix", dest="output_prefix", required=True,
                       help="artifact path prefix; writes <prefix>_eigenvalues.csv, "
                            "<prefix>_histogram.csv, <prefix>_moments.json")
    add_common(p_sim, with_format=False)

    p_norm = sub.add_parser(
        "norm-scan", help="spectral-norm ratios of Markov matrices over sizes",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_norm.add_argument("--ns", type=str, default="256,1024,4096",
                        help="comma-separated matrix sizes")
    p_norm.add_argument("--replicates", type=int, default=3)
    p_norm.add_argument("--dist", choices=("rademacher", "gaussian", "triangular",
                                           "shifted_gaussian"), default="gaussian")
    p_norm.add_argument("--mean", type=float, default=0.0,
                        help="entry mean (shifted_gaussian only)")
    add_common(p_norm)
    return parser


def _volume_json(est: VolumeEstimate) -> dict:
    out: dict = {"value": float(est.value), "method": est.method}
    if isinstance(est.value, Fraction):
        out["numerator"] = est.value.numerator
        out["denominator"] = est.value.denominator
    if est.stderr is not None:
        out["stderr"] = est.stderr
    if est.samples is not None:
        out["samples"] = est.samples
    return out


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_artifact(config: RunConfig, rows: list[dict], csv_columns: list[str]) -> None:
    """Write rows as JSON (exact rationals as floats) or as CSV cells.

    A CSV cell shows a float to 17 significant digits, a Fraction as p/q and
    a missing value or None as empty.
    """
    if config.format == "json":
        payload = {
            "command": config.subcommand,
            "config": config.public_dict(),
            "results": rows,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    else:
        lines = [",".join(csv_columns)]
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(col)) for col in csv_columns))
        text = "\n".join(lines) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_words(config: RunConfig) -> int:
    if config.k > DEFAULT_WORD_CAP:
        raise CapacityError(f"k={config.k} exceeds the word-enumeration cap {DEFAULT_WORD_CAP}")
    words = enumerate_words(config.k)
    exact_ok = config.k + 1 <= DEFAULT_DIMENSION_CAP
    method = config.method
    if method == "auto":
        method = "exact" if exact_ok else "mc"
    if method == "exact" and not exact_ok:
        raise CapacityError(
            f"k={config.k} needs exact volumes in dimension {config.k + 1} "
            f"(cap {DEFAULT_DIMENSION_CAP}); use --method mc"
        )
    kinds = ("toeplitz", "hankel")
    if method == "exact":
        # exact volumes are constant on dihedral orbits: one per orbit, looked up per word
        orbit_volumes = {
            (rep, kind): volume_exact(build_system(rep, kind))
            for rep, _ in dihedral_orbits(config.k) for kind in kinds
        }
    rows = []
    for index, w in enumerate(words):
        row = {
            "word": str(w),
            "height": height(w),
            "irreducible": is_irreducible(w),
            "noncrossing": is_noncrossing(w),
        }
        for kind in kinds:
            if method == "exact":
                est = orbit_volumes[dihedral_representative(w), kind]
            else:
                est = volume_mc(
                    build_system(w, kind), config.samples,
                    mix(TAG_VOLUME_MC, config.seed, config.k, index),
                )
            if config.format == "json":
                row[f"p_{kind}"] = _volume_json(est)
            else:
                row[f"p_{kind}"] = est.value
                row[f"p_{kind}_stderr"] = est.stderr
        rows.append(row)
    columns = ["word", "height", "irreducible", "noncrossing",
               "p_toeplitz", "p_toeplitz_stderr", "p_hankel", "p_hankel_stderr"]
    _write_artifact(config, rows, columns)
    return EXIT_OK


def _moment_row(order: int, value, stderr: float | None = None) -> dict:
    if isinstance(value, Fraction):
        return {"order": order, "value": value,
                "numerator": value.numerator, "denominator": value.denominator}
    if isinstance(value, MomentEstimate):
        value, stderr = value.value, value.stderr
    return {"order": order, "value": value, "stderr": stderr}


def cmd_moments(config: RunConfig) -> int:
    max_order = config.order if config.order is not None else config.max_order
    if max_order % 2 != 0 or max_order < 0:
        raise InvalidArgumentError(f"--order/--max-order must be even and >= 0, got {max_order}")
    if config.method == "mc" and config.samples < 1:
        raise InvalidArgumentError(f"--samples must be >= 1, got {config.samples}")
    options = {
        "method": config.method,
        "mc_samples": config.samples,
        "seed": config.seed,
    }
    if config.order is not None:
        rows = [_moment_row(config.order, limit_moment(config.family, config.order, **options))]
    else:
        table = moment_table(config.family, max_order, **options)
        rows = [_moment_row(order, table.moment(order), table.stderrs.get(order))
                for order in range(0, max_order + 1)]
    columns = ["order", "value", "numerator", "denominator", "stderr"]
    _write_artifact(config, rows, columns)
    return EXIT_OK


def _check_budget(amount: int, budget: int, measure: str) -> None:
    """Refuse a run before sampling if `measure` exceeds its budget."""
    if amount > budget:
        raise CapacityError(f"{measure} = {amount} exceeds the budget {budget}")


def _replicate_spectra(config: RunConfig, ensemble: str, n: int):
    dist = distribution_from_tag(config.dist, config.mean)

    def one(rep: int):
        sample = sample_matrix(ensemble, n, dist, mix(TAG_REPLICATE, config.seed, rep))
        return empirical_spectrum(sample, scale=config.scale or "sqrt_n")

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return list(pool.map(one, range(config.replicates)))
    return [one(rep) for rep in range(config.replicates)]


def cmd_simulate(config: RunConfig) -> int:
    if config.n < 1 or config.replicates < 1:
        raise InvalidArgumentError("--n and --replicates must be positive")
    _check_budget(config.n**2, MATRIX_ENTRY_BUDGET, "dense matrix entries n^2")
    _check_budget(config.replicates * config.n**3, SIMULATE_WORK_BUDGET, "replicates * n^3")
    specs = _replicate_spectra(config, config.ensemble, config.n)
    pooled = np.sort(np.concatenate([s.eigenvalues for s in specs]))

    prefix = config.output_prefix
    with open(f"{prefix}_eigenvalues.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("eigenvalue\n")
        for value in pooled:
            fh.write(f"{value:.17g}\n")

    hist = histogram(pooled, config.bins)
    hist.to_csv(f"{prefix}_histogram.csv")

    rows = []
    for order in range(2, config.max_order + 1, 2):
        per_rep = np.array([float(np.mean(s.eigenvalues**order)) for s in specs])
        mean = float(per_rep.mean())
        stderr = float(per_rep.std(ddof=1) / math.sqrt(len(per_rep))) if len(per_rep) > 1 else 0.0
        rows.append({"order": order, "mean": mean, "stderr": stderr})
    payload = {
        "command": "simulate",
        "config": config.public_dict(),
        "results": rows,
    }
    with open(f"{prefix}_moments.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    sys.stdout.write(
        f"simulate {config.ensemble} n={config.n} replicates={config.replicates} "
        f"scale={config.scale}: wrote {prefix}_eigenvalues.csv, "
        f"{prefix}_histogram.csv, {prefix}_moments.json\n"
    )
    for row in rows:
        sys.stdout.write(
            f"  m_{row['order']} = {row['mean']:.6g} +/- {row['stderr']:.3g}\n"
        )
    return EXIT_OK


def cmd_norm_scan(config: RunConfig) -> int:
    sizes = config.ns
    if not sizes:
        raise InvalidArgumentError("--ns must list at least one size")
    if min(sizes) < 1:
        raise InvalidArgumentError(f"--ns sizes must be >= 1, got {min(sizes)}")
    if config.replicates < 1:
        raise InvalidArgumentError(f"--replicates must be >= 1, got {config.replicates}")
    _check_budget(max(sizes)**2, MATRIX_ENTRY_BUDGET, "dense matrix entries max(n)^2")
    _check_budget(config.replicates * sum(n * n for n in sizes), NORM_SCAN_WORK_BUDGET,
                  "replicates * sum(n^2)")
    dist = distribution_from_tag(config.dist, config.mean)
    rows = []
    for n in sizes:
        def one(rep: int, n=n):
            sample = sample_matrix("markov", n, dist, mix(TAG_REPLICATE, config.seed, n, rep))
            return spectral_norm(sample.matrix)

        if config.threads > 1:
            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                norms = np.array(list(pool.map(one, range(config.replicates))))
        else:
            norms = np.array([one(rep) for rep in range(config.replicates)])
        denom = math.sqrt(2 * n * math.log(n)) if n > 1 else 1.0
        r1 = norms / denom
        r2 = norms / n
        count = len(norms)
        se1 = float(r1.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        se2 = float(r2.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        rows.append({
            "n": n,
            "ratio_sqrt_2nlogn_mean": float(r1.mean()),
            "ratio_sqrt_2nlogn_stderr": se1,
            "ratio_n_mean": float(r2.mean()),
            "ratio_n_stderr": se2,
            "replicates": count,
        })
    columns = ["n", "ratio_sqrt_2nlogn_mean", "ratio_sqrt_2nlogn_stderr",
               "ratio_n_mean", "ratio_n_stderr", "replicates"]
    _write_artifact(config, rows, columns)
    return EXIT_OK


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    data = {k: v for k, v in vars(args).items() if k in fields}
    if "ns" in data and isinstance(data["ns"], str):
        try:
            data["ns"] = tuple(int(part) for part in data["ns"].split(",") if part)
        except ValueError as exc:
            raise InvalidArgumentError(f"bad --ns list: {exc}") from exc
    # every artifact echoes --mean, and JSON has no NaN or infinity
    if data.get("mean") is not None and not math.isfinite(data["mean"]):
        raise InvalidArgumentError(f"--mean must be a finite number, got {data['mean']}")
    return RunConfig(**data)


_HANDLERS = {
    "words": cmd_words,
    "moments": cmd_moments,
    "simulate": cmd_simulate,
    "norm-scan": cmd_norm_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _HANDLERS[args.subcommand](config)
    except InvalidArgumentError as exc:
        print(f"hmt: invalid argument: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"hmt: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NumericError as exc:
        print(f"hmt: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
