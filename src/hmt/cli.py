"""Command-line front end: words, moments, simulate, norm-scan.

Every run is reproducible: all randomness flows from the --seed flag
through documented stream derivation, identical invocations write
byte-identical artifacts for a fixed BLAS thread count, and JSON outputs
follow the schema shipped in hmt/schemas/artifact.schema.json.  Another
BLAS thread count (OPENBLAS_NUM_THREADS) can move `simulate` and
`norm-scan` outputs in the last digits, since the threaded BLAS then
rounds differently; eigenvalues and norms agree to about 1e-14 relative.

`--threads T` sets how many replicates, and so how many sampled matrices,
`simulate` and `norm-scan` hold at once.  Monte Carlo word volumes (`words`
and `moments` with `--method mc`, `words --method auto` above the exact
cap) run on one thread per usable CPU once each word draws at least
limits.MC_POOL_MIN_DRAWS coordinates, whatever `--threads` says.  Every
replicate and every word reads its own seeded stream and the results are
gathered in a fixed order, so no output depends on either count.

Only the commands that need numbers from numpy load it: `simulate` and
`norm-scan` load numpy and scipy (samplers, eigensolvers) when they start,
and `words`/`moments` with `--method mc` load numpy for the Monte Carlo
volumes.  Argument parsing, `--version`, exact `words` tables and exact
`moments` (including every refusal) run in plain Python.  `main` builds the
parser of the command its first argument names, and all four commands' only
when that names none (no arguments, `-h`, `--version`, an unknown command).

Exit codes: 0 success, 2 invalid arguments (an output path that cannot be
written included), 3 capacity/budget exceeded, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .errors import CapacityError, InvalidArgumentError, NumericError
from .limits import (MOMENT_FAMILIES, MomentEstimate, check_request, limit_moment,
                     moment_table, word_volumes)
from .rng import DISTRIBUTIONS, ENSEMBLES, TAG_REPLICATE, mix
# build_system, volume_exact and volume_mc are no longer called here (words read
# limits.word_volumes); perfbench/tracing.py wraps hmt.cli.<name>
from .volumes import VolumeEstimate, build_system, volume_exact, volume_mc
from .words import enumerate_words, height, is_irreducible, is_noncrossing

if TYPE_CHECKING:
    import numpy as np

# Names from the numpy/scipy modules, bound as module globals on first
# access (module __getattr__) or when simulate or norm-scan starts
# (_load_numeric).  A name bound earlier, by a test or a tracer, is kept.
_NUMERIC = {
    "distribution_from_tag": "ensembles",
    "sample_matrix": "ensembles",
    "empirical_spectrum": "spectra",
    "histogram": "spectra",
    "spectral_norm": "spectra",
}


def __getattr__(name: str):
    if name in _NUMERIC:
        module = importlib.import_module(f".{_NUMERIC[name]}", __package__)
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_numeric() -> None:
    module = sys.modules[__name__]
    for name in _NUMERIC:
        getattr(module, name)


DEFAULT_SEED = 314159
DEFAULT_MC_SAMPLES = 100_000
# Cap on the entries of the sampled matrices in flight, min(--threads,
# --replicates) * n^2: at most 512 MB of float64.  Samplers draw a matrix 2^16
# entries at a time and hold no second n x n array, and Lanczos reads it in
# place, so `norm-scan --ns 512,2048,8192 --replicates 3` peaks at 581 MB RSS,
# the matrix plus the interpreter (11 s on a 2-core VM).  `simulate`'s full
# solve (Hankel, Markov, Wigner) overwrites the matrix it drew, so it too
# holds n^2 entries per replicate in flight; only the Toeplitz split holds
# more, the matrix and one half-size block, n^2 + n^2/4.  At n = 4096,
# `--replicates 1` peaks at 192 MB RSS for hankel (61 MB interpreter + 128 MB)
# and 223 MB for toeplitz (61 + 128 + 32 MB); at n = 8192 a replicate needs
# about 512 or 640 MB, and two threads are refused.
MATRIX_ENTRY_BUDGET = 1 << 26
# work caps, in the units each command's cost grows with.  A replicate is
# charged at least its fixed cost (2-core x86-64 VM): a simulate replicate
# takes 0.34-0.38 ms at n = 1, as a solve at n = 128 does at 114 ps per n^3;
# a norm-scan replicate, with ARPACK's fixed iterations, 0.17 ms at n = 1 and
# 6-9 ms at n = 256, as a scan at n = 362 does at 49 ns per n^2.  Either
# budget allows about 2 minutes: 2^40 at 114 ps per n^3, 2^31 at 45-66 ns per n^2.
SIMULATE_WORK_BUDGET = 1 << 40  # replicates * max(n^3, 2^21): one full eigensolve per replicate
SIMULATE_REPLICATE_FLOOR = 1 << 21
NORM_SCAN_WORK_BUDGET = 1 << 31  # replicates * sum(max(n^2, 2^17)): sampling and Lanczos matvecs
NORM_SCAN_REPLICATE_FLOOR = 1 << 17
EIGENVALUE_BUDGET = 1 << 20  # replicates * n pooled eigenvalues: 2.3 s, 211 MB to sort and write
SIMULATE_ORDER_CAP = 1 << 11  # --max-order: a pass over them per even order, 2 min at both caps
HISTOGRAM_BIN_BUDGET = 1 << 20  # --bins: the histogram holds bins + 1 edges and bins counts

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_NUMERIC = 4


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


def _write_artifact(args: argparse.Namespace, rows: Iterable[dict], csv_columns: list[str],
                    fmt: str | None = None, path: str | None = None) -> None:
    """Write rows as JSON (exact rationals as floats) or as CSV cells.

    The format and the path default to --format and --output; with no path
    the text goes to stdout.  A CSV cell shows a float to 17 significant
    digits, a Fraction as p/q and a missing value or None as empty.  Rows
    may come from a generator, so that a long table never holds one dict
    per row; JSON is written one row at a time, the bytes of one
    json.dumps(payload, indent=2, sort_keys=True) of the whole payload.
    """
    fmt = fmt or args.format
    path = path or args.output
    if fmt == "json":
        chunks = _json_chunks(args, rows)
    else:
        lines = [",".join(csv_columns)]
        lines += [",".join([_csv_cell(row.get(col)) for col in csv_columns]) for row in rows]
        chunks = ["\n".join(lines) + "\n"]
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot write {path}: {exc.strerror or exc}") from exc
    else:
        _write_stdout(chunks)


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write and flush text to stdout; a failed write (a closed pipe, a full
    disk) is an invalid output target.  The unwritten text would fail again
    when the interpreter flushes stdout at exit, so stdout then points at
    os.devnull."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InvalidArgumentError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _json_chunks(args: argparse.Namespace, rows: Iterable[dict]) -> Iterator[str]:
    """The JSON artifact in pieces, one per row of its results array.

    "results" sorts last among the payload's keys, so the text of the
    payload with an empty array ends in "[]\n}"; the rows go between the
    brackets, each dumped alone and indented to its depth (two levels), as
    one json.dumps of the whole payload would place them.
    """
    encode = json.JSONEncoder(indent=2, sort_keys=True, default=float, allow_nan=False).encode
    config = {key: value for key, value in vars(args).items() if value is not None}
    head = encode({"command": args.subcommand, "config": config, "results": []})
    yield head[:-len("[]\n}")]
    separator = "["
    for row in rows:
        yield f"{separator}\n    " + encode(row).replace("\n", "\n    ")
        separator = ","
    yield "[]\n}\n" if separator == "[" else "\n  ]\n}\n"


def cmd_words(args: argparse.Namespace) -> int:
    kinds = ("toeplitz", "hankel")
    k, method = check_request(kinds, 2 * args.k, args.method, args.samples, words=True)
    volumes = word_volumes(kinds, k, method, args.samples, args.seed)

    def rows():
        for index, w in enumerate(enumerate_words(k)):
            row = {"word": str(w), "height": height(w), "irreducible": is_irreducible(w),
                   "noncrossing": is_noncrossing(w)}
            for kind in kinds:
                est = volumes[kind][index]
                if args.format == "json":
                    row[f"p_{kind}"] = _volume_json(est)
                else:
                    row[f"p_{kind}"] = est.value
                    row[f"p_{kind}_stderr"] = est.stderr
            yield row

    columns = ["word", "height", "irreducible", "noncrossing",
               "p_toeplitz", "p_toeplitz_stderr", "p_hankel", "p_hankel_stderr"]
    _write_artifact(args, rows(), columns)
    return EXIT_OK


def _moment_row(order: int, value, stderr: float | None = None) -> dict:
    if isinstance(value, Fraction):
        return {"order": order, "value": value,
                "numerator": value.numerator, "denominator": value.denominator}
    if isinstance(value, MomentEstimate):
        value, stderr = value.value, value.stderr
    return {"order": order, "value": value, "stderr": stderr}


def cmd_moments(args: argparse.Namespace) -> int:
    # limit_moment and moment_table refuse the request (check_request) before any work
    options = {"method": args.method, "mc_samples": args.samples, "seed": args.seed}
    if args.order is not None:
        rows = [_moment_row(args.order, limit_moment(args.family, args.order, **options))]
    else:
        table = moment_table(args.family, args.max_order, **options)
        rows = [_moment_row(order, table.moment(order), table.stderrs.get(order))
                for order in range(0, args.max_order + 1)]
    columns = ["order", "value", "numerator", "denominator", "stderr"]
    _write_artifact(args, rows, columns)
    return EXIT_OK


def _check_budget(amount: int, budget: int, measure: str) -> None:
    """Refuse a run before sampling if `measure` exceeds its budget."""
    if amount > budget:
        raise CapacityError(f"{measure} = {amount} exceeds the budget {budget}")


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean of replicate values and its standard error (0 for one replicate)."""
    count = len(values)
    stderr = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return float(values.mean()), stderr


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n < 1 or args.replicates < 1:
        raise InvalidArgumentError("--n and --replicates must be positive")
    if args.bins < 1:
        raise InvalidArgumentError(f"--bins must be >= 1, got {args.bins}")
    if args.max_order % 2 != 0 or args.max_order < 0:
        raise InvalidArgumentError(f"--max-order must be even and >= 0, got {args.max_order}")
    _check_budget(min(args.threads, args.replicates) * args.n**2, MATRIX_ENTRY_BUDGET,
                  "matrix entries in flight min(threads, replicates) * n^2")
    _check_budget(args.replicates * max(args.n**3, SIMULATE_REPLICATE_FLOOR),
                  SIMULATE_WORK_BUDGET, "replicates * max(n^3, 2^21)")
    _check_budget(args.replicates * args.n, EIGENVALUE_BUDGET,
                  "pooled eigenvalues replicates * n")
    _check_budget(args.max_order, SIMULATE_ORDER_CAP, "--max-order")
    _check_budget(args.bins, HISTOGRAM_BIN_BUDGET, "histogram bins")
    import numpy as np

    from .parallel import ordered_map

    _load_numeric()
    dist = distribution_from_tag(args.dist, args.mean)

    def one(rep: int) -> np.ndarray:
        sample = sample_matrix(args.ensemble, args.n, dist, mix(TAG_REPLICATE, args.seed, rep))
        # the matrix is this replicate's alone, so the solve may overwrite it
        return empirical_spectrum(sample, scale=args.scale, overwrite_a=True)

    spectra = ordered_map(one, args.replicates, args.threads)
    rows = []
    # e**order overflows for a high enough order; refuse before writing any file
    with np.errstate(over="ignore", invalid="ignore"):
        for order in range(2, args.max_order + 1, 2):
            mean, stderr = _mean_stderr(np.array([float(np.mean(e**order)) for e in spectra]))
            if not (math.isfinite(mean) and math.isfinite(stderr)):
                raise NumericError(
                    f"empirical moment m_{order} is not finite (mean {mean}, stderr "
                    f"{stderr}); lower --max-order"
                )
            rows.append({"order": order, "mean": mean, "stderr": stderr})
    pooled = np.sort(np.concatenate(spectra))
    prefix = args.output_prefix
    # Python floats (tolist) format like numpy's, and faster
    _write_artifact(args, ({"eigenvalue": v} for v in pooled.tolist()), ["eigenvalue"],
                    "csv", f"{prefix}_eigenvalues.csv")
    hist = histogram(pooled, args.bins)
    columns = ["bin_left", "bin_right", "count", "density"]
    bins = zip(hist.bin_left.tolist(), hist.bin_right.tolist(),
               hist.count.tolist(), hist.density.tolist())
    _write_artifact(args, [dict(zip(columns, b)) for b in bins], columns,
                    "csv", f"{prefix}_histogram.csv")
    _write_artifact(args, rows, ["order", "mean", "stderr"], "json", f"{prefix}_moments.json")

    summary = [
        f"simulate {args.ensemble} n={args.n} replicates={args.replicates} "
        f"scale={args.scale}: wrote {prefix}_eigenvalues.csv, "
        f"{prefix}_histogram.csv, {prefix}_moments.json\n"
    ]
    summary += [f"  m_{row['order']} = {row['mean']:.6g} +/- {row['stderr']:.3g}\n"
                for row in rows]
    _write_stdout(summary)
    return EXIT_OK


def cmd_norm_scan(args: argparse.Namespace) -> int:
    sizes = args.ns
    if not sizes:
        raise InvalidArgumentError("--ns must list at least one size")
    if min(sizes) < 1:
        raise InvalidArgumentError(f"--ns sizes must be >= 1, got {min(sizes)}")
    if args.replicates < 1:
        raise InvalidArgumentError(f"--replicates must be >= 1, got {args.replicates}")
    _check_budget(min(args.threads, args.replicates) * max(sizes)**2, MATRIX_ENTRY_BUDGET,
                  "matrix entries in flight min(threads, replicates) * max(n)^2")
    _check_budget(args.replicates * sum(max(n * n, NORM_SCAN_REPLICATE_FLOOR) for n in sizes),
                  NORM_SCAN_WORK_BUDGET, "replicates * sum(max(n^2, 2^17))")
    import numpy as np

    from .parallel import ordered_map

    _load_numeric()
    dist = distribution_from_tag(args.dist, args.mean)
    # each distinct size runs once, largest first: its matrices are then drawn
    # before the smaller ones' have raised glibc's mmap threshold, so no
    # heap the small sizes left behind stays resident beside them
    rows = {}
    for n in sorted(set(sizes), reverse=True):
        def one(rep: int, n=n):
            sample = sample_matrix("markov", n, dist, mix(TAG_REPLICATE, args.seed, n, rep))
            return spectral_norm(sample.matrix)

        norms = np.array(ordered_map(one, args.replicates, args.threads))
        denom = math.sqrt(2 * n * math.log(n)) if n > 1 else 1.0
        row = {"n": n, "replicates": len(norms)}
        for name, ratios in (("ratio_sqrt_2nlogn", norms / denom), ("ratio_n", norms / n)):
            row[f"{name}_mean"], row[f"{name}_stderr"] = _mean_stderr(ratios)
        rows[n] = row
    columns = ["n", "ratio_sqrt_2nlogn_mean", "ratio_sqrt_2nlogn_stderr",
               "ratio_n_mean", "ratio_n_stderr", "replicates"]
    _write_artifact(args, [rows[n] for n in sizes], columns)
    return EXIT_OK


def _check_args(args: argparse.Namespace) -> None:
    """Refuse flags no command can use, before any work; parse --ns."""
    if isinstance(vars(args).get("ns"), str):
        try:
            args.ns = [int(part) for part in args.ns.split(",") if part]
        except ValueError as exc:
            raise InvalidArgumentError(f"bad --ns list: {exc}") from exc
    if args.threads < 1:
        raise InvalidArgumentError(f"--threads must be >= 1, got {args.threads}")
    # every artifact echoes --mean, and JSON has no NaN or infinity
    mean = vars(args).get("mean")
    if mean is not None and not math.isfinite(mean):
        raise InvalidArgumentError(f"--mean must be a finite number, got {mean}")
    # a path that cannot be written would otherwise fail after all the work
    if args.subcommand == "simulate":
        flag, path = "--output-prefix", args.output_prefix
        targets = [path + suffix
                   for suffix in ("_eigenvalues.csv", "_histogram.csv", "_moments.json")]
    else:
        flag, path = "--output", args.output
        targets = [path] if path else []
    if targets:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise InvalidArgumentError(f"{flag} {path}: {directory} is not a directory")
        for target in targets:
            if os.path.isdir(target):
                raise InvalidArgumentError(f"{flag} {path}: {target} is a directory")


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_SAMPLES = _arg("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                help="Monte Carlo samples per word")
_DIST = _arg("--dist", choices=DISTRIBUTIONS, default="gaussian")
_MEAN = _arg("--mean", type=float, default=0.0, help="entry mean (shifted_gaussian only)")
_SEED_THREADS = (
    _arg("--seed", type=int, default=DEFAULT_SEED,
         help="master seed; all randomness derives from it"),
    _arg("--threads", type=int, default=1,
         help="replicates (and matrices) simulate and norm-scan hold at "
              "once; only sampling overlaps, as eigensolves hold the GIL: "
              "2 threads cut norm-scan by about 10%%, not simulate, and "
              "add memory; words and moments ignore it, their Monte "
              "Carlo volumes use every usable CPU (outputs depend on neither)"),
)
_SHARED = (*_SEED_THREADS,
           _arg("-o", "--output", default=None, help="output path (default: stdout)"),
           _arg("--format", choices=("csv", "json"), default="csv", help="artifact format"))

# name -> (help, handler, arguments in help order)
COMMANDS = {
    "words": ("per-word table: height, predicates, p_T, p_H", cmd_words, (
        _arg("--k", type=int, required=True, help="half-length of the words"),
        _arg("--method", choices=("auto", "exact", "mc"), default="auto",
             help="volume method; auto switches to mc above the exact cap"),
        _SAMPLES, *_SHARED)),
    "moments": ("limiting moments of one family up to an order", cmd_moments, (
        _arg("--family", choices=MOMENT_FAMILIES, required=True),
        _arg("--max-order", dest="max_order", type=int, default=8,
             help="largest (even) order to emit"),
        _arg("--order", type=int, default=None,
             help="emit a single order instead of the whole table"),
        _arg("--method", choices=("exact", "mc"), default="exact"),
        _SAMPLES, *_SHARED)),
    "simulate": ("sample an ensemble, emit spectra/histogram/moment artifacts", cmd_simulate, (
        _arg("--ensemble", choices=ENSEMBLES, required=True),
        _arg("--n", type=int, required=True, help="matrix size"),
        _arg("--replicates", type=int, default=20),
        _DIST, _MEAN,
        _arg("--bins", type=int, default=60, help="histogram bins"),
        _arg("--scale", choices=("sqrt_n", "n"), default="sqrt_n",
             help="eigenvalue scaling: 1/sqrt(n) or 1/n"),
        _arg("--max-order", dest="max_order", type=int, default=8,
             help="largest even empirical moment to emit"),
        _arg("--output-prefix", dest="output_prefix", required=True,
             help="artifact path prefix; writes <prefix>_eigenvalues.csv, "
                  "<prefix>_histogram.csv, <prefix>_moments.json"),
        *_SEED_THREADS)),
    "norm-scan": ("spectral-norm ratios of Markov matrices over sizes", cmd_norm_scan, (
        _arg("--ns", type=str, default="256,1024,4096", help="comma-separated matrix sizes"),
        _arg("--replicates", type=int, default=3),
        _DIST, _MEAN, *_SHARED)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or of all of them when command is None."""
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
    # one command's parser shows every name in its usage line, as the full one does
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in (command,) if command else COMMANDS:
        text, _, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if name == "simulate":
            # simulate has no --format, but its _moments.json has always echoed this one
            p.set_defaults(format="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_args(args)
        return COMMANDS[args.subcommand][1](args)
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
