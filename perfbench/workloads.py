"""The benchmark's workloads: which operations run, with which inputs.

Each operation runs cold in a fresh interpreter (see worker.py).  A `cli`
operation is an argument list for ``hmt.cli.main``; a `lib` operation names
a function in worker.py that calls the public functions of ``hmt``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str
    cli: tuple[str, ...] = ()
    lib: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    # how operation times are rescaled to a fixed machine speed (see README):
    # "probe" samples the interpreter's speed during the operation, for
    # pure-Python layers; "lapack" times a fixed eigensolve around it
    reference: str
    ops: tuple[Op, ...]


def workloads(seed: int, out_dir: str) -> dict[str, Workload]:
    """All workloads, with the program's seed and artifact paths filled in."""
    s = str(seed)
    return {w.name: w for w in (
        Workload("exact-volumes", "probe", (
            Op("toeplitz-m10", cli=("moments", "--family", "toeplitz", "--max-order", "10")),
            Op("hankel-m10", cli=("moments", "--family", "hankel", "--max-order", "10")),
            Op("hankel-m18-refused", cli=("moments", "--family", "hankel", "--max-order", "18")),
        )),
        Workload("words-cumulants", "probe", (
            Op("markov-words-m14", cli=("moments", "--family", "markov", "--max-order", "14")),
            Op("cumulant-route-m14", lib="cumulant_route"),
            Op("roundtrip-m24", lib="roundtrip"),
            Op("words-k5-mc", cli=("words", "--k", "5", "--method", "mc", "--samples", "20000",
                                   "--seed", s)),
        )),
        Workload("spectra", "lapack", (
            Op("hankel-n1024", cli=("simulate", "--ensemble", "hankel", "--n", "1024",
                                    "--replicates", "20", "--dist", "triangular", "--seed", s,
                                    "--output-prefix", f"{out_dir}/hankel-n1024")),
            Op("toeplitz-n2048", cli=("simulate", "--ensemble", "toeplitz", "--n", "2048",
                                      "--replicates", "10", "--seed", s,
                                      "--output-prefix", f"{out_dir}/toeplitz-n2048")),
            Op("norm-scan", cli=("norm-scan", "--seed", s)),
        )),
    )}


WORKLOAD_NAMES = tuple(workloads(0, "."))
