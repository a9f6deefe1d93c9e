"""Limiting spectral moments of random Hankel, Markov and Toeplitz matrices.

The package computes the exact limiting moment sequences of the three
structured ensembles through pair-partition words and cube cross-section
volumes, converts between moments and free cumulants, and verifies the
limits by simulating the ensembles with seeded, reproducible samplers.

The exact layers (words, volumes, limits) are plain Python, and importing
the package loads neither numpy nor scipy.  The samplers (hmt.ensembles)
and spectral statistics (hmt.spectra) need both; they, and the names the
package exports from them, load on first access.  The Monte Carlo volume
estimator loads numpy when it runs.
"""

import importlib

__version__ = "0.1.0"

from .errors import CapacityError, HmtError, InvalidArgumentError, NumericError
from .limits import (
    CumulantTable,
    MomentEstimate,
    MomentTable,
    cumulants_to_moments,
    free_cumulants,
    hankel_moment_matrix_det,
    limit_moment,
    moment_table,
    moments_to_cumulants,
    reference_moments,
)
from .volumes import (
    SlabSystem,
    VolumeEstimate,
    build_system,
    eulerian_number,
    single_slab_system,
    slab_volume_integral,
    volume_exact,
    volume_mc,
)
from .words import PartitionWord, enumerate_words, height, is_irreducible, is_noncrossing

# numpy/scipy-backed exports, imported from their module on first access
_LAZY = {
    "ensembles": (
        "EnsembleSample",
        "EntryDistribution",
        "gaussian",
        "markov_q",
        "rademacher",
        "row_sum_statistic",
        "sample_matrix",
        "shifted_gaussian",
        "triangular",
    ),
    "spectra": (
        "empirical_spectrum",
        "eigvalsh",
        "histogram",
        "kolmogorov_distance",
        "spectral_norm",
        "trace_via_circuits",
    ),
}

__all__ = [
    "__version__",
    "CapacityError",
    "CumulantTable",
    "HmtError",
    "InvalidArgumentError",
    "MomentEstimate",
    "MomentTable",
    "NumericError",
    "PartitionWord",
    "SlabSystem",
    "VolumeEstimate",
    "build_system",
    "cumulants_to_moments",
    "enumerate_words",
    "eulerian_number",
    "free_cumulants",
    "hankel_moment_matrix_det",
    "height",
    "is_irreducible",
    "is_noncrossing",
    "limit_moment",
    "moment_table",
    "moments_to_cumulants",
    "reference_moments",
    "single_slab_system",
    "slab_volume_integral",
    "volume_exact",
    "volume_mc",
] + [name for names in _LAZY.values() for name in names]
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        value = getattr(importlib.import_module(f".{_LAZY_OWNER[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
