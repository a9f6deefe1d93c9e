"""Limiting spectral moments of random Hankel, Markov and Toeplitz matrices.

The package computes the exact limiting moment sequences of the three
structured ensembles through pair-partition words and cube cross-section
volumes, converts between moments and free cumulants, and verifies the
limits by simulating the ensembles with seeded, reproducible samplers.
"""

__version__ = "0.1.0"

from .ensembles import (
    EnsembleSample,
    EntryDistribution,
    gaussian,
    markov_q,
    rademacher,
    row_sum_statistic,
    sample_matrix,
    shifted_gaussian,
    triangular,
)
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
from .spectra import (
    EmpiricalSpectrum,
    empirical_spectrum,
    eigvalsh,
    histogram,
    kolmogorov_distance,
    spectral_norm,
    trace_via_circuits,
)
from .volumes import (
    SlabSystem,
    VolumeEstimate,
    build_system,
    eulerian_number,
    single_slab_system,
    slab_volume_integral,
    volume_exact,
    volume_grid,
    volume_mc,
)
from .words import PartitionWord, enumerate_words, height, is_irreducible, is_noncrossing

__all__ = [
    "__version__",
    "CapacityError",
    "CumulantTable",
    "EmpiricalSpectrum",
    "EnsembleSample",
    "EntryDistribution",
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
    "eigvalsh",
    "empirical_spectrum",
    "enumerate_words",
    "eulerian_number",
    "free_cumulants",
    "gaussian",
    "hankel_moment_matrix_det",
    "height",
    "histogram",
    "is_irreducible",
    "is_noncrossing",
    "kolmogorov_distance",
    "limit_moment",
    "markov_q",
    "moment_table",
    "moments_to_cumulants",
    "rademacher",
    "reference_moments",
    "row_sum_statistic",
    "sample_matrix",
    "shifted_gaussian",
    "single_slab_system",
    "slab_volume_integral",
    "spectral_norm",
    "trace_via_circuits",
    "triangular",
    "volume_exact",
    "volume_grid",
    "volume_mc",
]
