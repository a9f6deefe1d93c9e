"""Seeded, counter-based randomness for every stochastic routine.

All randomness flows from 64-bit integer seeds through numpy's Philox
counter-based generator, so results are reproducible across platforms and
independent of scheduling.  Derived streams (per word, per replicate) are
obtained by mixing the master seed with a stream index via splitmix64;
distinct purposes use distinct domain tags so streams never collide.

Normals are produced by inverse-CDF transform of uniform draws (one draw
per variate, no rejection), which keeps the stream consumption count fixed.

The stream keys (mix, splitmix64, the tags) and the ensemble and entry-law
names are plain Python; numpy.random and scipy.special load the first time
`generator` or `standard_normals` runs, so the exact commands never load
them.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from .errors import InvalidArgumentError

if TYPE_CHECKING:
    import numpy as np
    from numpy.random import Generator

MASK64 = (1 << 64) - 1

# Domain tags for derived streams (arbitrary fixed odd constants).
TAG_VOLUME_MC = 0x9E3779B97F4A7C15
TAG_ENSEMBLE = 0xBF58476D1CE4E5B9
TAG_REPLICATE = 0x94D049BB133111EB
TAG_LANCZOS = 0xD6E8FEB86659FD93

# Names the samplers accept: ensembles for hmt.ensembles.sample_matrix, entry
# laws for hmt.ensembles.distribution_from_tag, and the CLI's choices for both.
ENSEMBLES = ("hankel", "toeplitz", "markov", "wigner", "wigner_plus_diag")
DISTRIBUTIONS = ("rademacher", "gaussian", "triangular", "shifted_gaussian")


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function on a 64-bit state."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _key(value: int) -> int:
    """A seed or stream index as 64 bits; anything but an integer is refused."""
    try:
        return operator.index(value) & MASK64
    except TypeError:
        raise InvalidArgumentError(f"seed must be an integer, got {value!r}") from None


def mix(*values: int) -> int:
    """Fold integers into a single 64-bit stream key, order-sensitively."""
    state = 0
    for v in values:
        state = splitmix64(state ^ _key(v))
    return state


def generator(seed: int) -> Generator:
    """Counter-based generator for the given 64-bit key."""
    key = _key(seed)
    from numpy.random import Generator, Philox

    return Generator(Philox(key=key))


def standard_normals(gen: Generator, size) -> np.ndarray:
    """Standard normals via inverse CDF of uniform draws.

    gen.random() yields multiples of 2^-53 in [0, 1); recentering by 2^-54
    keeps the argument strictly inside (0, 1) so ndtri never sees 0 or 1.
    """
    from scipy.special import ndtri

    u = gen.random(size)
    u += 2.0**-54
    return ndtri(u, out=u)
