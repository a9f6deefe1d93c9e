"""Limiting moment sequences and free-cumulant conversions.

The exact Toeplitz and Hankel limits come from one count of lattice walks
over all pairings (hmt.volumes.pairing_walk_moments), with no word; their
Monte Carlo estimates, and the `words` tables, are assembled word by word
from the cube cross-section volumes (word_volumes).  The Markov limit is
the free convolution of the semicircle and standard normal laws, so its
moments come from the sum of their free cumulants; the word sum of
2**height(w), which gives the same integers, is the tests' oracle for
them.  Moments and free cumulants of symmetric measures are the
coefficients of two power series tied by

    M(t) = 1 + sum_{r>=1} k_2r t^r M(t)^(2r),    M(t) = sum_n m_2n t^n,

with t = z**2 and all odd moments zero.  The coefficient of t^n reads
m_2n = k_2n + sum_{r<n} k_2r [t^(n-r)] M^(2r), and the right-hand sum
involves moments below order 2n only, so one solver runs forward from
cumulants or backward from moments, one exact order at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress

from .errors import CapacityError, InvalidArgumentError
from .records import FrozenRecord, Record
from .rng import TAG_VOLUME_MC, mix
from .volumes import (
    FLAT_VOLUME,
    VolumeEstimate,
    build_system,
    pairing_walk_moments,
    toeplitz_volumes,
    volume_exact,  # no longer called here; perfbench/tracing.py wraps hmt.limits.volume_exact
    volume_mc,  # no longer called here; perfbench/tracing.py wraps hmt.limits.volume_mc
    volumes_mc,
)
from .words import (
    WORD_CAP,
    double_factorial_odd,
    enumerate_words,
    height,  # no longer called here; perfbench/tracing.py wraps hmt.limits.height
    is_irreducible,  # no longer called here; perfbench/tracing.py wraps hmt.limits.is_irreducible
    is_symmetric,
)

MOMENT_FAMILIES = ("toeplitz", "hankel", "markov")
REFERENCE_FAMILIES = ("semicircle", "gaussian")
METHODS = ("auto", "exact", "mc")

# Largest Markov order read off the cumulant series.  Order 80 takes 0.15 s
# and order 160 0.95 s (2-core x86-64 VM, CPython 3.11); the cost grows
# about as order**2.5 as the integers lengthen.
MARKOV_ORDER_CAP = 80
# Largest exact orders: Toeplitz and Hankel read off the pairing walk count,
# Markov its series cap, which holds for every method.  Cold CLI tables
# (2-core x86-64 VM, CPython 3.11): toeplitz through order 20 in 1.4-1.8 s
# (61 MB), hankel through order 16 in 0.7-1.1 s (48 MB); in-process, toeplitz
# 22 takes 2.6-2.9 s (106 MB) and hankel 18 2.0-2.7 s (94 MB).  Hankel order 18
# stays refused: perfbench times that refusal (hankel-m18-refused).
EXACT_ORDER_CAPS = {"toeplitz": 20, "hankel": 16, "markov": MARKOV_ORDER_CAP}
# Largest k of an exact `words` table, whose volumes come one orbit at a time:
# `words --k 6 --method exact` takes 1.2-2.1 s in a fresh interpreter, and the
# k = 7 volumes 19-25 s with a 79 MB peak (word_volumes(("toeplitz", "hankel"),
# 7, "exact", ...); 2-core x86-64 VM, CPython 3.11).
WORDS_EXACT_K_CAP = 6

# Monte Carlo draws (uniform coordinates) per word-route request, counted as
# check_request charges them: two to two and a half minutes at the 1.1-1.5e8
# charged draws/s the pooled word volumes reach for k = 5, 6 at 20,000 samples
# on two free cores, up to four and a half on one core at 6.5e7-1.1e8/s; 335 and
# 288 s for the most samples `words --k 7` and hankel order 16 admit (2-core
# x86-64 VM).  The charge bounds what is drawn from above: the families of a word
# share one draw, and words with no slab to test draw none.  The word cap bounds memory.
MC_DRAW_BUDGET = 1 << 34
# Draws charged per word enumerated and per word system a family builds: the time of the
# 11.3 us to enumerate and parity-test each k = 8 word (16.6 + 6.3 s in all) and of the
# 90-120 us a word volume costs beside its draws (`words --k 6 --method mc --samples 1`).
MC_ENUM_CHARGE = 1 << 10
MC_WORD_CHARGE = 1 << 13
# Draws (coordinates) per word from which the Monte Carlo word volumes run on
# one thread per usable CPU.  Below it a word's Python work (system, counter,
# generator) outweighs its fills, and the GIL hand-offs between threads cost
# more than the fills gain: at k = 6 two threads take 1.4x as long as one at
# 1,000 samples, 0.75x at 3,000 (2-core x86-64 VM).
MC_POOL_MIN_DRAWS = 1 << 14


class MomentEstimate(FrozenRecord):
    """Monte Carlo moment with the aggregated per-word standard error."""

    __slots__ = ("value", "stderr")
    value: float
    stderr: float

    def __init__(self, value: float, stderr: float):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "stderr", stderr)


class MomentTable(Record):
    """Even moments of one family; exact rationals or MC values with errors.

    entries and stderrs default to a new empty dict per table.
    """

    __slots__ = ("family", "entries", "stderrs", "method")
    family: str
    entries: dict[int, Fraction | float]
    stderrs: dict[int, float]
    method: str

    def __init__(self, family: str, entries: dict[int, Fraction | float] | None = None,
                 stderrs: dict[int, float] | None = None, method: str = "exact"):
        self.family = family
        self.entries = {} if entries is None else entries
        self.stderrs = {} if stderrs is None else stderrs
        self.method = method

    def moment(self, order: int) -> Fraction | float:
        if order % 2 == 1:
            return Fraction(0)
        return self.entries[order]


class CumulantTable(Record):
    """Even free cumulants of a symmetric measure, exact rationals.

    entries defaults to a new empty dict per table.
    """

    __slots__ = ("family", "entries")
    family: str
    entries: dict[int, Fraction]

    def __init__(self, family: str, entries: dict[int, Fraction] | None = None):
        self.family = family
        self.entries = {} if entries is None else entries


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _check_even_order(order: int) -> int:
    if not isinstance(order, int) or order < 0 or order % 2 != 0:
        raise InvalidArgumentError(f"order must be a nonnegative even integer, got {order!r}")
    return order // 2


def check_request(families: tuple[str, ...], order: int, method: str,
                  samples: int, words: bool = False) -> tuple[int, str]:
    """Decide whether a moment or word-table request may run, before any work.

    families are the families whose moments it reads, or whose word volumes
    when words is True (a `words` table reads toeplitz and hankel).  Returns
    (k, method), k = order / 2, with "auto" resolved: exact up to the exact
    cap, Monte Carlo above it.  Invalid arguments are refused first, then the
    Markov series cap; then an exact request meets its exact cap (the
    family's EXACT_ORDER_CAPS order, or WORDS_EXACT_K_CAP for a table of
    words), and a Monte Carlo one the word cap and MC_DRAW_BUDGET.  Every cap
    grows with the order, so the largest order of a table covers the orders
    below it, whose draws add under a sixth from order 14 on.
    """
    for family in families:
        if family not in MOMENT_FAMILIES:
            raise InvalidArgumentError(f"unknown family {family!r}; expected {MOMENT_FAMILIES}")
    k = _check_even_order(order)
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    exact_cap = WORDS_EXACT_K_CAP if words else min(EXACT_ORDER_CAPS[f] for f in families) // 2
    if method == "auto":
        method = "exact" if k <= exact_cap else "mc"
    if method == "mc" and (not isinstance(samples, int) or samples < 1):
        raise InvalidArgumentError(f"samples must be an integer >= 1, got {samples!r}")
    if "markov" in families:
        if order > MARKOV_ORDER_CAP:
            raise CapacityError(f"order {order} is above the Markov series cap {MARKOV_ORDER_CAP}")
    elif method == "exact":
        if k > exact_cap and words:
            raise CapacityError(f"k={k} is above the exact word-table cap {exact_cap}; "
                                f"use method mc")
        if k > exact_cap:
            raise CapacityError(f"order {order} is above the exact {families[0]} cap "
                                f"{2 * exact_cap}")
    elif k > WORD_CAP:
        raise CapacityError(f"order {order} needs k={k} words, above the cap {WORD_CAP}")
    else:
        # all (2k-1)!! words enumerated; built: (2k-1)!! Toeplitz, k! symmetric Hankel systems
        built = sum(math.factorial(k) if f == "hankel" else double_factorial_odd(k)
                    for f in families)
        draws = (double_factorial_odd(k) * MC_ENUM_CHARGE
                 + built * (MC_WORD_CHARGE + samples * (k + 1)))
        if draws > MC_DRAW_BUDGET:
            raise CapacityError(f"order {order} needs {draws} Monte Carlo draws, above the "
                                f"budget {MC_DRAW_BUDGET}")
    return k, method


def mc_threads(draws_per_word: int) -> int:
    """Threads for the Monte Carlo word volumes: one per usable CPU, or one
    when a word draws fewer than MC_POOL_MIN_DRAWS coordinates."""
    from .parallel import usable_cpus

    return usable_cpus() if draws_per_word >= MC_POOL_MIN_DRAWS else 1


def word_volumes(families: tuple[str, ...], k: int, method: str, samples: int,
                 seed: int) -> dict[str, list[VolumeEstimate]]:
    """Per family, the volume of each word of length 2k, in enumerate_words(k) order.

    families are "toeplitz" and "hankel", method "exact" or "mc".  A Hankel
    word has its Toeplitz volume if it is_symmetric, else an exact 0:
    x_i -> 1 - x_i at odd i maps the one polytope onto the other, as
    tests/test_volumes.py checks on build_system's Hankel systems.
    exact: toeplitz_volumes of the words, one count of lattice walks per
    dihedral orbit and no slab system; a Hankel-only table counts the k!
    symmetric words alone (whole orbits, as turns and reversal keep symmetry).
    The facet recursion of volume_exact is the tests' oracle for the count.
    mc: one volumes_mc call per word for the systems it builds, on the word's
    own TAG_VOLUME_MC stream of (seed, k, index).  The systems have k + 1 free
    coordinates each and count the same points, drawn once; no estimate depends
    on the other systems.  The words run on mc_threads threads (the Philox fills
    release the GIL) and come back in word order, the same for any thread count.
    """
    if not set(families) <= {"toeplitz", "hankel"} or method not in ("exact", "mc"):
        raise InvalidArgumentError(f"no {method!r} word volumes for families {families!r}")
    words = enumerate_words(k)
    if method == "exact":
        symmetric = [is_symmetric(w) for w in words]
        counted = [True] * len(words) if "toeplitz" in families else symmetric
        values = toeplitz_volumes(compress(words, counted))
        # one estimate per value, not per word: the 10,395 words of k = 6 read 554 orbits
        estimates = {v: VolumeEstimate(v, "exact") for v in set(values)}
        value = iter([estimates[v] for v in values])
        # an uncounted word is flat, and only a Hankel-only table has one
        counts = [next(value) if c else FLAT_VOLUME for c in counted]
        volumes = {"toeplitz": counts, "hankel": [
            v if s else FLAT_VOLUME for v, s in zip(counts, symmetric)]}
        return {family: volumes[family] for family in families}
    from .parallel import ordered_map

    def one(index: int) -> list[VolumeEstimate]:
        w = words[index]
        kinds = [f for f in families if f != "hankel" or is_symmetric(w)]
        estimates = iter(volumes_mc([build_system(w, kind) for kind in kinds],
                                    samples, mix(TAG_VOLUME_MC, seed, k, index)))
        return [next(estimates) if family in kinds else FLAT_VOLUME for family in families]

    per_word = ordered_map(one, len(words), mc_threads(samples * (k + 1)))
    return {family: [row[j] for row in per_word] for j, family in enumerate(families)}


def limit_moment(
    family: str,
    order: int,
    method: str = "exact",
    mc_samples: int = 100_000,
    seed: int = 0,
) -> Fraction | MomentEstimate:
    """Limiting moment of order 2k for the toeplitz/hankel/markov family.

    markov reads the moment off the free-cumulant series of semicircle
    plus N(0, 1) (always an exact integer, whatever the method);
    toeplitz/hankel: exact rationals from the pairing walk count
    (pairing_walk_moments), or the sum of the Monte Carlo word_volumes with
    aggregate standard error sqrt(sum stderr_w^2).  check_request vets the
    request first.
    """
    k, method = check_request((family,), order, method, mc_samples)
    if k == 0:
        return Fraction(1)
    if family == "markov":
        return _markov_moments(order)[order]
    if method == "exact":
        return pairing_walk_moments(family, k)[-1]
    volumes = word_volumes((family,), k, method, mc_samples, seed)[family]
    total = var = 0.0
    for est in volumes:  # plain adds in word order: the MC pins fix them bit for bit
        total += float(est.value)
        if est.stderr is not None:
            var += est.stderr**2
    return MomentEstimate(total, math.sqrt(var))


def _markov_moments(max_order: int) -> dict[int, Fraction]:
    """Exact Markov moments of orders 0, 2, ..., max_order from one series solve."""
    return cumulants_to_moments(free_cumulants("markov", max_order), max_order).entries


def reference_moments(family: str, order: int) -> Fraction:
    """Even moments of the comparison laws: Catalan numbers or (2k-1)!!."""
    if family not in REFERENCE_FAMILIES:
        raise InvalidArgumentError(
            f"unknown family {family!r}; expected one of {REFERENCE_FAMILIES}"
        )
    k = _check_even_order(order)
    if family == "semicircle":
        return Fraction(catalan(k))
    return Fraction(double_factorial_odd(k))


def _series_inputs(entries: dict, up_to: int, name: str) -> list[Fraction]:
    """Entries of orders 2, 4, ..., up_to as exact rationals."""
    out = []
    for order in range(2, up_to + 1, 2):
        if order not in entries:
            raise InvalidArgumentError(f"missing {name} of order {order}")
        out.append(Fraction(entries[order]))
    return out


def _solve_series(
    given: list[Fraction], moments_given: bool
) -> tuple[list[Fraction], list[Fraction]]:
    """Solve M(t) = 1 + sum_r k_2r t^r M(t)^(2r) for the sequence not given.

    given[r - 1] is m_2r if moments_given, else k_2r.  Returns the lists
    (m, k) indexed by half-order, with m[0] = 1 and k[0] = 0.
    """
    m, k = [Fraction(1)], [Fraction(0)]
    powers: list[list[Fraction]] = [[]]  # powers[r][j] = [t^j] M(t)^(2r), r >= 1
    for n, value in enumerate(given, start=1):
        powers.append([Fraction(1)])
        # one new column per power; [t^(n-r)] M^(2r) needs m_0 .. m_2(n-r) only
        for r in range(1, n):
            a, b = (m, m) if r == 1 else (powers[1], powers[r - 1])
            j = n - r
            powers[r].append(sum(a[i] * b[j - i] for i in range(j + 1)))
        lower = sum(k[r] * powers[r][n - r] for r in range(1, n))
        if moments_given:
            m.append(value)
            k.append(value - lower)
        else:
            k.append(value)
            m.append(value + lower)
    return m, k


def cumulants_to_moments(c: CumulantTable, up_to: int) -> MomentTable:
    """Even moments from even free cumulants, solving the series forward."""
    _check_even_order(up_to)
    m, _ = _solve_series(_series_inputs(c.entries, up_to, "cumulant"), moments_given=False)
    entries = {2 * r: value for r, value in enumerate(m)}
    return MomentTable(family=c.family, entries=entries, method="formula")


def moments_to_cumulants(m: MomentTable, up_to: int) -> CumulantTable:
    """Even free cumulants from exact even moments, solving the series backward."""
    _check_even_order(up_to)
    _, k = _solve_series(_series_inputs(m.entries, up_to, "moment"), moments_given=True)
    return CumulantTable(family=m.family, entries={2 * r: k[r] for r in range(1, len(k))})


def free_cumulants(family: str, up_to: int) -> CumulantTable:
    """Known cumulant tables: semicircle, gaussian, and their Markov sum.

    semicircle: k_2 = 1 and nothing else; gaussian: read off the (2r-1)!!
    moments by the series, so k_2r counts the irreducible words of length
    2r; markov: the sum of the two (free convolution adds cumulants).
    """
    _check_even_order(up_to)
    if family not in ("semicircle", "gaussian", "markov"):
        raise InvalidArgumentError(f"no cumulant table for family {family!r}")
    entries = {order: Fraction(0) for order in range(2, up_to + 1, 2)}
    if family != "semicircle":
        entries = moments_to_cumulants(moment_table("gaussian", up_to), up_to).entries
    if family != "gaussian" and up_to >= 2:
        entries[2] += 1
    return CumulantTable(family=family, entries=entries)


def hankel_moment_matrix_det(
    moments: MomentTable, n: int, weighted: bool = False
) -> Fraction:
    """Exact determinant of the n x n moment matrix [m_{2(i+j-2)}].

    With weighted=True each (i, j) entry is multiplied by 2(i+j) - 3, the
    odd-integer weights of the unimodality test.  Requires exact moments
    through order 2(2n - 2).
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"matrix size must be an integer >= 1, got {n!r}")
    grid: list[list[Fraction]] = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            order = 2 * (i + j - 2)
            if order == 0:
                value = Fraction(moments.entries.get(0, 1))
            elif order in moments.entries:
                value = Fraction(moments.entries[order])
            else:
                raise InvalidArgumentError(f"missing exact moment of order {order}")
            if weighted:
                value *= 2 * (i + j) - 3
            row.append(value)
        grid.append(row)
    return _det_fraction(grid)


def _det_fraction(grid: list[list[Fraction]]) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    n = len(grid)
    a = [row[:] for row in grid]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def moment_table(
    family: str,
    max_order: int,
    method: str = "exact",
    mc_samples: int = 100_000,
    seed: int = 0,
) -> MomentTable:
    """Moments of one family through max_order (even orders; order 0 is 1).

    check_request vets the table at its largest order, before any work.  An
    exact Toeplitz or Hankel table comes from one pairing walk count; a Monte
    Carlo table sums the word volumes of each order (limit_moment).
    """
    _check_even_order(max_order)
    if family in REFERENCE_FAMILIES:
        if method not in METHODS:
            raise InvalidArgumentError(f"unknown method {method!r}")
        entries = {
            order: reference_moments(family, order) for order in range(0, max_order + 1, 2)
        }
        return MomentTable(family=family, entries=entries, method="formula")
    _, method = check_request((family,), max_order, method, mc_samples)
    if family == "markov":
        return MomentTable(family=family, entries=_markov_moments(max_order), method="exact")
    table = MomentTable(family=family, method=method)
    table.entries[0] = Fraction(1)
    if method == "exact":
        for k, value in enumerate(pairing_walk_moments(family, max_order // 2), start=1):
            table.entries[2 * k] = value
        return table
    for order in range(2, max_order + 1, 2):
        estimate = limit_moment(family, order, method="mc", mc_samples=mc_samples, seed=seed)
        table.entries[order], table.stderrs[order] = estimate.value, estimate.stderr
    return table
