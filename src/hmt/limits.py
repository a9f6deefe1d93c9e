"""Limiting moment sequences and free-cumulant conversions.

The Toeplitz and Hankel limits are assembled word by word, from the
exact (or Monte Carlo) cube cross-section volumes.  The Markov limit is
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError, InvalidArgumentError
from .rng import TAG_VOLUME_MC, mix
from .volumes import (
    DEFAULT_DIMENSION_CAP,
    build_system,
    volume_exact,
    volume_mc,
)
from .words import (
    DEFAULT_WORD_CAP,
    dihedral_orbits,
    double_factorial_odd,
    enumerate_words,
    height,  # no longer called here; perfbench/tracing.py wraps hmt.limits.height
    is_irreducible,
)

MOMENT_FAMILIES = ("toeplitz", "hankel", "markov")
REFERENCE_FAMILIES = ("semicircle", "gaussian")

# Exact high-order moments beyond the default dimension cap, produced by
# limit_moment(..., dim_cap=7) and recorded here: order 12 alone takes 11 s
# (hankel) and 80 s (toeplitz) from a cold memo on a 2-core x86-64 VM with
# CPython 3.11.  The test suite re-derives order 10 exactly and brackets
# order 12 by Monte Carlo.
DERIVED_EXACT_MOMENTS: dict[str, dict[int, Fraction]] = {
    "toeplitz": {10: Fraction(415), 12: Fraction(23840, 7)},
    "hankel": {10: Fraction(2717, 36), 12: Fraction(1052, 3)},
}


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo moment with the aggregated per-word standard error."""

    value: float
    stderr: float


@dataclass
class MomentTable:
    """Even moments of one family; exact rationals or MC values with errors."""

    family: str
    entries: dict[int, Fraction | float] = field(default_factory=dict)
    stderrs: dict[int, float] = field(default_factory=dict)
    method: str = "exact"

    def moment(self, order: int) -> Fraction | float:
        if order % 2 == 1:
            return Fraction(0)
        return self.entries[order]


@dataclass
class CumulantTable:
    """Even free cumulants of a symmetric measure, exact rationals."""

    family: str
    entries: dict[int, Fraction] = field(default_factory=dict)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _check_even_order(order: int) -> int:
    if not isinstance(order, int) or order < 0 or order % 2 != 0:
        raise InvalidArgumentError(f"order must be a nonnegative even integer, got {order!r}")
    return order // 2


def _check_request(family: str, order: int, method: str, word_cap: int, dim_cap: int) -> int:
    """Validate a moment request and its caps before any work; returns k = order / 2.

    Both caps grow with the order, so checking the largest order of a
    table covers every order below it.
    """
    if family not in MOMENT_FAMILIES:
        raise InvalidArgumentError(f"unknown family {family!r}; expected one of {MOMENT_FAMILIES}")
    k = _check_even_order(order)
    if method not in ("exact", "mc"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    if k > word_cap:
        raise CapacityError(f"order {order} needs k={k} words, above the cap {word_cap}")
    if family != "markov" and method == "exact" and k + 1 > dim_cap:
        raise CapacityError(
            f"order {order} needs exact volumes in dimension {k + 1}, "
            f"above the cap {dim_cap}; use method='mc'"
        )
    return k


def limit_moment(
    family: str,
    order: int,
    method: str = "exact",
    mc_samples: int = 100_000,
    seed: int = 0,
    word_cap: int = DEFAULT_WORD_CAP,
    dim_cap: int = DEFAULT_DIMENSION_CAP,
) -> Fraction | MomentEstimate:
    """Limiting moment of order 2k for the toeplitz/hankel/markov family.

    markov reads the moment off the free-cumulant series of semicircle
    plus N(0, 1) (always an exact integer, whatever the method);
    toeplitz/hankel sum exact volumes once per dihedral orbit of words,
    weighted by the orbit's size, or per-word Monte Carlo volumes with
    independent per-word derived seeds and aggregate standard error
    sqrt(sum stderr_w^2).
    """
    k = _check_request(family, order, method, word_cap, dim_cap)
    if k == 0:
        return Fraction(1)
    if family == "markov":
        return _markov_moments(order)[order]
    if method == "exact":
        # one volume per dihedral orbit: the volume is constant on each
        return sum(
            (size * volume_exact(build_system(rep, family), dim_cap=dim_cap).value
             for rep, size in dihedral_orbits(k, word_cap)),
            start=Fraction(0),
        )
    total = 0.0
    var = 0.0
    for index, w in enumerate(enumerate_words(k, cap=word_cap)):
        est = volume_mc(build_system(w, family), mc_samples, mix(TAG_VOLUME_MC, seed, k, index))
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


@lru_cache(maxsize=None)
def irreducible_count(k: int) -> int:
    """Number of irreducible pair-partition words of length 2k."""
    return sum(1 for w in enumerate_words(k) if is_irreducible(w))


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
    if n < 1:
        raise InvalidArgumentError(f"matrix size must be >= 1, got {n}")
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
    word_cap: int = DEFAULT_WORD_CAP,
    dim_cap: int = DEFAULT_DIMENSION_CAP,
) -> MomentTable:
    """Moments of one family through max_order (even orders; order 0 is 1)."""
    _check_even_order(max_order)
    if family in REFERENCE_FAMILIES:
        entries = {
            order: reference_moments(family, order) for order in range(0, max_order + 1, 2)
        }
        return MomentTable(family=family, entries=entries, method="formula")
    _check_request(family, max_order, method, word_cap, dim_cap)
    if family == "markov":
        return MomentTable(family=family, entries=_markov_moments(max_order), method="exact")
    table = MomentTable(family=family, method=method)
    table.entries[0] = Fraction(1)
    for order in range(2, max_order + 1, 2):
        value = limit_moment(
            family,
            order,
            method=method,
            mc_samples=mc_samples,
            seed=seed,
            word_cap=word_cap,
            dim_cap=dim_cap,
        )
        if isinstance(value, MomentEstimate):
            table.entries[order] = value.value
            table.stderrs[order] = value.stderr
        else:
            table.entries[order] = value
    return table


def recorded_moment_table(family: str, max_order: int) -> MomentTable:
    """Exact moments through max_order, drawing on the recorded high orders.

    Orders within the live caps are computed; orders 10 and 12 for the
    toeplitz/hankel families come from DERIVED_EXACT_MOMENTS.
    """
    _check_even_order(max_order)
    live = min(max_order, 8) if family in DERIVED_EXACT_MOMENTS else max_order
    table = moment_table(family, live)
    for order in range(live + 2, max_order + 1, 2):
        extra = DERIVED_EXACT_MOMENTS.get(family, {})
        if order not in extra:
            raise CapacityError(f"no recorded exact moment of order {order} for {family}")
        table.entries[order] = extra[order]
    return table
