"""Cube cross-section volumes attached to pair-partition words.

Each word induces a linear system over variables x_0..x_2k (difference
equations for the Toeplitz ensemble, sum equations for Hankel).  Solving
for the dependent variables and requiring them to stay in [0, 1] cuts a
polytope out of the unit cube in the free coordinates; its volume is the
word's weight in the limiting moment formulas.

There are three exact engines, all plain Python.  The limit moments, sums
of these volumes over all words, come from one count of lattice walks over
all pairings at once (pairing_walk_moments), with no word at all.  A word's
own Toeplitz volume comes from counts of its lattice walks
(toeplitz_volume), which read only its letters; word tables use it, and
Hankel words take it through a parity rule (hmt.limits.word_volumes).  Both
counts read the leading coefficient of an Ehrhart polynomial the same way
(_ehrhart_leading).  Any SlabSystem, hand-built ones with fractional
vertices included, goes through a recursive facet decomposition in the
style of Lasserre/Cohen-Hickey (volume_exact); the tests use it as the
oracle of the walk counts, with which it shares no code.  Monte Carlo reads
the slab rows of a system (volumes_mc); numpy loads the first time a float
estimator (volume_mc, slab_volume_integral) runs.  The tests also check the
exact volumes against Qhull on each word's walk polytope, which shares no
code with this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import CapacityError, InvalidArgumentError, NumericError
from .rng import generator
from .words import PartitionWord

if TYPE_CHECKING:
    import numpy as np

# Free coordinates volume_exact's facet recursion accepts; no moment or word
# table calls the recursion, so this bounds volume_exact alone
DIMENSION_CAP = 7

# Monte Carlo draws in flight per call, in coordinates (1 MB of float64), so
# the memory a call holds does not grow with the dimension; the stream is
# read in whole points, so the chunk size moves no estimate
_MC_CHUNK = 1 << 17


# ---------------------------------------------------------------------------
# Slab systems
# ---------------------------------------------------------------------------

Slab = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class SlabSystem:
    """Dependent variables as integer slabs over the free cube coordinates.

    slabs maps each dependent variable to a triple (a, lo, hi) meaning
    lo <= a . x <= hi, where x lists the free coordinates in free_vars order.
    Word systems always have lo, hi = 0, 1.  closure, present only for
    Hankel word systems, is an integer vector over free_vars that must
    vanish for the cross-section to have full dimension.
    """

    free_vars: tuple[int, ...]
    slabs: Mapping[int, Slab] = field(default_factory=dict)
    closure: tuple[int, ...] | None = None

    @property
    def dimension(self) -> int:
        return len(self.free_vars)

    @property
    def flat(self) -> bool:
        """True when a nonzero closure confines the section to a lower dimension."""
        return self.closure is not None and any(self.closure)


def build_system(w: PartitionWord, kind: str) -> SlabSystem:
    """Linear system attached to a word, solved for its dependent variables.

    Toeplitz: for a letter occupying positions (i, m) the difference
    equation x_i - x_{i-1} + x_m - x_{m-1} = 0 is solved for x_m, sweeping
    second occurrences left to right.  Free variables: x_0 plus the
    variable following each first occurrence.

    Hankel: the sum equation x_i + x_{i-1} = x_m + x_{m-1} is solved for
    x_{i-1}, sweeping first occurrences right to left.  Free variables: the
    variable preceding each second occurrence, plus x_{2k}; the closure
    expr(x_0) - x_{2k} must additionally vanish.
    """
    if kind not in ("toeplitz", "hankel"):
        raise InvalidArgumentError(f"kind must be 'toeplitz' or 'hankel', got {kind!r}")
    two_k = len(w)
    occ = w.occurrences()
    if kind == "toeplitz":
        free = sorted([0] + [f + 1 for f, _ in occ])
        # x_{s+1} = x_s + x_f - x_{f+1}, in increasing second occurrence
        steps = [(s + 1, s, f, f + 1) for f, s in sorted(occ, key=lambda fs: fs[1])]
    else:
        free = sorted([s for _, s in occ] + [two_k])
        # x_f = x_{s+1} + x_s - x_{f+1}, in decreasing first occurrence
        steps = [(f, s + 1, s, f + 1) for f, s in sorted(occ, key=lambda fs: -fs[0])]
    d = len(free)
    forms = {v: tuple(int(i == j) for j in range(d)) for i, v in enumerate(free)}
    slabs = {}
    for target, p, q, r in steps:
        forms[target] = tuple(x + y - z for x, y, z in zip(forms[p], forms[q], forms[r]))
        slabs[target] = (forms[target], 0, 1)
    closure = None
    if kind == "hankel":
        closure = tuple(x - y for x, y in zip(forms[0], forms[two_k]))
    return SlabSystem(tuple(free), slabs, closure)


def _slab_rows(system: SlabSystem) -> list[Slab]:
    """The system's slabs, each checked to have one coefficient per free variable."""
    rows = list(system.slabs.values())
    for a, _, _ in rows:
        if len(a) != system.dimension:
            raise InvalidArgumentError(
                f"slab row {tuple(a)} has {len(a)} coefficients for "
                f"{system.dimension} free variables"
            )
    return rows


# ---------------------------------------------------------------------------
# Volume estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class VolumeEstimate:
    """A volume in [0, 1]: exact rational, or an estimate with its error."""

    value: Fraction | float
    method: str  # "exact" | "mc"
    stderr: float | None = None
    samples: int | None = None

    def __float__(self) -> float:
        return float(self.value)


FLAT_VOLUME = VolumeEstimate(Fraction(0), "exact")  # a section a nonzero closure makes flat


def _binding_slabs(system: SlabSystem) -> list[Slab]:
    """The slabs that some point of the closed cube violates, each once.

    A slab whose range over the cube, [sum of negative a_j, sum of positive
    a_j], lies inside [lo, hi] holds at every draw: float rounding is
    monotone and exact at the cube's corners, so no computed a . x leaves
    that range.  Such a slab cannot change a hit; for words these are the
    unit rows 0 <= x_j <= 1.  A repeated (a, lo, hi) row is kept once.
    """
    kept: dict[Slab, None] = {}
    for a, lo, hi in _slab_rows(system):
        if lo <= sum(x for x in a if x < 0) and sum(x for x in a if x > 0) <= hi:
            continue
        kept[tuple(a), lo, hi] = None
    return list(kept)


def _hit_counter(slabs: list[Slab], dimension: int):
    """Function counting the points (rows of an array) that satisfy every slab.

    Slabs are closed: a point with a . x exactly at lo or hi is a hit.  All
    slab values come from the one product rows @ points.T, one contiguous
    row of values per slab; the bounds are then applied one slab at a time
    into a single boolean mask, so no r x N boolean temporaries are built.
    The layout of the product (and which slabs it holds) could change a
    value only through the order BLAS adds its d terms, which rounds only
    once a partial sum reaches 1 in magnitude; tests/test_volumes.py checks
    every word with k <= 5 against a counter that tests every slab.
    """
    import numpy as np

    rows = np.array([a for a, _, _ in slabs], dtype=float).reshape(len(slabs), dimension)
    bounds = [(float(lo), float(hi)) for _, lo, hi in slabs]

    def count(points: np.ndarray) -> int:
        inside = np.ones(len(points), dtype=bool)
        for values, (lo, hi) in zip(rows @ points.T, bounds):
            inside &= values >= lo
            inside &= values <= hi
        return int(np.count_nonzero(inside))

    return count


def _mc_estimate(hits: int, samples: int) -> VolumeEstimate:
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return VolumeEstimate(p, "mc", stderr=stderr, samples=samples)


def volumes_mc(systems: Sequence[SlabSystem], samples: int,
               seed: int) -> list[VolumeEstimate]:
    """Monte Carlo volumes of several systems from one seed, in their order.

    Each system's estimate is the fraction of `samples` uniform cube draws
    from generator(seed) that satisfy all its slabs, so it does not depend
    on the other systems.  Systems of one dimension read the same points:
    each chunk is drawn once and counted against all of them.  Only the
    slabs some cube point violates are tested (_binding_slabs), so a system
    left without one takes the value 1 of a full draw with no draw at all.
    A flat system (a nonzero closure) short-circuits to FLAT_VOLUME.
    """
    if samples < 1:
        raise InvalidArgumentError(f"samples must be >= 1, got {samples}")
    out: list[VolumeEstimate | None] = [None] * len(systems)
    counters: dict[int, list] = {}  # dimension -> [(system index, hit counter)]
    for i, system in enumerate(systems):
        if system.flat:
            out[i] = FLAT_VOLUME
        elif slabs := _binding_slabs(system):
            counters.setdefault(system.dimension, []).append(
                (i, _hit_counter(slabs, system.dimension)))
        else:
            out[i] = _mc_estimate(samples, samples)
    for d, counted in counters.items():
        gen = generator(seed)
        points = max(1, _MC_CHUNK // max(d, 1))
        hits = [0] * len(counted)
        remaining = samples
        while remaining > 0:
            chunk = gen.random((min(points, remaining), d))
            for j, (_, count) in enumerate(counted):
                hits[j] += count(chunk)
            remaining -= len(chunk)
        for (i, _), h in zip(counted, hits):
            out[i] = _mc_estimate(h, samples)
    return out


def volume_mc(system: SlabSystem, samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo volume of one system: the one-system case of volumes_mc."""
    return volumes_mc((system,), samples, seed)[0]


# ---------------------------------------------------------------------------
# Exact volumes and moments: lattice walks and Ehrhart's polynomial
# ---------------------------------------------------------------------------
#
# In the coordinates (x_0, y_1..y_k), letter c stepping +y_c at its first
# place and -y_c at its second, a Toeplitz word's polytope is
# {0 <= x_0 + (sum of y_c over the letters open at t) <= 1 for each t}.
# Each column of that system is an interval of rows, so the matrix is
# totally unimodular and the polytope has integer vertices (Schrijver 1986,
# ch. 19).  The number L(N) of integer points in its dilation by N, the
# walks i_0..i_2k in {0..N} whose paired steps are opposite, is then a
# polynomial of degree k + 1 whose leading coefficient is the volume
# (Ehrhart 1962; Beck-Robins 2007).  The interior points, the walks in
# {1..N-1}, are the walks in {0..N-2} shifted, so reciprocity gives
# L(-N) = (-1)^(k+1) L(N-2) and L(-1) = 0, and counts at
# N = 0..ceil((k-1)/2) fix the polynomial.  A sum of such counts over words
# keeps the degree and the reciprocity, so a moment, the sum of the volumes
# of all words of one length, is the leading coefficient of the count of
# walks over all pairings at once.

def _ehrhart_leading(counts: Sequence[int], k: int) -> Fraction:
    """Leading coefficient of a walk count L of degree k + 1, from L(0..floor(k/2)).

    Reciprocity, L(-1) = 0 and L(-N) = (-1)^(k+1) L(N-2), extends the counts
    to k + 2 consecutive values; their (k+1)-th finite difference is (k+1)!
    times the leading coefficient.
    """
    sign = (-1) ** (k + 1)
    values = ([sign * count for count in reversed(counts)] + [0] + list(counts))[-(k + 2):]
    difference = sum((-1) ** (k + 1 - j) * math.comb(k + 1, j) * v for j, v in enumerate(values))
    return Fraction(difference, math.factorial(k + 1))


def _walk_plan(letters: Sequence[int]) -> tuple[int, list[int]]:
    """Negated cost and the plan of counting walks along the letters in this order.

    The plan gives each place the index of its letter among the open letters,
    in order of opening, an opening letter taking the next index; it does not
    read the letters' names.  The cost, the sum of 7 ** (letters open after
    each place), follows the number of walk states at N = 3.
    """
    open_letters: list[int] = []
    plan: list[int] = []
    cost = 0
    for letter in letters:
        if letter in open_letters:
            plan.append(open_letters.index(letter))
            open_letters.remove(letter)
        else:
            plan.append(len(open_letters))
            open_letters.append(letter)
        cost += 7 ** len(open_letters)
    return -cost, plan


def _walk_count(plan: list[int], n: int) -> int:
    """Walks in {0..n} that follow the plan, counted place by place.

    A state is (height, steps of the open letters): opening a letter steps
    to any height, closing one takes its step back if that stays in {0..n}.
    """
    heights = range(n + 1)
    states: dict[tuple[int, ...], int] = {(h,): 1 for h in heights}
    opened = 0
    for index in plan:
        if index == opened:
            opened += 1
            # distinct (state, height) pairs give distinct states: no merging
            states = {(g, *state[1:], g - state[0]): count
                      for state, count in states.items() for g in heights}
            continue
        opened -= 1
        j = index + 1
        merged: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            g = state[0] - state[j]
            if 0 <= g <= n:
                key = (g, *state[1:j], *state[j + 1:])
                merged[key] = merged.get(key, 0) + count
        states = merged
    return sum(states.values())


def toeplitz_volume(w: PartitionWord) -> Fraction:
    """Exact Toeplitz volume of a word, from counts of its lattice walks.

    The volume is the same on the whole dihedral orbit, so the count runs
    along the greatest _walk_plan of the word's turns (its rotations and those
    of its reversal): the cheapest plan, ties going to the greatest indices.
    Plans read no letter names, so a whole orbit counts along one plan.  The
    volume is the leading coefficient of the counts L(N) (_ehrhart_leading),
    so (k+1)! times it is an integer.
    Equal to volume_exact(build_system(w, "toeplitz")).value, as tested.
    """
    turns = (t[i:] + t[:i] for t in (w.letters, w.letters[::-1]) for i in range(len(t)))
    plan = max(map(_walk_plan, turns))[1]
    value = _ehrhart_leading([_walk_count(plan, n) for n in range(w.k // 2 + 1)], w.k)
    if not 0 <= value <= 1:
        raise NumericError(f"exact volume {value} escaped [0, 1]")
    return value


def _pairing_walk_counts(k: int, n: int, hankel: bool) -> list[int]:
    """L_t(n) for t = 1..k: the pairs (pairing of the places 1..2t, walk
    i_0..i_2t in {0..n}) whose paired steps i_s - i_{s-1} are opposite.

    Hankel keeps only the pairings of places of opposite parity, the words
    whose Hankel volume is their Toeplitz volume (the others have volume 0).
    One dict runs over the places 1..k.  A state is the height and the
    multiset of the steps of the open pairs, a Hankel step tagged with the
    parity its closing place needs; it maps to the number of partial pairings
    and walks that reach it.  A place opens a pair, stepping to any height,
    or closes an open pair by taking its step back, once per open pair with
    that step.  Read backwards, the places 2t..t+1 of a pairing walk are the
    places 1..t of another one, and at the middle both halves have the same
    state, open steps and tags included.  So L_t is the sum over the states
    after place t of count^2 times the ways to join the two halves' open
    pairs, the product of the factorials of the multiplicities.

    A state is one int: the height in the low bits, then a field per (tag,
    step) of `width` bits counting the open pairs with that step, at most k.
    """
    width, low, steps = k.bit_length(), n.bit_length(), 2 * n + 1

    def field(tag: int, step: int) -> int:
        return low + width * (tag * steps + step + n)

    # moves[parity][h]: the key deltas of the openings from height h, and the
    # (field, key delta) of the closings; a place of that parity opens a pair
    # whose closing place has the other parity and closes one that needs its own
    moves = []
    for parity in (0, 1):
        open_tag, close_tag = (1 - parity, parity) if hankel else (0, 0)
        moves.append([([g - h + (1 << field(open_tag, g - h)) for g in range(n + 1)],
                       [(field(close_tag, h - g), g - h - (1 << field(close_tag, h - g)))
                        for g in range(n + 1)]) for h in range(n + 1)])
    heights, mask = (1 << low) - 1, (1 << width) - 1
    # ways to join the open pairs of three fields at once, indexed by their bits
    # (a quarter less time than one field at a time at orders 16-20)
    joins_of = [1]
    for _ in range(3):
        joins_of = [j * math.factorial(m) for m in range(1 << width) for j in joins_of]
    chunk = (1 << 3 * width) - 1
    states = {h: 1 for h in range(n + 1)}
    counts = []
    for place in range(1, k + 1):
        table = moves[place % 2]
        merged: dict[int, int] = {}
        get = merged.get
        for key, count in states.items():
            opening, closing = table[key & heights]
            for delta in opening:
                merged[key + delta] = get(key + delta, 0) + count
            for shift, delta in closing:
                pairs = (key >> shift) & mask
                if pairs:
                    merged[key + delta] = get(key + delta, 0) + count * pairs
        states = merged
        total = 0
        for key, count in states.items():
            joins = 1
            fields = key >> low
            while fields:
                joins *= joins_of[fields & chunk]
                fields >>= 3 * width
            total += count * count * joins
        counts.append(total)
    return counts


def pairing_walk_moments(family: str, k: int) -> list[Fraction]:
    """Exact Toeplitz or Hankel limit moments of orders 2, 4, ..., 2k.

    The moment of order 2t sums the volumes of the words of length 2t (for
    Hankel, of the symmetric words, where p_H = p_T), so it is the leading
    coefficient of the pairing walk count L_t(N) (_pairing_walk_counts),
    read at N = 0..floor(t/2).  One count at each N gives every order, and
    no word is enumerated.  There is no cap here; hmt.limits.check_request
    holds the exact order caps.
    """
    if family not in ("toeplitz", "hankel"):
        raise InvalidArgumentError(f"family must be 'toeplitz' or 'hankel', got {family!r}")
    if not isinstance(k, int) or k < 0:
        raise InvalidArgumentError(f"k must be a nonnegative integer, got {k!r}")
    counts = [_pairing_walk_counts(k, n, family == "hankel") for n in range(k // 2 + 1)]
    return [_ehrhart_leading([c[t - 1] for c in counts[:t // 2 + 1]], t)
            for t in range(1, k + 1)]


# ---------------------------------------------------------------------------
# Exact volume: recursive facet decomposition, all-rational
# ---------------------------------------------------------------------------
#
# Constraints are integer rows (a, b) meaning a . x <= b.  The volume of
# {x : A x <= b} satisfies
#
#     vol_d = (1/d) * sum_i  b_i * vol_{d-1}(facet_i projected) / |a_{i,j}|
#
# (divergence theorem with the field x/d; the projection drops one pivot
# coordinate j with a_{i,j} != 0).  A facet with b_i = 0 passes through
# the origin and carries weight 0, so it is never solved: at the top level
# that is every x_j >= 0 and every slab's lower side.  Subsystems are
# canonicalized, deduplicated, split into independent variable blocks, and
# memoized.
#
# Rows are normalized (divided by gcd(a, b)) in two places only: once at
# the top level in volume_exact, since a hand-built slab such as
# (2a, -c, 2 - c) can have gcd > 1, and in _substitute for the rows it
# combines with the pivot.  Every other row is normalized already: a row
# that _substitute passes through loses a zero column, which keeps its
# gcd, and the projection onto a block drops only zero columns.  A combined
# row whose coefficients all cancel stays as it is, for _canonical to drop
# (0 <= b) or to judge infeasible (b < 0).

_EMPTY = None  # canonicalization result for an infeasible system

# Bound on memoized facet sums, about 2.7 KB of resident memory each (so at
# most about 350 MB).  Word tables count walks and leave it empty.
_MEMO_SIZE = 1 << 17


def _normalize_row(a: tuple[int, ...], b: int) -> tuple[tuple[int, ...], int]:
    """The row divided by gcd(a, b); an all-zero a is returned as it is."""
    g = math.gcd(*a)
    if g:
        g = math.gcd(g, b)
        if g > 1:
            a = tuple(x // g for x in a)
            b //= g
    return a, b


def _tighten(bounds: list, j: int, num: int, den: int, upper: bool) -> None:
    """Keep the tighter of bounds[j] and num/den (den > 0), compared in integers."""
    cur = bounds[j]
    if cur is None or (num * cur[1] < cur[0] * den if upper else num * cur[1] > cur[0] * den):
        bounds[j] = (num, den)


def _canonical(rows: Iterable[tuple[tuple[int, ...], int]], d: int):
    """Deduplicate and prune a system of normalized rows; None if infeasible/flat.

    Returns (rows, lo, hi): the surviving rows as (a, b, support) triples,
    support listing the variables with a_j != 0, and the box lo[j] <= x_j <=
    hi[j] that the singleton rows set.  An all-zero row is dropped when
    0 <= b holds and makes the system infeasible otherwise.  Bounds are
    integer pairs (num, den) with den > 0, or None; the box tests run over a
    common denominator, so no rational arithmetic happens here.
    """
    best: dict[tuple[int, ...], int] = {}
    for a, b in rows:
        cur = best.get(a)
        if cur is None or b < cur:
            best[a] = b
    # variable bounds from singleton rows: c x_j <= b
    lo: list[tuple[int, int] | None] = [None] * d
    hi: list[tuple[int, int] | None] = [None] * d
    multi = []
    out = []
    for a, b in best.items():
        zeros = a.count(0)
        if zeros == d:
            if b < 0:
                return _EMPTY
            continue
        if zeros < d - 1:
            multi.append((a, b))
            continue
        c = sum(a)  # the one nonzero coefficient
        j = a.index(c)
        out.append((a, b, (j,)))
        if c > 0:
            _tighten(hi, j, b, c, upper=True)
        else:
            _tighten(lo, j, -b, -c, upper=False)
    for low, high in zip(lo, hi):
        if low is not None and high is not None and low[0] * high[1] >= high[0] * low[1]:
            return _EMPTY  # empty box or zero-width slab: volume 0 either way
    for a, b in multi:
        nz = tuple(j for j, x in enumerate(a) if x)
        if all(lo[j] is not None and hi[j] is not None for j in nz):
            den = 1
            for j in nz:
                den = math.lcm(den, lo[j][1], hi[j][1])
            # extremes of a . x over the box, scaled by den
            mx = mn = 0
            for j in nz:
                x = a[j]
                (pn, pd), (qn, qd) = (hi[j], lo[j]) if x > 0 else (lo[j], hi[j])
                mx += x * pn * (den // pd)
                mn += x * qn * (den // qd)
            if mn > b * den:
                return _EMPTY
            if mx <= b * den:
                continue  # implied by the box: facet carries no volume
        out.append((a, b, nz))
    return out, lo, hi


def _components(rows, d):
    """Blocks of variables linked by shared multi-variable rows, with their rows.

    rows are _canonical's (a, b, support) triples.  Each block is a pair
    (variables, rows); blocks come in order of their least variable.
    """
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, _, nz in rows:
        for j in nz[1:]:
            ra, rb = find(nz[0]), find(j)
            if ra != rb:
                parent[rb] = ra
    root = [find(j) for j in range(d)]
    blocks: dict[int, tuple[list[int], list]] = {}
    for j, r in enumerate(root):
        blocks.setdefault(r, ([], []))[0].append(j)
    for row in rows:
        blocks[root[row[2][0]]][1].append(row)
    return blocks.values()


def _relabel(rows, variables):
    """Memo key of a block: its rows projected onto its variables, sorted.

    The variables are ordered by the sorted (a_j, b) pairs of the rows that
    involve them, ties broken by their old index.
    """
    sigs = sorted(
        (tuple(sorted((a[j], b) for a, b, _ in rows if a[j])), j) for j in variables
    )
    order = [j for _, j in sigs]
    return tuple(sorted((tuple(a[j] for j in order), b) for a, b, _ in rows)), len(order)


def _substitute(rows, pivot_idx, j):
    """Eliminate variable j using row pivot_idx as an equality.

    Only the rows that combine with the pivot (a_j != 0) are normalized; a
    row with a_j = 0 keeps its gcd when column j is dropped.
    """
    c, e = rows[pivot_idx]
    cj = c[j]
    # cj * row - a_j * pivot, negated when cj < 0 to keep the inequality
    s, sign = (cj, 1) if cj > 0 else (-cj, -1)
    c_rest = c[:j] + c[j + 1 :]
    out = []
    for idx, (a, b) in enumerate(rows):
        if idx == pivot_idx:
            continue
        rest = a[:j] + a[j + 1 :]
        aj = a[j]
        if aj == 0:
            out.append((rest, b))
            continue
        m = sign * aj
        out.append(
            _normalize_row(tuple(s * x - m * y for x, y in zip(rest, c_rest)), s * b - m * e)
        )
    return out


def _volume_system(raw_rows, d: int) -> Fraction:
    canon = _canonical(raw_rows, d)
    if canon is _EMPTY:
        return Fraction(0)
    rows, lo, hi = canon
    total = Fraction(1)
    for variables, block in _components(rows, d):
        if len(variables) > 1:
            total *= _facet_sum(*_relabel(block, variables))
            if total == 0:
                return Fraction(0)
            continue
        # a lone variable's rows are all singletons: its interval is the box
        j = variables[0]
        if lo[j] is None or hi[j] is None:
            raise NumericError("unbounded interval in volume recursion")
        (ln, ld), (hn, hd) = lo[j], hi[j]
        total *= Fraction(hn * ld - ln * hd, hd * ld)
    return total


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _facet_sum(rows, d: int) -> Fraction:
    """Volume of a connected block with d >= 2 variables."""
    total = Fraction(0)
    for idx, (a, b) in enumerate(rows):
        if b == 0:
            continue  # the facet's term is 0 * vol: no need to solve it
        j = max(range(len(a)), key=lambda l: abs(a[l]))
        sub = _substitute(rows, idx, j)
        v = _volume_system(sub, d - 1)
        if v != 0:
            total += Fraction(b, abs(a[j])) * v
    return total / d


def volume_exact(system: SlabSystem) -> VolumeEstimate:
    """Exact rational volume of the cube cross-section.

    A nonzero closure vector forces a dimension drop and an exact volume of
    0.  Raises CapacityError above DIMENSION_CAP free variables; use
    volume_mc there instead.
    """
    if system.flat:
        return FLAT_VOLUME
    d = system.dimension
    if d > DIMENSION_CAP:
        raise CapacityError(
            f"{d} free variables exceed the exact-volume cap {DIMENSION_CAP}; use volume_mc"
        )
    rows: list[tuple[tuple[int, ...], int]] = []
    for j in range(d):
        unit = tuple(1 if l == j else 0 for l in range(d))
        rows.append((unit, 1))
        rows.append((tuple(-x for x in unit), 0))
    for a, lo, hi in _slab_rows(system):
        # lo <= a . x <= hi  ->  -a . x <= -lo and a . x <= hi
        rows.append(_normalize_row(tuple(-x for x in a), -lo))
        rows.append(_normalize_row(tuple(a), hi))
    value = _volume_system(rows, d)
    if not 0 <= value <= 1:
        raise NumericError(f"exact volume {value} escaped [0, 1]")
    return VolumeEstimate(value, "exact")


def single_slab_system(signs: Iterable[int]) -> SlabSystem:
    """System with one constraint sum(sign_j * x_j) in [0, 1] over the cube.

    With q negative signs among n, the exact volume is an Eulerian slice
    A(n, n-q) / n! of the n-cube.
    """
    signs = tuple(signs)
    if not signs or any(s not in (-1, 1) for s in signs):
        raise InvalidArgumentError("signs must be a nonempty sequence of +/-1")
    n = len(signs)
    return SlabSystem(tuple(range(n)), {n: (signs, 0, 1)}, None)


# ---------------------------------------------------------------------------
# Eulerian numbers and the oscillatory-integral representation
# ---------------------------------------------------------------------------

def _eulerian_row(n: int) -> tuple[int, ...]:
    row = (1,)  # A(1, 1)
    for size in range(2, n + 1):
        prev = row
        row = tuple(
            (size - m + 1) * (prev[m - 2] if 2 <= m <= size else 0)
            + m * (prev[m - 1] if m <= size - 1 else 0)
            for m in range(1, size + 1)
        )
    return row


def eulerian_number(n: int, m: int) -> int:
    """A(n, m): permutations of n with m ascents (sentinel sigma_0 = 0).

    Zero outside 1 <= m <= n; row sums are n!.  A(n, m)/n! is the volume of
    a unit-width diagonal slab slice of the n-cube.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    if not isinstance(m, int):
        raise InvalidArgumentError(f"m must be an integer, got {m!r}")
    if m < 1 or m > n:
        return 0
    return _eulerian_row(n)[m - 1]


# Gauss-Legendre panels slab_volume_integral may sum before it refuses a tolerance
SLAB_PANEL_CAP = 6_000_000

_GL_NODES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_panel(order: int):
    if order not in _GL_NODES:
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(order)
        _GL_NODES[order] = (x, w)
    return _GL_NODES[order]


def slab_volume_integral(n: int, m: int, tol: float = 1e-7) -> float:
    """Slab-slice volume via (2/pi) * int (sin t / t)^{n+1} cos((n+1-2m) t) dt.

    Composite Gauss-Legendre panels aligned to the zeros of sin t, truncated
    once the |t|^-(n+1) envelope bounds the tail below tol/2, at most
    SLAB_PANEL_CAP panels.  Agrees with eulerian_number(n, m)/n! to better
    than 1e-6.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    if not isinstance(m, int) or not 1 <= m <= n:
        raise InvalidArgumentError(f"m must be an integer in 1..{n}, got {m!r}")
    if not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
        raise InvalidArgumentError(f"tol must be finite and positive, got {tol!r}")
    power = n + 1
    omega = n + 1 - 2 * m
    # tail bound: (2/pi) * integral_T^inf t^-(n+1) dt = (2/pi) T^-n / n
    t_cut = (4.0 / (math.pi * n * tol)) ** (1.0 / n)
    panels = max(20, math.ceil(t_cut / math.pi))
    if panels > SLAB_PANEL_CAP:
        achieved = (2.0 / math.pi) * (SLAB_PANEL_CAP * math.pi) ** (-n) / n
        raise NumericError(
            f"tolerance {tol} needs {panels} panels (cap {SLAB_PANEL_CAP}); "
            f"achievable tolerance ~ {2 * achieved:.3g}"
        )
    import numpy as np

    order = 12 if n <= 2 else 32
    nodes, weights = _gauss_panel(order)
    half = math.pi / 2.0
    total = 0.0
    chunk = 65536
    for start in range(0, panels, chunk):
        stop = min(start + chunk, panels)
        centers = (np.arange(start, stop) + 0.5) * math.pi
        t = centers[:, None] + half * nodes[None, :]
        vals = np.sinc(t / math.pi) ** power
        if omega != 0:
            vals = vals * np.cos(omega * t)
        total += float(np.sum(vals @ weights)) * half
    return (2.0 / math.pi) * total
