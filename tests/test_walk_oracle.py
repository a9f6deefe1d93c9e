"""Toeplitz and Hankel word volumes against an exact Qhull oracle.

The exact and Monte Carlo volumes of the package both read the linear
system that ``build_system`` writes down.  This oracle shares none of that
code: it enumerates pair partitions itself, writes down the walk
x_0, x_1, ..., x_2k that a word describes, and hands the polytope to Qhull
(scipy.spatial, Barber-Dobkin-Huhdanpaa 1996).  The walk coordinates are
x_0 plus one shared quantity per letter:

- Toeplitz: a step e in [-1, 1], taken forward at the letter's first
  position and backward at its second, so the walk closes by itself;
- Hankel: a pair sum s in [0, 2], with x_{t+1} = s - x_t at both
  positions.  The closure x_2k = x_0 holds identically only on symmetric
  words (each letter at one even and one odd position); on every other
  word it cuts the polytope down to a hyperplane, so the volume is 0.

A word's volume is the volume of {every x_t in [0, 1]} in these
coordinates: the map to the free coordinates of ``build_system`` is
integer and unimodular.  A Chebyshev centre from HiGHS (scipy.optimize)
tells a full-dimensional polytope from a flat one; Qhull's halfspace
intersection and convex hull give the volume of the former.

A second, exact oracle counts lattice walks over all pairings at once
(pairing_walk_moment).  It shares no code with the package, but it shares
the Ehrhart idea of ``toeplitz_volumes``; Qhull shares neither.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from hmt import PartitionWord, build_system, limit_moment, moment_table, volume_exact

# a polytope whose largest inscribed ball is smaller than this is flat
FLAT_RADIUS = 1e-9


def pair_partitions(k: int):
    """Every pairing of the positions 0 .. 2k-1, as a tuple of letters."""
    word: list[int | None] = [None] * (2 * k)

    def fill(letter: int):
        if None not in word:
            yield tuple(word)
            return
        i = word.index(None)
        for j in range(i + 1, 2 * k):
            if word[j] is None:
                word[i] = word[j] = letter
                yield from fill(letter + 1)
                word[i] = word[j] = None

    yield from fill(0)


def is_symmetric(word) -> bool:
    first = {}
    for pos, letter in enumerate(word):
        if letter in first and (pos - first[letter]) % 2 == 0:
            return False
        first.setdefault(letter, pos)
    return True


def polytope_volume(rows) -> tuple[float, float]:
    """Volume and Chebyshev radius of {y : lo <= a . y <= hi for each (a, lo, hi)}.

    The polytope must be bounded.  Rows with a = 0 only test 0 in [lo, hi].
    """
    normals, offsets = [], []
    for a, lo, hi in rows:
        if not any(a):
            if not lo <= 0 <= hi:
                return 0.0, 0.0
            continue
        normals += [a, [-x for x in a]]
        offsets += [hi, -lo]
    A = np.array(normals, dtype=float)
    b = np.array(offsets, dtype=float)
    d = A.shape[1]
    if d == 1:
        column = A[:, 0]
        top = min(b[column > 0] / column[column > 0])
        bottom = max(b[column < 0] / column[column < 0])
        length = max(top - bottom, 0.0)
        return length, length / 2
    # largest ball inside: maximize r subject to a . y + |a| r <= b
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    lp = linprog(cost, A_ub=np.hstack([A, norms]), b_ub=b,
                 bounds=[(None, None)] * d + [(0, None)], method="highs")
    if lp.status == 2:  # infeasible: empty polytope
        return 0.0, 0.0
    assert lp.status == 0, lp.message
    centre, radius = lp.x[:d], lp.x[-1]
    if radius < FLAT_RADIUS:
        return 0.0, radius
    vertices = HalfspaceIntersection(np.hstack([A, -b[:, None]]), centre).intersections
    # Q0 (no pre-merging of coplanar facets) takes a third of the default time
    # in d = 6.  Where roundoff would bend the hull (one Toeplitz polytope at
    # d = 7), Qhull raises QhullError instead of returning a volume; the
    # default options merge the coplanar facets there.
    try:
        return ConvexHull(vertices, qhull_options="Q0").volume, radius
    except QhullError:
        return ConvexHull(vertices).volume, radius


def walk_rows(kind: str, word) -> list:
    """The word's polytope in walk coordinates (x_0, one e or s per letter), as rows."""
    k = len(word) // 2
    unit = [[int(i == j) for i in range(k + 1)] for j in range(k + 1)]
    x = unit[0]
    rows = [(x, 0, 1)]
    seen = set()
    for letter in word:
        v = unit[letter + 1]
        if kind == "toeplitz":
            x = [p - q for p, q in zip(x, v)] if letter in seen else [p + q for p, q in zip(x, v)]
        else:
            x = [q - p for p, q in zip(x, v)]
        if letter not in seen:
            rows.append((v, -1, 1) if kind == "toeplitz" else (v, 0, 2))
        seen.add(letter)
        rows.append((x, 0, 1))
    if kind == "hankel":
        rows.append(([p - q for p, q in zip(x, unit[0])], 0, 0))  # x_2k = x_0
    return rows


@functools.cache
def qhull_volume(kind: str, word) -> tuple[float, float]:
    return polytope_volume(walk_rows(kind, word))


def exact_volume(kind: str, word) -> Fraction:
    return volume_exact(build_system(PartitionWord(word), kind)).value


def relabelled(word) -> tuple[int, ...]:
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(letter, len(ids)) for letter in word)


def turns(word) -> set[tuple[int, ...]]:
    """The word's dihedral orbit: its rotations and those of its reversal, relabelled."""
    return {relabelled(w[t:] + w[:t]) for w in (word, word[::-1]) for t in range(len(w))}


@functools.cache
def dihedral_classes(k: int) -> dict:
    """Each word's least rotation or reversal, mapped to the number of words it stands for."""
    sizes: dict = {}
    for word in pair_partitions(k):
        rep = min(turns(word))
        sizes[rep] = sizes.get(rep, 0) + 1
    return sizes


def test_walk_counts_words():
    assert [sum(1 for _ in pair_partitions(k)) for k in range(1, 6)] == [1, 3, 15, 105, 945]
    assert [sum(is_symmetric(w) for w in pair_partitions(k)) for k in range(1, 6)] == [
        1, 2, 6, 24, 120,
    ]


def test_dihedral_classes_count_orbits():
    # OEIS A007769; the class sizes add up to (2k-1)!!
    assert [len(dihedral_classes(k)) for k in range(1, 6)] == [1, 2, 5, 17, 79]
    assert sum(dihedral_classes(5).values()) == 945


@pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
@pytest.mark.parametrize("k", range(1, 5))
def test_every_word_volume_matches_qhull(kind, k):
    for word in pair_partitions(k):
        volume, _ = qhull_volume(kind, word)
        assert abs(volume - float(exact_volume(kind, word))) <= 1e-12, (kind, word)


def test_bent_hull_is_retried_with_default_options():
    # under Q0, roundoff bends the hull of this 7-d Toeplitz polytope and
    # Qhull raises; it is the one dihedral class of order 12 where it does
    word = (0, 0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1)
    volume, _ = qhull_volume("toeplitz", word)
    assert abs(volume - float(exact_volume("toeplitz", word))) <= 1e-12


def test_symmetric_hankel_words_at_k5_match_qhull():
    for word in filter(is_symmetric, pair_partitions(5)):
        volume, _ = qhull_volume("hankel", word)
        assert abs(volume - float(exact_volume("hankel", word))) <= 1e-12, word


@pytest.mark.parametrize("k", range(1, 5))
def test_hankel_volume_vanishes_off_symmetric_words(k):
    # the paper's p_H(w) = 0 off symmetric words: the walk cannot close in full dimension
    for word in pair_partitions(k):
        volume, radius = qhull_volume("hankel", word)
        if is_symmetric(word):
            assert radius > 0.1, word
        else:
            assert radius == 0.0 and volume == 0.0, word


@pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
@pytest.mark.parametrize("k", range(1, 5))
def test_word_sums_are_the_limit_moments(kind, k):
    total = sum(qhull_volume(kind, word)[0] for word in pair_partitions(k))
    assert abs(total - float(limit_moment(kind, 2 * k))) <= 1e-12


@pytest.mark.parametrize("kind,expected", [("toeplitz", Fraction(415)),
                                           ("hankel", Fraction(2717, 36))])
def test_order_ten_through_dihedral_classes(kind, expected):
    total = sum(size * qhull_volume(kind, rep)[0] for rep, size in dihedral_classes(5).items())
    assert abs(total - float(expected)) <= 1e-9


@pytest.mark.slow
def test_hankel_order_twelve_through_dihedral_classes():
    total = sum(size * qhull_volume("hankel", rep)[0] for rep, size in dihedral_classes(6).items())
    assert abs(total - 1052 / 3) <= 1e-12 * (1052 / 3)


def pairing_walk_count(k: int, n: int, hankel: bool) -> int:
    """Pairs (pairing of the places 1..2k, walk i_0..i_2k in {0..n}) whose paired
    steps i_t - i_{t-1} are opposite; for Hankel, only pairings of places of
    opposite parity, the words with p_H(w) = p_T(w) (p_H is 0 on the others).

    A state is (height, sorted open steps), each open step tagged with the
    parity its closing place must have (0 throughout for Toeplitz).  A place
    opens a step to any height while the open steps can still close, or closes
    an open step of its tag, once per open letter that has that step.
    """
    heights = range(n + 1)
    states = {(h, ()): 1 for h in heights}
    for place in range(1, 2 * k + 1):
        tag = place % 2 if hankel else 0
        new: dict = {}
        for (h, steps), count in states.items():
            if len(steps) < 2 * k - place:
                for g in heights:
                    key = (g, tuple(sorted(steps + ((1 - tag if hankel else 0, g - h),))))
                    new[key] = new.get(key, 0) + count
            for step in set(steps):
                g = h - step[1]
                if step[0] == tag and 0 <= g <= n:
                    rest = list(steps)
                    rest.remove(step)
                    key = (g, tuple(rest))
                    new[key] = new.get(key, 0) + count * steps.count(step)
        states = new
    return sum(states.values())


def pairing_walk_moment(k: int, hankel: bool) -> Fraction:
    """The moment of order 2k: the leading coefficient of the pairing walk count,
    a sum of Ehrhart polynomials of degree k + 1.  Counts at N = 0..floor(k/2)
    and reciprocity, L(-1) = 0 and L(-N) = (-1)^(k+1) L(N-2), give k + 2
    consecutive values; their (k+1)-th difference is (k+1)! times the moment."""
    counts = [pairing_walk_count(k, n, hankel) for n in range(k // 2 + 1)]
    sign = (-1) ** (k + 1)
    values = ([sign * c for c in reversed(counts)] + [0] + counts)[-(k + 2):]
    difference = sum((-1) ** (k + 1 - j) * math.comb(k + 1, j) * v for j, v in enumerate(values))
    return Fraction(difference, math.factorial(k + 1))


@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_pairing_walks_give_the_moments_through_order_ten(family):
    table = moment_table(family, 10)
    for k in range(1, 6):
        assert pairing_walk_moment(k, family == "hankel") == table.entries[2 * k], k


@pytest.mark.parametrize("family, m12, m14", [
    ("toeplitz", Fraction(23840, 7), Fraction(325719, 10)),
    ("hankel", Fraction(1052, 3), Fraction(1331087, 720)),
], ids=["toeplitz", "hankel"])
def test_pairing_walks_pin_orders_twelve_and_fourteen(family, m12, m14):
    assert pairing_walk_moment(6, family == "hankel") == m12
    assert pairing_walk_moment(7, family == "hankel") == m14
