"""Reference values computed apart from the program under test.

Nothing here imports ``hmt``.  Each function recomputes a quantity the
program produces, from its mathematical definition or from the documented
stream layout of the samplers, so that a fault in the program cannot also
be a fault in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

# ---------------------------------------------------------------------------
# Pair partitions and word statistics
# ---------------------------------------------------------------------------


def irreducible_counts(k_max: int) -> list[int]:
    """a(1..k_max) with a(1) = 1 and a(n) = sum_{k<n} (2k-1) a(k) a(n-k) (OEIS A000699)."""
    a = [0, 1]
    for n in range(2, k_max + 1):
        a.append(sum((2 * k - 1) * a[k] * a[n - k] for k in range(1, n)))
    return a[1:]


def markov_cumulants(max_order: int) -> dict[int, Fraction]:
    """Free cumulants of semicircle + standard normal: k_2 = 2, k_2r = a(r) for r >= 2."""
    a = irreducible_counts(max_order // 2)
    return {2 * r: Fraction(2 if r == 1 else a[r - 1]) for r in range(1, max_order // 2 + 1)}


def _poly_mul(p: list[Fraction], q: list[Fraction], deg: int) -> list[Fraction]:
    out = [Fraction(0)] * (deg + 1)
    for i, pi in enumerate(p):
        if pi:
            for j in range(deg + 1 - i):
                out[i + j] += pi * q[j]
    return out


def moments_from_cumulants(cumulants: dict[int, Fraction], max_order: int) -> dict[int, Fraction]:
    """Even moments from even free cumulants by truncated power series.

    Solves M = 1 + sum_r k_2r t^r M^(2r) in t = z^2 by fixed-point
    iteration; each pass fixes one more coefficient.
    """
    deg = max_order // 2
    m = [Fraction(1)] + [Fraction(0)] * deg
    for _ in range(deg):
        square = _poly_mul(m, m, deg)
        power = [Fraction(1)] + [Fraction(0)] * deg
        new = [Fraction(1)] + [Fraction(0)] * deg
        for r in range(1, deg + 1):
            power = _poly_mul(power, square, deg)
            kappa = cumulants.get(2 * r, Fraction(0))
            for j in range(deg + 1 - r):
                new[r + j] += kappa * power[j]
        m = new
    return {2 * j: m[j] for j in range(deg + 1)}


def pair_partitions(k: int) -> list[tuple[int, ...]]:
    """Canonical words of length 2k: letter ids in order of first occurrence."""
    out = []
    word = [-1] * (2 * k)

    def fill(next_id: int) -> None:
        try:
            first = word.index(-1)
        except ValueError:
            out.append(tuple(word))
            return
        word[first] = next_id
        for second in range(first + 1, 2 * k):
            if word[second] == -1:
                word[second] = next_id
                fill(next_id + 1)
                word[second] = -1
        word[first] = -1

    fill(0)
    return sorted(out)


def word_string(word: tuple[int, ...]) -> str:
    return "".join(chr(ord("a") + x) for x in word)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def odd_double_factorial(k: int) -> int:
    return math.prod(range(1, 2 * k, 2))


# ---------------------------------------------------------------------------
# Volume sums by Monte Carlo over the word's walk
# ---------------------------------------------------------------------------


def _walk_batch(words: np.ndarray, first: tuple[bool, ...], kind: str, gen: Generator,
                batch: int) -> np.ndarray:
    """Walks that stay in [0, 1], per word of a group sharing one first-occurrence mask.

    Positions carry x_0 .. x_2k.  At the first occurrence of a letter the
    next position is a fresh uniform (a free coordinate); at the second it
    is forced by the letter's equation: x_{m+1} - x_m = -(x_{f+1} - x_f)
    for Toeplitz, x_{m+1} + x_m = x_{f+1} + x_f for Hankel.  Returns hit
    counts per word.
    """
    nw = len(words)
    rows = np.arange(nw)
    x0 = gen.random((nw, batch))
    x = x0
    carry = np.empty((nw, len(first) // 2, batch))
    ok = np.ones((nw, batch), dtype=bool)
    for t, is_first in enumerate(first):
        letter = words[:, t]
        if is_first:
            y = gen.random((nw, batch))
            carry[rows, letter] = y - x if kind == "toeplitz" else y + x
            x = y
        else:
            stored = carry[rows, letter]
            x = x - stored if kind == "toeplitz" else stored - x
            ok &= (x >= 0.0) & (x <= 1.0)
    if kind == "hankel":
        # the walk must close (x_2k = x_0) identically, else the volume is 0
        ok &= np.abs(x - x0) < 1e-9
    return ok.sum(axis=1)


def walk_volume_sum(kind: str, k: int, samples: int, seed: int,
                    batch: int = 2048) -> tuple[float, float]:
    """Monte Carlo estimate of sum_w vol(w) over all words of length 2k, with its stderr.

    Every word gets `samples` independent walks; the stderr is
    sqrt(sum_w p_w (1 - p_w) / samples).
    """
    groups: dict[tuple[bool, ...], list[tuple[int, ...]]] = {}
    for word in pair_partitions(k):
        if kind == "hankel" and any((word.index(c) + 2 * k - 1 - word[::-1].index(c)) % 2 == 0
                                    for c in range(k)):
            continue  # two occurrences of equal parity: the walk cannot close
        mask = tuple(word.index(c) == t for t, c in enumerate(word))
        groups.setdefault(mask, []).append(word)
    gen = Generator(Philox(key=seed))
    hits = []
    for mask, members in sorted(groups.items()):
        words = np.array(members, dtype=np.intp)
        count = np.zeros(len(words))
        done = 0
        while done < samples:
            step = min(batch, samples - done)
            count += _walk_batch(words, mask, kind, gen, step)
            done += step
        hits.append(count)
    hits = np.concatenate(hits)
    p = hits / samples
    return float(p.sum()), math.sqrt(float((p * (1 - p)).sum()) / samples)


# ---------------------------------------------------------------------------
# The samplers' documented stream layout
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
TAG_ENSEMBLE = 0xBF58476D1CE4E5B9
TAG_REPLICATE = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_key(*values: int) -> int:
    state = 0
    for v in values:
        state = _splitmix64(state ^ (v & _MASK64))
    return state


def entry_stream(seed: int, count: int, dist: str) -> np.ndarray:
    """The i.i.d. entries a sampler with this replicate seed consumes."""
    gen = Generator(Philox(key=stream_key(TAG_ENSEMBLE, seed)))
    if dist == "gaussian":
        return ndtri(gen.random(count) + 2.0**-54)
    if dist == "triangular":
        u = gen.random((2, count))
        return (u[0] - u[1]) * math.sqrt(6.0)
    raise ValueError(f"no stream layout for {dist!r}")


def frobenius_squared(ensemble: str, n: int, seed: int, dist: str) -> float:
    """||A||_F^2 of a sampled Toeplitz or Hankel matrix, from its entry stream alone."""
    if ensemble == "hankel":
        x = entry_stream(seed, 2 * n - 1, dist)
        t = np.arange(2 * n - 1)
        mult = np.minimum(t + 1, 2 * n - 1 - t)
    else:
        x = entry_stream(seed, n, dist)
        mult = np.full(n, 2.0 * n) - 2.0 * np.arange(n)
        mult[0] = n
    return float(np.sum(mult * x * x))


def markov_norm(n: int, seed: int) -> float:
    """Spectral norm of a Gaussian Markov matrix: upper triangle row-major, zero row sums."""
    upper = entry_stream(seed, n * (n - 1) // 2, "gaussian")
    a = np.zeros((n, n))
    a[np.triu_indices(n, k=1)] = upper
    a = a + a.T
    a[np.diag_indices(n)] = -a.sum(axis=1)
    eigs = np.linalg.eigvalsh(a)
    return float(max(eigs[-1], -eigs[0]))
