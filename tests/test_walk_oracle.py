"""Toeplitz and Hankel limit moments against a continuous-walk Monte Carlo.

The exact, Monte Carlo and grid volumes of the package all read the linear
system that ``build_system`` writes down.  This oracle shares none of that
code: it enumerates pair partitions itself and samples the walk
x_0, x_1, ..., x_2k that a word describes.  x_0 ~ U[0, 1], and each letter
draws one shared quantity for its two positions:

- Toeplitz: a step e ~ U[-1, 1], taken forward at the letter's first
  position and backward at its second, so the walk closes by itself;
- Hankel: a pair sum s ~ U[0, 2], with x_{t+1} = s - x_t at both
  positions.  The walk closes identically only for symmetric words (each
  letter at one even and one odd position); every other word has volume 0.

A word's volume is the probability that the whole walk stays in [0, 1],
times 2^k: each letter's draw has density 1/2 against the unit-length
coordinate it replaces.
"""

from fractions import Fraction

import numpy as np
import pytest

from hmt import limit_moment

SAMPLES = 200_000
SEED = 20030730


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


def walk_moment(kind: str, k: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the order-2k moment, with its standard error."""
    gen = np.random.default_rng(seed)
    total = variance = 0.0
    for word in pair_partitions(k):
        if kind == "hankel" and not is_symmetric(word):
            continue
        x = gen.random(samples)
        if kind == "toeplitz":
            draws = gen.uniform(-1.0, 1.0, (k, samples))
        else:
            draws = gen.uniform(0.0, 2.0, (k, samples))
        inside = np.ones(samples, dtype=bool)
        seen = set()
        for letter in word:
            if kind == "toeplitz":
                x = x - draws[letter] if letter in seen else x + draws[letter]
            else:
                x = draws[letter] - x
            seen.add(letter)
            inside &= (x >= 0.0) & (x <= 1.0)
        p = float(inside.mean())
        total += p
        variance += p * (1.0 - p) / samples
    return 2**k * total, 2**k * variance**0.5


@pytest.mark.parametrize(
    "kind,order,expected",
    [
        ("toeplitz", 6, Fraction(11)),
        ("toeplitz", 8, Fraction(908, 15)),
        ("hankel", 8, Fraction(281, 15)),
    ],
)
def test_exact_moment_within_four_standard_errors(kind, order, expected):
    exact = limit_moment(kind, order)
    assert exact == expected
    estimate, stderr = walk_moment(kind, order // 2, SAMPLES, SEED)
    assert 0 < stderr < 0.005 * float(exact)  # tight enough to tell words apart
    assert abs(estimate - float(exact)) <= 4 * stderr, (estimate, stderr, exact)


def test_walk_counts_words():
    assert [sum(1 for _ in pair_partitions(k)) for k in range(1, 6)] == [1, 3, 15, 105, 945]
    assert [sum(is_symmetric(w) for w in pair_partitions(k)) for k in range(1, 6)] == [
        1, 2, 6, 24, 120,
    ]
