"""Seeded samplers for the structured random matrix ensembles.

All samplers are deterministic functions of (ensemble, n, distribution,
seed): entry streams come from the counter-based generator in hmt.rng and
are consumed in a fixed documented order, so identical inputs reproduce
bit-identical matrices.  The Markov ensemble's Q-decomposition over the
overlap graph of vertex pairs is included as an exact structural oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, Philox

from . import parallel
from .errors import InvalidArgumentError
from .rng import DISTRIBUTIONS, ENSEMBLES, TAG_ENSEMBLE, generator, mix, standard_normals

_SQRT6 = np.sqrt(6.0)
# values per `draw` call in draw_segments: 2^13 float64s, 64 KB, which stay
# in cache until copied into their rows and leave little heap behind in the
# thread of each row block
_CHUNK = 1 << 13
# side of the square tiles in which _symmetric_from_upper mirrors the triangle
_TILE = 64
# the strict upper triangle is drawn in total // _BLOCK_MIN blocks of rows,
# each on its own thread: below 2^20 entries (n <= 1448) it is one block
_BLOCK_MIN = 1 << 19
# cost of a row of the triangle beyond its entries, in entries: a row's
# segment write and the first touch of its pages.  The two row blocks of
# n = 4096, each drawn alone, took 88 and 96 ms cut at equal entry counts
# and 93 and 92 ms weighed with 256 per row (median of 21, 2-core x86-64 VM)
_ROW_COST = 256


@dataclass(frozen=True)
class EntryDistribution:
    """Entry law for the i.i.d. stream; tag plus exact mean (the variance is 1)."""

    tag: str
    mean: Fraction = Fraction(0)

    def __post_init__(self):
        try:
            mean = Fraction(self.mean)
        except (ValueError, OverflowError, TypeError) as exc:  # nan, inf, non-numbers
            raise InvalidArgumentError(
                f"entry mean must be a finite number, got {self.mean!r}") from exc
        if mean and self.tag != "shifted_gaussian":
            raise InvalidArgumentError(f"the {self.tag} law has mean 0, got mean {mean}")
        object.__setattr__(self, "mean", mean)

    def draw(self, gen, count: int) -> np.ndarray:
        """Fixed-consumption sampling: one uniform per draw (two for triangular)."""
        if self.tag == "rademacher":
            u = gen.random(count)
            return np.where(u < 0.5, 1.0, -1.0)
        if self.tag == "gaussian":
            return standard_normals(gen, count)
        if self.tag == "triangular":
            # U - U' has variance 1/6; sqrt(6) standardizes it
            u = gen.random((2, count))
            return (u[0] - u[1]) * _SQRT6
        if self.tag == "shifted_gaussian":
            draws = standard_normals(gen, count)
            draws += float(self.mean)
            return draws
        raise InvalidArgumentError(f"unknown distribution tag {self.tag!r}")

    def draw_segments(self, gen, sizes: Iterable[int], ahead: int | None = None
                      ) -> Iterator[np.ndarray]:
        """The values of one `draw(gen, sum(sizes))` call, one segment at a time.

        Both leave gen at the same stream position.  Consecutive segments are
        drawn together, about _CHUNK values per `draw` call, and yielded as
        slices of that chunk; a segment longer than _CHUNK is a chunk of its
        own.  The one-uniform laws consume the stream in order; triangular
        takes its second uniforms from a copy of gen skipped ahead by `ahead`
        draws (default sum(sizes)), which advances in step with gen, and
        where gen resumes once the last segment is out.  A block of a longer
        draw passes that draw's length as `ahead`, so its second uniforms are
        the ones the whole draw would pair with its first.
        """
        sizes = list(sizes)
        second = None
        if self.tag == "triangular":
            second = _skipped(gen, sum(sizes) if ahead is None else ahead)
        start = 0
        while start < len(sizes):
            stop, total = start + 1, sizes[start]
            while stop < len(sizes) and total + sizes[stop] <= _CHUNK:
                total += sizes[stop]
                stop += 1
            if second is None:
                chunk = self.draw(gen, total)
            else:
                chunk = gen.random(total)
                chunk -= second.random(total)
                chunk *= _SQRT6
            offset = 0
            for size in sizes[start:stop]:
                yield chunk[offset:offset + size]
                offset += size
            start = stop
        if second is not None:
            gen.bit_generator.state = second.bit_generator.state


def _skipped(gen, count: int) -> Generator:
    """A Philox generator `count` draws ahead of gen, which is left as it is.

    One Philox block holds four draws: the draws left in gen's block are
    skipped one by one, then whole blocks by `advance`, then the rest.
    """
    bits = Philox(0)
    bits.state = gen.bit_generator.state
    ahead = Generator(bits)
    buffered = 4 - bits.state["buffer_pos"]
    if count > buffered:
        bits.advance((count - buffered) // 4)
        count = (count - buffered) % 4
    ahead.random(count)
    return ahead


def rademacher() -> EntryDistribution:
    return EntryDistribution("rademacher")


def gaussian() -> EntryDistribution:
    return EntryDistribution("gaussian")


def triangular() -> EntryDistribution:
    return EntryDistribution("triangular")


def shifted_gaussian(mean) -> EntryDistribution:
    return EntryDistribution("shifted_gaussian", mean)


def distribution_from_tag(tag: str, mean=0) -> EntryDistribution:
    """The entry law named by a tag in DISTRIBUTIONS; mean is read by shifted_gaussian only."""
    if tag in DISTRIBUTIONS:
        return EntryDistribution(tag, mean if tag == "shifted_gaussian" else 0)
    raise InvalidArgumentError(
        f"unknown distribution tag {tag!r}; expected one of {DISTRIBUTIONS}"
    )


@dataclass(frozen=True)
class EnsembleSample:
    """A sampled symmetric n x n matrix of the named ensemble.

    A Hankel or Toeplitz matrix is a read-only view of its 2n - 1 entries
    (sample_matrix); take `.copy()` of it to write.
    """

    matrix: np.ndarray
    ensemble: str
    n: int


def sample_matrix(ensemble: str, n: int, dist: EntryDistribution, seed: int) -> EnsembleSample:
    """Draw one symmetric n x n matrix of the given ensemble.

    Stream layouts: hankel consumes entries X_1..X_{2n-1} in index order
    (constant along anti-diagonals); toeplitz consumes X_0..X_{n-1}
    (constant along diagonals); markov and wigner consume the strict upper
    triangle row-major (in row blocks on up to usable_cpus() threads, with
    the bits of one draw); wigner_plus_diag appends n diagonal normals and one
    scalar normal after the triangle.

    A Hankel or Toeplitz matrix is returned as the read-only
    `sliding_window_view` of a stream of 2n - 1 numbers (Toeplitz's is
    X_{n-1}..X_1, X_0, X_1..X_{n-1}), not as an n x n array: it holds
    2n - 1 float64s, and writing to it raises ValueError, so a caller that
    needs a writable or C-ordered matrix takes `.copy()`.  Its `.tobytes()`
    are those of that copy.  Markov and Wigner matrices are C-ordered
    arrays of their own.
    """
    if ensemble not in ENSEMBLES:
        raise InvalidArgumentError(f"unknown ensemble {ensemble!r}; expected one of {ENSEMBLES}")
    if n < 1:
        raise InvalidArgumentError(f"matrix size must be >= 1, got {n}")
    gen = generator(mix(TAG_ENSEMBLE, seed))

    if ensemble == "hankel":
        # row i is stream[i:i + n]
        matrix = sliding_window_view(dist.draw(gen, 2 * n - 1), n)
    elif ensemble == "toeplitz":
        # window i of (X_{n-1}, .., X_1, X_0, X_1, .., X_{n-1}) is row n-1-i
        stream = dist.draw(gen, n)
        matrix = sliding_window_view(np.concatenate([stream[:0:-1], stream]), n)[::-1]
    else:
        matrix = _symmetric_from_upper(dist, gen, n)
        if ensemble == "markov":
            # diagonal = negated off-diagonal row sum: rows sum to zero.  A sum
            # that overflows is left to the solvers' non-finite check.
            with np.errstate(over="ignore"):
                matrix[np.diag_indices(n)] = -matrix.sum(axis=1)
        elif ensemble == "wigner_plus_diag":
            diag = standard_normals(gen, n)
            xi = float(standard_normals(gen, 1)[0])
            matrix[np.diag_indices(n)] = np.sqrt(n) * diag + xi
    return EnsembleSample(matrix=matrix, ensemble=ensemble, n=n)


def _row_blocks(n: int) -> list[tuple[int, int, int]]:
    """(first row, end row, stream offset) of each block the strict upper
    triangle of an n x n matrix is drawn in.

    Contiguous rows and about equal work, a row weighing its entries plus
    _ROW_COST: total // _BLOCK_MIN blocks, at least one and at most
    usable_cpus(), each starting at the first row boundary at or past its
    share.  The offset is the number of entries in the rows above the block.
    """
    total = n * (n - 1) // 2
    count = max(1, min(parallel.usable_cpus(), total // _BLOCK_MIN))
    # above[r]: entries of the triangle in rows 0..r-1; work[r]: their weight
    above = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    work = above + _ROW_COST * np.arange(n)
    firsts = [int(r) for r in np.searchsorted(work, np.arange(count) * int(work[-1]) // count)]
    ends = [*firsts[1:], n - 1]
    return [(first, end, int(above[first])) for first, end in zip(firsts, ends)]


def _symmetric_from_upper(dist: EntryDistribution, gen, n: int) -> np.ndarray:
    """Zero-diagonal symmetric n x n matrix whose strict upper triangle is one
    `dist.draw(gen, n(n-1)/2)` call, row-major; gen is left where that call
    leaves it.

    The rows are cut into _row_blocks, each drawn on its own thread from gen
    skipped ahead by the block's offset (Philox is counter-based), with
    triangular's second uniforms a whole triangle further on; so the bits
    are those of one draw for any number of blocks, and a lone block draws
    from gen itself in the caller's thread.  Each block writes its row
    segments into their own rows as they are drawn, so every write is
    contiguous, and gen resumes from the last block's stream.  The strict
    upper triangle is then mirrored into the lower one _TILE x _TILE tiles
    at a time, each tile from its transposed partner, which stays in cache.
    Neither an n x n temporary nor the n(n-1)/2 stream is held.
    """
    matrix = np.zeros((n, n))
    total = n * (n - 1) // 2
    blocks = _row_blocks(n)
    gens = [gen, *(_skipped(gen, offset) for _, _, offset in blocks[1:])]

    def fill(j: int) -> None:
        first, end, _ = blocks[j]
        rows = dist.draw_segments(gens[j], range(n - 1 - first, n - 1 - end, -1), total)
        for i, row in enumerate(rows, first):
            matrix[i, i + 1:] = row

    parallel.ordered_map(fill, len(blocks), len(blocks))
    gen.bit_generator.state = gens[-1].bit_generator.state
    t = _TILE
    for i in range(0, n, t):
        diagonal = matrix[i:i + t, i:i + t]
        lower = np.tril_indices(diagonal.shape[0], -1)
        diagonal[lower] = diagonal.T[lower]
        for j in range(i + t, n, t):
            matrix[j:j + t, i:i + t] = matrix[i:i + t, j:j + t].T
    return matrix


def _check_pair(a, n: int) -> tuple[int, int]:
    pair = tuple(sorted(set(a)))
    if len(pair) != 2 or not all(isinstance(v, int) and 1 <= v <= n for v in pair):
        raise InvalidArgumentError(f"vertex pair must be two distinct indices in 1..{n}, got {a!r}")
    return pair  # (minus, plus)


def markov_t(a: tuple[int, int], b: tuple[int, int]) -> int:
    """t_{a,b} = tr Q_{a,b} for vertex pairs a = (a-, a+) and b = (b-, b+), each sorted.

    -2 when a = b, -1 when the pairs share a like endpoint, +1 when they
    share opposite endpoints, 0 when disjoint.
    """
    if a == b:
        return -2
    if a[0] == b[0] or a[1] == b[1]:
        return -1
    if a[0] == b[1] or a[1] == b[0]:
        return 1
    return 0


def markov_q(a, b, n: int) -> tuple[np.ndarray, int]:
    """The matrix Q_{a,b} of the Markov decomposition and its trace t_{a,b} (markov_t).

    Q has -1 at (a+, b+) and (a-, b-), +1 at (a+, b-) and (a-, b+).
    """
    am, ap = _check_pair(a, n)
    bm, bp = _check_pair(b, n)
    q = np.zeros((n, n), dtype=np.int64)
    q[ap - 1, bp - 1] += -1
    q[am - 1, bm - 1] += -1
    q[ap - 1, bm - 1] += 1
    q[am - 1, bp - 1] += 1
    return q, markov_t((am, ap), (bm, bp))


def markov_vertex_pairs(n: int) -> list[tuple[int, int]]:
    """Vertices of the overlap graph: two-element subsets of {1..n}."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def row_sum_statistic(sample: EnsembleSample) -> float:
    """(1/n^2) * sum_i (sum_j X_ij)^2 over the zero-diagonal symmetric array.

    Converges almost surely to the entry variance as n grows; used as a
    statistical self-test of the Markov sampler.
    """
    if sample.ensemble != "markov":
        raise InvalidArgumentError(
            f"row_sum_statistic needs a markov sample, got {sample.ensemble!r}"
        )
    x = sample.matrix.copy()
    np.fill_diagonal(x, 0.0)
    row_sums = x.sum(axis=1)
    return float(np.sum(row_sums**2)) / sample.n**2
