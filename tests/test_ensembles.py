"""Samplers, entry distributions, and the Markov Q-decomposition oracle."""

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

import hmt.ensembles
import hmt.parallel
from hmt.ensembles import (
    _CHUNK,
    _row_blocks,
    _symmetric_from_upper,
    EntryDistribution,
    distribution_from_tag,
    gaussian,
    markov_q,
    markov_vertex_pairs,
    rademacher,
    row_sum_statistic,
    sample_matrix,
    shifted_gaussian,
    triangular,
)
from hmt.errors import InvalidArgumentError
from hmt.rng import generator
from hmt.spectra import eigvalsh, spectral_norm


@dataclass(frozen=True)
class FixedStream(EntryDistribution):
    """Deterministic entry stream for transcription tests."""

    values: tuple = ()

    def draw(self, gen, count):
        assert count <= len(self.values)
        return np.array(self.values[:count], dtype=float)


def fixed(*values):
    return FixedStream(tag="fixed", values=values)


class TestSamplers:
    def test_toeplitz_transcription(self):
        sample = sample_matrix("toeplitz", 3, fixed(1.0, -1.0, 1.0), seed=0)
        want = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]], dtype=float)
        assert np.array_equal(sample.matrix, want)

    def test_hankel_transcription(self):
        sample = sample_matrix("hankel", 2, fixed(5.0, 7.0, 11.0), seed=0)
        want = np.array([[5, 7], [7, 11]], dtype=float)
        assert np.array_equal(sample.matrix, want)

    def test_toeplitz_constant_diagonals(self):
        m = sample_matrix("toeplitz", 8, gaussian(), seed=3).matrix
        for offset in range(8):
            diag = np.diagonal(m, offset=offset)
            assert np.all(diag == diag[0])

    def test_hankel_constant_antidiagonals(self):
        m = sample_matrix("hankel", 8, gaussian(), seed=3).matrix
        flipped = np.fliplr(m)
        for offset in range(-7, 8):
            anti = np.diagonal(flipped, offset=offset)
            assert np.all(anti == anti[0])

    @pytest.mark.parametrize("ensemble", ["hankel", "toeplitz"])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1025])
    def test_structured_sample_is_a_read_only_window(self, ensemble, n):
        # the matrix is a view of its 2n - 1 entries, not an n x n array
        m = sample_matrix(ensemble, n, gaussian(), seed=5).matrix
        assert m.shape == (n, n) and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, n - 1] = 1.0
        base = m
        while base.base is not None:
            base = base.base
        assert isinstance(base, np.ndarray) and base.flags.owndata
        assert base.dtype == np.float64 and base.shape == (2 * n - 1,)
        copy = m.copy()
        assert copy.flags.writeable and copy.flags.c_contiguous
        assert copy.tobytes() == m.tobytes()

    def test_markov_row_sums_zero(self):
        sample = sample_matrix("markov", 40, triangular(), seed=9)
        off = sample.matrix.copy()
        np.fill_diagonal(off, 0.0)
        # diagonal is the negated off-diagonal row sum, same summation path
        assert np.all(off.sum(axis=1) + np.diag(sample.matrix) == 0.0)
        assert np.abs(sample.matrix.sum(axis=1)).max() < 1e-10

    def test_markov_symmetry(self):
        m = sample_matrix("markov", 25, gaussian(), seed=2).matrix
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("mean", [1, 1.5, -2])
    def test_markov_mean_shift_norm_identity(self, mean):
        # With shifted_gaussian(m) = gaussian() + m on the same stream,
        # M = m (J - n I) + C for the centered Markov matrix C, and C 1 = 0,
        # so on the complement of 1 the spectrum of M is -m n + spec(C).
        n, seed = 64, 13
        shifted = sample_matrix("markov", n, shifted_gaussian(mean), seed).matrix
        centered = sample_matrix("markov", n, gaussian(), seed).matrix
        eigs = eigvalsh(centered)
        excess = -eigs[0] if mean > 0 else eigs[-1]
        expected = abs(mean) * n + excess
        assert spectral_norm(shifted) == pytest.approx(expected, rel=1e-9)
        assert np.abs(shifted @ np.ones(n)).max() <= 1e-9 * abs(mean) * n

    def test_wigner_zero_diagonal(self):
        m = sample_matrix("wigner", 12, rademacher(), seed=4).matrix
        assert np.all(np.diag(m) == 0.0)
        assert np.array_equal(m, m.T)
        assert np.all(np.abs(m[np.triu_indices(12, 1)]) == 1.0)

    def test_wigner_plus_diag_structure(self):
        n = 16
        plain = sample_matrix("wigner", n, gaussian(), seed=6).matrix
        fat = sample_matrix("wigner_plus_diag", n, gaussian(), seed=6).matrix
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(plain[off], fat[off])
        assert np.all(np.diag(fat) != 0.0)
        assert np.array_equal(fat, fat.T)

    def test_reproducible_and_seed_sensitive(self):
        a = sample_matrix("markov", 30, gaussian(), seed=11).matrix
        b = sample_matrix("markov", 30, gaussian(), seed=11).matrix
        c = sample_matrix("markov", 30, gaussian(), seed=12).matrix
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            sample_matrix("markov", 0, gaussian(), seed=1)
        with pytest.raises(InvalidArgumentError):
            sample_matrix("circulant", 4, gaussian(), seed=1)


class TestDistributions:
    @pytest.mark.parametrize("dist", [rademacher(), gaussian(), triangular()])
    def test_standardized(self, dist):
        draws = dist.draw(generator(77), 200_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    @pytest.mark.parametrize("dist", [rademacher(), gaussian(), triangular(), shifted_gaussian(1)],
                             ids=["rademacher", "gaussian", "triangular", "shifted_gaussian"])
    def test_segments_match_one_draw(self, dist):
        # from every position in Philox's four-draw block, totals on every
        # residue mod 4; the last two lists span several chunks: one has
        # segments longer than a chunk, the other is the strict upper
        # triangle of n = 1030
        for used in range(5):
            for sizes in ([], [1], [3, 2], [4, 1, 6], [5, 0, 4, 9], [2, 1],
                          [_CHUNK - 1, 2, _CHUNK, 0, _CHUNK + 3, 5], list(range(1029, 0, -1))):
                whole, parts = generator(31), generator(31)
                whole.random(used)
                parts.random(used)
                want = dist.draw(whole, sum(sizes))
                got = list(dist.draw_segments(parts, sizes))
                assert [len(seg) for seg in got] == sizes
                assert np.array_equal(np.concatenate([np.empty(0), *got]), want)
                assert np.array_equal(parts.random(5), whole.random(5)), (used, sizes)

    def test_segments_drawn_in_chunks(self):
        # rows of several segments share one draw of at most _CHUNK values;
        # only a segment longer than _CHUNK is drawn alone, and whole
        @dataclass(frozen=True)
        class Counting(EntryDistribution):
            counts: list = None

            def draw(self, gen, count):
                self.counts.append(count)
                return super().draw(gen, count)

        dist = Counting("gaussian", counts=[])
        sizes = [7, _CHUNK + 1, *range(4095, 0, -1)]
        list(dist.draw_segments(generator(3), sizes))
        assert dist.counts[:2] == [7, _CHUNK + 1]
        assert sum(dist.counts) == sum(sizes)
        # a chunk closes only when the next row, at most 4095 long, would overflow it
        assert all(_CHUNK - 4095 < count <= _CHUNK for count in dist.counts[2:-1])

    def test_rademacher_support(self):
        draws = rademacher().draw(generator(1), 1000)
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_triangular_support(self):
        draws = triangular().draw(generator(1), 100_000)
        assert np.all(np.abs(draws) <= math.sqrt(6.0) + 1e-12)

    def test_shifted_gaussian_mean(self):
        draws = shifted_gaussian(1).draw(generator(5), 200_000)
        assert abs(draws.mean() - 1.0) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, "one", None])
    def test_shifted_gaussian_rejects_non_finite_mean(self, mean):
        with pytest.raises(InvalidArgumentError):
            shifted_gaussian(mean)
        with pytest.raises(InvalidArgumentError):
            distribution_from_tag("shifted_gaussian", mean=mean)
        with pytest.raises(InvalidArgumentError, match="finite number"):
            EntryDistribution("shifted_gaussian", mean)

    @pytest.mark.parametrize("tag", ["rademacher", "gaussian", "triangular"])
    @pytest.mark.parametrize("mean", [Fraction(3), -0.5, 1])
    def test_centred_laws_refuse_a_nonzero_mean(self, tag, mean):
        # these laws draw mean-0 entries, so a nonzero mean would be ignored
        with pytest.raises(InvalidArgumentError, match="has mean 0"):
            EntryDistribution(tag, mean)
        assert EntryDistribution(tag, 0.0) == EntryDistribution(tag)

    def test_mean_becomes_an_exact_fraction(self):
        dist = EntryDistribution("shifted_gaussian", 1.5)
        assert type(dist.mean) is Fraction and dist.mean == Fraction(3, 2)
        assert type(EntryDistribution("gaussian").mean) is Fraction

    def test_tags(self):
        assert distribution_from_tag("rademacher") == rademacher()
        assert distribution_from_tag("shifted_gaussian", mean=2).mean == 2
        # the mean is read by shifted_gaussian only: --dist gaussian --mean 3 draws mean 0
        assert distribution_from_tag("gaussian", mean=3) == gaussian()
        with pytest.raises(InvalidArgumentError):
            distribution_from_tag("cauchy")


class TestRowBlocks:
    LAWS = [rademacher(), gaussian(), triangular(), shifted_gaussian(Fraction(-5, 2))]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dist", LAWS, ids=lambda dist: dist.tag)
    def test_same_bits_for_any_worker_count(self, dist, workers, monkeypatch):
        # blocks of a single entry allowed, so n = 37 splits into `workers`
        # row blocks; their offsets 495, 366 and 588 put two boundaries inside
        # a four-draw Philox block
        monkeypatch.setattr(hmt.ensembles, "_BLOCK_MIN", 1)
        monkeypatch.setattr(hmt.parallel, "usable_cpus", lambda: workers)
        n = 37
        offsets = [offset for _, _, offset in _row_blocks(n)]
        assert len(offsets) == workers
        assert workers == 1 or any(offset % 4 for offset in offsets)
        whole, blocked = generator(5), generator(5)
        want = np.zeros((n, n))
        want[np.triu_indices(n, 1)] = dist.draw(whole, n * (n - 1) // 2)
        want += want.T
        # thread switches as often as the interpreter allows, so a row block
        # that wrote over another's rows would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _symmetric_from_upper(dist, blocked, n)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()
        # gen resumes where the single draw leaves it, triangular's second stream included
        assert np.array_equal(blocked.random(5), whole.random(5))

    def test_blocks_cover_the_triangle(self, monkeypatch):
        monkeypatch.setattr(hmt.parallel, "usable_cpus", lambda: 8)
        assert _row_blocks(1) == [(0, 0, 0)]
        assert _row_blocks(1448) == [(0, 1447, 0)]  # 1,047,628 entries: one block
        for n, count in [(1449, 2), (2100, 4), (4096, 8)]:
            blocks = _row_blocks(n)
            assert len(blocks) == count
            assert blocks[0][:2] == (0, blocks[1][0]) and blocks[-1][1] == n - 1
            cost = hmt.ensembles._ROW_COST
            work = []
            for (first, end, offset), (following, _, next_offset) in zip(blocks, blocks[1:]):
                assert end == following
                assert next_offset - offset == sum(range(n - end, n - first))
                work.append(next_offset - offset + cost * (end - first))
            first, end, offset = blocks[-1]
            work.append(n * (n - 1) // 2 - offset + cost * (end - first))
            # equal shares of entries plus _ROW_COST per row, each cut to
            # within a row: none more than a row under the minimum
            row = n + cost
            assert max(work) - min(work) < 2 * row
            assert min(work) > hmt.ensembles._BLOCK_MIN - row
            # the later blocks, of shorter rows, hold fewer entries
            entries = [w - cost * (e - f) for w, (f, e, _) in zip(work, blocks)]
            assert entries == sorted(entries, reverse=True) and entries[0] > entries[-1] + row


class TestMarkovQ:
    def test_trace_table(self):
        n = 6
        assert markov_q((1, 2), (1, 2), n)[1] == -2
        assert markov_q((1, 2), (2, 3), n)[1] == 1  # a+ = b-
        assert markov_q((1, 2), (1, 3), n)[1] == -1  # a- = b-
        assert markov_q((2, 4), (3, 4), n)[1] == -1  # a+ = b+
        assert markov_q((1, 2), (3, 4), n)[1] == 0

    def test_trace_matches_matrix(self):
        n = 5
        for a, b in itertools.product(markov_vertex_pairs(n), repeat=2):
            q, t = markov_q(a, b, n)
            assert np.trace(q) == t
            assert t == markov_q(b, a, n)[1]

    @pytest.mark.parametrize("n", [4, 5])
    def test_product_rule(self, n):
        pairs = markov_vertex_pairs(n)
        mats = {p: markov_q(p, p, n)[0] for p in pairs}
        qs = {(a, b): markov_q(a, b, n) for a in pairs for b in pairs}
        for a, b in itertools.product(pairs, repeat=2):
            for c, d in itertools.product(pairs, repeat=2):
                lhs = qs[(a, b)][0] @ qs[(c, d)][0]
                t_bc = qs[(b, c)][1]
                assert np.array_equal(lhs, t_bc * qs[(a, d)][0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_decomposition_reconstructs_sample(self, n):
        sample = sample_matrix("markov", n, gaussian(), seed=21)
        acc = np.zeros((n, n))
        for pair in markov_vertex_pairs(n):
            acc += sample.matrix[pair[0] - 1, pair[1] - 1] * markov_q(pair, pair, n)[0]
        assert np.allclose(acc, sample.matrix, atol=1e-12)

    def test_rejects_malformed_pairs(self):
        with pytest.raises(InvalidArgumentError):
            markov_q((1, 1), (1, 2), 4)
        with pytest.raises(InvalidArgumentError):
            markov_q((0, 2), (1, 2), 4)
        with pytest.raises(InvalidArgumentError):
            markov_q((1, 5), (1, 2), 4)


class TestRowSumStatistic:
    def test_two_by_two_formula(self):
        sample = sample_matrix("markov", 2, gaussian(), seed=8)
        x = sample.matrix[0, 1]
        assert row_sum_statistic(sample) == pytest.approx(x**2 / 2.0, rel=1e-12)

    def test_large_n_near_variance(self):
        stat = row_sum_statistic(sample_matrix("markov", 2000, gaussian(), seed=13))
        assert abs(stat - 1.0) <= 0.10

    def test_degenerate_size_one(self):
        assert row_sum_statistic(sample_matrix("markov", 1, gaussian(), seed=1)) == 0.0

    def test_wrong_ensemble(self):
        with pytest.raises(InvalidArgumentError):
            row_sum_statistic(sample_matrix("toeplitz", 8, gaussian(), seed=1))

