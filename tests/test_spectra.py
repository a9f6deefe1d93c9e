"""Eigensolver contract, empirical statistics, and the circuit-trace oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from hmt.ensembles import (
    ENSEMBLES,
    gaussian,
    markov_vertex_pairs,
    rademacher,
    sample_matrix,
    shifted_gaussian,
    triangular,
)
from hmt.errors import CapacityError, InvalidArgumentError, NumericError
from hmt.rng import mix
from hmt.spectra import (
    eigvalsh,
    empirical_spectrum,
    exact_trace_power,
    histogram,
    kolmogorov_distance,
    spectral_norm,
    trace_via_circuits,
)

F = Fraction


class TestEigvalsh:
    def test_exchange_matrix(self):
        assert np.allclose(eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])

    def test_diagonal_sorted(self):
        assert np.allclose(eigvalsh(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_trace_identities_small(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        eigs = eigvalsh(a)
        fro = np.linalg.norm(a)
        assert abs(eigs.sum() - np.trace(a)) <= 1e-10 * fro
        assert abs((eigs**2).sum() - fro**2) <= 1e-10 * fro**2

    def test_trace_identities_hundred_matrices(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            n = int(rng.integers(2, 201))
            a = rng.normal(size=(n, n))
            a = a + a.T
            eigs = eigvalsh(a)
            fro = np.linalg.norm(a)
            assert abs(eigs.sum() - np.trace(a)) <= 1e-10 * max(fro, 1.0)
            assert abs((eigs**2).sum() - fro**2) <= 1e-10 * fro**2

    def test_power_sums_match_trace_powers(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 20))
        a = a + a.T
        eigs = eigvalsh(a)
        for r in (1, 2, 3, 4):
            want = np.trace(np.linalg.matrix_power(a, r))
            assert np.sum(eigs**r) == pytest.approx(want, rel=1e-9)

    def test_permutation_conjugation_invariance(self):
        # eigenvalue multisets agree; LAPACK reproduces them to last-ulp level
        rng = np.random.default_rng(8)
        a = rng.normal(size=(30, 30))
        a = a + a.T
        perm = rng.permutation(30)
        b = a[np.ix_(perm, perm)]
        for r in (2, 3, 4):
            assert np.sum(eigvalsh(a)**r) == pytest.approx(np.sum(eigvalsh(b)**r), rel=1e-12)

    @pytest.mark.parametrize("ensemble, n", [("hankel", 200), ("markov", 101), ("wigner", 150)])
    def test_full_solve_keeps_lapack_bits(self, ensemble, n, monkeypatch):
        # an exactly symmetric matrix reaches LAPACK as the Fortran-ordered
        # view a.T; a nearly symmetric one as itself.  Either way the
        # eigenvalues are the bits of a solve on the C-ordered array.
        a = sample_matrix(ensemble, n, gaussian(), mix(137, n)).matrix
        assert np.array_equal(a, a.T) and a.flags.c_contiguous
        near = a.copy()
        near[3, 7] += 1e-14 * np.abs(a).max()
        want = [scipy.linalg.eigh(m, eigvals_only=True, driver="ev").tobytes() for m in (a, near)]
        handed = []
        full = scipy.linalg.eigh

        def spy(b, *args, **kwargs):
            handed.append(b)
            return full(b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        for m, bits in zip((a, near), want):
            before = m.tobytes()
            assert eigvalsh(m).tobytes() == bits
            assert m.tobytes() == before
        assert handed[0].flags.f_contiguous and np.shares_memory(handed[0], a)
        assert handed[1] is near
        # given ownership, the solve may destroy the matrix, never the bits
        owned = [m.copy() for m in (a, near)]
        for m, bits in zip(owned, want):
            assert eigvalsh(m, overwrite_a=True).tobytes() == bits
        assert owned[0].tobytes() != a.tobytes()  # solved in place
        assert owned[1].tobytes() == near.tobytes()  # solved on a copy

    def test_empirical_spectrum_passes_ownership_on(self):
        sample = sample_matrix("hankel", 64, gaussian(), mix(139, 64))
        kept = sample.matrix.copy()
        want = empirical_spectrum(sample)
        assert sample.matrix.tobytes() == kept.tobytes()
        got = empirical_spectrum(sample, overwrite_a=True)
        assert got.tobytes() == want.tobytes()
        assert sample.matrix.tobytes() != kept.tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            eigvalsh(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(InvalidArgumentError):
            eigvalsh(np.zeros((2, 3)))

    @pytest.mark.parametrize("solver", [eigvalsh, spectral_norm])
    def test_rejects_asymmetry_in_far_tile(self, solver):
        # the symmetry check runs tile by tile: (5, 290) sits in the last tile of row 0
        rng = np.random.default_rng(300)
        a = rng.normal(size=(300, 300))
        a = a + a.T
        solver(a)
        a[5, 290] += 1e-6
        with pytest.raises(InvalidArgumentError):
            solver(a)

    @pytest.mark.parametrize("solver", [eigvalsh, spectral_norm])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, solver, bad):
        # NaN compares False with every guard, so it is caught before them
        small = np.array([[bad, 0.0], [0.0, 1.0]])
        large = np.eye(5)
        large[1, 3] = large[3, 1] = bad
        for a in (small, large):
            with pytest.raises(NumericError):
                solver(a)


LAWS = [rademacher(), gaussian(), triangular(), shifted_gaussian(1), shifted_gaussian(F(-5, 2))]
LAW_IDS = ["rademacher", "gaussian", "triangular", "shifted_gaussian_1", "shifted_gaussian_-5/2"]


@pytest.fixture
def solved_sizes(monkeypatch):
    """Sizes of the matrices handed to LAPACK, in call order."""
    sizes = []
    full = scipy.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return full(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return sizes


def assert_same_spectrum(got, a):
    """Agreement with a full LAPACK solve to 1e-12 relative to the spectral norm."""
    want = scipy.linalg.eigh(a, eigvals_only=True)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


class TestCentrosymmetricSplit:
    """Symmetric centrosymmetric inputs (Toeplitz) are solved as two half-size blocks."""

    @pytest.mark.parametrize("dist", LAWS, ids=LAW_IDS)
    def test_toeplitz_matches_full_solve(self, dist, solved_sizes):
        for n in range(1, 41):
            a = sample_matrix("toeplitz", n, dist, mix(97, n)).matrix
            solved_sizes.clear()
            got = eigvalsh(a)
            assert solved_sizes == ([(n + 1) // 2, n // 2] if n >= 2 else [1]), n
            assert_same_spectrum(got, a)

    def test_centrosymmetric_non_toeplitz(self, solved_sizes):
        rng = np.random.default_rng(12)
        for n in (2, 9, 30, 31):
            a = rng.normal(size=(n, n))
            a = a + a.T
            a = a + a[::-1, ::-1]
            got = eigvalsh(a)
            assert solved_sizes[-2:] == [(n + 1) // 2, n // 2]
            assert_same_spectrum(got, a)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_toeplitz_matches_full_solve_large(self, n, solved_sizes):
        a = sample_matrix("toeplitz", n, gaussian(), mix(101, n)).matrix
        got = eigvalsh(a)
        assert solved_sizes == [n // 2, n // 2]
        assert_same_spectrum(got, a)

    @pytest.mark.parametrize("ensemble", ["hankel", "markov", "wigner", "wigner_plus_diag"])
    def test_other_ensembles_take_full_solve(self, ensemble, solved_sizes):
        # n = 2 is left out: a 2 x 2 Markov or Wigner matrix is centrosymmetric
        for n in (3, 17, 64):
            eigvalsh(sample_matrix(ensemble, n, gaussian(), mix(103, n)).matrix)
        assert solved_sizes == [3, 17, 64]

    @pytest.mark.parametrize("n, i, j", [(13, 0, 1), (13, 3, 7), (13, 5, 5), (300, 140, 155)])
    def test_one_ulp_off_takes_full_solve(self, n, i, j, solved_sizes):
        # all but (0, 1) leave the first and last rows centrosymmetric, so
        # only the full comparison sees them; at n = 300 only its third
        # block of 64 rows does
        a = sample_matrix("toeplitz", n, gaussian(), 107).matrix
        a[i, j] = a[j, i] = np.nextafter(a[i, j], np.inf)
        got = eigvalsh(a)
        assert solved_sizes == [n]
        assert_same_spectrum(got, a)

    @pytest.mark.parametrize("solver", [eigvalsh, spectral_norm])
    def test_guards_run_before_the_split(self, solver):
        n = 12
        a = sample_matrix("toeplitz", n, gaussian(), 109).matrix
        for bad in (np.nan, np.inf):
            b = a.copy()
            b[2, 4] = b[4, 2] = b[n - 3, n - 5] = b[n - 5, n - 3] = bad
            with pytest.raises(NumericError):
                solver(b)
        # centrosymmetric but not symmetric
        b = a.copy()
        b[2, 4] += 1e-6
        b[n - 3, n - 5] += 1e-6
        assert np.array_equal(b, b[::-1, ::-1])
        with pytest.raises(InvalidArgumentError):
            solver(b)

    @pytest.mark.parametrize("n", [10, 11])
    def test_trace_guard_on_split(self, n, monkeypatch):
        a = sample_matrix("toeplitz", n, gaussian(), 113).matrix
        full = scipy.linalg.eigh
        sizes = []

        def drops_one(b, *args, **kwargs):
            sizes.append(b.shape[0])
            return full(b, *args, **kwargs)[1:]

        monkeypatch.setattr(scipy.linalg, "eigh", drops_one)
        with pytest.raises(NumericError, match="trace"):
            eigvalsh(a)
        assert sizes == [(n + 1) // 2, n // 2]


    @pytest.mark.parametrize("ensemble, n", [("toeplitz", 40), ("toeplitz", 41), ("hankel", 40)])
    def test_argument_left_unchanged(self, ensemble, n, solved_sizes):
        # the half-size blocks are solved in place; the caller's matrix never is
        a = sample_matrix(ensemble, n, gaussian(), mix(127, n)).matrix
        before = a.tobytes()
        eigvalsh(a)
        assert solved_sizes == ([(n + 1) // 2, n // 2] if ensemble == "toeplitz" else [n])
        assert a.tobytes() == before

    def test_one_block_held_at_a_time(self):
        # each 1024 x 1024 block is 8.4 MB; holding both would peak near 17 MB
        a = sample_matrix("toeplitz", 2048, gaussian(), mix(131, 2048)).matrix
        tracemalloc.start()
        try:
            eigvalsh(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([-5.0, 3.0])) == 5.0

    def test_exchange(self):
        assert spectral_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0

    def test_degenerate_one_by_one(self):
        assert spectral_norm(np.zeros((1, 1))) == 0.0

    def test_zero_and_identity(self):
        assert spectral_norm(np.zeros((5, 5))) == 0.0
        assert spectral_norm(3.0 * np.eye(7)) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    @pytest.mark.parametrize("dist", [gaussian(), rademacher()], ids=["gaussian", "rademacher"])
    def test_matches_full_eigh(self, ensemble, dist):
        for n in (3, 64, 300):
            for seed in range(3):
                a = sample_matrix(ensemble, n, dist, mix(83, n, seed)).matrix
                eigs = eigvalsh(a)
                want = max(eigs[-1], -eigs[0])
                assert spectral_norm(a) == pytest.approx(want, rel=1e-12), (n, seed)

    @pytest.mark.parametrize("ensemble, dist", [
        ("markov", shifted_gaussian(1)),  # norm ~ n, far above the bulk
        ("wigner", gaussian()),  # lambda_max ~ -lambda_min: the hard case for "LM"
    ], ids=["markov-mean-1", "wigner"])
    def test_matches_full_eigh_at_512(self, ensemble, dist):
        for seed in range(4):
            a = sample_matrix(ensemble, 512, dist, mix(89, seed)).matrix
            eigs = eigvalsh(a)
            want = max(eigs[-1], -eigs[0])
            assert spectral_norm(a) == pytest.approx(want, rel=1e-12), seed

    def test_memory_layouts_agree(self):
        # C order is read through its transpose, any other layout is copied once
        big = sample_matrix("wigner", 600, gaussian(), 131).matrix
        strided = big[::2, ::2]
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        c_order = np.ascontiguousarray(strided)
        eigs = scipy.linalg.eigh(c_order, eigvals_only=True)
        want = max(eigs[-1], -eigs[0])
        norms = [spectral_norm(a) for a in (c_order, np.asfortranarray(c_order), strided)]
        for got in norms:
            assert got == pytest.approx(norms[0], rel=1e-14)
            assert got == pytest.approx(want, rel=1e-12)

    def test_same_input_same_norm(self):
        a = sample_matrix("markov", 200, gaussian(), 7).matrix
        assert spectral_norm(a) == spectral_norm(a.copy())

    def test_residual_guard(self, monkeypatch):
        a = sample_matrix("wigner", 64, gaussian(), 5).matrix
        eigs, vecs = np.linalg.eigh(a)
        top = int(np.argmax(np.abs(eigs)))
        for value in (eigs[top] * (1 + 1e-6), np.nan):
            def wrong_pair(*args, value=value, **kwargs):
                return np.array([value]), vecs[:, [top]]

            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", wrong_pair)
            with pytest.raises(NumericError):
                spectral_norm(a)

    def test_no_convergence_is_numeric_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(NumericError):
            spectral_norm(np.diag([1.0, 2.0, 3.0]))


@pytest.fixture
def no_numpy_norm(monkeypatch):
    """numpy.linalg.norm raises: the guards must use scipy's BLAS, not numpy's."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.norm called on the eigensolver path")

    monkeypatch.setattr(np.linalg, "norm", forbidden)


class TestGuardsInScipyBlas:
    """numpy and scipy load separate OpenBLAS copies; numpy's threads spin
    after a threaded numpy BLAS call and slow the next LAPACK solve."""

    def test_solvers_avoid_numpy_norm(self, solved_sizes, no_numpy_norm):
        # numpy's own LAPACK is the oracle; scipy.linalg.eigh is spied on
        for ensemble, n, solved in (("hankel", 40, [40]), ("toeplitz", 41, [21, 20])):
            a = sample_matrix(ensemble, n, gaussian(), mix(137, n)).matrix
            solved_sizes.clear()
            got = eigvalsh(a)
            assert solved_sizes == solved
            want = np.linalg.eigvalsh(a)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        markov = sample_matrix("markov", 64, gaussian(), mix(137, 64)).matrix
        want = np.max(np.abs(np.linalg.eigvalsh(markov)))
        assert spectral_norm(markov) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("ensemble", ["hankel", "toeplitz"])
    def test_strided_view_matches_contiguous_copy(self, ensemble, no_numpy_norm):
        # every other row and column of a Hankel (Toeplitz) matrix is one again
        view = sample_matrix(ensemble, 120, gaussian(), 139).matrix[::2, ::2]
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        got = eigvalsh(view)
        want = eigvalsh(np.ascontiguousarray(view))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestCircuitTraces:
    def test_toeplitz_small_power(self):
        entries = {0: F(2), 1: F(-1), 2: F(1, 2)}
        got = trace_via_circuits("toeplitz", entries, 3, 2)
        assert got == exact_trace_power("toeplitz", entries, 3, 2)

    def test_hankel_hand_expansion(self):
        entries = {1: F(3), 2: F(-2), 3: F(5)}
        got = trace_via_circuits("hankel", entries, 2, 2)
        assert got == entries[1] ** 2 + 2 * entries[2] ** 2 + entries[3] ** 2

    def test_markov_first_power(self):
        entries = {p: F(p[0] - p[1], 3) for p in markov_vertex_pairs(5)}
        got = trace_via_circuits("markov", entries, 5, 1)
        assert got == -2 * sum(entries.values())

    @pytest.mark.parametrize("ensemble", ["toeplitz", "hankel", "markov"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_direct_power(self, ensemble, n):
        if ensemble == "toeplitz":
            entries = {k: F(2 * k - 3, 2) for k in range(n)}
        elif ensemble == "hankel":
            entries = {k: F(3 * k - 7, 4) for k in range(1, 2 * n)}
        else:
            entries = {p: F((5 * p[0] + 3 * p[1]) % 7 - 3, 2) for p in markov_vertex_pairs(n)}
        for r in (1, 2, 3, 4):
            assert trace_via_circuits(ensemble, entries, n, r) == exact_trace_power(
                ensemble, entries, n, r
            ), (ensemble, n, r)

    def test_budget(self):
        entries = {k: F(1) for k in range(9)}
        with pytest.raises(CapacityError):
            trace_via_circuits("toeplitz", entries, 9, 2)
        with pytest.raises(CapacityError):
            trace_via_circuits("toeplitz", entries, 4, 5)

    @pytest.mark.parametrize("n, r", [(3, 1.5), (2.5, 2), (3, 0), (0, 2), (3, "2")])
    @pytest.mark.parametrize("trace", [trace_via_circuits, exact_trace_power])
    def test_rejects_a_size_or_power_that_is_not_a_positive_integer(self, trace, n, r):
        entries = {k: F(1) for k in range(5)}
        with pytest.raises(InvalidArgumentError, match="positive integers"):
            trace("toeplitz", entries, n, r)

    def test_rejects_unknown_ensemble(self):
        with pytest.raises(InvalidArgumentError):
            trace_via_circuits("wigner", {}, 2, 2)
        with pytest.raises(InvalidArgumentError):
            exact_trace_power("wigner", {}, 2, 2)

    @pytest.mark.parametrize("ensemble, entries, n", [
        ("toeplitz", {0: 1, 1: 1}, 3),  # needs X_0 .. X_2
        ("hankel", {1: 1, 2: 1}, 2),  # needs X_1 .. X_3
        ("markov", {(1, 2): 1}, 3),  # needs every vertex pair of K_3
    ])
    @pytest.mark.parametrize("trace", [trace_via_circuits, exact_trace_power])
    def test_rejects_missing_entries(self, trace, ensemble, entries, n):
        with pytest.raises(InvalidArgumentError, match="missing"):
            trace(ensemble, entries, n, 2)

    def test_markov_pairs_in_either_order(self):
        entries = {(j, i): F(i * j) for i, j in markov_vertex_pairs(4)}
        sorted_entries = {(i, j): F(i * j) for i, j in markov_vertex_pairs(4)}
        for trace in (trace_via_circuits, exact_trace_power):
            assert trace("markov", entries, 4, 3) == trace("markov", sorted_entries, 4, 3)


class TestHistogram:
    def test_two_point_two_bins(self):
        hist = histogram(np.array([0.0, 1.0]), 2)
        assert np.allclose(hist.density, [1.0, 1.0])
        assert np.allclose(hist.count, [1, 1])

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        hist = histogram(rng.normal(size=5000), 40)
        widths = hist.bin_right - hist.bin_left
        assert np.sum(hist.density * widths) == pytest.approx(1.0)

    def test_explicit_range(self):
        hist = histogram(np.array([0.1, 0.9, 5.0]), 2, value_range=(0.0, 1.0))
        assert hist.count.sum() == 2  # the outlier is excluded
        widths = hist.bin_right - hist.bin_left
        assert np.sum(hist.density * widths) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(InvalidArgumentError):
            histogram(np.array([]), 4)
        with pytest.raises(InvalidArgumentError):
            histogram(np.array([1.0]), 0)
        with pytest.raises(InvalidArgumentError):
            histogram(np.array([0.5]), 2.5)
        for value_range in [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0), (1.0, 0.0)]:
            with pytest.raises(InvalidArgumentError):
                histogram(np.array([0.5, 1.0]), 3, value_range=value_range)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            histogram([bad, 1.0], 3)


def smoothed_mode_count(hist, bandwidth_bins=2.0):
    """Strict local maxima of the density smoothed by a Gaussian kernel
    bandwidth_bins bins wide: a reproducible finite-sample mode count."""
    dens = hist.density
    idx = np.arange(dens.shape[0])
    kernel = np.exp(-0.5 * ((idx[:, None] - idx[None, :]) / bandwidth_bins) ** 2)
    smooth = np.concatenate([[-np.inf], kernel @ dens / kernel.sum(axis=1), [-np.inf]])
    return int(np.sum((smooth[1:-1] > smooth[:-2]) & (smooth[1:-1] > smooth[2:])))


class TestModeCount:
    def test_unimodal(self):
        centers = np.linspace(-3, 3, 61)
        dens = np.exp(-0.5 * centers**2)
        hist = histogram(np.repeat(centers, np.maximum((dens * 100).astype(int), 1)), 61)
        assert smoothed_mode_count(hist) == 1

    def test_bimodal(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(-2, 0.4, 4000), rng.normal(2, 0.4, 4000)])
        assert smoothed_mode_count(histogram(values, 50)) == 2


class TestKolmogorov:
    def test_identical_zero(self):
        spec = empirical_spectrum(sample_matrix("toeplitz", 32, gaussian(), 1))
        assert kolmogorov_distance(spec, spec) == 0.0

    def test_disjoint_atoms(self):
        assert kolmogorov_distance([0.0], [1.0]) == 1.0

    def test_independent_replicates_close(self):
        a = empirical_spectrum(sample_matrix("toeplitz", 1024, gaussian(), mix(61, 0)))
        b = empirical_spectrum(sample_matrix("toeplitz", 1024, gaussian(), mix(61, 1)))
        assert kolmogorov_distance(a, b) < 0.1

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            kolmogorov_distance([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a nan sorts last and once read as distance 1.0
        with pytest.raises(InvalidArgumentError):
            kolmogorov_distance([bad], [1.0])
        with pytest.raises(InvalidArgumentError):
            kolmogorov_distance([1.0], [0.0, bad])


class TestScaledSpectrum:
    def test_scaling_and_sorting(self):
        sample = sample_matrix("markov", 64, gaussian(), 5)
        eigs = empirical_spectrum(sample, "sqrt_n")
        assert eigs.shape == (64,)
        assert np.all(np.diff(eigs) >= 0)
        assert eigs.sum() * math.sqrt(64) == pytest.approx(np.trace(sample.matrix), abs=1e-8)

    def test_markov_has_zero_eigenvalue(self):
        # row sums vanish, so the constant vector is always in the kernel
        eigs = empirical_spectrum(sample_matrix("markov", 50, gaussian(), 9), "none")
        assert np.min(np.abs(eigs)) < 1e-10

    def test_unknown_scale(self):
        with pytest.raises(InvalidArgumentError):
            empirical_spectrum(sample_matrix("markov", 4, gaussian(), 1), "log_n")


class TestSingularValueIdentity:
    def test_nonsymmetric_toeplitz_vs_hankel(self):
        # the anti-diagonal flip of R is the Hankel matrix of the same stream,
        # so singular values of R are the |eigenvalues| of H
        n = 64
        sample = sample_matrix("hankel", n, triangular(), seed=44)
        h = sample.matrix
        stream = np.concatenate([h[0, :], h[1:, -1]])  # X_1 .. X_{2n-1}
        r = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                r[i, j] = stream[i - j + n - 1]
        singular = np.sort(np.linalg.svd(r, compute_uv=False))
        absolute = np.sort(np.abs(eigvalsh(h)))
        assert np.allclose(singular, absolute, atol=1e-8 * n)


class TestLimitingShapes:
    def _pooled(self, ensemble):
        spectra = []
        for rep in range(20):
            sample = sample_matrix(ensemble, 512, triangular(), mix(314159, rep))
            spectra.append(empirical_spectrum(sample))
        return np.concatenate(spectra)

    def test_hankel_spectrum_is_bimodal(self):
        pooled = self._pooled("hankel")
        hist = histogram(pooled, 40, value_range=(-3.0, 3.0))
        assert smoothed_mode_count(hist) == 2
        assert abs(pooled.mean()) < 0.02  # symmetric

    def test_toeplitz_spectrum_piles_at_zero(self):
        # unimodal but heavier at 0 than the semicircle density 1/pi
        pooled = self._pooled("toeplitz")
        hist = histogram(pooled, 40, value_range=(-3.0, 3.0))
        assert smoothed_mode_count(hist) == 1
        centers = (hist.bin_left + hist.bin_right) / 2
        density_at_zero = hist.density[np.argmin(np.abs(centers))]
        assert density_at_zero > 1.0 / math.pi
        assert abs(pooled.mean()) < 0.02


class TestOddMomentsVanish:
    @pytest.mark.parametrize("ensemble", ["toeplitz", "hankel", "markov"])
    def test_small_replicate_means(self, ensemble):
        # seed-pinned: a 3-sigma band on 20 replicates is tight enough that
        # unlucky seed sets exist; this one was checked to behave
        moments = {1: [], 3: []}
        for rep in range(20):
            sample = sample_matrix(ensemble, 256, rademacher(), mix(71, rep))
            eigs = empirical_spectrum(sample)
            for r in moments:
                moments[r].append(float(np.mean(eigs**r)))
        for r, values in moments.items():
            arr = np.array(values)
            se = arr.std(ddof=1) / math.sqrt(len(arr))
            assert abs(arr.mean()) <= 3 * se + 1e-12, (ensemble, r)
