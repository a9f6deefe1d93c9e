"""Empirical-spectrum statistics for the sampled ensembles.

Full spectra come from the LAPACK symmetric solver (Householder
tridiagonalization followed by implicitly shifted QL/QR iteration, the
'ev' driver); moments, histograms and distances are computed from them.
A symmetric matrix that is also centrosymmetric (a == J a J for the
exchange matrix J, as every symmetric Toeplitz matrix is) splits under an
orthogonal change of basis into two blocks of about half its size, and
its spectrum is the union of theirs (Cantoni & Butler, Linear Algebra
Appl. 13, 1976).  With n = 2m, A the leading m x m block and BJ the
top-right block with its columns reversed, the blocks are A + BJ and
A - BJ; for odd n the first is bordered by sqrt(2) times the top half of
the centre column and by the centre entry.  Two solves of size n/2 cost
about a quarter of one of size n.  The split is taken only when the input
equals its own 180-degree rotation exactly, which an O(n) comparison of
the first and the reversed last row rules out at once for Hankel, Markov
and Wigner matrices; every other input takes the full solve.  LAPACK
works on Fortran-ordered arrays, so it would get a transposed copy of a
C-ordered matrix; one that equals its transpose exactly goes in as the view
`a.T` instead, which a caller that owns the matrix (`overwrite_a`) lets the
solve overwrite, so that the matrix is the only n x n array the solve holds.
The spectral norm needs one eigenvalue, the largest in magnitude, so it
comes from ARPACK's implicitly restarted Lanczos iteration instead: O(n^2)
matrix-vector products rather than an O(n^3) tridiagonalization.  Each
product is a BLAS `dsymv` that reads one triangle of the matrix, half the
bytes a general `gemv` reads; the residual guard on the returned pair
multiplies by the full matrix.  Full `eigh` stays its test oracle.  The circuit-trace expansion over paths is
kept as an exact rational oracle against direct matrix powers.

Every BLAS call on the eigvalsh and spectral_norm paths goes to scipy's
BLAS, the library its LAPACK and `dsymv` already use: the guards take
||A||_F from `ddot` and A v from `dgemv`, never numpy's `linalg.norm` or
`@`.  numpy and scipy each load their own OpenBLAS with its own worker
threads, and after a threaded numpy call numpy's workers busy-wait for a
while, taking cores from the next LAPACK solve.  On a 2-core VM one
`eigh` at n = 1024 took 107 ms, and 183 ms right after `np.linalg.norm(A)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, dgemv, dsymv

from .ensembles import EnsembleSample, markov_t, markov_vertex_pairs
from .errors import CapacityError, InvalidArgumentError, NumericError
from .rng import TAG_LANCZOS, generator, mix

_SYMMETRY_RTOL = 1e-12
_SYMMETRY_TILE = 64
_TRACE_RTOL = 1e-10
_RESIDUAL_RTOL = 1e-10

CIRCUIT_N_CAP = 8
CIRCUIT_R_CAP = 4


def _checked_symmetric(matrix: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """The matrix as a float array, its largest |a_ij| and whether it equals
    its transpose exactly, once it is square, finite and symmetric.

    Symmetry is checked to 1e-12 relative to max(1, max |a_ij|), one
    _SYMMETRY_TILE x _SYMMETRY_TILE tile against its mirror tile at a time,
    through one reused tile buffer, so no n x n temporary is made.
    Non-finite entries raise NumericError.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidArgumentError(f"expected a non-empty square matrix, got shape {a.shape}")
    lo, hi = float(a.min()), float(a.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericError("matrix has non-finite entries")
    top = max(-lo, hi)
    tol = _SYMMETRY_RTOL * max(1.0, top)
    n, t = a.shape[0], _SYMMETRY_TILE
    buf = np.empty((min(n, t), min(n, t)))
    worst = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            tile = a[i:i + t, j:j + t]
            diff = buf[:tile.shape[0], :tile.shape[1]]
            np.subtract(tile, a[j:j + t, i:i + t].T, out=diff)
            np.abs(diff, out=diff)
            worst = max(worst, float(diff.max()))
            if worst > tol:
                raise InvalidArgumentError(
                    "matrix is not symmetric within 1e-12 relative tolerance")
    return a, top, worst == 0.0


def _is_centrosymmetric(a: np.ndarray) -> bool:
    """a == a[::-1, ::-1] exactly, for n >= 2.

    Row i must equal row n-1-i reversed.  The first row is compared alone,
    then the top half _SYMMETRY_TILE rows at a time, so no n x n temporary
    is made.
    """
    n, t = a.shape[0], _SYMMETRY_TILE
    if n < 2 or not np.array_equal(a[0], a[-1, ::-1]):
        return False
    rotated = a[::-1, ::-1]
    return all(np.array_equal(a[i:i + t], rotated[i:i + t]) for i in range(0, (n + 1) // 2, t))


def _centrosymmetric_block(a: np.ndarray, plus: bool) -> np.ndarray:
    """A + BJ (bordered for odd n) or A - BJ: the two symmetric blocks whose
    spectra together make up a's."""
    n = a.shape[0]
    m = n // 2
    a_top = a[:m, :m]
    bj = a[:m, n - m:][:, ::-1]
    if not plus:
        return a_top - bj
    if n % 2 == 0:
        return a_top + bj
    p = np.empty((m + 1, m + 1))
    np.add(a_top, bj, out=p[:m, :m])
    p[:m, m] = p[m, :m] = math.sqrt(2.0) * a[:m, m]
    p[m, m] = a[m, m]
    return p


def _solve(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    try:
        return scipy.linalg.eigh(a, eigvals_only=True, driver="ev", overwrite_a=overwrite,
                                 check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"symmetric eigensolver failed to converge: {exc}") from exc


def _frobenius(x: np.ndarray) -> float:
    """||x||_F, from scipy's BLAS `ddot` rather than numpy's (module docstring)."""
    flat = x.ravel(order="K")
    return math.sqrt(ddot(flat, flat))


def _eigh(a: np.ndarray, exact: bool = False, overwrite_a: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a checked matrix, guarded by the trace identity.

    A centrosymmetric matrix is solved as its two half-size blocks; the
    guard compares their pooled eigenvalues with the full matrix's trace.
    The blocks are fresh and exactly symmetric, so LAPACK works in place on
    their transposes, which are Fortran-ordered, instead of on copies.  Each
    block is made, solved and freed before the next, so one is held at a time.
    Any other matrix takes one full solve, of the Fortran-ordered view `a.T`
    when `exact` says a C-ordered matrix equals its transpose (module
    docstring), in place with `overwrite_a`.  A nearly symmetric matrix is
    copied, since the view would hand LAPACK a's other triangle.  The guard's
    trace and Frobenius norm are read before any solve can overwrite a.
    """
    fro = _frobenius(a)
    trace = float(np.trace(a))
    if _is_centrosymmetric(a):
        eigs = np.concatenate([_solve(_centrosymmetric_block(a, plus).T, overwrite=True)
                               for plus in (True, False)])
    elif exact and a.flags.c_contiguous:
        eigs = _solve(a.T, overwrite=overwrite_a)
    else:
        eigs = _solve(a)
    resid = abs(float(eigs.sum()) - trace)
    if not resid <= _TRACE_RTOL * max(fro, 1e-300):
        raise NumericError(
            f"eigenvalue sum misses the trace by {resid:.3g} (> 1e-10 * ||A||_F)"
        )
    return np.sort(eigs)


def eigvalsh(matrix: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    Guards: the input must be finite and symmetric to 1e-12 relative
    tolerance, and the eigenvalue sum must reproduce the trace to
    1e-10 * Frobenius norm.  The matrix is left unchanged unless
    `overwrite_a` is true, as in scipy.linalg.eigh: then a C-ordered float
    matrix that equals its transpose exactly is solved in place, destroying
    it, and the solve holds no second n x n array.  The eigenvalues are the
    same bits either way.
    """
    a, _, exact = _checked_symmetric(matrix)
    return _eigh(a, exact, overwrite_a)


def spectral_norm(matrix: np.ndarray) -> float:
    """max(lambda_max, -lambda_min): the largest absolute eigenvalue.

    For n >= 3 it is |lambda| of ARPACK's largest-magnitude Lanczos pair
    (v, lambda), started from a fixed vector, so equal inputs give equal
    norms; it agrees with full `eigh` to about 1e-15 relative, not bit for
    bit.  Each Lanczos matrix-vector product is a BLAS `dsymv` that reads
    one triangle of a Fortran-ordered view (`a.T` for C-ordered input; any
    other layout is copied once).  The input guards are those of
    `eigvalsh`, and the result must satisfy ||A v - lambda v|| <= 1e-10 *
    ||A||_F with the full matrix.  Smaller matrices use `eigh`.
    """
    a, top, _ = _checked_symmetric(matrix)
    n = a.shape[0]
    if n < 3:
        eigs = _eigh(a)
        return float(max(eigs[-1], -eigs[0]))
    if top == 0.0:
        return 0.0  # A v0 = 0: Lanczos has no Krylov space to build
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    # a symmetric matrix is its own transpose, so a.T is a Fortran-ordered
    # view of it; dsymv reads f's lower triangle, a's upper one for C order
    f = a.T if a.flags.c_contiguous else np.asfortranarray(a)
    op = LinearOperator((n, n), matvec=lambda x: dsymv(1.0, f, x, lower=1), dtype=float)
    gen = generator(mix(TAG_LANCZOS, n))
    v0 = gen.random(n) - 0.5
    try:
        vals, vecs = eigsh(op, k=1, which="LM", v0=v0, rng=gen)
    except ArpackError as exc:
        raise NumericError(f"Lanczos norm solve failed: {exc}") from exc
    lam, v = float(vals[0]), vecs[:, 0]
    resid = _frobenius(dgemv(1.0, f, v, trans=1) - lam * v)
    fro = _frobenius(f)
    if not resid <= _RESIDUAL_RTOL * fro:
        raise NumericError(
            f"Lanczos residual ||A v - lambda v|| = {resid:.3g} (> 1e-10 * ||A||_F)"
        )
    return abs(lam)


def empirical_spectrum(sample: EnsembleSample, scale: str = "sqrt_n",
                       overwrite_a: bool = False) -> np.ndarray:
    """Eigenvalues of the sample scaled by 1/sqrt(n), 1/n or 1 ("none"), sorted ascending.

    The sample's matrix is left unchanged unless `overwrite_a` is true, when
    eigvalsh may solve it in place: a caller that has no further use for
    the matrix then holds one n x n array for the solve, not two.
    """
    if scale not in ("sqrt_n", "n", "none"):
        raise InvalidArgumentError(f"unknown scale {scale!r}")
    factor = {"sqrt_n": 1.0 / math.sqrt(sample.n), "n": 1.0 / sample.n, "none": 1.0}[scale]
    return eigvalsh(sample.matrix, overwrite_a=overwrite_a) * factor


# ---------------------------------------------------------------------------
# Exact circuit-trace oracle
# ---------------------------------------------------------------------------

def _exact_matrix_power_trace(matrix: list[list[Fraction]], r: int) -> Fraction:
    n = len(matrix)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(r):
        power = [
            [sum(power[i][l] * matrix[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(power[i][i] for i in range(n))


def trace_via_circuits(ensemble: str, entries: Mapping, n: int, r: int) -> Fraction:
    """tr(A^r) as an exact sum over circuits, in rational arithmetic.

    A circuit is a closed walk v_0, v_1, ..., v_r = v_0, and it adds the
    product of its r edge weights.  toeplitz: entries maps |i-j| -> X, and
    the walks run on 1..n with weight X_{|a-b|}.  hankel: entries maps
    i+j-1 -> X, with weight X_{a+b-1}.  markov: entries maps vertex pairs
    (i, j), i<j, to X, and the walks run over the overlap graph of vertex
    pairs with weight t_{a,b} X_a (hmt.ensembles.markov_t).  Circuits are
    capped at n <= CIRCUIT_N_CAP and r <= CIRCUIT_R_CAP.
    """
    _check_size_and_power(n, r)
    if n > CIRCUIT_N_CAP or r > CIRCUIT_R_CAP:
        raise CapacityError(
            f"circuit enumeration capped at n <= {CIRCUIT_N_CAP}, r <= {CIRCUIT_R_CAP}")
    x = _exact_entries(ensemble, entries, n)
    vertices = range(1, n + 1)
    if ensemble == "toeplitz":
        weight = lambda a, b: x[abs(a - b)]
    elif ensemble == "hankel":
        weight = lambda a, b: x[a + b - 1]
    else:  # markov; _exact_entries has refused every other ensemble
        vertices = markov_vertex_pairs(n)
        weight = lambda a, b: markov_t(a, b) * x[a]

    def walks(first, last, steps: int) -> Fraction:
        """Weight products summed over the walks of `steps` edges from last to first."""
        if steps == 1:
            return weight(last, first)
        return sum(w * walks(first, v, steps - 1) for v in vertices if (w := weight(last, v)))

    return sum((walks(v, v, r) for v in vertices), Fraction(0))


def _check_size_and_power(n: int, r: int) -> None:
    if not all(isinstance(x, int) and x >= 1 for x in (n, r)):
        raise InvalidArgumentError(f"n and r must be positive integers, got n={n!r}, r={r!r}")


def _exact_entries(ensemble: str, entries: Mapping, n: int) -> dict:
    """The entries an n x n matrix of the ensemble reads, as Fractions.

    toeplitz reads keys 0..n-1, hankel 1..2n-1 and markov the vertex pairs
    (i, j), i < j, given in either order; a missing key is refused.
    """
    if ensemble == "toeplitz":
        needed = range(n)
    elif ensemble == "hankel":
        needed = range(1, 2 * n)
    elif ensemble == "markov":
        needed = markov_vertex_pairs(n)
        entries = {tuple(sorted(key)): val for key, val in entries.items()}
    else:
        raise InvalidArgumentError(f"unknown ensemble {ensemble!r} for circuit traces")
    missing = [key for key in needed if key not in entries]
    if missing:
        raise InvalidArgumentError(f"{ensemble} entries missing for keys {missing[:3]}...")
    return {key: Fraction(entries[key]) for key in needed}


def exact_trace_power(ensemble: str, entries: Mapping, n: int, r: int) -> Fraction:
    """Direct tr(A^r) by exact matrix multiplication; oracle for the circuits."""
    _check_size_and_power(n, r)
    x = _exact_entries(ensemble, entries, n)
    if ensemble == "toeplitz":
        grid = [[x[abs(i - j)] for j in range(n)] for i in range(n)]
    elif ensemble == "hankel":
        grid = [[x[i + j + 1] for j in range(n)] for i in range(n)]
    else:
        grid = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), val in x.items():
            grid[i - 1][j - 1] = val
            grid[j - 1][i - 1] = val
        for i in range(n):
            grid[i][i] = -sum(grid[i][j] for j in range(n) if j != i)
    return _exact_matrix_power_trace(grid, r)


# ---------------------------------------------------------------------------
# Histograms and distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram rows; densities integrate to one."""

    bin_left: np.ndarray
    bin_right: np.ndarray
    count: np.ndarray
    density: np.ndarray


def histogram(
    values: np.ndarray, bins: int, value_range: tuple[float, float] | None = None
) -> Histogram:
    """Equal-width histogram over [min, max] or the given finite range (lo <= hi)."""
    values = np.asarray(values, float)
    if values.size == 0:
        raise InvalidArgumentError("cannot histogram an empty spectrum")
    if not np.isfinite(values).all():
        raise InvalidArgumentError("cannot histogram a spectrum with nan or inf values")
    if not isinstance(bins, (int, np.integer)) or bins < 1:
        raise InvalidArgumentError(f"bins must be an integer >= 1, got {bins!r}")
    if value_range is not None:
        lo, hi = value_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise InvalidArgumentError(
                f"value_range must be finite with lo <= hi, got {value_range!r}")
    counts, edges = np.histogram(values, bins=bins, range=value_range)
    width = edges[1] - edges[0]
    inside = int(counts.sum())
    density = counts / (inside * width) if inside and width > 0 else np.zeros(bins)
    return Histogram(
        bin_left=edges[:-1], bin_right=edges[1:], count=counts, density=density
    )


def kolmogorov_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Sup distance between the two empirical CDFs, in [0, 1]."""
    xa = np.sort(np.asarray(a, float))
    xb = np.sort(np.asarray(b, float))
    if xa.size == 0 or xb.size == 0:
        raise InvalidArgumentError("cannot compare empty spectra")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise InvalidArgumentError("cannot compare spectra with nan or inf values")
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(fa - fb).max())
