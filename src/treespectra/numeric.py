"""Floating-point spectral routines, independent of exact arithmetic.

Eigenvalues come from LAPACK's symmetric eigensolver and ranks from its
singular value decomposition, both reached through numpy.  Every function
here takes a matrix or vectors, never a tree: ``gauntlet`` builds the one
Laplacian that both the exact and the float route read, and compares the
two routes there and in the test suite.  Vectors are indexed by
``label - 1`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonFinite, NonSymmetric, ZeroVector

__all__ = [
    "Spectrum",
    "eigen_symmetric",
    "cluster_multiplicity",
    "residual_norm",
    "numeric_rank",
]


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues plus their clustering at tolerance ``tau``.

    ``clusters`` holds (representative, multiplicity) pairs where the
    representative is the cluster mean; consecutive eigenvalues belong to
    one cluster while their gap stays within tau.
    """

    eigenvalues: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]
    tau: float


def eigen_symmetric(matrix, tol: float = 1e-12) -> Spectrum:
    """Eigenvalues of a symmetric matrix from LAPACK (``numpy.linalg.eigvalsh``).

    The clustering tolerance is ``tau = max(1e-8, 1e3 * tol * ||M||)``,
    with ``||M||`` the Frobenius norm of the input.  Raises NonSymmetric
    unless the input is a finite, square, symmetric matrix, and ValueError
    unless ``tol`` is finite and >= 0.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonSymmetric("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise NonSymmetric("matrix is not symmetric")
    if not 0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    norm = float(np.linalg.norm(a))
    tau = max(1e-8, 1e3 * tol * norm)
    values = np.linalg.eigvalsh(a).tolist()
    return Spectrum(
        eigenvalues=tuple(values),
        clusters=_cluster(values, tau),
        tau=tau,
    )


def _cluster(values: list[float], tau: float) -> tuple[tuple[float, int], ...]:
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tau:
            if i - start == 1:
                # np.mean of one float is that float.
                clusters.append((values[start], 1))
            else:
                clusters.append((float(np.mean(values[start:i])), i - start))
            start = i
    return tuple(clusters)


def cluster_multiplicity(spectrum: Spectrum, value: float) -> int:
    """Multiplicity of the cluster containing ``value`` (0 if none is close)."""
    for rep, mult in spectrum.clusters:
        if abs(rep - value) <= spectrum.tau:
            return mult
    return 0


def residual_norm(matrix, lam: float, vector) -> float:
    """max-norm of M*x - lam*x, scaled by the max-norm of x.

    A float array is used as it is, so a caller that checks many vectors
    against one matrix converts it once; nothing here scans the matrix.
    Raises ZeroVector for x = 0, NonSymmetric unless M is n x n for x of
    length n, and NonFinite when the residual is not finite.
    """
    x = np.asarray(vector, dtype=float)
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0:
        raise ZeroVector("residual of the zero vector is undefined")
    m = np.asarray(matrix, dtype=float)
    if x.ndim != 1 or m.shape != (x.size, x.size):
        raise NonSymmetric(f"matrix of shape {m.shape} does not fit a vector of shape {x.shape}")
    with np.errstate(all="ignore"):  # a non-finite residual raises below
        residual = float(np.max(np.abs(m @ x - lam * x)) / scale)
    if not np.isfinite(residual):
        raise NonFinite(f"residual is {residual}")
    return residual


def numeric_rank(vectors) -> int:
    """Numerical rank of a family of vectors (rows), from LAPACK's singular values.

    Counts the singular values above 1e-8 times the largest vector norm.
    Raises EmptyInput for an empty family and NonFinite for NaN or infinite
    entries.
    """
    vectors = list(vectors)
    if not vectors:
        raise EmptyInput("rank of an empty family is undefined")
    v = np.array(vectors, dtype=float)
    if not np.isfinite(v).all():
        raise NonFinite("vectors have non-finite entries")
    ref = float(np.max(np.linalg.norm(v, axis=1)))
    if ref == 0.0:
        return 0
    return int(np.count_nonzero(np.linalg.svd(v, compute_uv=False) > 1e-8 * ref))
