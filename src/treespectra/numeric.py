"""Floating-point spectral routines, independent of exact arithmetic.

Eigenvalues come from LAPACK's symmetric eigensolver and ranks from its
singular value decomposition, both reached through numpy.
:func:`eigen_symmetric` hands a ``(k, n, n)`` stack of matrices to LAPACK
in a single call, each member's spectrum equal to the one it gives alone;
one matrix runs as a stack of one.  Every function here takes matrices or
vectors, never a tree: ``gauntlet`` sets the float Laplacians from the
trees' edges and compares this route with the exact one there and in the
test suite.  Vectors are indexed by ``label - 1`` throughout.
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


def eigen_symmetric(matrix, tol: float = 1e-12):
    """Eigenvalues of symmetric matrices from LAPACK (``numpy.linalg.eigvalsh``).

    A ``(k, n, n)`` stack gives a tuple of k spectra, one per member, from
    a single LAPACK call, each equal to the one its member gives alone; an
    ``(n, n)`` matrix runs as a stack of one and gives its :class:`Spectrum`.
    Each member's clustering tolerance is ``tau = max(1e-8, 1e3 * tol *
    ||M||)``, with ``||M||`` that member's Frobenius norm.  Raises
    NonSymmetric unless the input is a finite, square, symmetric matrix or
    a stack of them, and ValueError unless ``tol`` is finite and >= 0.
    """
    a = np.asarray(matrix, dtype=float)
    one = a.ndim == 2  # a matrix runs as a stack of one
    stack = a[np.newaxis] if one else a
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        kind = "a stack of square matrices" if a.ndim == 3 else "a square matrix"
        raise NonSymmetric(f"expected {kind}, got shape {a.shape}")
    for problem, bad in (
        ("has non-finite entries", ~np.isfinite(stack).all(axis=(1, 2))),
        ("is not symmetric", (stack != stack.transpose(0, 2, 1)).any(axis=(1, 2))),
    ):
        if bad.any():
            member = "" if one else f" {int(np.argmax(bad))} of the stack"
            raise NonSymmetric(f"matrix{member} {problem}")
    if not 0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    spectra = tuple(
        _spectrum(row, max(1e-8, 1e3 * tol * float(np.linalg.norm(member))))
        for member, row in zip(stack, np.linalg.eigvalsh(stack))
    )
    return spectra[0] if one else spectra


def _spectrum(row: np.ndarray, tau: float) -> Spectrum:
    # One eigvalsh row, sorted, clustered at tau; each mean reads the row
    # itself, the same contiguous float64 a list of its values would give.
    values = row.tolist()
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tau:
            if i - start == 1:
                # np.mean of one float is that float.
                clusters.append((values[start], 1))
            else:
                clusters.append((float(np.mean(row[start:i])), i - start))
            start = i
    return Spectrum(eigenvalues=tuple(values), clusters=tuple(clusters), tau=tau)


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
