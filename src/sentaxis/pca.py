"""Top-two principal components of a symmetric PSD matrix by ``np.linalg.eigh``."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMatrixError

#: Eigenvalues below this fraction of the total variance count as zero.
_RANK_EPS = 1e-12


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component positive."""
    pivot = int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0 else v


def top_two_components(covariance: np.ndarray):
    """Leading two eigenpairs of a symmetric PSD matrix.

    Returns (eigenvalues, eigenvectors) with eigenvectors as rows, each
    sign-fixed so its largest-magnitude component is positive. A zero matrix
    raises; a rank-one matrix yields a zero second eigenpair. A tied or
    near-tied leading pair is returned as ``eigh`` resolves it.
    """
    covariance = np.asarray(covariance, dtype=np.float64)
    total = float(np.trace(covariance))
    if total <= 0.0 or not np.any(covariance):
        raise DegenerateMatrixError("matrix has no variance (rank 0)")

    eigenvalues, eigenvectors = np.linalg.eigh(covariance)  # ascending order
    values = np.zeros(2)
    vectors = np.zeros((2, covariance.shape[0]))
    for comp in range(min(2, eigenvalues.size)):
        lam = float(eigenvalues[-1 - comp])
        if lam <= _RANK_EPS * total:
            break  # remaining variance is numerically zero
        values[comp] = lam
        vectors[comp] = _canonical_sign(eigenvectors[:, -1 - comp])
    if values[0] == 0.0:
        raise DegenerateMatrixError("leading eigenvalue is numerically zero")
    return values, vectors
