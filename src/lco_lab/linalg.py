"""Input check for the symmetric matrices handed to ``numpy.linalg.eigh``.

The eigenvalue problems here are at most vocabulary-sized (~64); LAPACK
solves them through ``eigh`` / ``eigvalsh``, which only ever read one
triangle, so asymmetric input is rejected before it gets there.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

SYMMETRY_ATOL = 1e-10


def require_symmetric(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InvalidInputError("matrix must be finite")
    if np.abs(matrix - matrix.T).max() > SYMMETRY_ATOL:
        raise InvalidInputError("matrix is not symmetric within 1e-10")
    return matrix
