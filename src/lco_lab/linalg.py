"""Input check for the symmetric matrices handed to ``numpy.linalg.eigh``.

The eigenvalue problems here are at most vocabulary-sized (~64); LAPACK
solves them through ``eigh`` / ``eigvalsh``, which only ever read one
triangle, so asymmetric input is rejected before it gets there.
"""

from __future__ import annotations

import numpy as np

from .dist import as_array
from .errors import InvalidInputError

SYMMETRY_ATOL = 1e-10


def require_symmetric(matrix) -> np.ndarray:
    matrix = as_array(matrix, "matrix", 2)
    if matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {matrix.shape}")
    if np.abs(matrix - matrix.T).max() > SYMMETRY_ATOL:
        raise InvalidInputError("matrix is not symmetric within 1e-10")
    return matrix
