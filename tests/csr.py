"""``CSRMatrix`` helpers for tests: build one from dense rows, and convert
one to scipy.sparse, which tests use as an oracle only."""

import numpy as np
import scipy.sparse as sp

from logad.vectorize import CSRMatrix


def from_dense(rows) -> CSRMatrix:
    """The CSR of the nonzero entries of dense rows, as float64."""
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    row_of, cols = np.nonzero(arr)
    indptr = np.searchsorted(row_of, np.arange(arr.shape[0] + 1))
    return CSRMatrix(indptr.astype(np.int32), cols.astype(np.int32), arr[row_of, cols], arr.shape)


def to_scipy(m: CSRMatrix) -> sp.csr_matrix:
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
