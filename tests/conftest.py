"""The eigensolver that the principal curvatures came from before the
Cholesky route, as a fixture: golden digests recorded with it still hold
when it is patched back in, so the eigensolver is the only source of the
change in them."""

import numpy as np
import pytest
from scipy.linalg import lapack

from curv import graphgeom


def dsygvd_eigvalsh(a, b):
    """Ascending eigenvalues of each pencil (a[i], b[i]) from LAPACK's
    dsygvd, one row at a time."""
    out = np.empty(a.shape[:2])
    for i in range(len(a)):
        out[i], _, info = lapack.dsygvd(a[i], b[i], jobz="N")
        if info != 0:
            raise np.linalg.LinAlgError(f"dsygvd failed with info = {info}")
    return out


@pytest.fixture
def dsygvd(monkeypatch):
    """Principal curvatures from dsygvd for the duration of a test."""
    monkeypatch.setattr(graphgeom, "_generalized_eigvalsh", dsygvd_eigvalsh)
