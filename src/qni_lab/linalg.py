"""Eigenpairs of symmetric matrices with a fixed eigenvector sign convention.

The decomposition is LAPACK's (numpy.linalg.eigh); the returned eigenvector
is flipped so that its first entry above the sign tolerance is positive.
Bandit arms and sup-gap witnesses are eigenvectors, so the convention makes
them independent of the solver's sign choice.
"""

from __future__ import annotations

import numpy as np

_SIGN_TOL = 1e-12


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Flip vec so its first entry with |entry| > tol is positive."""
    nz = np.nonzero(np.abs(vec) > _SIGN_TOL)[0]
    return -vec if nz.size and vec[nz[0]] < 0 else vec


def top_eigenpair(a: np.ndarray):
    """Largest eigenvalue and its sign-normalized unit eigenvector."""
    w, v = np.linalg.eigh(a)
    return w[-1], _fix_sign(v[:, -1])


def extreme_eigenpair(a: np.ndarray):
    """Eigenpair with the largest |eigenvalue| (ties go to the positive end)."""
    w, v = np.linalg.eigh(a)
    i = -1 if abs(w[-1]) >= abs(w[0]) else 0
    return w[i], _fix_sign(v[:, i])
