"""Shared helpers for the test suite."""

import numpy as np

from qni_lab import qnn_core as core


def random_symmetric(d: int, rng: np.random.Generator, norm: float | None = None) -> np.ndarray:
    g = rng.standard_normal((d, d))
    m = (g + g.T) / 2.0
    if norm is not None:
        m *= norm / np.linalg.norm(m)
    return m


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def finite_difference_gradient(net: core.QuadNet, data: core.Dataset, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of the empirical loss, entry by entry."""
    out = np.zeros_like(net.theta)
    for i in range(net.d):
        for j in range(net.k):
            tp = net.theta.copy()
            tm = net.theta.copy()
            tp[i, j] += step
            tm[i, j] -= step
            out[i, j] = (
                core.empirical_loss(core.QuadNet(tp), data)
                - core.empirical_loss(core.QuadNet(tm), data)
            ) / (2.0 * step)
    return out


def power_iteration_extreme(delta: np.ndarray, iters: int = 500, seed: int = 0) -> float:
    """|extreme eigenvalue| of a symmetric matrix via power iteration on delta^2.

    Uses only matrix-vector products, independent of the LAPACK eigensolver
    behind qni_lab.linalg; used as a spectral-radius oracle.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(delta.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = delta @ (delta @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return float(abs(v @ delta @ v))


def reference_projected_gd(data: core.Dataset, theta0: np.ndarray, cfg: core.TrainConfig,
                           center: np.ndarray | None = None, radius: float | None = None):
    """Per-sample projected GD: the same steps and stop rules as
    core.projected_gd, with every gradient taken by core.gradient over all n
    rows instead of from the sample's moments. Returns (theta, iterations,
    converged)."""
    c = np.zeros_like(theta0) if center is None else center

    def project(t):
        offset = t - c
        nrm = float(np.linalg.norm(offset))
        if radius is None or nrm <= radius:
            return t, False
        return c + offset * (radius / nrm), True

    theta, _ = project(np.array(theta0, dtype=float))
    for it in range(1, cfg.max_iters + 1):
        g = core.gradient(core.QuadNet(theta), data)
        if float(np.linalg.norm(g)) <= cfg.grad_tol:
            return theta, it, True
        step, shortened = project(theta - cfg.learning_rate * g)
        moved = float(np.linalg.norm(step - theta))
        theta = step
        if shortened and moved <= cfg.grad_tol * cfg.learning_rate:
            return theta, it, True
    g = core.gradient(core.QuadNet(theta), data)
    return theta, cfg.max_iters, float(np.linalg.norm(g)) <= cfg.grad_tol
