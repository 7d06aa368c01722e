"""Two-stage transfer learning: proxy fit, expanded radius, constrained gold fit.

A large proxy sample pins down the induced form of the source net; the gold
fit is then run inside a Frobenius ball around the proxy estimate whose
radius inflates the known parameter shift B by the proxy estimation error.
The orthogonal-alignment construction (from the SVD theta = U S V^T, the
square orthogonal R = [V_d U^T | V_rest]) converts closeness of induced
forms into closeness of parameter matrices whenever the reference factor has
full row rank.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import qnn_core as core
from .errors import AssumptionViolated, RejectedInput
from .identify import epsilon_bound, sup_function_gap

RANK_TOL = 1e-12


def sigma_min(net: core.QuadNet) -> float:
    """d-th largest singular value of theta (needs k >= d)."""
    if net.k < net.d:
        raise RejectedInput(f"need k >= d, got d={net.d}, k={net.k}")
    return float(np.linalg.svd(net.theta, compute_uv=False)[-1])


@dataclass(frozen=True)
class TransferProblem:
    """Source/target nets with a known parameter-shift bound B.

    sigma0 lower-bounds the d-th singular value of the source net. Noise
    fields drive synthetic data generation for both domains.
    """

    theta_p_star: core.QuadNet
    theta_g_star: core.QuadNet
    B: float
    n_p: int
    n_g: int
    sampler_p: core.CovariateSampler
    sampler_q: core.CovariateSampler
    sigma0: float
    xi_max: float = 0.0
    noise_kind: str = "zero"

    def __post_init__(self):
        if self.theta_p_star.theta.shape != self.theta_g_star.theta.shape:
            raise RejectedInput("source and target nets must share d and k")
        if self.n_p < 1 or self.n_g < 1:
            raise RejectedInput("n_p and n_g must be >= 1")
        shift = float(np.linalg.norm(self.theta_g_star.theta - self.theta_p_star.theta))
        if shift > self.B + 1e-9:
            raise RejectedInput(f"true parameter shift {shift:.6g} exceeds B = {self.B:.6g}")
        if self.sigma0 <= 0:
            raise RejectedInput("sigma0 must be positive")
        if sigma_min(self.theta_p_star) < self.sigma0 - 1e-12:
            raise AssumptionViolated(
                f"sigma_min(theta_p_star) = {sigma_min(self.theta_p_star):.6g} < sigma0 = {self.sigma0:.6g}"
            )

    @property
    def d(self) -> int:
        return self.theta_p_star.d

    @property
    def k(self) -> int:
        return self.theta_p_star.k

    def bounds(self) -> core.BoundSpec:
        theta_max = 1.5 * max(
            self.theta_p_star.frobenius_norm(), self.theta_g_star.frobenius_norm()
        )
        x_max = max(self.sampler_p.x_max, self.sampler_q.x_max)
        return core.BoundSpec(
            x_max=x_max, theta_max=theta_max, phi_max=theta_max**2, xi_max=self.xi_max
        )


def proxy_epsilon(n_p: int, d: int, delta: float, bounds: core.BoundSpec) -> float:
    """Concentration radius for the proxy stage: the base radius with the
    failure probability split in half (log(4/delta) in place of log(2/delta))."""
    return epsilon_bound(n_p, d, delta / 2.0, bounds).epsilon


def gold_epsilon(
    n_g: int, d: int, delta: float, B_hat: float, bounds: core.BoundSpec
) -> float:
    """Certified radius for the constrained gold stage.

    The output-gap bound inside the leading factors becomes K * B_hat (the
    feasible set has diameter-controlled function gaps) while the log term
    keeps the original constants; B_hat multiplies outside the square root.
    """
    if n_g < 1:
        raise RejectedInput("n_g must be >= 1")
    if not (0.0 < delta < 1.0):
        raise RejectedInput("delta must lie in (0, 1)")
    if B_hat < 0:
        raise RejectedInput("B_hat must be >= 0")
    K = core.lipschitz_constant(bounds)
    ell = core.function_gap_bound(bounds)
    inner = d * d * max(1.0, math.log1p(8.0 * bounds.phi_max * K * n_g / ell**2))
    inner += math.log(4.0 / delta)
    return B_hat * math.sqrt(
        18.0 * K**2 * (K**2 * B_hat**2 + bounds.xi_max**2) / n_g * inner
    )


def expanded_radius(B: float, eps_p: float, alpha: float, sigma0: float) -> float:
    """Constraint radius B + sqrt(2 eps_p / alpha) / sigma0 for the gold fit."""
    if B < 0 or eps_p < 0 or alpha <= 0 or sigma0 <= 0:
        raise RejectedInput("B, eps_p must be >= 0 and alpha, sigma0 positive")
    return B + math.sqrt(2.0 * eps_p / alpha) / sigma0


@dataclass(frozen=True)
class AlignmentResult:
    R: np.ndarray
    R_prime: np.ndarray
    aligned_gap: float


def align(theta: core.QuadNet, theta_prime: core.QuadNet, sigma0: float) -> AlignmentResult:
    """Orthogonal matrices R, R' with theta R close to theta' R'.

    Built from the SVD theta = U S V^T: R = [V_d U^T | V_rest] is k x k
    orthogonal, with V_d the d leading right singular vectors, so that
    theta R = [U S U^T | 0] = [phi^(1/2) | 0] whatever the sign or completion
    LAPACK picks. The aligned gap is bounded by
    ||phi - phi'||_F / sigma_min(theta') whenever theta' has full row rank.
    """
    if theta.theta.shape != theta_prime.theta.shape:
        raise RejectedInput("nets must share d and k")
    d, k = theta.d, theta.k
    if k < d:
        raise RejectedInput(f"need k >= d, got d={d}, k={k}")
    smin = sigma_min(theta_prime)
    if smin <= RANK_TOL:
        raise AssumptionViolated("theta_prime is rank deficient below d")
    if smin < sigma0 - 1e-12:
        warnings.warn(
            f"sigma_min(theta_prime) = {smin:.6g} is below the asserted sigma0 = {sigma0:.6g}",
            stacklevel=2,
        )

    def full_rotation(net: core.QuadNet) -> np.ndarray:
        u, _, vt = np.linalg.svd(net.theta)
        return np.hstack([vt[:d].T @ u.T, vt[d:].T])

    r = full_rotation(theta)
    r_prime = full_rotation(theta_prime)
    gap = float(np.linalg.norm(theta.theta @ r - theta_prime.theta @ r_prime))
    return AlignmentResult(R=r, R_prime=r_prime, aligned_gap=gap)


def run_transfer(
    problem: TransferProblem,
    delta: float,
    cfg: core.TrainConfig,
    seed: int = 0,
    alpha: float | None = None,
) -> dict:
    """Full two-stage pipeline; returns the transfer report payload.

    Fits the proxy net on n_p source samples, expands the constraint radius
    by the certified proxy error, fits the gold net inside the ball, and
    compares the measured gold sup gap against 2 K^2 eps_g / alpha.
    """
    b = problem.bounds()
    if alpha is None:
        alpha = core.exact_alpha(problem.sampler_p)
    data_p = core.generate_dataset(
        problem.theta_p_star, problem.sampler_p, problem.xi_max, problem.noise_kind,
        problem.n_p, seed,
    )
    fit_p = core.train_gd(data_p, problem.d, problem.k, replace(cfg, seed=seed + 1),
                          theta_max=b.theta_max)
    eps_p = proxy_epsilon(problem.n_p, problem.d, delta, b)
    B_hat = expanded_radius(problem.B, eps_p, alpha, problem.sigma0)

    data_g = core.generate_dataset(
        problem.theta_g_star, problem.sampler_q, problem.xi_max, problem.noise_kind,
        problem.n_g, seed + 2,
    )
    center = fit_p.net.theta
    fit_g = core.projected_gd_stack([data_g], [center], cfg, [center], B_hat)[0]

    proxy_gap = sup_function_gap(fit_p.net, problem.theta_p_star, b.x_max)
    gold_gap = sup_function_gap(fit_g.net, problem.theta_g_star, b.x_max)
    eps_g = gold_epsilon(problem.n_g, problem.d, delta, B_hat, b)
    K = core.lipschitz_constant(b)
    certified = 2.0 * K**2 * eps_g / alpha
    return {
        "n_p": int(problem.n_p),
        "n_g": int(problem.n_g),
        "B": float(problem.B),
        "B_hat": float(B_hat),
        "eps_p": float(eps_p),
        "eps_g": float(eps_g),
        "proxy_sup_gap": float(proxy_gap.sup_gap_sq),
        "gold_sup_gap": float(gold_gap.sup_gap_sq),
        "certified": float(certified),
        "holds": int(gold_gap.sup_gap_sq <= certified),
        "seed": int(seed),
        "proxy_fit": fit_p.diagnostics(),
        "gold_fit": fit_g.diagnostics(),
    }
