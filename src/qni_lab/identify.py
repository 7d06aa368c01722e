"""Function-identification diagnostics.

The pointwise gap between two quadratic nets over the ball ||x|| <= x_max is
an eigenvalue problem: sup |x^T (phi1 - phi2) x| equals x_max^2 times the
spectral radius of the difference of induced forms, attained at an extreme
eigenvector. That exact sup, the concentration radius epsilon(n, d, delta),
and the certified bound 2 K^2 eps / alpha are combined here into checkable
verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qnn_core as core
from .errors import RejectedInput
from .linalg import extreme_eigenpair


@dataclass(frozen=True)
class IdentBound:
    """Concentration radius for the empirical loss, with its ingredients."""

    epsilon: float
    n: int
    d: int
    delta: float
    ell_max: float
    xi_max: float
    phi_max: float
    lipschitz: float


@dataclass(frozen=True)
class GapReport:
    """Exact sup over the ball of the squared gap between two models."""

    sup_gap_sq: float
    frob_gap: float
    witness_x: np.ndarray


def epsilon_bound(n: int, d: int, delta: float, bounds: core.BoundSpec) -> IdentBound:
    """Concentration radius of the empirical loss around the population loss.

    epsilon = sqrt( 18 l^2 (l^2 + xi^2)/n * (d^2 max{1, log(1 + 8 phi K n / l^2)}
                    + log(2/delta)) )
    with l the output-gap bound and K the loss Lipschitz constant.
    """
    if n < 1:
        raise RejectedInput("n must be >= 1")
    if not (0.0 < delta < 1.0):
        raise RejectedInput("delta must lie in (0, 1)")
    ell = core.function_gap_bound(bounds)
    K = core.lipschitz_constant(bounds)
    inner = d * d * max(1.0, math.log1p(8.0 * bounds.phi_max * K * n / ell**2))
    inner += math.log(2.0 / delta)
    eps = math.sqrt(18.0 * ell**2 * (ell**2 + bounds.xi_max**2) / n * inner)
    return IdentBound(
        epsilon=eps,
        n=n,
        d=d,
        delta=delta,
        ell_max=ell,
        xi_max=bounds.xi_max,
        phi_max=bounds.phi_max,
        lipschitz=K,
    )


def sup_function_gap(a, b, x_max: float) -> GapReport:
    """Exact sup over ||x|| <= x_max of (f_a(x) - f_b(x))^2, with a witness point.

    Accepts nets or induced forms. The witness is x_max times the extreme
    eigenvector of the difference of induced forms.
    """
    phi_a = core.induced_of(a).phi
    phi_b = core.induced_of(b).phi
    if phi_a.shape != phi_b.shape:
        raise RejectedInput(f"dimension mismatch: {phi_a.shape} vs {phi_b.shape}")
    delta = phi_a - phi_b
    lam, vec = extreme_eigenpair(delta)
    rho = abs(lam)
    return GapReport(
        sup_gap_sq=float(x_max**4 * rho * rho),
        frob_gap=float(np.linalg.norm(delta)),
        witness_x=x_max * vec,
    )


def frobenius_gap(a, b) -> float:
    """Frobenius distance between induced forms; zero iff the models coincide."""
    phi_a = core.induced_of(a).phi
    phi_b = core.induced_of(b).phi
    if phi_a.shape != phi_b.shape:
        raise RejectedInput(f"dimension mismatch: {phi_a.shape} vs {phi_b.shape}")
    return float(np.linalg.norm(phi_a - phi_b))


@dataclass(frozen=True)
class IdentificationVerdict:
    measured_sup_gap_sq: float
    certified_sup_gap_sq: float
    holds: bool
    frob_gap: float
    certified_frob_gap: float
    frob_holds: bool


def identification_check(
    truth: core.QuadNet,
    fitted: core.QuadNet,
    bound: IdentBound,
    alpha: float,
    x_max: float,
) -> IdentificationVerdict:
    """Compare the measured sup gap against the certified bound 2 K^2 eps / alpha.

    Also reports the induced-form chain: ||phi_hat - phi_star||_F against
    sqrt(2 eps / alpha).
    """
    if alpha <= 0:
        raise RejectedInput("alpha must be positive")
    gap = sup_function_gap(truth, fitted, x_max)
    certified = 2.0 * bound.lipschitz**2 * bound.epsilon / alpha
    certified_frob = math.sqrt(2.0 * bound.epsilon / alpha)
    return IdentificationVerdict(
        measured_sup_gap_sq=gap.sup_gap_sq,
        certified_sup_gap_sq=certified,
        holds=gap.sup_gap_sq <= certified,
        frob_gap=gap.frob_gap,
        certified_frob_gap=certified_frob,
        frob_holds=gap.frob_gap <= certified_frob,
    )


def robust_shift_experiment(
    truth: core.QuadNet,
    sampler_p: core.CovariateSampler,
    sampler_q: core.CovariateSampler,
    n_grid: list[int],
    cfg: core.TrainConfig,
    seeds: list[int],
    *,
    delta: float = 0.1,
    xi_max: float = 0.0,
    noise_kind: str = "zero",
    bounds: core.BoundSpec | None = None,
    n_eval: int = 4000,
) -> tuple[list[dict], list[dict]]:
    """Train on p, evaluate under q: one row and one fit record per (n, seed).

    Rows carry the empirical loss on a fresh q-sample with noiseless labels
    (a Monte-Carlo estimate of the shifted population loss), the exact sup
    gap, and the certified bound with its verdict. Fit records carry n, seed
    and the fit's diagnostics.
    """
    if bounds is None:
        theta_max = truth.frobenius_norm() * 1.5
        x_max = max(sampler_p.x_max, sampler_q.x_max)
        bounds = core.BoundSpec(x_max=x_max, theta_max=theta_max, phi_max=theta_max**2, xi_max=xi_max)
    alpha = core.exact_alpha(sampler_p)
    grid = [(n, seed) for n in n_grid for seed in seeds]
    datasets = [core.generate_dataset(truth, sampler_p, xi_max, noise_kind, n, seed) for n, seed in grid]
    starts = [core.seeded_start(truth.d, truth.k, replace(cfg, seed=seed + 1)) for _, seed in grid]
    results = core.projected_gd_stack(datasets, starts, cfg, radius=bounds.theta_max)
    rows, fits = [], []
    for (n, seed), fit in zip(grid, results):
        bound = epsilon_bound(n, truth.d, delta, bounds)
        verdict = identification_check(truth, fit.net, bound, alpha, bounds.x_max)
        rng_eval = np.random.default_rng(seed + 2)
        Xq = sampler_q.sample(n_eval, rng_eval)
        diff = core.forward_batch(fit.net, Xq) - core.forward_batch(truth, Xq)
        rows.append({
            "n": int(n),
            "seed": int(seed),
            "shift_id": sampler_q.describe(),
            "emp_loss_q": float(np.mean(diff * diff)),
            "sup_gap_sq": verdict.measured_sup_gap_sq,
            "certified_bound": verdict.certified_sup_gap_sq,
            "holds": int(verdict.holds),
        })
        fits.append({"n": int(n), "seed": int(seed), **fit.diagnostics()})
    return rows, fits
