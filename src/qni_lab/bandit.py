"""Explore-then-commit bandit with quadratic-net rewards on the unit ball.

Exploration plays i.i.d. coordinate-uniform actions, a net is fit to the
collected rewards, and the top eigenvector of its induced form is played for
the rest of the horizon. The exploration length grows as T^(2/3) times a
slowly varying log factor; the stated prefactor is large at desk scale, so
experiments expose a scale knob (runs where the raw length exceeds the
horizon are clamped and flagged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qnn_core as core
from .errors import AssumptionViolated, RejectedInput
from .linalg import top_eigenpair

DEGENERATE_GAP_TOL = 1e-12


def eigengap_constant(phi: core.InducedForm) -> float:
    """Smallest M with lambda_1 - lambda_2 >= 4/M; error when the gap vanishes."""
    if phi.d < 2:
        raise RejectedInput("need d >= 2 for an eigengap")
    w = np.linalg.eigvalsh(phi.phi)
    gap = float(w[-1] - w[-2])
    if gap <= DEGENERATE_GAP_TOL:
        raise AssumptionViolated(f"top eigenvalues are degenerate (gap {gap:.3e})")
    return 4.0 / gap


@dataclass(frozen=True)
class BanditProblem:
    """Reward net, noise level, horizon, and the eigengap constant M.

    The action set is the unit ball, so x_max = 1 and the boundedness
    constants derive from the reward net itself.
    """

    theta_star: core.QuadNet
    xi_max: float
    T: int
    M: float | None = None
    m_scale: float = 1.0

    def __post_init__(self):
        if self.T < 1:
            raise RejectedInput("T must be >= 1")
        if self.xi_max < 0:
            raise RejectedInput("xi_max must be >= 0")
        if self.m_scale <= 0:
            raise RejectedInput("m_scale must be positive")
        phi = core.induced(self.theta_star)
        if self.M is None:
            object.__setattr__(self, "M", eigengap_constant(phi))
        else:
            w = np.linalg.eigvalsh(phi.phi)
            if float(w[-1] - w[-2]) < 4.0 / self.M - 1e-12:
                raise AssumptionViolated(
                    f"eigengap {w[-1] - w[-2]:.6g} is below 4/M = {4.0 / self.M:.6g}"
                )

    @property
    def d(self) -> int:
        return self.theta_star.d

    @property
    def phi_star(self) -> core.InducedForm:
        return core.induced(self.theta_star)

    def bounds(self) -> core.BoundSpec:
        phi_norm = self.phi_star.frobenius_norm()
        theta_norm = self.theta_star.frobenius_norm()
        return core.BoundSpec(
            x_max=1.0,
            theta_max=max(theta_norm, 1e-9),
            phi_max=max(phi_norm, 1e-9),
            xi_max=self.xi_max,
        )

    def optimum(self) -> tuple[np.ndarray, float]:
        """Best arm and best expected reward over the unit ball."""
        lam, vec = top_eigenpair(self.phi_star.phi)
        return vec, max(float(lam), 0.0)


@dataclass(frozen=True)
class BanditTrace:
    m: int
    m_raw: float
    m_clamped: bool
    actions: np.ndarray
    rewards: np.ndarray
    inst_regret: np.ndarray
    fit: core.TrainResult
    committed_arm: np.ndarray

    @property
    def T(self) -> int:
        return self.rewards.shape[0]

    def cumulative_regret(self) -> np.ndarray:
        return np.cumsum(self.inst_regret)


def exploration_length_raw(
    T: int, d: int, M: float, ell_max: float, phi_max: float, lipschitz: float,
    scale: float = 1.0,
) -> float:
    """Unclamped exploration length (60 M l^2 d^(7/5) T sqrt(log(3 + 8 phi K T / l^2)) / phi)^(2/3)."""
    if T < 1:
        raise RejectedInput("T must be >= 1")
    inner = scale * 60.0 * M * ell_max**2 * d ** 1.4 * T
    inner *= math.sqrt(math.log(3.0 + 8.0 * phi_max * lipschitz * T / ell_max**2))
    inner /= phi_max
    return inner ** (2.0 / 3.0)


def best_arm(phi: core.InducedForm) -> tuple[np.ndarray, float]:
    """Unit top eigenvector and its eigenvalue (deterministic sign convention)."""
    lam, vec = top_eigenpair(phi.phi)
    return vec, float(lam)


def run_etc(
    problem: BanditProblem,
    cfg: core.TrainConfig,
    seed: int,
    m: int | None = None,
) -> BanditTrace:
    """Run one explore-then-commit episode; fully deterministic given the seed.

    Instantaneous regret is the expected shortfall y* - f_star(x_t); reward
    noise is integrated out of the regret accounting but present in rewards.
    """
    rng = np.random.default_rng(seed)
    d, T = problem.d, problem.T
    b = problem.bounds()
    if m is None:
        m_raw = exploration_length_raw(
            T, d, problem.M, core.function_gap_bound(b), b.phi_max,
            core.lipschitz_constant(b), problem.m_scale,
        )
        m_eff = min(int(math.ceil(m_raw)), T)
        m_clamped = m_eff < math.ceil(m_raw)
    else:
        m_raw = float(m)
        m_eff = min(int(m), T)
        m_clamped = False

    hw = 1.0 / math.sqrt(d)
    actions_explore = rng.uniform(-hw, hw, size=(m_eff, d))
    f_explore = core.forward_batch(problem.theta_star, actions_explore)
    noise_explore = (
        rng.uniform(-problem.xi_max, problem.xi_max, size=m_eff)
        if problem.xi_max > 0 else np.zeros(m_eff)
    )
    rewards_explore = f_explore + noise_explore

    data = core.Dataset(actions_explore, rewards_explore)
    fit = core.train_gd(data, d, problem.theta_star.k, replace(cfg, seed=seed + 1),
                        theta_max=b.theta_max)
    x_hat, _ = best_arm(core.induced(fit.net))

    _, y_star = problem.optimum()
    f_commit = core.forward(problem.theta_star, x_hat)
    n_commit = T - m_eff
    noise_commit = (
        rng.uniform(-problem.xi_max, problem.xi_max, size=n_commit)
        if problem.xi_max > 0 else np.zeros(n_commit)
    )

    actions = np.vstack([actions_explore, np.tile(x_hat, (n_commit, 1))]) if n_commit else actions_explore
    rewards = np.concatenate([rewards_explore, f_commit + noise_commit])
    inst_regret = np.concatenate([
        y_star - f_explore,
        np.full(n_commit, y_star - f_commit),
    ])
    return BanditTrace(
        m=m_eff,
        m_raw=float(m_raw),
        m_clamped=bool(m_clamped),
        actions=actions,
        rewards=rewards,
        inst_regret=inst_regret,
        fit=fit,
        committed_arm=x_hat,
    )


@dataclass(frozen=True)
class SmoothBestArmVerdict:
    assumption_ok: bool
    frob_diff: float
    vector_gap: float
    vector_bound: float
    vector_ok: bool | None
    projector_gap: float
    projector_bound: float
    projector_ok: bool | None

    @property
    def holds(self) -> bool | None:
        if not self.assumption_ok:
            return None
        return bool(self.vector_ok and self.projector_ok)


def smooth_best_arm_check(
    phi: core.InducedForm, phi_star: core.InducedForm, M: float
) -> SmoothBestArmVerdict:
    """Verify stability of the best arm under perturbation of the induced form.

    Checks ||x_hat - x*|| <= M ||phi - phi*||_F and the rank-one projector
    version with constant 2M, after aligning signs so <x_hat, x*> >= 0.
    Reports an assumption breach (verdict None) when the eigengap of phi_star
    falls below 4/M instead of judging the inequality.
    """
    w = np.linalg.eigvalsh(phi_star.phi)
    frob = float(np.linalg.norm(phi.phi - phi_star.phi))
    if float(w[-1] - w[-2]) < 4.0 / M - 1e-12:
        return SmoothBestArmVerdict(
            assumption_ok=False, frob_diff=frob,
            vector_gap=math.nan, vector_bound=math.nan, vector_ok=None,
            projector_gap=math.nan, projector_bound=math.nan, projector_ok=None,
        )
    x_hat, _ = best_arm(phi)
    x_star, _ = best_arm(phi_star)
    if float(x_hat @ x_star) < 0.0:
        x_hat = -x_hat
    vec_gap = float(np.linalg.norm(x_hat - x_star))
    proj_gap = float(np.linalg.norm(np.outer(x_hat, x_hat) - np.outer(x_star, x_star)))
    vec_bound = M * frob
    proj_bound = 2.0 * M * frob
    tol = 1e-12
    return SmoothBestArmVerdict(
        assumption_ok=True,
        frob_diff=frob,
        vector_gap=vec_gap,
        vector_bound=vec_bound,
        vector_ok=vec_gap <= vec_bound + tol,
        projector_gap=proj_gap,
        projector_bound=proj_bound,
        projector_ok=proj_gap <= proj_bound + tol,
    )


def regret_bound_constants(
    d: int, M: float, ell_max: float, phi_max: float, lipschitz: float
) -> tuple[float, float]:
    """Closed-form constants (C0, C1) of the horizon-independent regret bound
    R(T) <= C0 + C1 T^(2/3) log(3 + 8 phi K T / l^2)^(1/3), evaluated in log space."""
    if d < 2:
        raise RejectedInput("need d >= 2")
    if min(M, ell_max, phi_max, lipschitz) <= 0:
        raise RejectedInput("constants must be positive")
    e1 = (2.0 * d * d + 2.0) / (2.0 * d * d - 1.0)
    e2 = (3.0 * d * d) / (2.0 * d * d - 1.0)
    log_c0 = (
        e1 * math.log(phi_max)
        - math.log(4.0)
        - e1 * math.log(15.0 * M * ell_max**2 * d ** 1.4)
        - e2 * math.log(8.0 * phi_max * lipschitz / ell_max**2)
    )
    log_c1 = (
        (4.0 / 3.0) * math.log(16.0)
        + (14.0 / 15.0) * math.log(d)
        + (1.0 / 3.0) * math.log(M**2 * ell_max**4 * phi_max)
    )
    return math.exp(log_c0), math.exp(log_c1)


def regret_bound(problem: BanditProblem, T: int) -> float:
    """Evaluate C0 + C1 T^(2/3) log(...)^(1/3) for the problem's constants."""
    b = problem.bounds()
    ell = core.function_gap_bound(b)
    K = core.lipschitz_constant(b)
    c0, c1 = regret_bound_constants(problem.d, problem.M, ell, b.phi_max, K)
    return c0 + c1 * T ** (2.0 / 3.0) * math.log(3.0 + 8.0 * b.phi_max * K * T / ell**2) ** (1.0 / 3.0)


def fit_loglog_slope(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """OLS fit of log y on log x; returns (slope, intercept, slope stderr)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = lx.size
    A = np.stack([lx, np.ones(n)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - A @ coef
    if n > 2:
        s2 = float(resid @ resid) / (n - 2)
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    else:
        stderr = math.inf
    return slope, intercept, stderr


def regret_slope(
    make_problem,
    T_grid: list[int],
    replicates: int,
    seeds: list[int],
    cfg: core.TrainConfig,
) -> dict:
    """Mean cumulative regret per horizon and the log-log scaling exponent.

    make_problem maps a horizon T to a BanditProblem. seeds supplies one base
    seed per replicate. A family whose regret is identically (near) zero is
    reported as degenerate instead of fitted.
    """
    if len(T_grid) < 3:
        raise RejectedInput("need at least 3 horizons")
    if len(seeds) < replicates:
        raise RejectedInput("need one seed per replicate")
    rows = []
    means = []
    for T in sorted(T_grid):
        finals = []
        for r in range(replicates):
            problem = make_problem(T)
            if problem.optimum()[1] <= 1e-15:
                return {"degenerate": True, "reason": "zero reward net", "rows": []}
            trace = run_etc(problem, cfg, seeds[r])
            final = float(trace.cumulative_regret()[-1])
            finals.append(final)
            rows.append({"T": int(T), "replicate": int(r), "cum_regret_final": final})
        means.append(float(np.mean(finals)))
    if min(means) <= 0.0:
        return {"degenerate": True, "reason": "non-positive mean regret", "rows": rows}
    slope, intercept, stderr = fit_loglog_slope(np.array(sorted(T_grid), dtype=float), np.array(means))
    return {
        "degenerate": False,
        "rows": rows,
        "mean_regret": {str(T): m for T, m in zip(sorted(T_grid), means)},
        "slope": slope,
        "intercept": intercept,
        "stderr": stderr,
    }
