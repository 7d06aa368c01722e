import math

import numpy as np
import pytest

from conftest import random_symmetric
from qni_lab import bandit, qnn_core as core
from qni_lab.errors import AssumptionViolated, RejectedInput

# frozen by an independent re-derivation of the length formula before the build
FROZEN_M_RAW = 379199.03881319496  # T=1e5, d=2, M=1, ell=2, phi=1, K=4
FROZEN_C0 = 5.099289655597022e-06  # d=2, M=1, ell=2, phi=1, K=4
FROZEN_C1 = 194.01172051333094  # d=2, M=1, ell=2, phi=1 -> 16^(4/3) 2^(14/15) 16^(1/3)


def make_problem(T=2000, spectrum=(1.0, 0.3, 0.1), k=5, xi_max=0.0, m_scale=1.0, seed=0):
    d = len(spectrum)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    theta = np.zeros((d, k))
    theta[:, :d] = q @ np.diag(np.sqrt(np.asarray(spectrum, dtype=float)))
    return bandit.BanditProblem(core.QuadNet(theta), xi_max=xi_max, T=T, m_scale=m_scale)


# ---------------------------------------------------------------------------
# exploration length


def test_exploration_length_frozen_formula_value():
    raw = bandit.exploration_length_raw(10**5, 2, 1.0, 2.0, 1.0, 4.0)
    assert raw == pytest.approx(FROZEN_M_RAW, rel=1e-12)


def test_exploration_length_follows_t_two_thirds():
    m1 = bandit.exploration_length_raw(10**9, 2, 1.0, 2.0, 1.0, 4.0, scale=1e-3)
    m8 = bandit.exploration_length_raw(8 * 10**9, 2, 1.0, 2.0, 1.0, 4.0, scale=1e-3)
    assert 4 - 0.5 < m8 / m1 < 4 + 0.5


def test_exploration_length_clamps_to_horizon():
    cfg = core.TrainConfig(max_iters=5)
    # at m_scale 1 the raw length of this horizon exceeds it: pure exploration
    clamped = bandit.run_etc(make_problem(T=10), cfg, seed=0)
    assert clamped.m_raw > 10 and clamped.m == 10 and clamped.m_clamped
    free = bandit.run_etc(make_problem(T=800, m_scale=1e-4), cfg, seed=0)
    assert free.m == math.ceil(free.m_raw) < 800 and not free.m_clamped


# ---------------------------------------------------------------------------
# exploration distribution


def test_exploration_action_support():
    problem = make_problem(T=200, spectrum=(1.0, 0.5, 0.3, 0.1))
    trace = bandit.run_etc(problem, core.TrainConfig(max_iters=5), seed=0, m=200)
    X = trace.actions[:trace.m]
    assert X.shape == (200, 4)
    assert np.all(np.abs(X) <= 0.5 + 1e-15)
    assert np.all(np.linalg.norm(X, axis=1) <= 1.0 + 1e-15)


def test_exploration_action_moments():
    d, n = 3, 100_000
    trace = bandit.run_etc(make_problem(T=n), core.TrainConfig(max_iters=1), seed=1, m=n)
    X = trace.actions[:trace.m]
    var = 1.0 / (3.0 * d)
    sigma_mean = math.sqrt(var / n)
    assert np.all(np.abs(X.mean(axis=0)) <= 4 * sigma_mean)
    assert np.all(np.abs(X.var(axis=0) - var) <= 0.05 * var)


# ---------------------------------------------------------------------------
# best arm and eigengap


def test_best_arm_diagonal():
    arm, value = bandit.best_arm(core.InducedForm(np.diag([2.0, 1.0])))
    assert np.allclose(arm, [1.0, 0.0])
    assert value == pytest.approx(2.0)


def test_best_arm_degenerate_spectrum_is_deterministic():
    arm1, v1 = bandit.best_arm(core.InducedForm(np.eye(3)))
    arm2, v2 = bandit.best_arm(core.InducedForm(np.eye(3)))
    assert np.array_equal(arm1, arm2)
    assert v1 == pytest.approx(1.0)
    assert np.linalg.norm(arm1) == pytest.approx(1.0)


def test_best_arm_dominates_random_search():
    rng = np.random.default_rng(2)
    net = core.random_net(5, 8, rng)
    phi = core.induced(net)
    arm, value = bandit.best_arm(phi)
    X = rng.standard_normal((100_000, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    search = float(np.einsum("ni,ij,nj->n", X, phi.phi, X).max())
    assert value >= search - 1e-12
    assert value == pytest.approx(float(arm @ phi.phi @ arm), rel=1e-12)


def test_eigengap_constant_values():
    assert bandit.eigengap_constant(core.InducedForm(np.diag([3.0, 1.0]))) == pytest.approx(2.0)
    with pytest.raises(AssumptionViolated):
        bandit.eigengap_constant(core.InducedForm(np.diag([1.0, 1.0])))


def test_eigengap_consistent_with_reference_eigensolver():
    rng = np.random.default_rng(3)
    net = core.random_net(4, 8, rng)
    phi = core.induced(net)
    w = np.sort(np.linalg.eigvalsh(phi.phi))[::-1]
    assert bandit.eigengap_constant(phi) == pytest.approx(4.0 / (w[0] - w[1]), rel=1e-9)


def test_problem_validates_stated_eigengap():
    theta_star = make_problem(T=100, spectrum=(1.0, 0.3, 0.1)).theta_star
    with pytest.raises(AssumptionViolated):
        # gap is 0.7, but M = 1 demands a gap of at least 4
        bandit.BanditProblem(theta_star, 0.0, 100, M=1.0)


# ---------------------------------------------------------------------------
# running the algorithm


def test_run_etc_noiseless_commits_near_optimum():
    problem = make_problem(T=2000, xi_max=0.0)
    cfg = core.TrainConfig(learning_rate=0.15, max_iters=2500, grad_tol=1e-9)
    trace = bandit.run_etc(problem, cfg, seed=5, m=1000)
    x_star, _ = problem.optimum()
    proj_gap = np.linalg.norm(np.outer(trace.committed_arm, trace.committed_arm) - np.outer(x_star, x_star))
    assert proj_gap <= 0.1
    assert trace.T == 2000
    assert trace.m == 1000


def test_run_etc_pure_exploration_accounting():
    problem = make_problem(T=300, xi_max=0.05)
    cfg = core.TrainConfig(learning_rate=0.15, max_iters=1500, grad_tol=1e-8)
    trace = bandit.run_etc(problem, cfg, seed=6, m=300)
    _, y_star = problem.optimum()
    recomputed = y_star - core.forward_batch(problem.theta_star, trace.actions)
    assert np.allclose(trace.inst_regret, recomputed, atol=1e-12)


def test_run_etc_deterministic():
    problem = make_problem(T=500, xi_max=0.05)
    cfg = core.TrainConfig(learning_rate=0.15, max_iters=1500, grad_tol=1e-8)
    a = bandit.run_etc(problem, cfg, seed=7)
    b = bandit.run_etc(problem, cfg, seed=7)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.inst_regret, b.inst_regret)


def test_run_etc_regret_nonnegative_and_commit_constant():
    problem = make_problem(T=800, xi_max=0.02, m_scale=1e-4)
    cfg = core.TrainConfig(learning_rate=0.15, max_iters=2000, grad_tol=1e-8)
    trace = bandit.run_etc(problem, cfg, seed=8)
    assert trace.inst_regret.min() >= -1e-9
    commit = trace.inst_regret[trace.m:]
    assert commit.size > 0
    assert np.ptp(commit) <= 1e-12
    cum = trace.cumulative_regret()
    assert np.all(np.diff(cum) >= -1e-12)


# ---------------------------------------------------------------------------
# smooth best arm


def test_smooth_best_arm_identity_case():
    phi = core.InducedForm(np.diag([3.0, 1.0]))
    M = 2.0
    verdict = bandit.smooth_best_arm_check(phi, phi, M)
    assert verdict.holds is True
    assert verdict.vector_gap == 0.0
    assert verdict.projector_gap == 0.0


def test_smooth_best_arm_random_perturbations():
    rng = np.random.default_rng(9)
    phi_star = core.InducedForm(np.diag([3.0, 1.0]))
    M = bandit.eigengap_constant(phi_star)
    for _ in range(1000):
        e = random_symmetric(2, rng, 1.0)
        phi = core.InducedForm(phi_star.phi + 0.01 * e)
        verdict = bandit.smooth_best_arm_check(phi, phi_star, M)
        assert verdict.holds is True


def test_smooth_best_arm_reports_assumption_breach():
    # shrink the base gap until it violates 4/M
    M = 2.0
    collapsed = core.InducedForm(np.diag([1.5, 1.0]))  # gap 0.5 < 4/M = 2
    verdict = bandit.smooth_best_arm_check(collapsed, collapsed, M)
    assert verdict.assumption_ok is False
    assert verdict.holds is None


# ---------------------------------------------------------------------------
# regret bound constants


def test_regret_bound_constants_frozen():
    c0, c1 = bandit.regret_bound_constants(2, 1.0, 2.0, 1.0, 4.0)
    assert c0 == pytest.approx(FROZEN_C0, rel=1e-10)
    assert c1 == pytest.approx(FROZEN_C1, rel=1e-10)
    assert c1 == pytest.approx(16 ** (4 / 3) * 2 ** (14 / 15) * 16 ** (1 / 3), rel=1e-12)


def test_regret_bound_constants_positive_on_grid():
    for d in (2, 3, 5):
        for M in (0.5, 2.0, 20.0):
            for ell in (0.5, 2.0):
                for phi in (0.5, 1.0, 4.0):
                    c0, c1 = bandit.regret_bound_constants(d, M, ell, phi, 4 * phi)
                    assert c0 > 0 and c1 > 0
                    assert math.isfinite(c0) and math.isfinite(c1)


def test_regret_bound_constants_reject_bad_inputs():
    with pytest.raises(RejectedInput):
        bandit.regret_bound_constants(1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(RejectedInput):
        bandit.regret_bound_constants(2, -1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# slope experiment


def test_regret_slope_degenerate_zero_net():
    def make(T):
        theta = np.zeros((2, 3))
        theta[0, 0] = 1e-30  # nonzero so the net is constructible; reward is ~0
        return bandit.BanditProblem(core.QuadNet(theta), xi_max=0.0, T=T, M=1e40)

    cfg = core.TrainConfig(learning_rate=0.1, max_iters=50, grad_tol=1e-6)
    out = bandit.regret_slope(make, [100, 200, 400], replicates=1, seeds=[0], cfg=cfg)
    assert out["degenerate"] is True


def test_regret_slope_small_simulation():
    def make(T):
        return make_problem(T=T, xi_max=0.02, m_scale=2e-4)

    cfg = core.TrainConfig(learning_rate=0.12, max_iters=1500, grad_tol=1e-7)
    out = bandit.regret_slope(make, [1000, 2000, 4000, 8000], replicates=3, seeds=[0, 1, 2], cfg=cfg)
    assert out["degenerate"] is False
    assert 0.3 < out["slope"] < 1.1
    assert len(out["rows"]) == 12


def test_regret_slope_clt_selfconsistency():
    # doubling replicates roughly halves the standard error of the mean
    def make(T):
        return make_problem(T=T, xi_max=0.1, m_scale=2e-4)

    cfg = core.TrainConfig(learning_rate=0.12, max_iters=800, grad_tol=1e-7)
    T = 1500
    finals = []
    for seed in range(80):
        trace = bandit.run_etc(make(T), cfg, seed)
        finals.append(float(trace.cumulative_regret()[-1]))
    finals = np.array(finals)
    se_small = float(np.std(finals[:40], ddof=1)) / math.sqrt(40)
    se_big = float(np.std(finals, ddof=1)) / math.sqrt(80)
    ratio = se_big / se_small
    target = 1.0 / math.sqrt(2.0)
    assert abs(ratio - target) <= 0.3 * target
