import math
import warnings

import numpy as np
import pytest

from conftest import random_orthogonal
from qni_lab import identify, qnn_core as core, transfer
from qni_lab.errors import AssumptionViolated, RejectedInput

# frozen by an independent re-derivation of the two radius formulas
FROZEN_EPS_P = 0.4674880055322832  # n_p=5e4, d=3, delta=0.1, ell=1.5, xi=0.05, phi=1, K=2.25
FROZEN_EPS_G = 92.24534749129181  # n_g=50, d=3, delta=0.1, Bhat=2, ell=1.5, xi=0.05, phi=1, K=2.25


def bounds_for(x_max=math.sqrt(3) / 2, phi_max=1.0, xi_max=0.05):
    return core.BoundSpec(x_max=x_max, theta_max=math.sqrt(phi_max), phi_max=phi_max, xi_max=xi_max)


def source_net(d, k, sigma0, rng, spread=2.0):
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    sing = rng.uniform(sigma0 * 1.2, sigma0 * spread, size=d)
    return core.QuadNet(u @ np.diag(sing) @ v[:, :d].T)


# ---------------------------------------------------------------------------
# radii


def test_proxy_epsilon_frozen_value():
    # bound constants chosen so ell = 1.5 and K = 2.25 at x_max = sqrt(3)/2
    b = bounds_for()
    assert core.function_gap_bound(b) == pytest.approx(1.5)
    assert core.lipschitz_constant(b) == pytest.approx(2.25)
    assert transfer.proxy_epsilon(5 * 10**4, 3, 0.1, b) == pytest.approx(FROZEN_EPS_P, rel=1e-12)


def test_proxy_epsilon_equals_half_delta_base_radius():
    b = bounds_for()
    assert transfer.proxy_epsilon(1000, 2, 0.2, b) == identify.epsilon_bound(1000, 2, 0.1, b).epsilon


def test_proxy_epsilon_quarter_n_law():
    b = bounds_for()
    r = transfer.proxy_epsilon(4 * 10**7, 3, 0.1, b) / transfer.proxy_epsilon(10**7, 3, 0.1, b)
    assert abs(r - 0.5) < 0.05


def test_gold_epsilon_frozen_value():
    b = bounds_for()
    assert transfer.gold_epsilon(50, 3, 0.1, 2.0, b) == pytest.approx(FROZEN_EPS_G, rel=1e-12)


def test_gold_epsilon_monotonicity():
    b = bounds_for()
    in_n = [transfer.gold_epsilon(n, 3, 0.1, 1.0, b) for n in (10, 100, 1000, 10**5)]
    assert all(a > c for a, c in zip(in_n, in_n[1:]))
    in_b = [transfer.gold_epsilon(100, 3, 0.1, bh, b) for bh in (0.1, 0.5, 2.0, 8.0)]
    assert all(a < c for a, c in zip(in_b, in_b[1:]))


def test_expanded_radius_values_and_monotonicity():
    assert transfer.expanded_radius(0.3, 0.0, 1.0, 1.0) == pytest.approx(0.3)
    assert transfer.expanded_radius(0.0, 1.0, 2.0, 1.0) == pytest.approx(1.0)
    grid_eps = [transfer.expanded_radius(0.1, e, 0.5, 0.5) for e in (0.0, 0.1, 1.0, 5.0)]
    assert all(a < b for a, b in zip(grid_eps, grid_eps[1:]))
    grid_sig = [transfer.expanded_radius(0.1, 1.0, 0.5, s) for s in (2.0, 1.0, 0.5, 0.1)]
    assert all(a < b for a, b in zip(grid_sig, grid_sig[1:]))
    with pytest.raises(RejectedInput):
        transfer.expanded_radius(0.1, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# sigma_min


def test_sigma_min_identity_padded():
    theta = np.hstack([np.eye(2), np.zeros((2, 1))])
    assert transfer.sigma_min(core.QuadNet(theta)) == pytest.approx(1.0)


def test_sigma_min_rank_deficient():
    # two proportional rows collapse the second singular value
    theta = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]])
    assert transfer.sigma_min(core.QuadNet(theta)) <= 1e-10


def test_sigma_min_cross_check_with_eigenvalues():
    rng = np.random.default_rng(0)
    for _ in range(20):
        net = core.random_net(3, 6, rng)
        smin = transfer.sigma_min(net)
        lam_min = float(np.linalg.eigvalsh(net.theta @ net.theta.T).min())
        assert smin**2 == pytest.approx(lam_min, abs=1e-9)


def test_sigma_min_rejects_tall():
    with pytest.raises(RejectedInput):
        transfer.sigma_min(core.QuadNet(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# alignment


def test_align_exact_under_orthogonal_reparameterization():
    rng = np.random.default_rng(1)
    for _ in range(10):
        theta = source_net(3, 5, 0.3, rng)
        q = random_orthogonal(5, rng)
        rotated = core.QuadNet(theta.theta @ q)
        res = transfer.align(theta, rotated, sigma0=0.3)
        assert res.aligned_gap <= 1e-9


def test_align_random_perturbation_bound():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        theta_p = source_net(3, 5, 0.25, rng)
        theta = core.QuadNet(theta_p.theta + 0.01 * rng.standard_normal((3, 5)))
        smin = transfer.sigma_min(theta_p)
        res = transfer.align(theta, theta_p, sigma0=0.2)
        bound = identify.frobenius_gap(theta, theta_p) / smin
        assert res.aligned_gap <= bound + 1e-10
        k = theta.k
        assert np.linalg.norm(res.R @ res.R.T - np.eye(k)) <= 1e-10
        assert np.linalg.norm(res.R.T @ res.R - np.eye(k)) <= 1e-10
        assert np.linalg.norm(res.R_prime @ res.R_prime.T - np.eye(k)) <= 1e-10


def test_align_scalar_sign_case():
    res = transfer.align(core.QuadNet(np.array([[2.0]])), core.QuadNet(np.array([[-2.0]])), sigma0=1.0)
    assert res.aligned_gap <= 1e-12
    assert res.R.shape == (1, 1) and res.R_prime.shape == (1, 1)
    assert abs(abs(res.R[0, 0]) - 1.0) <= 1e-12


def assert_rotates_to_sqrt_phi(theta: np.ndarray, r: np.ndarray):
    """R is orthogonal and theta R = [phi^(1/2) | 0]: the leading block is
    symmetric PSD and squares to phi = theta theta^T."""
    d, k = theta.shape
    assert np.linalg.norm(r.T @ r - np.eye(k)) <= 1e-10
    assert np.linalg.norm(r @ r.T - np.eye(k)) <= 1e-10
    rotated = theta @ r
    root = rotated[:, :d]
    assert np.linalg.norm(rotated[:, d:]) <= 1e-10
    assert np.linalg.norm(root - root.T) <= 1e-10
    assert np.linalg.eigvalsh(root).min() >= -1e-10
    assert np.linalg.norm(root @ root - theta @ theta.T) <= 1e-10


@pytest.mark.parametrize("shape", [(2, 4), (3, 3), (4, 7)])
def test_align_rotation_is_orthogonal_and_gives_sqrt_phi(shape):
    d, k = shape
    rng = np.random.default_rng(d * 10 + k)
    theta = core.QuadNet(rng.standard_normal(shape))
    theta_p = source_net(d, k, 0.3, rng)
    res = transfer.align(theta, theta_p, sigma0=0.3)
    assert_rotates_to_sqrt_phi(theta.theta, res.R)
    assert_rotates_to_sqrt_phi(theta_p.theta, res.R_prime)
    lead = (theta.theta @ res.R - theta_p.theta @ res.R_prime)[:, :d]
    assert res.aligned_gap == pytest.approx(np.linalg.norm(lead), abs=1e-12)


def test_align_rank_deficient_first_argument():
    theta = core.QuadNet(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))  # rank 1, d=2, k=3
    theta_p = source_net(2, 3, 0.3, np.random.default_rng(5))
    res = transfer.align(theta, theta_p, sigma0=0.3)
    assert_rotates_to_sqrt_phi(theta.theta, res.R)
    assert_rotates_to_sqrt_phi(theta_p.theta, res.R_prime)


def test_align_rejects_tall():
    with pytest.raises(RejectedInput):
        transfer.align(core.QuadNet(np.ones((3, 2))), core.QuadNet(np.ones((3, 2))), sigma0=0.1)


def test_align_warns_below_sigma0_and_rejects_rank_deficiency():
    rng = np.random.default_rng(3)
    theta = source_net(2, 4, 0.1, rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transfer.align(theta, theta, sigma0=10.0)
    assert any("sigma0" in str(w.message) for w in caught)
    flat = core.QuadNet(np.vstack([np.ones((1, 4)), np.ones((1, 4))]))
    with pytest.raises(AssumptionViolated):
        transfer.align(theta, flat, sigma0=0.1)


# ---------------------------------------------------------------------------
# full pipeline


def make_transfer_problem(rng, d=3, k=5, B=0.1, n_p=4000, n_g=30, sigma0=0.25,
                          xi_max=0.0, noise_kind="zero"):
    theta_p = source_net(d, k, sigma0, rng)
    shift = rng.standard_normal((d, k))
    shift *= B / np.linalg.norm(shift)
    theta_g = core.QuadNet(theta_p.theta + shift)
    sampler = core.CovariateSampler.uniform_cube(d)
    return transfer.TransferProblem(
        theta_p_star=theta_p, theta_g_star=theta_g, B=B, n_p=n_p, n_g=n_g,
        sampler_p=sampler, sampler_q=sampler, sigma0=sigma0,
        xi_max=xi_max, noise_kind=noise_kind,
    )


def test_transfer_problem_validates_shift_and_rank():
    rng = np.random.default_rng(7)
    theta_p = source_net(2, 3, 0.3, rng)
    theta_g = core.QuadNet(theta_p.theta + 1.0)
    with pytest.raises(RejectedInput):
        transfer.TransferProblem(theta_p, theta_g, B=0.01, n_p=10, n_g=5,
                                 sampler_p=core.CovariateSampler.uniform_cube(2),
                                 sampler_q=core.CovariateSampler.uniform_cube(2), sigma0=0.3)


def test_run_transfer_degenerate_shift():
    rng = np.random.default_rng(8)
    problem = make_transfer_problem(rng, B=1e-12, n_p=3000, n_g=20)
    # B = 0 up to float noise: gold equals proxy and the gold stage cannot hurt
    cfg = core.TrainConfig(learning_rate=0.15, max_iters=2500, grad_tol=1e-9)
    report = transfer.run_transfer(problem, 0.1, cfg, seed=9)
    assert report["gold_sup_gap"] <= report["proxy_sup_gap"] + 1e-6
    assert report["holds"] == 1


def test_run_transfer_report_schema_and_certified_dominance():
    rng = np.random.default_rng(9)
    problem = make_transfer_problem(rng, n_p=3000, n_g=25, xi_max=0.05, noise_kind="uniform")
    cfg = core.TrainConfig(learning_rate=0.15, max_iters=2000, grad_tol=1e-8)
    report = transfer.run_transfer(problem, 0.1, cfg, seed=10)
    assert set(report) == {"n_p", "n_g", "B", "B_hat", "eps_p", "eps_g", "proxy_sup_gap",
                           "gold_sup_gap", "certified", "holds", "seed", "proxy_fit", "gold_fit"}
    for fit in (report["proxy_fit"], report["gold_fit"]):
        assert set(fit) == {"iterations", "converged", "final_loss", "grad_norm"}
    assert report["holds"] == 1
    assert report["B_hat"] >= report["B"]


def test_two_stage_beats_gold_only_when_underdetermined():
    # gold sample too small to pin down the induced form: the proxy-anchored
    # fit stays near the truth while a cold fit lands on a far interpolant
    rng = np.random.default_rng(10)
    d, k, n_g = 8, 10, 20  # 36 induced-form dofs > 20 samples
    problem = make_transfer_problem(rng, d=d, k=k, B=0.1, n_p=6000, n_g=n_g, sigma0=0.2)
    cfg = core.TrainConfig(learning_rate=0.1, max_iters=2500, grad_tol=1e-8)
    wins = 0
    trials = 5
    for seed in range(trials):
        report = transfer.run_transfer(problem, 0.1, cfg, seed=seed)
        data_g = core.generate_dataset(problem.theta_g_star, problem.sampler_q,
                                       problem.xi_max, problem.noise_kind, n_g, seed + 2)
        cold = core.train_gd(data_g, d, k, core.TrainConfig(
            learning_rate=0.1, max_iters=2500, grad_tol=1e-8, seed=seed + 3))
        b = problem.bounds()
        cold_gap = identify.sup_function_gap(cold.net, problem.theta_g_star, b.x_max).sup_gap_sq
        if report["gold_sup_gap"] < cold_gap:
            wins += 1
    assert wins >= 4
