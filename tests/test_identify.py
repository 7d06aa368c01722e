import math

import numpy as np
import pytest

from conftest import point_mass, power_iteration_extreme, random_orthogonal
from qni_lab import identify, qnn_core as core
from qni_lab.errors import RejectedInput

# frozen by an independent re-derivation of the radius formula (plain math,
# no package imports) before the implementation existed
FROZEN_EPSILON = 1.1860961363745584  # n=1e4, d=2, delta=0.05, ell=2, xi=0, phi=1, K=4


def _bounds(x_max=1.0, phi_max=1.0, xi_max=0.0):
    return core.BoundSpec(x_max=x_max, theta_max=math.sqrt(phi_max), phi_max=phi_max, xi_max=xi_max)


# ---------------------------------------------------------------------------
# epsilon bound


def test_epsilon_bound_frozen_reference_value():
    # ell = 2 x_max^2 phi_max = 2 and K = 4 phi_max x_max^4 = 4 at x_max = phi_max = 1
    bound = identify.epsilon_bound(10**4, 2, 0.05, _bounds())
    assert bound.ell_max == pytest.approx(2.0)
    assert bound.lipschitz == pytest.approx(4.0)
    assert bound.epsilon == pytest.approx(FROZEN_EPSILON, rel=1e-12)


def test_epsilon_bound_root_n_shrinkage():
    b = _bounds()
    # with the log term effectively frozen at large n, doubling n shrinks eps by ~1/sqrt(2)
    e1 = identify.epsilon_bound(10**7, 3, 0.05, b).epsilon
    e2 = identify.epsilon_bound(2 * 10**7, 3, 0.05, b).epsilon
    ratio = e2 / e1
    assert 1 / math.sqrt(2) - 0.05 < ratio < 1 / math.sqrt(2) + 0.05


def test_epsilon_bound_monotone_in_delta():
    b = _bounds()
    eps_small_delta = identify.epsilon_bound(1000, 2, 0.01, b).epsilon
    eps_big_delta = identify.epsilon_bound(1000, 2, 0.99, b).epsilon
    assert eps_big_delta < eps_small_delta


def test_epsilon_bound_monotone_in_n_and_d():
    b = _bounds(xi_max=0.1)
    eps = [identify.epsilon_bound(n, 3, 0.1, b).epsilon for n in (10, 100, 10**4, 10**6, 10**8)]
    assert all(a > b_ for a, b_ in zip(eps, eps[1:]))
    eps_d = [identify.epsilon_bound(10**4, d, 0.1, b).epsilon for d in (1, 2, 4, 8)]
    assert all(a < b_ for a, b_ in zip(eps_d, eps_d[1:]))


def test_epsilon_bound_vanishes_asymptotically():
    b = _bounds(xi_max=0.1)
    assert identify.epsilon_bound(10**8, 3, 0.1, b).epsilon < identify.epsilon_bound(10**4, 3, 0.1, b).epsilon / 50


def test_epsilon_bound_rejects_bad_delta():
    for delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(RejectedInput):
            identify.epsilon_bound(100, 2, delta, _bounds())


# ---------------------------------------------------------------------------
# sup function gap


def test_sup_gap_diagonal_example():
    a = core.InducedForm(np.diag([1.0, 0.0]))
    b = core.InducedForm(np.diag([0.0, 1.0]))
    rep = identify.sup_function_gap(a, b, 1.0)
    assert rep.sup_gap_sq == pytest.approx(1.0, abs=1e-12)
    # witness is +-e1 or +-e2; grid-search oracle over the unit circle agrees
    angles = np.linspace(0, 2 * math.pi, 3601)
    delta = a.phi - b.phi
    grid = max(
        abs(math.cos(t) ** 2 * delta[0, 0] + math.sin(t) ** 2 * delta[1, 1]) for t in angles
    )
    assert rep.sup_gap_sq == pytest.approx(grid**2, abs=1e-4)
    w = rep.witness_x
    assert abs(float(w @ delta @ w)) == pytest.approx(1.0, abs=1e-12)


def test_sup_gap_zero_for_equal_inputs():
    rng = np.random.default_rng(0)
    net = core.random_net(3, 4, rng)
    rep = identify.sup_function_gap(net, net, 2.0)
    assert rep.sup_gap_sq == 0.0
    assert rep.frob_gap == 0.0


def test_sup_gap_dominates_random_search_and_matches_power_iteration():
    rng = np.random.default_rng(1)
    a = core.random_net(4, 6, rng)
    b = core.random_net(4, 6, rng)
    rep = identify.sup_function_gap(a, b, 1.0)
    delta = core.induced(a).phi - core.induced(b).phi
    X = rng.standard_normal((100_000, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    search = float(np.abs(np.einsum("ni,ij,nj->n", X, delta, X)).max())
    assert rep.sup_gap_sq >= search**2 - 1e-12
    oracle = power_iteration_extreme(delta)
    assert rep.sup_gap_sq == pytest.approx(oracle**2, rel=1e-9)
    assert rep.sup_gap_sq <= oracle**2 + 1e-3


def test_sup_gap_witness_attains_sup():
    rng = np.random.default_rng(2)
    for x_max in (0.5, 1.0, 2.0):
        a = core.random_net(3, 5, rng)
        b = core.random_net(3, 5, rng)
        rep = identify.sup_function_gap(a, b, x_max)
        gap_at_witness = (core.forward(a, rep.witness_x) - core.forward(b, rep.witness_x)) ** 2
        assert gap_at_witness == pytest.approx(rep.sup_gap_sq, rel=1e-9)
        assert np.linalg.norm(rep.witness_x) == pytest.approx(x_max, rel=1e-12)


def test_sup_gap_consistent_with_lipschitz_route():
    # sup |f1 - f2| <= x_max^2 * frobenius gap
    rng = np.random.default_rng(3)
    a = core.random_net(3, 4, rng)
    b = core.random_net(3, 4, rng)
    rep = identify.sup_function_gap(a, b, 1.5)
    assert math.sqrt(rep.sup_gap_sq) <= 1.5**2 * rep.frob_gap + 1e-12


def test_sup_gap_rejects_dimension_mismatch():
    with pytest.raises(RejectedInput):
        identify.sup_function_gap(core.QuadNet(np.ones((2, 2))), core.QuadNet(np.ones((3, 2))), 1.0)


# ---------------------------------------------------------------------------
# frobenius gap


def test_frobenius_gap_zero_under_reparameterization():
    rng = np.random.default_rng(4)
    net = core.random_net(3, 6, rng)
    rotated = core.QuadNet(net.theta @ random_orthogonal(6, rng))
    assert identify.frobenius_gap(net, rotated) <= 1e-12


def test_frobenius_gap_identity_vs_zero():
    a = core.InducedForm(np.eye(2))
    b = core.InducedForm(np.zeros((2, 2)))
    assert identify.frobenius_gap(a, b) == pytest.approx(math.sqrt(2.0))


def test_frobenius_gap_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b, c = (core.random_net(3, 4, rng) for _ in range(3))
        assert identify.frobenius_gap(a, c) <= (
            identify.frobenius_gap(a, b) + identify.frobenius_gap(b, c) + 1e-12
        )


# ---------------------------------------------------------------------------
# identification check and the experiment driver


def test_identification_check_trivial_equality():
    rng = np.random.default_rng(7)
    net = core.random_net(2, 3, rng)
    bound = identify.epsilon_bound(100, 2, 0.1, _bounds())
    verdict = identify.identification_check(net, net, bound, alpha=1.0 / 180.0, x_max=1.0)
    assert verdict.holds and verdict.frob_holds
    assert verdict.measured_sup_gap_sq == 0.0


def test_identification_pipeline_bound_dominates():
    d, k, n = 3, 6, 5000
    sampler = core.CovariateSampler.uniform_cube(d)
    rng = np.random.default_rng(8)
    truth = core.random_net(d, k, rng, 1.0)
    b = core.BoundSpec(x_max=sampler.x_max, theta_max=1.5, phi_max=1.5**2, xi_max=0.0)
    data = core.generate_dataset(truth, sampler, 0.0, "zero", n, 100)
    fit = core.train_gd(data, d, k, core.TrainConfig(learning_rate=0.15, max_iters=3000, grad_tol=1e-9, seed=9),
                        theta_max=b.theta_max)
    bound = identify.epsilon_bound(n, d, 0.1, b)
    verdict = identify.identification_check(truth, fit.net, bound, core.nominal_alpha(sampler), b.x_max)
    assert verdict.holds and verdict.frob_holds
    assert verdict.measured_sup_gap_sq < 1e-3


def test_strong_convexity_lower_bounds_population_loss():
    # exact population loss >= alpha * ||phi-phi*||_F^2 on the centered cube
    rng = np.random.default_rng(9)
    sampler = core.CovariateSampler.uniform_cube(3)
    alpha = core.exact_alpha(sampler)
    for _ in range(50):
        a = core.random_net(3, 5, rng, 1.0)
        b = core.random_net(3, 5, rng, 1.0)
        loss = core.population_loss_exact(a, b, sampler)
        gap = identify.frobenius_gap(a, b)
        assert loss >= alpha * gap**2 - 1e-12


def test_empirical_loss_concentration_replicates():
    # fixed net of parameter points: |L_p - L_hat - sigma(Z)| <= eps in >= 1-delta of replicates
    rng = np.random.default_rng(10)
    d, k, n, delta = 2, 3, 1000, 0.1
    sampler = core.CovariateSampler.uniform_cube(d)
    truth = core.random_net(d, k, rng, 1.0)
    nets = [core.random_net(d, k, rng, rng.uniform(0.2, 1.0)) for _ in range(100)]
    phis = np.stack([core.induced(m).phi for m in nets])
    exact_losses = np.array([core.population_loss_exact(m, truth, sampler) for m in nets])
    b = core.BoundSpec(x_max=sampler.x_max, theta_max=1.0, phi_max=1.0, xi_max=0.1)
    eps = identify.epsilon_bound(n, d, delta, b).epsilon
    failures = 0
    replicates = 100
    for rep in range(replicates):
        data_rng = np.random.default_rng(1000 + rep)
        X = sampler.sample(n, data_rng)
        xi = data_rng.uniform(-0.1, 0.1, size=n)
        y = core.forward_batch(truth, X) + xi
        sigma_z = float(np.mean(xi * xi))
        preds = np.einsum("ni,pij,nj->pn", X, phis, X)
        emp = np.mean((preds - y[None, :]) ** 2, axis=1)
        sup_dev = float(np.abs(exact_losses - emp + sigma_z).max())
        if sup_dev > eps:
            failures += 1
    assert failures <= delta * replicates


def test_exact_alpha_is_one_180th_on_the_default_cube_and_the_population_constant_elsewhere():
    # bit for bit the stated 1/180 on the half-width-1/2 cube, so the
    # defaults' certified bounds keep their bits
    assert core.exact_alpha(core.CovariateSampler.uniform_cube(3)) == 1.0 / 180.0
    # a 10-d cube of half-width 0.3 has no stated constant; its exact one is
    # 4 h^4 / 45, about half the random-direction Monte-Carlo estimate
    cube = core.CovariateSampler.uniform_cube(10, 0.3)
    assert core.exact_alpha(cube) == pytest.approx(4.0 * 0.3**4 / 45.0)
    assert core.exact_alpha(core.CovariateSampler.unit_sphere(4)) == pytest.approx(2.0 / 24.0)
    point = point_mass(np.array([0.5, 0.5]))
    assert core.exact_alpha(point) == pytest.approx(0.0, abs=1e-15)


def test_robust_shift_certifies_with_the_exact_curvature_on_the_scaled_cube():
    # the scaled cube's stated constant d^(-2/5)/15 is 4.3x its exact one,
    # 4/(45 d^2), at d = 3; dividing by the stated one made the bound too tight
    rng = np.random.default_rng(15)
    truth = core.random_net(3, 4, rng, 1.0)
    sampler = core.CovariateSampler.uniform_scaled(3)
    b = core.BoundSpec(x_max=sampler.x_max, theta_max=1.5, phi_max=2.25)
    rows, _ = identify.robust_shift_experiment(truth, sampler, sampler, n_grid=[200],
                                               cfg=core.TrainConfig(max_iters=5), seeds=[0], n_eval=10, bounds=b)
    eps = identify.epsilon_bound(200, 3, 0.1, b).epsilon
    assert rows[0]["certified_bound"] == pytest.approx(2.0 * core.lipschitz_constant(b) ** 2 * eps / (4.0 / 405.0))
    assert core.nominal_alpha(sampler) / core.exact_alpha(sampler) == pytest.approx(4.35, abs=0.01)


def test_robust_shift_experiment_no_shift_matches_population_trend():
    rng = np.random.default_rng(11)
    truth = core.random_net(2, 4, rng, 1.0)
    sampler = core.CovariateSampler.uniform_cube(2)
    cfg = core.TrainConfig(learning_rate=0.2, max_iters=2000, grad_tol=1e-8)
    bounds = core.BoundSpec(x_max=sampler.x_max, theta_max=1.5, phi_max=2.25, xi_max=0.05)
    rows, fits = identify.robust_shift_experiment(
        truth, sampler, sampler, n_grid=[500], cfg=cfg, seeds=[0, 1],
        xi_max=0.05, noise_kind="uniform", n_eval=4000, bounds=bounds,
    )
    assert [(f["n"], f["seed"]) for f in fits] == [(r["n"], r["seed"]) for r in rows]
    for row in rows:
        fit_loss = row["emp_loss_q"]
        assert row["holds"] == 1
        # the q-sample loss is bounded by the exact sup gap
        assert fit_loss <= row["sup_gap_sq"] + 1e-9
        # and with q = p it estimates the unshifted population loss: reproduce
        # the driver's fit (data seed, train seed + 1) and compare closed form
        data = core.generate_dataset(truth, sampler, 0.05, "uniform", row["n"], row["seed"])
        fit = core.train_gd(data, 2, 4, core.TrainConfig(
            learning_rate=0.2, max_iters=2000, grad_tol=1e-8, seed=row["seed"] + 1),
            theta_max=bounds.theta_max)
        pop = core.population_loss_exact(fit.net, truth, sampler)
        se = row["sup_gap_sq"] / math.sqrt(4000) + 1e-9
        assert abs(fit_loss - pop) <= 5 * se


def test_robust_shift_adversarial_point_mass():
    rng = np.random.default_rng(12)
    truth = core.random_net(2, 4, rng, 1.0)
    sampler = core.CovariateSampler.uniform_cube(2)
    data = core.generate_dataset(truth, sampler, 0.05, "uniform", 400, 13)
    fit = core.train_gd(data, 2, 4, core.TrainConfig(learning_rate=0.2, max_iters=2000, grad_tol=1e-9, seed=14))
    rep = identify.sup_function_gap(fit.net, truth, sampler.x_max)
    point = point_mass(rep.witness_x)
    rows, _ = identify.robust_shift_experiment(
        truth, sampler, point, n_grid=[400], cfg=core.TrainConfig(learning_rate=0.2, max_iters=2000, grad_tol=1e-9),
        seeds=[13], xi_max=0.05, noise_kind="uniform", n_eval=50,
        bounds=core.BoundSpec(x_max=sampler.x_max, theta_max=2.0, phi_max=4.0, xi_max=0.05),
    )
    # training seed in the driver matches the external fit (seed + 1)
    row = rows[0]
    assert row["emp_loss_q"] == pytest.approx(rep.sup_gap_sq, abs=1e-9)


def test_robust_shift_gap_trend_is_nonincreasing():
    rng = np.random.default_rng(14)
    truth = core.random_net(2, 3, rng, 1.0)
    sampler = core.CovariateSampler.uniform_cube(2)
    cfg = core.TrainConfig(learning_rate=0.2, max_iters=2500, grad_tol=1e-9)
    seeds = list(range(20))
    n_grid = [250, 500, 1000, 2000, 4000]
    rows, _ = identify.robust_shift_experiment(
        truth, sampler, sampler, n_grid=n_grid, cfg=cfg, seeds=seeds,
        xi_max=0.1, noise_kind="uniform", n_eval=10,
    )
    medians = []
    for n in n_grid:
        vals = [r["sup_gap_sq"] for r in rows if r["n"] == n]
        medians.append(float(np.median(vals)))
    drops = sum(1 for a, b in zip(medians, medians[1:]) if b <= a)
    assert drops >= 3
