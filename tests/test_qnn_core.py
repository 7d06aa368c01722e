import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    finite_difference_gradient,
    point_mass,
    population_loss_mc,
    quadratic_form_second_moment,
    random_orthogonal,
    random_symmetric,
    reference_projected_gd,
)
from qni_lab import qnn_core as core
from qni_lab.errors import Diverged, RejectedInput


# ---------------------------------------------------------------------------
# forward / induced


def test_forward_single_unit():
    net = core.QuadNet(np.array([[1.0], [0.0]]))
    assert core.forward(net, np.array([3.0, 4.0])) == pytest.approx(9.0)


def test_forward_zero_net():
    net = core.QuadNet(np.zeros((3, 2)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert core.forward(net, rng.standard_normal(3)) == 0.0


def test_forward_matches_induced_quadratic_form():
    rng = np.random.default_rng(1)
    net = core.random_net(3, 5, rng)
    phi = core.induced(net).phi
    for _ in range(20):
        x = rng.standard_normal(3)
        direct = core.forward(net, x)
        via_form = float(x @ phi @ x)
        assert direct == pytest.approx(via_form, rel=1e-10)


def test_forward_rejects_dimension_mismatch():
    net = core.QuadNet(np.ones((2, 2)))
    with pytest.raises(RejectedInput):
        core.forward(net, np.ones(3))


def test_induced_identity_and_rank_one():
    assert np.allclose(core.induced(core.QuadNet(np.eye(2))).phi, np.eye(2))
    rank1 = core.induced(core.QuadNet(np.array([[1.0], [1.0]])))
    assert np.allclose(rank1.phi, [[1.0, 1.0], [1.0, 1.0]])


def test_induced_invariant_under_orthogonal_reparameterization():
    rng = np.random.default_rng(2)
    net = core.random_net(3, 6, rng)
    r = random_orthogonal(6, rng)
    rotated = core.QuadNet(net.theta @ r)
    assert np.allclose(core.induced(net).phi, core.induced(rotated).phi, atol=1e-12)


def test_induced_is_exactly_symmetric_and_psd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = core.induced(core.random_net(4, 7, rng)).phi
        assert np.array_equal(phi, phi.T)
        assert np.linalg.eigvalsh(phi).min() >= -1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_forward_nonnegative_property(d, k, seed):
    rng = np.random.default_rng(seed)
    net = core.random_net(d, k, rng)
    x = rng.standard_normal(d)
    assert core.forward(net, x) >= 0.0


# ---------------------------------------------------------------------------
# empirical loss


def test_empirical_loss_zero_on_noiseless_truth():
    rng = np.random.default_rng(4)
    truth = core.random_net(3, 4, rng)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(3), 0.0, "zero", 50, 0)
    assert core.empirical_loss(truth, data) <= 1e-12


def test_empirical_loss_constant_residual():
    net = core.QuadNet(np.zeros((2, 1)))
    data = core.Dataset(np.array([[0.3, -0.1]]), np.array([1.0]))
    assert core.empirical_loss(net, data) == pytest.approx(1.0)


def test_empirical_loss_reordered_summation_oracle():
    rng = np.random.default_rng(5)
    net = core.random_net(3, 4, rng)
    data = core.generate_dataset(core.random_net(3, 4, rng),
                                 core.CovariateSampler.uniform_cube(3), 0.2, "uniform", 300, 1)
    # independent re-summation in reversed order
    total = 0.0
    for i in reversed(range(data.n)):
        r = core.forward(net, data.X[i]) - data.y[i]
        total += r * r
    assert core.empirical_loss(net, data) == pytest.approx(total / data.n, abs=1e-10)


def test_empirical_loss_permutation_invariant():
    rng = np.random.default_rng(6)
    net = core.random_net(2, 3, rng)
    data = core.generate_dataset(net, core.CovariateSampler.uniform_cube(2), 0.1, "uniform", 40, 2)
    perm = rng.permutation(40)
    shuffled = core.Dataset(data.X[perm], data.y[perm])
    assert core.empirical_loss(net, data) == pytest.approx(core.empirical_loss(net, shuffled), rel=1e-12)


def test_empirical_loss_rejects_empty():
    # construction of an empty dataset is allowed; the loss rejects it
    data = core.Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(RejectedInput):
        core.empirical_loss(core.QuadNet(np.ones((2, 1))), data)


# ---------------------------------------------------------------------------
# population loss


def test_population_loss_zero_for_identical_nets():
    rng = np.random.default_rng(7)
    net = core.random_net(2, 3, rng)
    assert population_loss_mc(net, net, core.CovariateSampler.uniform_cube(2), 1000, 0) == 0.0


def test_population_loss_d1_closed_form():
    # truth 0, net theta=(1): loss is E[x^4] = (1/2)^4/5 = 1/80 on the centered unit cube
    net = core.QuadNet(np.array([[1.0]]))
    truth = core.QuadNet(np.array([[0.0]]))
    sampler = core.CovariateSampler.uniform_cube(1)
    # numeric integration oracle (trapezoid) for E[x^4] over [-1/2, 1/2]
    xs = np.linspace(-0.5, 0.5, 20001)
    quad = float(np.trapezoid(xs**4, xs))
    assert quad == pytest.approx(1.0 / 80.0, abs=1e-9)
    exact = core.population_loss_exact(net, truth, sampler)
    assert exact == pytest.approx(0.0125, abs=1e-15)
    mc = population_loss_mc(net, truth, sampler, 200_000, 0)
    se = 0.0125 / math.sqrt(200_000)  # generous scale for the standard error
    assert abs(mc - 0.0125) <= 4 * se * 3


def test_population_loss_mc_self_consistency():
    rng = np.random.default_rng(8)
    net = core.random_net(2, 3, rng, 1.0)
    truth = core.random_net(2, 3, rng, 1.0)
    sampler = core.CovariateSampler.uniform_cube(2)
    big = population_loss_mc(net, truth, sampler, 10**7, 1)
    small = population_loss_mc(net, truth, sampler, 10**6, 2)
    # crude per-sample variance from a pilot draw
    pilot_rng = np.random.default_rng(3)
    X = sampler.sample(20_000, pilot_rng)
    vals = (core.forward_batch(net, X) - core.forward_batch(truth, X)) ** 2
    se = float(np.std(vals)) / math.sqrt(10**6)
    assert abs(small - big) <= 3 * se


def test_population_loss_exact_matches_mc_for_random_nets():
    rng = np.random.default_rng(9)
    sampler = core.CovariateSampler.uniform_cube(3)
    for _ in range(3):
        a = core.random_net(3, 5, rng, 1.0)
        b = core.random_net(3, 5, rng, 1.0)
        exact = core.population_loss_exact(a, b, sampler)
        mc = population_loss_mc(a, b, sampler, 400_000, 11)
        assert mc == pytest.approx(exact, rel=0.05, abs=1e-6)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_global_minimum():
    rng = np.random.default_rng(10)
    truth = core.random_net(3, 4, rng)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(3), 0.0, "zero", 60, 4)
    g = core.gradient(truth, data)
    assert np.abs(g).max() <= 1e-10


def test_gradient_zero_at_zero_parameters():
    data = core.Dataset(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([3.0, -1.0]))
    g = core.gradient(core.QuadNet(np.zeros((2, 3))), data)
    assert np.array_equal(g, np.zeros((2, 3)))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    truth = core.random_net(3, 4, rng)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(3), 0.1, "uniform", 20, 5)
    net = core.random_net(3, 4, rng)
    g = core.gradient(net, data)
    fd = finite_difference_gradient(net, data, step=1e-4)
    assert np.abs(g - fd).max() <= 1e-5


def test_gradient_rejects_empty():
    data = core.Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(RejectedInput):
        core.gradient(core.QuadNet(np.ones((2, 1))), data)


# ---------------------------------------------------------------------------
# training


def test_train_gd_refits_rank_one_truth():
    rng = np.random.default_rng(12)
    truth = core.QuadNet(np.outer(rng.standard_normal(2), [1.0, 0.0, 0.0])[:, :3] * 0 +
                         np.hstack([rng.standard_normal((2, 1)), np.zeros((2, 2))]))
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), 0.0, "zero", 200, 6)
    res = core.train_gd(data, 2, 3, core.TrainConfig(learning_rate=0.2, max_iters=6000, grad_tol=1e-10, seed=1))
    assert res.final_loss <= 1e-6


def test_train_gd_rejects_empty_dataset():
    data = core.Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(RejectedInput):
        core.train_gd(data, 2, 3, core.TrainConfig())


def test_train_gd_multi_restart_equal_losses():
    rng = np.random.default_rng(13)
    truth = core.random_net(2, 4, rng, 1.0)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), 0.0, "zero", 150, 7)
    losses = []
    for s in range(10):
        res = core.train_gd(data, 2, 4, core.TrainConfig(learning_rate=0.2, max_iters=6000, grad_tol=1e-11, seed=s))
        losses.append(res.final_loss)
    assert max(losses) - min(losses) <= 1e-5
    assert max(losses) <= 1e-6


def test_train_gd_deterministic_given_seed():
    rng = np.random.default_rng(14)
    truth = core.random_net(2, 3, rng)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), 0.05, "uniform", 100, 8)
    cfg = core.TrainConfig(learning_rate=0.1, max_iters=500, grad_tol=1e-9, seed=3)
    a = core.train_gd(data, 2, 3, cfg)
    b = core.train_gd(data, 2, 3, cfg)
    assert np.array_equal(a.net.theta, b.net.theta)


def test_train_gd_diverges_with_huge_step():
    rng = np.random.default_rng(15)
    truth = core.random_net(2, 3, rng, 3.0)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2, 2.0), 0.0, "zero", 50, 9)
    with pytest.raises(Diverged) as err:
        core.train_gd(data, 2, 3, core.TrainConfig(learning_rate=50.0, max_iters=2000, grad_tol=1e-12, seed=0))
    assert err.value.iteration >= 1


def test_train_gd_projection_respects_theta_max():
    rng = np.random.default_rng(16)
    truth = core.random_net(2, 3, rng, 2.0)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), 0.0, "zero", 100, 10)
    res = core.train_gd(data, 2, 3, core.TrainConfig(learning_rate=0.2, max_iters=200, grad_tol=1e-12, seed=1),
                        theta_max=0.5)
    assert res.net.frobenius_norm() <= 0.5 + 1e-12


def test_projected_gd_zero_radius_returns_center():
    rng = np.random.default_rng(4)
    center = core.random_net(2, 3, rng)
    data = core.generate_dataset(core.random_net(2, 3, rng), core.CovariateSampler.uniform_cube(2),
                                 0.0, "zero", 50, 5)
    res = core.projected_gd_stack([data], [center.theta], core.TrainConfig(), [center.theta], 0.0)[0]
    assert np.array_equal(res.net.theta, center.theta)
    assert res.converged and res.iterations == 1


def test_projected_gd_huge_radius_matches_train_gd():
    rng = np.random.default_rng(5)
    truth = core.random_net(2, 3, rng, 1.0)
    sampler = core.CovariateSampler.uniform_cube(2)
    data = core.generate_dataset(truth, sampler, 0.0, "zero", 200, 6)
    cfg = core.TrainConfig(learning_rate=0.2, max_iters=6000, grad_tol=1e-11, seed=7)
    center = core.random_net(2, 3, rng, 0.3)
    constrained = core.projected_gd_stack([data], [center.theta], cfg, [center.theta], 100.0)[0]
    free = core.train_gd(data, 2, 3, cfg)
    assert constrained.final_loss <= free.final_loss + 1e-6
    assert abs(constrained.final_loss - free.final_loss) <= 1e-6


def test_projected_gd_feasibility():
    rng = np.random.default_rng(6)
    truth = core.random_net(3, 4, rng, 1.5)
    sampler = core.CovariateSampler.uniform_cube(3)
    data = core.generate_dataset(truth, sampler, 0.05, "uniform", 100, 8)
    for b_hat in (0.01, 0.1, 0.5):
        center = core.random_net(3, 4, rng, 0.5)
        res = core.projected_gd_stack([data], [center.theta],
                                      core.TrainConfig(learning_rate=0.1, max_iters=500, grad_tol=1e-9),
                                      [center.theta], b_hat)[0]
        assert float(np.linalg.norm(res.net.theta - center.theta)) <= b_hat + 1e-10


def test_projected_gd_stops_on_the_boundary_when_the_minimum_lies_outside():
    # the truth has norm 2, so every minimizer of the noiseless loss lies
    # outside the ball of radius 0.5 and the fit must stall on its surface
    rng = np.random.default_rng(22)
    truth = core.random_net(2, 3, rng, 2.0)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), 0.0, "zero", 100, 10)
    cfg = core.TrainConfig(learning_rate=0.2, max_iters=5000, grad_tol=1e-8)
    res = core.projected_gd_stack([data], [0.1 * truth.theta], cfg, radius=0.5)[0]
    assert res.converged and res.iterations < cfg.max_iters
    assert res.grad_norm > cfg.grad_tol
    assert res.net.frobenius_norm() == pytest.approx(0.5, abs=1e-12)


def test_projected_gd_rejects_bad_arguments():
    data = core.generate_dataset(core.QuadNet(np.ones((2, 1))), core.CovariateSampler.uniform_cube(2),
                                 0.0, "zero", 10, 0)
    with pytest.raises(RejectedInput):
        core.projected_gd_stack([data], [np.ones((3, 1))], core.TrainConfig())
    with pytest.raises(RejectedInput):
        core.projected_gd_stack([data], [np.ones((2, 1))], core.TrainConfig(), radius=-1.0)


# n = 1, n below one statistics block, n = 2500 (not a multiple of the block
# size), d in {2, 3, 10}, free and projected fits, stopped at max_iters, on
# the gradient tolerance and on the boundary
@pytest.mark.parametrize("n, d, k, radius, lr, max_iters", [
    (1, 2, 3, None, 0.2, 300),
    (300, 2, 3, None, 0.5, 8000),
    (700, 3, 6, None, 0.1, 400),
    (2500, 10, 12, None, 0.5, 150),
    (2500, 3, 4, 0.5, 0.2, 3000),
])
def test_projected_gd_matches_per_sample_reference(n, d, k, radius, lr, max_iters):
    rng = np.random.default_rng(n + d)
    truth = core.random_net(d, k, rng, 1.0 if radius is None else 2.0)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(d), 0.01, "uniform", n, 3)
    cfg = core.TrainConfig(learning_rate=lr, max_iters=max_iters, grad_tol=1e-8)
    theta0 = rng.uniform(-0.3, 0.3, size=(d, k))
    center = None if radius is None else theta0  # the ball around the start, as for the gold fit
    res = core.projected_gd_stack([data], [theta0], cfg, None if center is None else [center], radius)[0]
    theta, iterations, converged = reference_projected_gd(data, theta0, cfg, center=center, radius=radius)
    assert np.max(np.abs(res.net.theta - theta)) <= 1e-10
    assert (res.iterations, res.converged) == (iterations, converged)
    assert res.final_loss == core.empirical_loss(res.net, data)


@pytest.mark.parametrize("radius", [None, 0.2])
def test_projected_gd_grad_norm_is_taken_at_the_returned_net(radius):
    rng = np.random.default_rng(23)
    truth = core.random_net(3, 4, rng, 1.0)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(3), 0.0, "zero", 500, 4)
    res = core.projected_gd_stack([data], [rng.uniform(-0.5, 0.5, size=(3, 4))],
                                  core.TrainConfig(learning_rate=0.3, max_iters=1), radius=radius)[0]
    expected = float(np.linalg.norm(core.gradient(res.net, data)))
    assert res.grad_norm == pytest.approx(expected, rel=1e-10)
    assert not res.converged


def cube_fit(rng, half_width, truth_norm, n, seed, d=2, k=3):
    """A noiseless dataset on the cube of that half-width and a start near 0."""
    truth = core.random_net(d, k, rng, truth_norm)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(d, half_width), 0.0, "zero", n, seed)
    return data, rng.uniform(-0.3, 0.3, size=(d, k))


def test_projected_gd_stack_matches_single_fits_and_the_per_sample_reference():
    # one stack of fits of different n, each with its own centre, that stop in
    # each way: at max_iters (a flat cube), on the gradient tolerance, and
    # stalled on the ball's boundary (a truth of norm 3 outside it)
    rng = np.random.default_rng(31)
    cfg = core.TrainConfig(learning_rate=0.3, max_iters=1500, grad_tol=1e-5)
    radius = 1.5
    fits = [cube_fit(rng, hw, norm, n, seed) for seed, (hw, norm, n) in
            enumerate([(0.2, 0.8, 50), (1.0, 0.8, 300), (1.0, 3.0, 200), (0.8, 0.8, 120)])]
    datasets, starts = [data for data, _ in fits], [theta0 for _, theta0 in fits]
    centres = [rng.uniform(-0.2, 0.2, size=(2, 3)) for _ in fits]
    stack = core.projected_gd_stack(datasets, starts, cfg, centres, radius)
    stops = []
    for data, theta0, centre, res in zip(datasets, starts, centres, stack):
        alone = core.projected_gd_stack([data], [theta0], cfg, [centre], radius)[0]
        assert np.array_equal(res.net.theta, alone.net.theta)
        assert res.diagnostics() == alone.diagnostics()
        theta, iterations, converged = reference_projected_gd(data, theta0, cfg, center=centre, radius=radius)
        assert np.max(np.abs(res.net.theta - theta)) <= 1e-10
        assert (res.iterations, res.converged) == (iterations, converged)
        stops.append("grad_tol" if res.grad_norm <= cfg.grad_tol else "boundary" if res.converged
                     else "max_iters" if res.iterations == cfg.max_iters else "?")
    assert stops == ["max_iters", "grad_tol", "boundary", "grad_tol"]
    assert float(np.linalg.norm(stack[2].net.theta - centres[2])) == pytest.approx(radius, abs=1e-12)


# At learning rate 3, a fit on the cube of half-width 1 diverges at iteration
# 6, one of half-width 2 at iteration 3, and one of half-width 0.5 converges.
@pytest.mark.parametrize("half_widths, first", [((1.0, 0.5, 2.0), 0), ((0.5, 0.5, 2.0), 2)])
def test_projected_gd_stack_raises_for_its_lowest_diverging_fit(half_widths, first):
    rng = np.random.default_rng(1)
    cfg = core.TrainConfig(learning_rate=3.0, max_iters=300, grad_tol=1e-9)
    fits = [cube_fit(rng, hw, 1.0, 100, 0) for hw in half_widths]
    with pytest.raises(Diverged) as alone:
        core.projected_gd_stack([fits[first][0]], [fits[first][1]], cfg)
    if first == 0:  # the stack meets fit 2's divergence first
        with pytest.raises(Diverged) as other:
            core.projected_gd_stack([fits[2][0]], [fits[2][1]], cfg)
        assert other.value.iteration < alone.value.iteration
    with pytest.raises(Diverged) as stacked:
        core.projected_gd_stack([data for data, _ in fits], [theta0 for _, theta0 in fits], cfg)
    assert (stacked.value.iteration, stacked.value.loss) == (alone.value.iteration, alone.value.loss)


def test_projected_gd_stack_rejects_bad_stacks():
    rng = np.random.default_rng(2)
    data, theta0 = cube_fit(rng, 0.5, 1.0, 20, 0)
    wide_data, wide_theta0 = cube_fit(rng, 0.5, 1.0, 20, 1, k=4)
    cfg = core.TrainConfig()
    with pytest.raises(RejectedInput):
        core.projected_gd_stack([], [], cfg)
    with pytest.raises(RejectedInput):
        core.projected_gd_stack([data, wide_data], [theta0, wide_theta0], cfg)
    with pytest.raises(RejectedInput):
        core.projected_gd_stack([data], [theta0], cfg, [np.zeros((2, 4))], 1.0)


# ---------------------------------------------------------------------------
# dataset generation


def test_generate_dataset_zero_noise_exact_labels():
    rng = np.random.default_rng(17)
    truth = core.random_net(3, 4, rng)
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(3), 0.0, "zero", 30, 11)
    assert np.array_equal(data.y, core.forward_batch(truth, data.X))


@pytest.mark.parametrize("kind", ["uniform", "truncated_gaussian"])
def test_generate_dataset_noise_statistics(kind):
    truth = core.QuadNet(np.zeros((2, 1)))
    n, xi = 20_000, 0.1
    data = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), xi, kind, n, 12)
    noise = data.y  # truth is zero, labels are pure noise
    assert np.abs(noise).max() <= xi
    assert abs(noise.mean()) <= 4 * xi / math.sqrt(3 * n)


def test_generate_dataset_bit_identical_given_seed():
    rng = np.random.default_rng(18)
    truth = core.random_net(2, 2, rng)
    a = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), 0.1, "uniform", 64, 13)
    b = core.generate_dataset(truth, core.CovariateSampler.uniform_cube(2), 0.1, "uniform", 64, 13)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_dataset_covariates_within_support_radius():
    sampler = core.CovariateSampler.uniform_cube(4)
    rng = np.random.default_rng(19)
    X = sampler.sample(1000, rng)
    assert np.linalg.norm(X, axis=1).max() <= sampler.x_max + 1e-12


# ---------------------------------------------------------------------------
# constants


def test_lipschitz_constant_values():
    assert core.lipschitz_constant(core.BoundSpec(1.0, 1.0, 1.0)) == pytest.approx(4.0)
    assert core.lipschitz_constant(core.BoundSpec(0.5, 2.0, 2.0)) == pytest.approx(0.5)


def test_lipschitz_constant_random_pair_bound():
    rng = np.random.default_rng(22)
    phi_max, x_max = 1.0, 1.0
    K = core.lipschitz_constant(core.BoundSpec(x_max, 1.0, phi_max))
    for _ in range(1000):
        phi = random_symmetric(3, rng, rng.uniform(0.05, 1.0) * phi_max)
        phi_p = random_symmetric(3, rng, rng.uniform(0.05, 1.0) * phi_max)
        phi_star = random_symmetric(3, rng, rng.uniform(0.05, 1.0) * phi_max)
        x = rng.standard_normal(3)
        x *= rng.uniform(0, x_max) / np.linalg.norm(x)
        fa = float(x @ phi @ x) - float(x @ phi_star @ x)
        fb = float(x @ phi_p @ x) - float(x @ phi_star @ x)
        assert abs(fa * fa - fb * fb) <= K * np.linalg.norm(phi - phi_p) + 1e-10


def test_function_gap_bound_values():
    assert core.function_gap_bound(core.BoundSpec(1.0, 1.0, 1.0)) == pytest.approx(2.0)
    assert core.function_gap_bound(core.BoundSpec(0.5, 2.0, 4.0)) == pytest.approx(2.0)


def test_function_gap_bound_holds_on_random_draws():
    rng = np.random.default_rng(23)
    b = core.BoundSpec(x_max=1.0, theta_max=1.0, phi_max=1.0)
    ell = core.function_gap_bound(b)
    net_a = core.random_net(3, 5, rng, 1.0)  # ||phi|| <= ||theta||^2 = 1
    net_b = core.random_net(3, 5, rng, 1.0)
    X = rng.standard_normal((10_000, 3))
    X *= rng.uniform(0, 1, size=(10_000, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    gaps = np.abs(core.forward_batch(net_a, X) - core.forward_batch(net_b, X))
    assert gaps.max() <= ell + 1e-12


def test_bound_spec_validation():
    with pytest.raises(RejectedInput):
        core.BoundSpec(x_max=1.0, theta_max=1.0, phi_max=2.0)  # phi_max > theta_max^2
    with pytest.raises(RejectedInput):
        core.BoundSpec(x_max=0.0, theta_max=1.0, phi_max=1.0)


# ---------------------------------------------------------------------------
# curvature constant alpha


def test_estimate_alpha_uniform_cube_floor():
    est = core.estimate_alpha(core.CovariateSampler.uniform_cube(3), 200_000, 30, 0)
    assert est >= 1.0 / 180.0 - 0.001


def test_exact_alpha_values():
    assert core.exact_alpha(core.CovariateSampler.uniform_cube(3)) == pytest.approx(1.0 / 180.0)
    for d in (2, 3, 4):
        assert core.exact_alpha(core.CovariateSampler.uniform_scaled(d)) == pytest.approx(4.0 / (45.0 * d * d))


def second_moment_gram(sampler):
    """E[(x^T B_a x)(x^T B_b x)] over an orthonormal basis B of the symmetric
    matrices, by polarization of quadratic_form_second_moment_exact."""
    d = sampler.d
    basis = []
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0
            basis.append(e / np.linalg.norm(e))
    q = lambda m: core.quadratic_form_second_moment_exact(sampler, m)
    return np.array([[(q(a + b) - q(a - b)) / 4.0 for b in basis] for a in basis]), basis


def mixture_sampler(d, n_atoms, seed):
    rng = np.random.default_rng(seed)
    return core.CovariateSampler("custom_mixture", d, atoms=rng.standard_normal((n_atoms, d)),
                                 weights=rng.uniform(0.1, 1.0, n_atoms))


@pytest.mark.parametrize("sampler", [
    core.CovariateSampler.uniform_cube(3, 0.3),
    core.CovariateSampler.uniform_cube(10, 0.3),
    core.CovariateSampler.uniform_cube(4, 1.5),
    mixture_sampler(2, 5, 0),
    mixture_sampler(3, 12, 1),
], ids=["cube3", "cube10", "cube4-wide", "mixture2", "mixture3"])
def test_exact_alpha_is_the_smallest_second_moment(sampler):
    alpha = core.exact_alpha(sampler)
    gram, basis = second_moment_gram(sampler)
    w, v = np.linalg.eigh(gram)
    delta = sum(c * b for c, b in zip(v[:, 0], basis))
    assert alpha == pytest.approx(w[0], rel=1e-9)
    assert core.quadratic_form_second_moment_exact(sampler, delta) == pytest.approx(alpha, rel=1e-9)
    assert core.estimate_alpha(sampler, 50_000, 20, 0) >= alpha


@pytest.mark.parametrize("d", [2, 3, 10])
def test_exact_alpha_unit_sphere(d):
    sampler = core.CovariateSampler.unit_sphere(d)
    alpha = core.exact_alpha(sampler)
    assert alpha == pytest.approx(2.0 / (d * (d + 2)))
    # every traceless direction attains the minimum
    delta = np.diag([1.0, -1.0] + [0.0] * (d - 2)) / math.sqrt(2.0)
    X = sampler.sample(200_000, np.random.default_rng(d))
    vals = np.einsum("ni,ij,nj->n", X, delta, X) ** 2
    se = float(np.std(vals)) / math.sqrt(vals.size)
    assert abs(float(np.mean(vals)) - alpha) <= 4 * se
    assert core.estimate_alpha(sampler, 50_000, 20, 0) >= alpha


def test_mixture_weights_must_not_all_be_zero():
    with pytest.raises(RejectedInput):
        core.CovariateSampler("custom_mixture", 2, atoms=np.ones((2, 2)), weights=np.zeros(2))


def test_exact_alpha_point_mass():
    for x0 in ([1.0, 0.0], [0.3, -1.2, 0.5]):
        assert core.exact_alpha(point_mass(np.array(x0))) == pytest.approx(0.0, abs=1e-15)
    assert core.exact_alpha(point_mass(np.array([2.0]))) == pytest.approx(16.0)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_exact_alpha_is_zero_when_the_atoms_span_too_few_directions(d):
    # fewer atoms than the d (d + 1) / 2 symmetric directions leave M4
    # singular there; its computed smallest eigenvalue, up to ~1e-16 of
    # either sign, is rounding noise, not curvature
    rng = np.random.default_rng(61 + d)
    n_dirs = d * (d + 1) // 2
    for n_atoms in (1, 2, n_dirs - 1):
        for _ in range(20):
            atoms = rng.uniform(-1.0, 1.0, size=(n_atoms, d))
            assert core.exact_alpha(core.CovariateSampler("custom_mixture", d, atoms=atoms)) == 0.0
    atoms = rng.uniform(-1.0, 1.0, size=(n_dirs + 2, d))
    assert core.exact_alpha(core.CovariateSampler("custom_mixture", d, atoms=atoms)) > 0.0


def test_estimate_alpha_scaled_uniform_brackets():
    # the nominal constant for the scaled family overshoots the exact minimum
    # (traceless diagonal directions), so the estimate is checked against the
    # moment-expansion bracket instead
    d = 4
    sampler = core.CovariateSampler.uniform_scaled(d)
    est = core.estimate_alpha(sampler, 200_000, 50, 1)
    exact = core.exact_alpha(sampler)
    m2, m4 = sampler.coordinate_moments()
    sup_ratio = max(m4 - m2 * m2 + m2 * m2 * d, 2 * m2 * m2)
    assert exact - 0.001 <= est <= sup_ratio + 0.001
    assert est < core.nominal_alpha(sampler)


def test_nominal_alpha_table():
    assert core.nominal_alpha(core.CovariateSampler.uniform_cube(5)) == pytest.approx(1.0 / 180.0)
    assert core.nominal_alpha(core.CovariateSampler.uniform_scaled(4)) == pytest.approx(4.0 ** (-0.4) / 15.0)
    with pytest.raises(RejectedInput):
        core.nominal_alpha(core.CovariateSampler.unit_sphere(3))


def test_second_moment_degenerate_point_mass():
    x0 = np.array([1.0, 0.0, 0.0])
    sampler = point_mass(x0)
    delta = np.diag([0.0, 1.0, -1.0]) / math.sqrt(2.0)  # orthogonal to x0 x0^T
    rng = np.random.default_rng(2)
    assert quadratic_form_second_moment(sampler, delta, 1000, rng) == pytest.approx(0.0, abs=1e-15)
    assert core.quadratic_form_second_moment_exact(sampler, delta) == pytest.approx(0.0, abs=1e-15)
    # the direction-minimizing estimate on the degenerate sampler is tiny too
    assert core.estimate_alpha(sampler, 2000, 40, 3) <= 0.05


def test_moment_expansion_matches_mc():
    # closed-form second moment against Monte Carlo for 20 random directions
    rng = np.random.default_rng(24)
    sampler = core.CovariateSampler.uniform_cube(3)
    n = 100_000
    for _ in range(20):
        delta = random_symmetric(3, rng, 1.0)
        exact = core.quadratic_form_second_moment_exact(sampler, delta)
        X = sampler.sample(n, rng)
        vals = np.einsum("ni,ij,nj->n", X, delta, X) ** 2
        se = float(np.std(vals)) / math.sqrt(n)
        assert abs(float(np.mean(vals)) - exact) <= 3 * se + 1e-12
