"""Shared helpers for the test suite."""

import itertools
import math

import numpy as np

from qni_lab import module_net as mn, qnn_core as core


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


def point_mass(x: np.ndarray) -> core.CovariateSampler:
    """The custom_mixture sampler with all its mass on one point."""
    x = np.asarray(x, dtype=float)
    return core.CovariateSampler("custom_mixture", x.size, atoms=x.reshape(1, -1))


def population_loss_mc(net: core.QuadNet, truth: core.QuadNet, sampler: core.CovariateSampler,
                       n_mc: int, seed: int) -> float:
    """Monte-Carlo estimate of E[(net(x) - truth(x))^2] under the sampler,
    oracle for core.population_loss_exact."""
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = n_mc
    # chunked so n_mc = 1e7 does not allocate a giant matrix
    while remaining > 0:
        chunk = min(remaining, 1_000_000)
        X = sampler.sample(chunk, rng)
        diff = core.forward_batch(net, X) - core.forward_batch(truth, X)
        total += float(np.sum(diff * diff))
        remaining -= chunk
    return total / n_mc


def quadratic_form_second_moment(sampler: core.CovariateSampler, delta: np.ndarray, n_mc: int,
                                 rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of E[(x^T Delta x)^2] for a fixed symmetric Delta,
    oracle for core.quadratic_form_second_moment_exact."""
    X = sampler.sample(n_mc, rng)
    q = np.einsum("ni,ij,nj->n", X, delta, X)
    return float(np.mean(q * q))


def reference_projected_gd(data: core.Dataset, theta0: np.ndarray, cfg: core.TrainConfig,
                           center: np.ndarray | None = None, radius: float | None = None):
    """Per-sample projected GD: the same steps and stop rules as a stack of
    one in core.projected_gd_stack, with every gradient taken by core.gradient
    over all n rows instead of from the sample's moments. Returns (theta,
    iterations, converged)."""
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


# ---------------------------------------------------------------------------
# module-network oracles: one word, one point and one forward call at a time


def mixture_bruteforce(chain, parser_true, t: int) -> np.ndarray:
    """Prefix-enumeration oracle for the step-t mixture over (token, previous
    module) (small |Z|^t only)."""
    nz, k = chain.alphabet_size, parser_true.k
    out = np.zeros((nz, k + 1))
    for prefix in itertools.product(range(nz), repeat=t):
        p = chain.initial[prefix[0]]
        for s in range(1, t):
            p *= chain.transition[prefix[s - 1], prefix[s]]
        if p == 0.0:
            continue
        j = mn.START_STATE
        for z in prefix[:-1]:
            j = int(parser_true.table[z, j])
        out[prefix[-1], j] += p
    return out


def reference_sample_word(chain, rng: np.random.Generator) -> np.ndarray:
    """One rng.choice call per token."""
    out = np.empty(chain.T, dtype=int)
    if chain.T == 0:
        return out
    z = int(rng.choice(chain.alphabet_size, p=chain.initial))
    out[0] = z
    for t in range(1, chain.T):
        z = int(rng.choice(chain.alphabet_size, p=chain.transition[z]))
        out[t] = z
    return out


def reference_uniform_ball(d: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal(d)
    g /= np.linalg.norm(g)
    return radius * rng.uniform() ** (1.0 / d) * g


def reference_apply(library, j: int, x: np.ndarray) -> np.ndarray:
    return np.array([core.forward(core.QuadNet(theta), x) for theta in library.thetas[j - 1]])


def reference_parse(parser, word: np.ndarray) -> np.ndarray:
    out = np.empty(len(word), dtype=int)
    j = mn.START_STATE
    for t, z in enumerate(word):
        j = int(parser.table[z, j])
        out[t] = j
    return out


def reference_compose(library, parser, x: np.ndarray, word: np.ndarray) -> np.ndarray:
    cur = x
    for j in reference_parse(parser, word):
        cur = reference_apply(library, int(j), cur)
    return cur


def reference_measured_lipschitz(library, n_pairs: int, rng: np.random.Generator) -> float:
    best = 0.0
    for _ in range(n_pairs):
        x = reference_uniform_ball(library.d, library.x_max, rng)
        y = reference_uniform_ball(library.d, library.x_max, rng)
        denom = float(np.linalg.norm(x - y))
        if denom < 1e-12:
            continue
        for j in range(1, library.k + 1):
            num = float(np.linalg.norm(reference_apply(library, j, x) - reference_apply(library, j, y)))
            best = max(best, num / denom)
    return best


def reference_composition_experiment(true_library, fitted_library, parser_true, parser_hat,
                                     spec, n_mc: int, seed: int) -> dict:
    """mn.composition_error_experiment with every word sampled, parsed and
    composed on its own; the constants come from the same module_net calls."""
    rng = np.random.default_rng(seed)
    T = spec.base.T
    eps_f, _ = mn.module_sup_error(fitted_library, true_library)
    configured = true_library.k_module
    if configured is None:
        configured = true_library.lipschitz_bound()
    K = max(configured, reference_measured_lipschitz(true_library, 200, rng))
    _, avg = mn.mixture_distributions(spec.base, parser_true)
    eps_g = mn.parser_disagreement(parser_hat, parser_true, avg)
    bound = T * eps_f * max(K ** (T - 1), 1.0)
    rows, n_within, n_match = [], 0, 0
    for i in range(n_mc):
        w = reference_sample_word(spec.shifted, rng)
        x = reference_uniform_ball(true_library.d, true_library.x_max, rng)
        gap = float(np.linalg.norm(reference_compose(fitted_library, parser_hat, x, w)
                                   - reference_compose(true_library, parser_true, x, w)))
        match = bool(np.array_equal(reference_parse(parser_hat, w), reference_parse(parser_true, w)))
        within = gap <= bound + 1e-12
        n_within += within
        n_match += match
        rows.append({"word_id": i, "parse_match": int(match), "gap_l2": gap,
                     "bound": float(bound), "within_bound": int(within)})
    freq = n_within / n_mc
    target = 1.0 - T * eps_g - T * T * spec.alpha_shift
    if target <= 0.0:
        holds, band = True, 0.0
    else:
        band = 1.645 * math.sqrt(max(target * (1.0 - target), 1.0 / n_mc) / n_mc)
        holds = freq >= target - band
    return {
        "T": int(T), "n_mc": int(n_mc), "eps_f": float(eps_f), "eps_g": float(eps_g),
        "k_module": float(K), "alpha_shift": float(spec.alpha_shift), "gap_bound": float(bound),
        "freq_within": float(freq), "freq_parse_match": float(n_match / n_mc),
        "target": float(target), "band": float(band), "holds": bool(holds), "rows": rows,
    }
