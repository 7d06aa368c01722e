"""Quadratic neural network model, loss, trainer, and synthetic data.

The model is a one-hidden-layer net with squared activations and unit output
weights: net(x) = sum_j <theta_j, x>^2, equivalently the quadratic form
x^T (theta theta^T) x. The induced d x d PSD matrix theta theta^T is the
identifiable object; all constants used by the bound machinery
(curvature alpha, Lipschitz constant, output-gap bound) live on it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, RejectedInput

DIVERGENCE_THRESHOLD = 1e12

# Rows per block when building the moment statistics: 4096-row blocks raised
# peak memory ~11% at n = 1e4, d = 10 for no gain in time.
STATS_BLOCK_ROWS = 1024

NOISE_KINDS = ("zero", "uniform", "truncated_gaussian")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class QuadNet:
    """Parameter matrix theta (d rows, k columns) of a quadratic net."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise RejectedInput(f"theta must be a d x k matrix with d,k >= 1, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise RejectedInput("theta contains non-finite entries")
        object.__setattr__(self, "theta", _frozen(t))

    @property
    def d(self) -> int:
        return self.theta.shape[0]

    @property
    def k(self) -> int:
        return self.theta.shape[1]

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.theta))


@dataclass(frozen=True)
class InducedForm:
    """Symmetric PSD matrix phi = theta theta^T; the identifiable object."""

    phi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise RejectedInput(f"phi must be square, got shape {p.shape}")
        if not np.array_equal(p, p.T):
            p = (p + p.T) / 2.0
        object.__setattr__(self, "phi", _frozen(p))

    @property
    def d(self) -> int:
        return self.phi.shape[0]

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.phi))


@dataclass(frozen=True)
class BoundSpec:
    """Boundedness constants: ||x|| <= x_max, ||theta||_F <= theta_max, |noise| <= xi_max."""

    x_max: float
    theta_max: float
    phi_max: float
    xi_max: float = 0.0

    def __post_init__(self):
        if min(self.x_max, self.theta_max, self.phi_max) <= 0.0 or self.xi_max < 0.0:
            raise RejectedInput("x_max, theta_max, phi_max must be positive and xi_max >= 0")
        if self.phi_max > self.theta_max**2 * (1.0 + 1e-12):
            raise RejectedInput("phi_max must not exceed theta_max^2")


def lipschitz_constant(b: BoundSpec) -> float:
    """Lipschitz constant of the squared loss term in phi: 4 * phi_max * x_max^4."""
    return 4.0 * b.phi_max * b.x_max**4


def function_gap_bound(b: BoundSpec) -> float:
    """Upper bound on |f1(x) - f2(x)| over the domain: 2 * x_max^2 * phi_max."""
    return 2.0 * b.x_max**2 * b.phi_max


@dataclass(frozen=True)
class CovariateSampler:
    """Covariate distribution: i.i.d.-coordinate boxes, the unit sphere, or point atoms.

    kinds:
      uniform_cube    coordinates i.i.d. Uniform[-half_width, half_width]
      uniform_scaled  coordinates i.i.d. Uniform[-1/sqrt(d), 1/sqrt(d)]
      unit_sphere     uniform on the unit sphere
      custom_mixture  discrete mixture over fixed atoms
    """

    kind: str
    d: int
    half_width: float | None = None
    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise RejectedInput("d must be >= 1")
        if self.kind in ("uniform_cube", "uniform_scaled"):
            hw = self.half_width if self.kind == "uniform_cube" else 1.0 / math.sqrt(self.d)
            if hw is None or hw <= 0:
                raise RejectedInput("uniform_cube needs a positive half_width")
            object.__setattr__(self, "half_width", float(hw))
        elif self.kind == "unit_sphere":
            pass
        elif self.kind == "custom_mixture":
            atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
            if atoms.shape[1] != self.d:
                raise RejectedInput(f"atoms must have {self.d} columns, got {atoms.shape}")
            if self.weights is None:
                weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
            else:
                weights = np.asarray(self.weights, dtype=float)
                if weights.shape != (atoms.shape[0],) or np.any(weights < 0) or not weights.sum() > 0:
                    raise RejectedInput("weights must be nonnegative, one per atom, not all zero")
                weights = weights / weights.sum()
            object.__setattr__(self, "atoms", _frozen(atoms))
            object.__setattr__(self, "weights", _frozen(weights))
        else:
            raise RejectedInput(f"unknown sampler kind {self.kind!r}")

    @classmethod
    def uniform_cube(cls, d: int, half_width: float = 0.5) -> "CovariateSampler":
        return cls("uniform_cube", d, half_width=half_width)

    @classmethod
    def uniform_scaled(cls, d: int) -> "CovariateSampler":
        return cls("uniform_scaled", d)

    @classmethod
    def unit_sphere(cls, d: int) -> "CovariateSampler":
        return cls("unit_sphere", d)

    @property
    def x_max(self) -> float:
        """Radius of the smallest origin-centered ball containing the support."""
        if self.kind in ("uniform_cube", "uniform_scaled"):
            return float(self.half_width * math.sqrt(self.d))
        if self.kind == "unit_sphere":
            return 1.0
        return float(np.max(np.linalg.norm(self.atoms, axis=1)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise RejectedInput("n must be >= 1")
        if self.kind in ("uniform_cube", "uniform_scaled"):
            return rng.uniform(-self.half_width, self.half_width, size=(n, self.d))
        if self.kind == "unit_sphere":
            g = rng.standard_normal(size=(n, self.d))
            return g / np.linalg.norm(g, axis=1, keepdims=True)
        idx = rng.choice(self.atoms.shape[0], size=n, p=self.weights)
        return self.atoms[idx].copy()

    def coordinate_moments(self) -> tuple[float, float]:
        """(E[x_i^2], E[x_i^4]) for the i.i.d.-coordinate kinds."""
        if self.kind not in ("uniform_cube", "uniform_scaled"):
            raise RejectedInput(f"no coordinate moments for kind {self.kind!r}")
        hw = self.half_width
        return hw**2 / 3.0, hw**4 / 5.0

    def describe(self) -> str:
        if self.kind == "uniform_cube":
            return f"uniform_cube(d={self.d},h={self.half_width:g})"
        if self.kind == "uniform_scaled":
            return f"uniform_scaled(d={self.d})"
        if self.kind == "unit_sphere":
            return f"unit_sphere(d={self.d})"
        return f"custom_mixture(d={self.d},atoms={self.atoms.shape[0]})"


@dataclass(frozen=True)
class Dataset:
    """Regression sample (X, y)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise RejectedInput(f"incompatible shapes X {X.shape}, y {y.shape}")
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "y", _frozen(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    max_iters: int = 5000
    grad_tol: float = 1e-8
    init_scale: float | None = None  # None -> 0.5/sqrt(k)
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_iters < 1 or self.grad_tol <= 0:
            raise RejectedInput("learning_rate, max_iters, grad_tol must be positive")
        if self.init_scale is not None and self.init_scale <= 0:
            raise RejectedInput("init_scale must be positive")


@dataclass(frozen=True)
class TrainResult:
    net: QuadNet
    converged: bool
    iterations: int
    final_loss: float
    grad_norm: float

    def diagnostics(self) -> dict:
        """How the fit ended, as run records report it."""
        return {
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "final_loss": float(self.final_loss),
            "grad_norm": float(self.grad_norm),
        }


# ---------------------------------------------------------------------------
# model evaluation


def forward(net: QuadNet, x: np.ndarray) -> float:
    """Evaluate sum_j <theta_j, x>^2 at a single input."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.d,):
        raise RejectedInput(f"x must have shape ({net.d},), got {x.shape}")
    p = x @ net.theta
    return float(p @ p)


def forward_batch(net: QuadNet, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.d:
        raise RejectedInput(f"X must be n x {net.d}, got {X.shape}")
    p = X @ net.theta
    return np.einsum("ij,ij->i", p, p)


def induced(net: QuadNet) -> InducedForm:
    """Map a net to its induced form theta theta^T (symmetrized exactly)."""
    p = net.theta @ net.theta.T
    return InducedForm((p + p.T) / 2.0)


def induced_of(obj: "QuadNet | InducedForm") -> InducedForm:
    if isinstance(obj, QuadNet):
        return induced(obj)
    if isinstance(obj, InducedForm):
        return obj
    raise RejectedInput(f"expected QuadNet or InducedForm, got {type(obj).__name__}")


def empirical_loss(net: QuadNet, data: Dataset) -> float:
    """Mean squared error of the net on the dataset."""
    if data.n < 1:
        raise RejectedInput("dataset is empty")
    r = forward_batch(net, data.X) - data.y
    return float(np.mean(r * r))


def gradient(net: QuadNet, data: Dataset) -> np.ndarray:
    """Analytic gradient of the empirical loss: (4/n) sum_i r_i x_i x_i^T theta."""
    if data.n < 1:
        raise RejectedInput("dataset is empty")
    p = data.X @ net.theta
    r = np.einsum("ij,ij->i", p, p) - data.y
    return (4.0 / data.n) * (data.X.T @ (r[:, None] * p))


def quadratic_form_second_moment_exact(sampler: CovariateSampler, delta: np.ndarray) -> float:
    """Closed-form E[(x^T Delta x)^2] for i.i.d.-coordinate or atom samplers."""
    delta = np.asarray(delta, dtype=float)
    if sampler.kind == "custom_mixture":
        q = np.einsum("ni,ij,nj->n", sampler.atoms, delta, sampler.atoms)
        return float(np.sum(sampler.weights * q * q))
    m2, m4 = sampler.coordinate_moments()
    diag = np.diag(delta)
    diag_sq = float(np.sum(diag * diag))
    trace = float(np.sum(diag))
    off_sq = float(np.sum(delta * delta)) - diag_sq
    return (m4 - m2 * m2) * diag_sq + m2 * m2 * trace * trace + 2.0 * m2 * m2 * off_sq


def population_loss_exact(net: QuadNet, truth: QuadNet, sampler: CovariateSampler) -> float:
    """Exact population loss E[(net(x) - truth(x))^2] where a closed form exists."""
    delta = induced(net).phi - induced(truth).phi
    return quadratic_form_second_moment_exact(sampler, delta)


# ---------------------------------------------------------------------------
# curvature constant alpha (strong convexity of the loss in phi)


def exact_alpha(sampler: CovariateSampler) -> float:
    """Exact min over symmetric unit-Frobenius Delta of E[(x^T Delta x)^2].

    For an i.i.d.-coordinate sampler the moment expansion gives
    min(m4 - m2^2, 2 m2^2). On a cube of half-width h, m4 - m2^2 = 4 h^4 / 45
    is always the smaller, attained at a traceless diagonal direction (a lower
    bound at d = 1); at h = 1/2 it is 1/180. On the unit sphere the moment is
    (tr(Delta)^2 + 2 ||Delta||_F^2) / (d (d + 2)), so 2 / (d (d + 2)) at a
    traceless direction (a lower bound at d = 1). For atoms it is the
    smallest eigenvalue of the atom-weighted M4 on symmetric directions, and
    0 when the atoms span fewer than d (d + 1) / 2 of those directions.
    """
    d = sampler.d
    if sampler.kind == "unit_sphere":
        return 2.0 / (d * (d + 2))
    if sampler.kind == "custom_mixture":
        m4, _, _ = _moments(sampler.atoms, weights=sampler.weights)
        rows, cols = np.triu_indices(d)
        basis = np.zeros((d, d, rows.size))
        basis[rows, cols, np.arange(rows.size)] = basis[cols, rows, np.arange(rows.size)] = 1.0
        basis = basis.reshape(d * d, -1)
        basis /= np.linalg.norm(basis, axis=0)
        w = np.linalg.eigvalsh(basis.T @ m4 @ basis)
        # below matrix_rank's tolerance the smallest eigenvalue is rounding noise
        return float(w[0]) if w[0] > w.size * np.finfo(float).eps * w[-1] else 0.0
    return 4.0 * sampler.half_width**4 / 45.0


def nominal_alpha(sampler: CovariateSampler) -> float:
    """Stated closed-form curvature constants for the two standard samplers.

    uniform cube with half-width 1/2 -> 1/180; scaled uniform -> d^(-2/5)/15.
    The scaled-family nominal constant overshoots the exact minimum
    (traceless diagonal directions); see exact_alpha for the true value.
    """
    if sampler.kind == "uniform_cube" and abs(sampler.half_width - 0.5) < 1e-12:
        return 1.0 / 180.0
    if sampler.kind == "uniform_scaled":
        return sampler.d ** (-0.4) / 15.0
    raise RejectedInput(f"no stated constant for sampler {sampler.describe()}")


def estimate_alpha(
    sampler: CovariateSampler, n_mc: int, n_directions: int, seed: int
) -> float:
    """Estimate the curvature constant by minimizing the Monte-Carlo second
    moment of x^T Delta x over random unit-Frobenius symmetric directions.

    The result upper-bounds the true constant (min over a finite direction set).
    """
    if n_mc < 1 or n_directions < 1:
        raise RejectedInput("n_mc and n_directions must be >= 1")
    rng = np.random.default_rng(seed)
    X = sampler.sample(n_mc, rng)
    best = math.inf
    for _ in range(n_directions):
        g = rng.standard_normal((sampler.d, sampler.d))
        delta = (g + g.T) / 2.0
        delta /= np.linalg.norm(delta)
        q = np.einsum("ni,ij,nj->n", X, delta, X)
        best = min(best, float(np.mean(q * q)))
    return best


# ---------------------------------------------------------------------------
# data generation and training


def generate_dataset(
    truth: QuadNet,
    sampler: CovariateSampler,
    xi_max: float,
    noise_kind: str,
    n: int,
    seed: int,
) -> Dataset:
    """Draw n i.i.d. samples y = truth(x) + noise with |noise| <= xi_max."""
    if n < 1:
        raise RejectedInput("n must be >= 1")
    if xi_max < 0:
        raise RejectedInput("xi_max must be >= 0")
    if noise_kind not in NOISE_KINDS:
        raise RejectedInput(f"noise_kind must be one of {NOISE_KINDS}")
    if sampler.d != truth.d:
        raise RejectedInput("sampler and truth dimensions differ")
    rng = np.random.default_rng(seed)
    X = sampler.sample(n, rng)
    y = forward_batch(truth, X)
    if xi_max > 0 and noise_kind != "zero":
        if noise_kind == "uniform":
            y = y + rng.uniform(-xi_max, xi_max, size=n)
        else:
            xi = rng.normal(0.0, xi_max / 2.0, size=n)
            bad = np.abs(xi) > xi_max
            while np.any(bad):
                xi[bad] = rng.normal(0.0, xi_max / 2.0, size=int(bad.sum()))
                bad = np.abs(xi) > xi_max
            y = y + xi
    return Dataset(X, y)


def _moments(
    X: np.ndarray, y: np.ndarray | None = None, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Moments of z = vec(x x^T) under the rows of X: M4 = E[z z^T] (d^2 x d^2),
    C = E[y x x^T] and E[y^2] (zero without y). Rows are weighted by weights
    (summing to 1) or equally. Built STATS_BLOCK_ROWS rows at a time, so the
    n x d^2 feature matrix is never held whole."""
    n, d = X.shape
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    y = np.zeros(n) if y is None else y
    m4 = np.zeros((d * d, d * d))
    cy = np.zeros(d * d)
    ey2 = 0.0
    for lo in range(0, n, STATS_BLOCK_ROWS):
        xb, yb, wb = X[lo:lo + STATS_BLOCK_ROWS], y[lo:lo + STATS_BLOCK_ROWS], w[lo:lo + STATS_BLOCK_ROWS]
        z = (xb[:, :, None] * xb[:, None, :]).reshape(-1, d * d)
        m4 += (z * wb[:, None]).T @ z
        cy += (wb * yb) @ z
        ey2 += float(wb @ (yb * yb))
    return m4, cy.reshape(d, d), ey2


def _stack_loss_and_gradient(
    theta: np.ndarray, m4: np.ndarray, cy: np.ndarray, ey2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-form losses (b,) and gradients (b, d, k) of a (b, d, k) stack of
    nets: with A = mat(M4 vec(phi)) - C, the loss <phi, A - C> + E[y^2] and
    the gradient 4 A theta. Each fit gets the bits the same expressions give
    on its own 2-D arrays."""
    b, d, _ = theta.shape
    phi = theta @ theta.mT
    a = np.matvec(m4, phi.reshape(b, d * d)).reshape(b, d, d) - cy
    loss = np.add.reduce((phi * (a - cy)).reshape(b, d * d), axis=1) + ey2
    return loss, 4.0 * (a @ theta)


def _sq_norms(t: np.ndarray) -> list[float]:
    """Squared Frobenius norm of each matrix of a stack: the dot product
    np.linalg.norm takes, so its square root has the same bits."""
    flat = t.reshape(t.shape[0], -1)
    return np.vecdot(flat, flat).tolist()


def projected_gd_stack(
    datasets: Sequence[Dataset],
    theta0s: Sequence[np.ndarray],
    cfg: TrainConfig,
    centers: Sequence[np.ndarray] | None = None,
    radius: float | None = None,
) -> list[TrainResult]:
    """Full-batch gradient descent with a constant step on a stack of
    independent fits of one shape d x k: fit i starts at theta0s[i] and runs
    on datasets[i]. Each fit takes, bit for bit, the steps and the stop it
    would take alone; the stack runs them in one loop over (B, d, k) arrays.

    The loss depends on theta only through phi = theta theta^T, so each fit
    runs on its sample's moments: with A = mat(M4 vec(phi)) - C, the loss is
    <phi, A - C> + E[y^2] and the gradient 4 A theta, at a cost per
    iteration that does not depend on n. final_loss is the per-sample
    empirical_loss at the returned net (the moment form cancels to ~1e-16
    E[y^2]); grad_norm is the gradient norm there.

    When radius is given, each start point and every step are projected onto
    the Frobenius ball of that radius around the fit's centre (the origin by
    default). A fit stops when ||g|| <= grad_tol, or after a step the
    projection shortened that moved theta by at most grad_tol * learning_rate
    (stalled on the boundary); either stop counts as converged, and the fit
    leaves the stack. Raises Diverged if a loss exceeds the divergence
    threshold, for the lowest-index fit that does, at its iteration and loss:
    what running the fits one after another would raise.
    """
    n_fits = len(datasets)
    if n_fits == 0 or len(theta0s) != n_fits or (centers is not None and len(centers) != n_fits):
        raise RejectedInput("a stack needs at least one fit, and one start (and centre) per dataset")
    starts = [np.asarray(t, dtype=float) for t in theta0s]
    centres = [np.zeros_like(t) for t in starts] if centers is None else [np.asarray(c, dtype=float) for c in centers]
    for data, t, c in zip(datasets, starts, centres):
        if data.n < 1:
            raise RejectedInput("dataset is empty")
        if t.ndim != 2 or t.shape[0] != data.d:
            raise RejectedInput(f"theta0 must have {data.d} rows, got shape {t.shape}")
        if t.shape != starts[0].shape:
            raise RejectedInput(f"the fits of a stack share d x k, got {starts[0].shape} and {t.shape}")
        if c.shape != t.shape:
            raise RejectedInput(f"a centre must have its start's shape {t.shape}, got {c.shape}")
    if radius is not None and radius < 0:
        raise RejectedInput("radius must be >= 0")
    tol, lr = cfg.grad_tol, cfg.learning_rate

    def project(t: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """t with each fit outside its ball pulled onto it (in place), and
        the positions of those fits."""
        if radius is None:
            return t, []
        offset = t - c
        sq = _sq_norms(offset)
        if math.sqrt(max(sq)) <= radius:
            return t, []
        out = [p for p, s in enumerate(sq) if math.sqrt(s) > radius]
        for p in out:
            t[p] = c[p] + offset[p] * (radius / math.sqrt(sq[p]))
        return t, out

    def grad_norms(m: list[int] | slice, t: np.ndarray) -> list[float]:
        """Gradient norms of the fits at stack positions m, at the nets t."""
        return [math.sqrt(s) for s in _sq_norms(_stack_loss_and_gradient(t, m4[m], cy[m], ey2[m])[1])]

    m4, cy, ey2 = (np.array(s) for s in zip(*(_moments(data.X, data.y) for data in datasets)))
    c = np.array(centres)
    theta, _ = project(np.array(starts), c)
    live = list(range(n_fits))  # the fit at each stack position
    final = [None] * n_fits
    iterations = [cfg.max_iters] * n_fits
    grad_norm = [math.inf] * n_fits
    stalled = [False] * n_fits
    diverged = None
    for it in range(1, cfg.max_iters + 1):
        loss, g = _stack_loss_and_gradient(theta, m4, cy, ey2)
        losses = loss.tolist()
        if not (max(losses) <= DIVERGENCE_THRESHOLD and math.isfinite(sum(losses))):
            p = next(p for p, x in enumerate(losses) if not (math.isfinite(x) and x <= DIVERGENCE_THRESHOLD))
            # run alone, the fits after this one would never start
            diverged = Diverged(it, losses[p])
            live = live[:p]
            if not live:
                break
            theta, g, c, m4, cy, ey2 = theta[:p], g[:p], c[:p], m4[:p], cy[:p], ey2[:p]
        gsq = _sq_norms(g)
        done = []
        if math.sqrt(min(gsq)) <= tol:
            done = [p for p, s in enumerate(gsq) if math.sqrt(s) <= tol]
            for p in done:
                final[live[p]], iterations[live[p]], grad_norm[live[p]] = theta[p], it, math.sqrt(gsq[p])
        step, shortened = project(theta - lr * g, c)
        if shortened:
            moved = _sq_norms(step - theta)
            stall = [p for p in shortened if math.sqrt(moved[p]) <= tol * lr and p not in done]
            if stall:
                for p, gn in zip(stall, grad_norms(stall, step[stall])):
                    final[live[p]], iterations[live[p]], grad_norm[live[p]] = step[p], it, gn
                    stalled[live[p]] = True
                done += stall
        theta = step
        if done:
            keep = [p for p in range(len(live)) if p not in done]
            live = [live[p] for p in keep]
            if not live:
                break
            theta, c, m4, cy, ey2 = theta[keep], c[keep], m4[keep], cy[keep], ey2[keep]
    if diverged is not None:
        raise diverged
    if live:  # these fits ran to max_iters
        for i, t, gn in zip(live, theta, grad_norms(slice(None), theta)):
            final[i], grad_norm[i] = t, gn
    nets = [QuadNet(t) for t in final]
    return [
        TrainResult(
            net=net,
            converged=stalled[i] or grad_norm[i] <= tol,
            iterations=iterations[i],
            final_loss=empirical_loss(net, data),
            grad_norm=grad_norm[i],
        )
        for i, (net, data) in enumerate(zip(nets, datasets))
    ]


def seeded_start(d: int, k: int, cfg: TrainConfig) -> np.ndarray:
    """The random d x k start of a fit, seeded by cfg.seed: i.i.d. uniform in
    [-s, s] with s = init_scale (default 0.5/sqrt(k)); exact zero init is a
    stationary point and is avoided."""
    if k < 1:
        raise RejectedInput("k must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.init_scale if cfg.init_scale is not None else 0.5 / math.sqrt(k)
    return rng.uniform(-scale, scale, size=(d, k))


def train_gd(
    data: Dataset,
    d: int,
    k: int,
    cfg: TrainConfig,
    theta_max: float | None = None,
) -> TrainResult:
    """Fit a quadratic net from seeded_start, as a stack of one, inside the
    Frobenius ball of radius theta_max around the origin when given."""
    if data.d != d:
        raise RejectedInput(f"dataset dimension {data.d} does not match d={d}")
    return projected_gd_stack([data], [seeded_start(d, k, cfg)], cfg, radius=theta_max)[0]


def random_net(d: int, k: int, rng: np.random.Generator, frobenius_norm: float | None = None) -> QuadNet:
    """Gaussian net, optionally rescaled to an exact Frobenius norm."""
    theta = rng.standard_normal((d, k))
    if frobenius_norm is not None:
        theta *= frobenius_norm / np.linalg.norm(theta)
    return QuadNet(theta)
