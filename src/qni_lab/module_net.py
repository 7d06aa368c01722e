"""Compositional module network: quadratic modules sequenced by a tabular parser.

A word (token sequence) drives a deterministic parser over (token, previous
module) pairs; the selected modules, each a vector of per-coordinate quadratic
nets, are composed left to right on the input. Tokens follow a Markov chain;
a shifted chain with per-row total-variation budget alpha models composition
shift. All distribution computations on this discrete space are exact dynamic
programs (or brute-force enumerations for the oracles), and the TV convention
is the unnormalized sum of absolute differences (maximum 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import qnn_core as core
from .errors import RejectedInput

START_STATE = 0  # parser state before any token is read; modules are 1..k


@dataclass(frozen=True)
class Parser:
    """Lookup table (token, previous module) -> module in 1..k.

    Column index is the previous state in 0..k, with 0 the start state.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=int)
        if t.ndim != 2 or t.shape[1] < 2:
            raise RejectedInput(f"table must be |Z| x (k+1), got {t.shape}")
        k = t.shape[1] - 1
        if np.any(t < 1) or np.any(t > k):
            raise RejectedInput("table entries must be module indices in 1..k")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def alphabet_size(self) -> int:
        return self.table.shape[0]

    @property
    def k(self) -> int:
        return self.table.shape[1] - 1


@dataclass(frozen=True)
class TokenChain:
    """Markov chain over tokens: first token from `initial`, then row-wise transitions."""

    initial: np.ndarray
    transition: np.ndarray
    T: int

    def __post_init__(self):
        init = np.asarray(self.initial, dtype=float)
        trans = np.asarray(self.transition, dtype=float)
        if init.ndim != 1 or trans.shape != (init.size, init.size):
            raise RejectedInput(f"incompatible shapes initial {init.shape}, transition {trans.shape}")
        if self.T < 0:
            raise RejectedInput("T must be >= 0")
        if np.any(init < -1e-15) or np.any(trans < -1e-15):
            raise RejectedInput("probabilities must be nonnegative")
        if abs(init.sum() - 1.0) > 1e-12 or np.any(np.abs(trans.sum(axis=1) - 1.0) > 1e-12):
            raise RejectedInput("rows must sum to 1 within 1e-12")
        init = init.copy(); init.setflags(write=False)
        trans = trans.copy(); trans.setflags(write=False)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transition", trans)

    @property
    def alphabet_size(self) -> int:
        return self.initial.size


@dataclass(frozen=True)
class ShiftSpec:
    """Base and shifted chains whose corresponding rows differ by at most
    alpha_shift in (sum-of-absolute-differences) total variation."""

    base: TokenChain
    shifted: TokenChain
    alpha_shift: float

    def __post_init__(self):
        if self.base.alphabet_size != self.shifted.alphabet_size or self.base.T != self.shifted.T:
            raise RejectedInput("base and shifted chains must share alphabet and length")
        if not (0.0 <= self.alpha_shift <= 2.0):
            raise RejectedInput("alpha_shift must lie in [0, 2]")
        tol = 1e-12
        if tv_distance(self.base.initial, self.shifted.initial) > self.alpha_shift + tol:
            raise RejectedInput("initial distributions differ by more than alpha_shift")
        for z in range(self.base.alphabet_size):
            if tv_distance(self.base.transition[z], self.shifted.transition[z]) > self.alpha_shift + tol:
                raise RejectedInput(f"transition row {z} differs by more than alpha_shift")


@dataclass(frozen=True)
class ModuleLibrary:
    """k vector-valued modules on the ball of radius x_max; module j maps
    x to (net_{j,1}(x), ..., net_{j,d}(x)) with one quadratic net per coordinate.

    `thetas` holds the parameters of every coordinate net as one
    (k, d, d, width) array: module, coordinate, then the net's d x width theta."""

    thetas: np.ndarray
    x_max: float
    k_module: float | None = None  # configured Lipschitz bound on the domain
    fits: tuple = ()  # TrainResult per coordinate net, per module, when fitted

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        if thetas.ndim != 4 or thetas.shape[1] != thetas.shape[2] or 0 in thetas.shape:
            raise RejectedInput(f"thetas must be a (k, d, d, width) array with k, d, width >= 1, "
                                f"got shape {thetas.shape}")
        if not np.all(np.isfinite(thetas)):
            raise RejectedInput("thetas contains non-finite entries")
        if self.x_max <= 0:
            raise RejectedInput("x_max must be positive")
        thetas.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)

    @property
    def k(self) -> int:
        return self.thetas.shape[0]

    @property
    def d(self) -> int:
        return self.thetas.shape[1]

    def apply(self, j, x: np.ndarray) -> np.ndarray:
        """Evaluate module j (1-indexed) at x, or, for a vector j and an
        n x d x, module j[i] at each row x[i].

        Each coordinate is (x @ theta) @ (x @ theta) computed by stacked
        matmul, which gives the same bits as core.forward on one point."""
        j, x = np.asarray(j, dtype=int), np.asarray(x, dtype=float)
        if j.ndim > 1 or x.shape != j.shape + (self.d,):
            raise RejectedInput(f"need one module index and x of shape ({self.d},), or n indices "
                                f"and an n x {self.d} x; got {j.shape} and {x.shape}")
        js, xs = j.reshape(-1), x.reshape(-1, self.d)
        if js.size and (js.min() < 1 or js.max() > self.k):
            raise RejectedInput(f"module index outside 1..{self.k}")
        out = np.empty_like(xs)
        for m in range(self.k):
            rows = js == m + 1
            p = xs[rows][:, None, None, :] @ self.thetas[m]
            out[rows] = (p @ p.swapaxes(-1, -2))[:, :, 0, 0]
        return out.reshape(x.shape)

    def lipschitz_bound(self) -> float:
        """Analytic Lipschitz bound on the ball: max_j 2 x_max sqrt(sum_c rho_c^2)."""
        # sums over a module's coordinates (here, in module_sup_error and in
        # make_library) add Python floats in coordinate order, not pairwise
        top = np.linalg.eigvalsh(_induced(self.thetas))[..., -1].tolist()
        return max(2.0 * self.x_max * math.sqrt(sum(w**2 for w in coords)) for coords in top)

    def measured_lipschitz(self, n_pairs: int, rng: np.random.Generator) -> float:
        """Max difference quotient over random pairs in the ball (a lower
        estimate); pairs closer than 1e-12 are skipped."""
        _, points = _draw_rows(rng, 2 * n_pairs, 0, self.d, self.x_max)
        x, y = points[0::2], points[1::2]
        denom = _norms(x - y)
        keep = denom >= 1e-12
        best = 0.0
        for j in range(1, self.k + 1):
            js = np.full(n_pairs, j)
            num = _norms(self.apply(js, x) - self.apply(js, y))
            best = max(best, float(np.max(num[keep] / denom[keep], initial=0.0)))
        return best


def _induced(thetas: np.ndarray) -> np.ndarray:
    """Induced form of every net of a stack, symmetrized as core.induced does."""
    p = thetas @ thetas.mT
    return (p + p.mT) / 2.0


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit np.linalg.norm of the row."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _draw_rows(rng: np.random.Generator, n: int, T: int, d: int, radius: float):
    """n rows of randomness, each drawn in the order one word and one point
    have always used: T uniforms for the word's tokens (see sample_words),
    then d normals and one uniform for a uniform point in the ball of radius.
    Returns the n x T uniforms and the n x d points."""
    u, g, s = np.empty((n, T)), np.empty((n, d)), np.empty(n)
    for i in range(n):
        rng.random(out=u[i])
        rng.standard_normal(out=g[i])
        s[i] = rng.uniform() ** (1.0 / d)  # a Python scalar: numpy's array power rounds differently
    return u, (radius * s)[:, None] * (g / _norms(g)[:, None])


# ---------------------------------------------------------------------------
# parsing and composition


def parse(parser: Parser, words: np.ndarray) -> np.ndarray:
    """Module sequence j_1..j_T of a word, from a left-to-right fold starting
    at the start state; for an n x T array, the sequence of each row."""
    words = np.asarray(words, dtype=int)
    if words.ndim not in (1, 2):
        raise RejectedInput("words must be a 1-d token sequence or an n x T array of them")
    if words.size and (words.min() < 0 or words.max() >= parser.alphabet_size):
        raise RejectedInput("word contains tokens outside the alphabet")
    rows = np.atleast_2d(words)
    out = np.empty_like(rows)
    j = np.full(rows.shape[0], START_STATE)
    for t in range(rows.shape[1]):
        j = parser.table[rows[:, t], j]
        out[:, t] = j
    return out if words.ndim == 2 else out[0]


def compose(
    library: ModuleLibrary, parser: Parser, x: np.ndarray, words: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the parsed module sequence on x; returns (output, trace x_0..x_T).
    For an n x d x and n x T words, row i runs word i on x[i], and the output
    and every trace entry are n x d."""
    x = np.asarray(x, dtype=float)
    words = np.asarray(words, dtype=int)
    if x.shape != words.shape[:-1] + (library.d,):
        raise RejectedInput(f"x must have shape ({library.d},) for one word, or n x {library.d} "
                            f"for n words; got {x.shape} for words of shape {words.shape}")
    js = parse(parser, words)
    trace = [x]
    for t in range(js.shape[-1]):
        trace.append(library.apply(js[..., t], trace[-1]))
    return trace[-1], trace


def sample_word(chain: TokenChain, rng: np.random.Generator) -> np.ndarray:
    """Token sequence of length chain.T; reproducible from the generator state."""
    return sample_words(chain, rng.random((1, chain.T)))[0]


def sample_words(chain: TokenChain, uniforms: np.ndarray) -> np.ndarray:
    """One word per row of an n x T array of uniforms in [0, 1).

    Each token inverts its row's cumulative sum, normalized by its last entry,
    as Generator.choice does (searchsorted with side="right"): a word equals
    what T calls to rng.choice(|Z|, p=row) give a generator whose next T
    draws are the row."""
    u = np.asarray(uniforms, dtype=float)
    if u.ndim != 2 or u.shape[1] != chain.T:
        raise RejectedInput(f"uniforms must be n x {chain.T}, got {u.shape}")
    cum = np.cumsum(np.vstack([chain.initial, chain.transition]), axis=1)
    cdf = cum / cum[:, -1:]
    out = np.empty(u.shape, dtype=int)
    prev = np.zeros(u.shape[0], dtype=int)  # row 0 of cdf is the initial distribution
    for t in range(chain.T):
        out[:, t] = np.sum(cdf[prev] <= u[:, t, None], axis=1)
        prev = out[:, t] + 1
    return out


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of absolute differences between two distributions (range [0, 2])."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise RejectedInput(f"length mismatch: {p.shape} vs {q.shape}")
    return float(np.sum(np.abs(p - q)))


# ---------------------------------------------------------------------------
# worst-case sequence-level shift


def worst_case_shift(alpha_shift: float, T: int) -> tuple[ShiftSpec, float]:
    """Binary absorbing construction whose sequence-level TV is exactly
    2 (1 - (1 - alpha/2)^T) while every row shift stays within alpha.

    The base chain is frozen at token 0; the shifted chain leaks alpha/2 per
    step into the absorbing token 1.
    """
    if not (0.0 < alpha_shift <= 2.0):
        raise RejectedInput("alpha_shift must lie in (0, 2]")
    if T < 1:
        raise RejectedInput("T must be >= 1")
    a = alpha_shift
    base = TokenChain(
        initial=np.array([1.0, 0.0]),
        transition=np.array([[1.0, 0.0], [0.0, 1.0]]),
        T=T,
    )
    shifted = TokenChain(
        initial=np.array([1.0 - a / 2.0, a / 2.0]),
        transition=np.array([[1.0 - a / 2.0, a / 2.0], [0.0, 1.0]]),
        T=T,
    )
    exact_tv = 2.0 * (1.0 - (1.0 - a / 2.0) ** T)
    return ShiftSpec(base=base, shifted=shifted, alpha_shift=a), exact_tv


def enumerate_word_distribution(chain: TokenChain) -> tuple[list[tuple], np.ndarray]:
    """All |Z|^T words with their probabilities (brute-force oracle; small T only)."""
    words = list(itertools.product(range(chain.alphabet_size), repeat=chain.T))
    probs = np.empty(len(words))
    for i, w in enumerate(words):
        p = chain.initial[w[0]] if chain.T else 1.0
        for t in range(1, chain.T):
            p *= chain.transition[w[t - 1], w[t]]
        probs[i] = p
    return words, probs


def sequence_tv_bruteforce(spec: ShiftSpec) -> float:
    """Exact sequence-level TV by full enumeration."""
    _, p = enumerate_word_distribution(spec.base)
    _, q = enumerate_word_distribution(spec.shifted)
    return float(np.sum(np.abs(p - q)))


# ---------------------------------------------------------------------------
# exact mixtures over (token, previous module)


def mixture_distributions(chain: TokenChain, parser_true: Parser):
    """All step mixtures p_1..p_T plus their average, by exact dynamic programming."""
    nz, k = chain.alphabet_size, parser_true.k
    if parser_true.alphabet_size != nz:
        raise RejectedInput("parser and chain alphabets differ")
    steps = []
    cur = np.zeros((nz, k + 1))
    cur[:, START_STATE] = chain.initial
    steps.append(cur)
    for _ in range(2, chain.T + 1):
        nxt = np.zeros((nz, k + 1))
        for z_prev in range(nz):
            for j_prev in range(k + 1):
                mass = cur[z_prev, j_prev]
                if mass == 0.0:
                    continue
                j = int(parser_true.table[z_prev, j_prev])
                nxt[:, j] += chain.transition[z_prev] * mass
        steps.append(nxt)
        cur = nxt
    avg = np.mean(steps, axis=0)
    return steps, avg


def mixture_shift_check(spec: ShiftSpec, parser_true: Parser) -> dict:
    """Verify the linear compounding of mixture shift: TV_t <= t alpha for each
    step and averaged TV <= T alpha; returns the measured sequence."""
    steps_p, avg_p = mixture_distributions(spec.base, parser_true)
    steps_q, avg_q = mixture_distributions(spec.shifted, parser_true)
    per_step = [tv_distance(p, q) for p, q in zip(steps_p, steps_q)]
    tol = 1e-12
    per_step_ok = all(
        tv <= (t + 1) * spec.alpha_shift + tol for t, tv in enumerate(per_step)
    )
    avg_tv = tv_distance(avg_p, avg_q)
    T = spec.base.T
    return {
        "per_step_tv": per_step,
        "per_step_ok": bool(per_step_ok),
        "avg_tv": float(avg_tv),
        "avg_bound": float(T * spec.alpha_shift),
        "holds": bool(per_step_ok and avg_tv <= T * spec.alpha_shift + tol),
    }


# ---------------------------------------------------------------------------
# parser training and error accounting


def train_parser(
    examples: list[tuple[int, int, int]],
    alphabet_size: int | None = None,
    k: int | None = None,
) -> Parser:
    """Tabular majority vote per (token, previous module) cell.

    examples are (j_prev, z, j_next) triples. Unseen cells map to module 1;
    vote ties break toward the smaller module index.
    """
    if not examples:
        raise RejectedInput("need at least one labeled example")
    if alphabet_size is None:
        alphabet_size = max(z for _, z, _ in examples) + 1
    if k is None:
        k = max(max(j for j, _, _ in examples), max(j for _, _, j in examples))
    counts = np.zeros((alphabet_size, k + 1, k + 1), dtype=int)
    for j_prev, z, j_next in examples:
        if not (0 <= j_prev <= k and 0 <= z < alphabet_size and 1 <= j_next <= k):
            raise RejectedInput(f"example ({j_prev}, {z}, {j_next}) outside the domain")
        counts[z, j_prev, j_next] += 1
    table = np.ones((alphabet_size, k + 1), dtype=int)
    for z in range(alphabet_size):
        for j_prev in range(k + 1):
            cell = counts[z, j_prev]
            if cell.sum() > 0:
                table[z, j_prev] = int(np.argmax(cell))
    return Parser(table)


def parser_disagreement(parser_hat: Parser, parser_true: Parser, mixture: np.ndarray) -> float:
    """Probability mass of (z, j) cells where the two parsers disagree."""
    if parser_hat.table.shape != parser_true.table.shape:
        raise RejectedInput("parsers must share table shape")
    differs = parser_hat.table != parser_true.table
    return float(np.sum(mixture[differs]))


def sequence_error_check(
    parser_hat: Parser,
    parser_true: Parser,
    chain: TokenChain,
    n_mc: int,
    seed: int,
    enumerate_limit: int = 300_000,
) -> dict:
    """Check P[parse_hat(w) != parse_true(w)] <= T * eps_g with eps_g the exact
    per-step disagreement under the averaged mixture.

    The sequence error is exact (full enumeration) when |Z|^T is small,
    otherwise Monte-Carlo over n_mc words.
    """
    _, avg = mixture_distributions(chain, parser_true)
    eps_g = parser_disagreement(parser_hat, parser_true, avg)
    T = chain.T
    n_words = chain.alphabet_size**T
    if n_words <= enumerate_limit:
        words, probs = enumerate_word_distribution(chain)
        words = np.array(words, dtype=int).reshape(n_words, T)
        differ = np.any(parse(parser_hat, words) != parse(parser_true, words), axis=1)
        # a running sum in enumeration order, the order of one word at a time
        err = float(np.cumsum(np.append(0.0, probs[differ]))[-1])
        exact = True
    else:
        if n_mc < 1:
            raise RejectedInput(f"n_mc must be >= 1 when |Z|^T = {n_words} exceeds enumerate_limit")
        words = sample_words(chain, np.random.default_rng(seed).random((n_mc, T)))
        bad = int(np.sum(np.any(parse(parser_hat, words) != parse(parser_true, words), axis=1)))
        err = bad / n_mc
        exact = False
    tol = 1e-12 if exact else 3.0 * math.sqrt(0.25 / n_mc)
    return {
        "eps_g": float(eps_g),
        "sequence_error": float(err),
        "bound": float(T * eps_g),
        "exact": exact,
        "holds": bool(err <= T * eps_g + tol),
    }


# ---------------------------------------------------------------------------
# module estimation error and the composition experiment


def module_sup_error(fitted: ModuleLibrary, true: ModuleLibrary) -> tuple[float, list[float]]:
    """Uniform bound on ||fitted_j(x) - true_j(x)|| over the ball, per module.

    Aggregates exact per-coordinate sup gaps (spectral) in an l2 sense, which
    upper-bounds the vector-valued sup.
    """
    if (fitted.k, fitted.d) != (true.k, true.d):
        raise RejectedInput("libraries must share k and d")
    w = np.linalg.eigvalsh(_induced(fitted.thetas) - _induced(true.thetas))
    rho = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])).tolist()
    per_module = [math.sqrt(sum((true.x_max**2 * r) ** 2 for r in coords)) for coords in rho]
    return max(per_module), per_module


def composition_error_experiment(
    true_library: ModuleLibrary,
    fitted_library: ModuleLibrary,
    parser_true: Parser,
    parser_hat: Parser,
    spec: ShiftSpec,
    n_mc: int,
    seed: int,
) -> dict:
    """Sample words from the shifted chain and check the end-to-end error bound.

    Verifies that the frequency of {gap <= T eps_f max(K^(T-1), 1)} is at
    least 1 - T eps_g - T^2 alpha, up to a one-sided 95% binomial band. eps_f
    is the measured uniform module error, K the larger of the configured and
    measured Lipschitz constants of the true library, and eps_g the exact
    parser disagreement under the base chain's averaged mixture.
    """
    if n_mc < 1:
        raise RejectedInput("n_mc must be >= 1")
    rng = np.random.default_rng(seed)
    T = spec.base.T
    eps_f, _ = module_sup_error(fitted_library, true_library)
    configured = true_library.k_module
    if configured is None:
        configured = true_library.lipschitz_bound()
    measured = true_library.measured_lipschitz(200, rng)
    K = max(configured, measured)
    _, avg = mixture_distributions(spec.base, parser_true)
    eps_g = parser_disagreement(parser_hat, parser_true, avg)
    bound = T * eps_f * max(K ** (T - 1), 1.0)

    uniforms, x = _draw_rows(rng, n_mc, T, true_library.d, true_library.x_max)
    words = sample_words(spec.shifted, uniforms)
    out_true, _ = compose(true_library, parser_true, x, words)
    out_hat, _ = compose(fitted_library, parser_hat, x, words)
    gaps = _norms(out_hat - out_true)
    match = np.all(parse(parser_hat, words) == parse(parser_true, words), axis=1)
    within = gaps <= bound + 1e-12
    n_within, n_match = int(np.sum(within)), int(np.sum(match))
    rows = [
        {"word_id": i, "parse_match": int(m), "gap_l2": g, "bound": float(bound), "within_bound": int(w)}
        for i, (m, g, w) in enumerate(zip(match.tolist(), gaps.tolist(), within.tolist()))
    ]
    freq = n_within / n_mc
    target = 1.0 - T * eps_g - T * T * spec.alpha_shift
    if target <= 0.0:
        holds = True
        band = 0.0
    else:
        band = 1.645 * math.sqrt(max(target * (1.0 - target), 1.0 / n_mc) / n_mc)
        holds = freq >= target - band
    return {
        "T": int(T),
        "n_mc": int(n_mc),
        "eps_f": float(eps_f),
        "eps_g": float(eps_g),
        "k_module": float(K),
        "alpha_shift": float(spec.alpha_shift),
        "gap_bound": float(bound),
        "freq_within": float(freq),
        "freq_parse_match": float(n_match / n_mc),
        "target": float(target),
        "band": float(band),
        "holds": bool(holds),
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# synthetic constructions


def make_library(
    d: int,
    k: int,
    x_max: float,
    lipschitz_target: float,
    rng: np.random.Generator,
    width: int | None = None,
) -> ModuleLibrary:
    """Random module library rescaled so the analytic Lipschitz bound equals
    lipschitz_target exactly (contractive for targets <= 1)."""
    width = width if width is not None else d + 1
    target_agg = lipschitz_target / (2.0 * x_max)
    raw = rng.standard_normal((k, d, d, width))
    top = np.linalg.eigvalsh(raw @ raw.mT)[..., -1].tolist()
    gamma = np.array([math.sqrt(target_agg / math.sqrt(sum(w**2 for w in coords))) for coords in top])
    return ModuleLibrary(gamma[:, None, None, None] * raw, x_max=x_max, k_module=lipschitz_target)


def fit_library(
    true_library: ModuleLibrary,
    n_per_coordinate: int,
    xi_max: float,
    noise_kind: str,
    cfg: core.TrainConfig,
    seed: int,
) -> ModuleLibrary:
    """Fit every coordinate net of every module on fresh execution pairs
    (inputs drawn from the cube inscribed in the domain ball), all k * d fits
    as one stack; the fits' TrainResults ride along in the library's `fits`."""
    k, d, _, width = true_library.thetas.shape
    sampler = core.CovariateSampler.uniform_cube(d, true_library.x_max / math.sqrt(d))
    datasets, starts = [], []
    for i, theta in enumerate(true_library.thetas.reshape(k * d, d, width)):
        s = seed + 2 * i
        datasets.append(core.generate_dataset(core.QuadNet(theta), sampler, xi_max, noise_kind, n_per_coordinate, s))
        starts.append(core.seeded_start(d, width, replace(cfg, seed=s + 1)))
    results = core.projected_gd_stack(datasets, starts, cfg)
    fits = tuple(tuple(results[j * d:(j + 1) * d]) for j in range(k))
    thetas = np.array([res.net.theta for res in results]).reshape(true_library.thetas.shape)
    return ModuleLibrary(thetas, x_max=true_library.x_max, fits=fits)


def random_parser(alphabet_size: int, k: int, rng: np.random.Generator) -> Parser:
    return Parser(rng.integers(1, k + 1, size=(alphabet_size, k + 1)))


def random_chain(alphabet_size: int, T: int, rng: np.random.Generator, concentration: float = 2.0) -> TokenChain:
    init = rng.dirichlet(np.full(alphabet_size, concentration))
    trans = np.stack([rng.dirichlet(np.full(alphabet_size, concentration)) for _ in range(alphabet_size)])
    return TokenChain(initial=init, transition=trans, T=T)


def shifted_chain(base: TokenChain, alpha_shift: float, rng: np.random.Generator) -> TokenChain:
    """Perturb every row (and the initial distribution) by a mean-zero vector
    with l1 mass at most alpha_shift, staying inside the simplex."""

    def perturb(row: np.ndarray) -> np.ndarray:
        v = rng.standard_normal(row.size)
        v -= v.mean()
        l1 = np.sum(np.abs(v))
        if l1 == 0.0:
            return row.copy()
        v *= alpha_shift * rng.uniform(0.5, 1.0) / l1
        out = row + v
        # pull the perturbation back toward zero until the row is a distribution
        scale = 1.0
        while np.any(out < 0.0) and scale > 1e-9:
            scale *= 0.5
            out = row + scale * v
        if np.any(out < 0.0):
            return row.copy()
        return out / out.sum()

    return TokenChain(
        initial=perturb(base.initial),
        transition=np.stack([perturb(base.transition[z]) for z in range(base.alphabet_size)]),
        T=base.T,
    )
