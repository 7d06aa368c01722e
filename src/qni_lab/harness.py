"""Experiment front end: scenarios, seeded runs, verification suite, file output.

Scenarios are JSON dicts; every run is determined by (scenario digest, seed).
Each invocation appends one JSONL record per run and writes command-specific
CSVs. Floats are rendered with repr so identical runs produce byte-identical
rows. Replicates can execute in a thread pool; results are merged in a
deterministic order either way.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import math
import numbers
import operator
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bandit, identify, module_net, qnn_core as core, transfer
from .errors import AssumptionViolated, RejectedInput

ARTIFACT_VERSION = "0.1.0"

COMMANDS = ("identify", "bandit", "transfer", "modules", "verify", "sweep")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


# Every scenario key the builders read, top level or nested, but the free-form
# ones (kind, atoms, weights, noise_kind, checks, require_holds). kind: int,
# float (any real; counts the builders pass through int() are reals), list (a
# nonempty list of reals) or dict (a nested object). bounds: the conditions a
# value, or each entry of a list, must meet, such as ">= 1" or "> 0, < 1";
# None for none. default: None allows null, meaning the default (a null shift
# sampler is the sampler, a null n_grid is [n]); NO_DEFAULT marks a required
# key.
Key = namedtuple("Key", "kind bounds default")
NO_DEFAULT = object()
SCENARIO_KEYS = {
    # sizes and seeds (numpy refuses negative seeds)
    "d": Key(int, ">= 1", NO_DEFAULT), "k": Key(int, ">= 1", NO_DEFAULT),
    "alphabet_size": Key(int, ">= 1", NO_DEFAULT), "width": Key(int, ">= 1", None),
    "truth_seed": Key(int, ">= 0", NO_DEFAULT), "theta_seed": Key(int, ">= 0", NO_DEFAULT),
    "library_seed": Key(int, ">= 0", NO_DEFAULT), "parser_seed": Key(int, ">= 0", NO_DEFAULT),
    "chain_seed": Key(int, ">= 0", NO_DEFAULT),
    # counts
    "T": Key(float, ">= 1", NO_DEFAULT), "n_p": Key(float, ">= 1", NO_DEFAULT),
    "n_g": Key(float, ">= 1", NO_DEFAULT), "grid": Key(list, ">= 1", NO_DEFAULT),
    "n": Key(float, ">= 1", 2000), "n_grid": Key(list, ">= 1", None),
    "n_eval": Key(float, ">= 1", 2000), "n_train": Key(float, ">= 1", 400),
    "n_parser_words": Key(float, ">= 1", 300), "n_mc": Key(float, ">= 1", 400),
    "trace_stride": Key(float, ">= 1", 1),
    # real parameters
    "B": Key(float, ">= 0", NO_DEFAULT), "sigma0": Key(float, "> 0", NO_DEFAULT),
    "spectrum": Key(list, ">= 0", NO_DEFAULT), "alpha_shift": Key(float, ">= 0, <= 2", NO_DEFAULT),
    "xi_max": Key(float, ">= 0", 0.0), "delta": Key(float, "> 0, < 1", 0.1),
    "truth_norm": Key(float, "> 0", 1.0), "M": Key(float, "> 0", None),
    "m_scale": Key(float, "> 0", 1.0), "x_max": Key(float, "> 0", 1.0),
    "lipschitz_target": Key(float, "> 0", 0.9), "scale": Key(float, "> 0", 1.0),
    # nested objects, and the fields of train and of the sampler objects
    "train": Key(dict, None, {}), "sampler": Key(dict, None, {}),
    "shift": Key(dict, None, None), "shift_sampler": Key(dict, None, None),
    "learning_rate": Key(float, "> 0", 0.1), "max_iters": Key(float, ">= 1", 3000),
    "grad_tol": Key(float, "> 0", 1e-7), "init_scale": Key(float, "> 0", None),
    "half_width": Key(float, "> 0", 0.5),
}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}

# Keys each command requires (a sweep's base scenario: those of the command
# its axis runs, less the key the sweep sets).
REQUIRED_KEYS = {
    "identify": ("d", "k", "truth_seed"),
    "bandit": ("d", "k", "spectrum", "theta_seed", "T"),
    "transfer": ("d", "k", "B", "n_p", "n_g", "sigma0", "theta_seed"),
    "modules": ("d", "k", "alphabet_size", "T", "alpha_shift",
                "library_seed", "parser_seed", "chain_seed"),
    "verify": (),
}

# Sweep axis -> (command run at each grid point, base key the sweep sets).
SWEEP_AXES = {
    "n": ("identify", "n_grid"),
    "T": ("bandit", "T"),
    "n_g": ("transfer", "n_g"),
    "T_modules": ("modules", "T"),
}


def _value(spec: dict, key: str):
    """A scenario (or nested object) value, or its key's default."""
    return spec.get(key, SCENARIO_KEYS[key].default)


def _has_type(value, kind) -> bool:
    """Whether a scenario value has the type a Key names; a bool is not a number."""
    if kind is list:
        return isinstance(value, (list, tuple)) and len(value) > 0 and all(_has_type(v, float) for v in value)
    base = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, base) and not isinstance(value, bool)


def _within(value, bounds: str) -> bool:
    """Whether a number meets every condition in bounds ("> 0, < 1")."""
    return all(_COMPARE[op](value, float(limit)) for op, limit in map(str.split, bounds.split(",")))


def _bad_values(values: dict, prefix: str = "") -> list[str]:
    """What is wrong with each value in values, nested objects included."""
    bad = []
    for key, value in values.items():
        spec, name = SCENARIO_KEYS.get(key), prefix + key
        if spec is None or (value is None and spec.default is None):
            continue
        if not _has_type(value, spec.kind):
            bad.append(f"wrong type: {name}")
        elif spec.kind is dict:
            bad += _bad_values(value, name + ".")
        elif spec.bounds is not None:
            entries = value if spec.kind is list else [value]
            # JSON reads Infinity, which meets a lower bound and then overflows int()
            if not all(-math.inf < v < math.inf for v in entries):
                bad.append(f"out of range: {name} must be finite")
            elif not all(_within(v, spec.bounds) for v in entries):
                bad.append(f"out of range: {name} must be {spec.bounds.replace(',', ' and')}")
    return bad


def _check_scenario(command: str, scenario: dict) -> None:
    """Reject a scenario that lacks a key its command needs, holds a value
    of the wrong type or out of range (checked against SCENARIO_KEYS, in
    nested objects too), asks for a rank-d net with k < d or a bandit reward
    net without the eigengap its M needs, holds a sampler that cannot be
    built or trains on one with zero curvature, or names an unknown noise
    kind, sweep axis or verify check, before anything runs."""
    if not isinstance(scenario, dict):
        raise RejectedInput("scenario must be a JSON object")
    where, skip, bad = "scenario", None, []
    if command == "sweep":
        axis = scenario.get("axis")
        if axis not in SWEEP_AXES:
            raise RejectedInput(f"unknown sweep axis {axis!r}")
        command, skip = SWEEP_AXES[axis]
        bad, scenario, where = _bad_values(scenario), scenario.get("base", {}), "sweep base scenario"
        if not isinstance(scenario, dict):
            raise RejectedInput(f"{where} must be a JSON object")
    missing = [key for key in REQUIRED_KEYS[command] if key != skip and key not in scenario]
    if missing:
        raise RejectedInput(f"{where} is missing required key(s): {', '.join(missing)}")
    bad += _bad_values(scenario)
    if bad:
        raise RejectedInput(f"scenario has bad value(s): {'; '.join(bad)}")
    if command in ("bandit", "transfer") and scenario["k"] < scenario["d"]:
        raise RejectedInput(f"{where} has k = {scenario['k']} < d = {scenario['d']}: a rank-d net needs k >= d")
    if command == "bandit":  # T enters none of the problem's checks, and a T-axis sweep base has none
        try:
            bandit_problem_from_scenario({**scenario, "T": 1})
        except AssumptionViolated as exc:
            raise RejectedInput(f"{where}'s reward net breaks the eigengap assumption: {exc}") from None
    if command in ("identify", "transfer"):
        samplers = [sampler_from_dict(_value(scenario, name) or {}, scenario["d"])
                    for name in ("sampler", "shift", "shift_sampler")]
        if core.exact_alpha(samplers[0]) == 0.0:  # the fits train on the first
            raise RejectedInput(f"{where}'s sampler has zero curvature (exact_alpha is 0): "
                                "its samples cannot identify a net")
    noise_kind = scenario.get("noise_kind", "zero")
    if command in ("identify", "transfer", "modules") and noise_kind not in core.NOISE_KINDS:
        raise RejectedInput(f"unknown noise_kind {noise_kind!r}; known: {', '.join(core.NOISE_KINDS)}")
    if command == "verify":
        checks, names = scenario.get("checks") or [], list(VERIFY_CHECKS)
        if not isinstance(checks, list):
            raise RejectedInput("checks must be a list of check names")
        unknown = [repr(c) for c in checks if c not in names]
        if unknown:
            raise RejectedInput(
                f"unknown verify check(s) {', '.join(unknown)}; known: {', '.join(names)}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    scenario: dict
    seeds: tuple
    out_dir: Path
    parallelism: int = 1

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise RejectedInput(f"unknown command {self.command!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise RejectedInput("seeds must be nonempty and distinct")
        if min(self.seeds) < 0:
            raise RejectedInput("seeds must be >= 0")
        if self.parallelism < 1:
            raise RejectedInput("parallelism must be >= 1")
        _check_scenario(self.command, self.scenario)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def scenario_hash(scenario: dict) -> str:
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _columns(rows: list[dict]) -> dict:
    """Rows that share their keys, as one table of named columns."""
    return {name: [row[name] for row in rows] for name in rows[0]}


def write_csv(path: Path, table: dict) -> None:
    """Write a table of named, equally long columns (arrays or lists): the
    header is the key order, and each column is formatted once, lazily.
    Cells are the str of .tolist()'s values, which is repr for a float,
    with bools as 0/1; csv quotes a cell that holds a comma."""
    def cells(column):
        values = np.asarray(column)
        return map(str, (values.astype(int) if values.dtype == bool else values).tolist())

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows(zip(*map(cells, table.values()), strict=True))


# ---------------------------------------------------------------------------
# scenario -> problem builders


def default_scenario(command: str) -> dict:
    if command == "identify":
        return {
            "d": 3, "k": 6, "truth_seed": 101, "truth_norm": 1.0,
            "sampler": {"kind": "uniform_cube", "half_width": 0.5},
            "shift": {"kind": "uniform_cube", "half_width": 0.25},
            "n_grid": [2000], "xi_max": 0.0, "noise_kind": "zero", "delta": 0.1,
            "n_eval": 2000,
            "train": {"learning_rate": 0.1, "max_iters": 3000, "grad_tol": 1e-7},
        }
    if command == "bandit":
        return {
            "d": 3, "k": 5, "spectrum": [1.0, 0.3, 0.1], "theta_seed": 7,
            "xi_max": 0.02, "T": 5000, "m_scale": 2e-4,
            "train": {"learning_rate": 0.1, "max_iters": 2500, "grad_tol": 1e-7},
        }
    if command == "transfer":
        return {
            "d": 6, "k": 8, "B": 0.1, "n_p": 8000, "n_g": 20, "sigma0": 0.25,
            "xi_max": 0.0, "noise_kind": "zero", "delta": 0.1, "theta_seed": 11,
            "sampler": {"kind": "uniform_cube", "half_width": 0.5},
            "shift_sampler": {"kind": "uniform_cube", "half_width": 0.5},
            "train": {"learning_rate": 0.12, "max_iters": 2500, "grad_tol": 1e-7},
        }
    if command == "modules":
        return {
            "d": 2, "k": 3, "alphabet_size": 4, "T": 4, "alpha_shift": 0.05,
            "x_max": 1.0, "lipschitz_target": 0.9, "width": 3,
            "n_train": 400, "xi_max": 0.02, "noise_kind": "uniform",
            "n_parser_words": 300, "n_mc": 400,
            "library_seed": 5, "parser_seed": 3, "chain_seed": 4,
            "train": {"learning_rate": 0.15, "max_iters": 2000, "grad_tol": 1e-7},
        }
    if command == "verify":
        return {"scale": 1.0}
    if command == "sweep":
        base = default_scenario("identify")
        return {"axis": "n", "grid": [500, 1000, 2000], "base": base}
    raise RejectedInput(f"unknown command {command!r}")


def sampler_from_dict(spec: dict, d: int) -> core.CovariateSampler:
    kind = spec.get("kind", "uniform_cube")
    if kind == "uniform_cube":
        return core.CovariateSampler.uniform_cube(d, _value(spec, "half_width"))
    if kind == "uniform_scaled":
        return core.CovariateSampler.uniform_scaled(d)
    if kind == "unit_sphere":
        return core.CovariateSampler.unit_sphere(d)
    if kind == "custom_mixture":
        if "atoms" not in spec:
            raise RejectedInput("a custom_mixture sampler is missing required key: atoms")
        try:
            atoms = np.asarray(spec["atoms"], dtype=float)
            weights = np.asarray(spec["weights"], dtype=float) if "weights" in spec else None
        except (TypeError, ValueError):
            raise RejectedInput("a custom_mixture sampler's atoms and weights must be numbers") from None
        return core.CovariateSampler("custom_mixture", d, atoms=atoms, weights=weights)
    raise RejectedInput(f"unknown sampler kind {kind!r}")


def samplers_from_scenario(scenario: dict, shift_key: str):
    """The scenario's sampler and the shifted sampler under shift_key, which
    defaults to the sampler."""
    p, q = _value(scenario, "sampler"), _value(scenario, shift_key)
    return sampler_from_dict(p, scenario["d"]), sampler_from_dict(p if q is None else q, scenario["d"])


def train_config_from_dict(spec: dict) -> core.TrainConfig:
    return core.TrainConfig(
        learning_rate=_value(spec, "learning_rate"),
        max_iters=int(_value(spec, "max_iters")),
        grad_tol=_value(spec, "grad_tol"),
        init_scale=_value(spec, "init_scale"),
    )


def truth_from_scenario(scenario: dict) -> core.QuadNet:
    rng = np.random.default_rng(scenario["truth_seed"])
    return core.random_net(scenario["d"], scenario["k"], rng, _value(scenario, "truth_norm"))


def bandit_problem_from_scenario(scenario: dict) -> bandit.BanditProblem:
    d, k = scenario["d"], scenario["k"]
    spectrum = np.asarray(scenario["spectrum"], dtype=float)
    if spectrum.size != d:
        raise RejectedInput("spectrum must list d eigenvalues")
    rng = np.random.default_rng(scenario["theta_seed"])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    theta = np.zeros((d, k))
    theta[:, :d] = q @ np.diag(np.sqrt(spectrum))
    return bandit.BanditProblem(
        theta_star=core.QuadNet(theta),
        xi_max=_value(scenario, "xi_max"),
        T=int(scenario["T"]),
        M=_value(scenario, "M"),
        m_scale=_value(scenario, "m_scale"),
    )


def transfer_problem_from_scenario(scenario: dict) -> transfer.TransferProblem:
    d, k = scenario["d"], scenario["k"]
    rng = np.random.default_rng(scenario["theta_seed"])
    sigma0 = scenario["sigma0"]
    # source net built from an explicit SVD so its d-th singular value is known
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    sing = rng.uniform(1.5 * sigma0, 3.0 * sigma0, size=d)
    theta_p = u @ np.diag(sing) @ v[:, :d].T
    shift = rng.standard_normal((d, k))
    shift *= scenario["B"] / np.linalg.norm(shift)
    theta_g = theta_p + shift
    sampler_p, sampler_q = samplers_from_scenario(scenario, "shift_sampler")
    return transfer.TransferProblem(
        theta_p_star=core.QuadNet(theta_p),
        theta_g_star=core.QuadNet(theta_g),
        B=scenario["B"],
        n_p=int(scenario["n_p"]),
        n_g=int(scenario["n_g"]),
        sampler_p=sampler_p,
        sampler_q=sampler_q,
        sigma0=sigma0,
        xi_max=_value(scenario, "xi_max"),
        noise_kind=scenario.get("noise_kind", "zero"),
    )


def module_setup_from_scenario(scenario: dict):
    d = scenario["d"]
    k = scenario["k"]
    lib_rng = np.random.default_rng(scenario["library_seed"])
    true_lib = module_net.make_library(
        d, k, _value(scenario, "x_max"), _value(scenario, "lipschitz_target"),
        lib_rng, width=_value(scenario, "width"),
    )
    parser_rng = np.random.default_rng(scenario["parser_seed"])
    parser_true = module_net.random_parser(scenario["alphabet_size"], k, parser_rng)
    chain_rng = np.random.default_rng(scenario["chain_seed"])
    base = module_net.random_chain(scenario["alphabet_size"], int(scenario["T"]), chain_rng)
    shifted = module_net.shifted_chain(base, scenario["alpha_shift"], chain_rng)
    spec = module_net.ShiftSpec(base=base, shifted=shifted, alpha_shift=scenario["alpha_shift"])
    return true_lib, parser_true, spec


# ---------------------------------------------------------------------------
# per-seed execution


def run_identify_seed(scenario: dict, seed: int) -> dict:
    truth = truth_from_scenario(scenario)
    sampler_p, sampler_q = samplers_from_scenario(scenario, "shift")
    cfg = train_config_from_dict(_value(scenario, "train"))
    rows, fits = identify.robust_shift_experiment(
        truth, sampler_p, sampler_q,
        n_grid=[int(n) for n in _value(scenario, "n_grid") or [_value(scenario, "n")]],
        cfg=cfg,
        seeds=[seed],
        delta=_value(scenario, "delta"),
        xi_max=_value(scenario, "xi_max"),
        noise_kind=scenario.get("noise_kind", "zero"),
        n_eval=int(_value(scenario, "n_eval")),
    )
    return {"rows": rows, "fits": fits, "all_hold": int(all(r["holds"] for r in rows))}


def run_bandit_seed(scenario: dict, seed: int) -> dict:
    problem = bandit_problem_from_scenario(scenario)
    cfg = train_config_from_dict(_value(scenario, "train"))
    trace = bandit.run_etc(problem, cfg, seed)
    cum = trace.cumulative_regret()
    t = np.arange(0, trace.T, int(_value(scenario, "trace_stride")))
    return {
        "m": trace.m,
        "m_raw": trace.m_raw,
        "m_clamped": int(trace.m_clamped),
        "final_cum_regret": float(cum[-1]),
        "regret_bound": bandit.regret_bound(problem, trace.T),
        "committed_arm": [float(v) for v in trace.committed_arm],
        "fit": trace.fit.diagnostics(),
        "table": {"t": t + 1, "phase": np.where(t < trace.m, "explore", "commit"), "reward": trace.rewards[t],
                  "inst_regret": trace.inst_regret[t], "cum_regret": cum[t]},
    }


def run_transfer_seed(scenario: dict, seed: int) -> dict:
    problem = transfer_problem_from_scenario(scenario)
    cfg = train_config_from_dict(_value(scenario, "train"))
    return transfer.run_transfer(problem, _value(scenario, "delta"), cfg, seed=seed)


def run_modules_seed(scenario: dict, seed: int) -> dict:
    true_lib, parser_true, spec = module_setup_from_scenario(scenario)
    cfg = train_config_from_dict(_value(scenario, "train"))
    fitted = module_net.fit_library(
        true_lib, int(_value(scenario, "n_train")), _value(scenario, "xi_max"),
        scenario.get("noise_kind", "zero"), cfg, seed,
    )
    word_rng = np.random.default_rng(seed + 10_000)
    n_words, T = int(_value(scenario, "n_parser_words")), spec.base.T
    words = module_net.sample_words(spec.base, word_rng.random((n_words, T)))
    modules = module_net.parse(parser_true, words)
    prev = np.hstack([np.full((n_words, 1), module_net.START_STATE), modules])[:, :T]
    examples = list(zip(prev.ravel().tolist(), words.ravel().tolist(), modules.ravel().tolist()))
    parser_hat = module_net.train_parser(
        examples, alphabet_size=parser_true.alphabet_size, k=parser_true.k
    )
    report = module_net.composition_error_experiment(
        true_lib, fitted, parser_true, parser_hat, spec,
        n_mc=int(_value(scenario, "n_mc")), seed=seed + 20_000,
    )
    report["fits"] = [[res.diagnostics() for res in coords] for coords in fitted.fits]
    return report


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class CheckResult:
    passed: bool
    detail: dict = field(default_factory=dict)


def _check_strong_convexity(scale: float, seed: int) -> CheckResult:
    est = core.estimate_alpha(
        core.CovariateSampler.uniform_cube(3), n_mc=max(int(200_000 * scale), 2_000),
        n_directions=20, seed=seed,
    )
    floor = 1.0 / 180.0 - 0.001
    return CheckResult(est >= floor, {"estimate": est, "floor": floor})


def _check_loss_lipschitz(scale: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    phi_max, x_max = 1.0, 1.0
    K = 4.0 * phi_max * x_max**4
    worst = -math.inf
    n = max(int(300 * scale), 10)
    ok = True
    for _ in range(n):
        mats = []
        for _ in range(3):
            g = rng.standard_normal((3, 3))
            m = (g + g.T) / 2.0
            m *= rng.uniform(0.1, 1.0) * phi_max / np.linalg.norm(m)
            mats.append(m)
        phi, phi_p, phi_star = mats
        x = rng.standard_normal(3)
        x *= rng.uniform(0.0, 1.0) * x_max / np.linalg.norm(x)
        f = lambda m: float(x @ m @ x)
        lhs = abs((f(phi) - f(phi_star)) ** 2 - (f(phi_p) - f(phi_star)) ** 2)
        rhs = K * float(np.linalg.norm(phi - phi_p))
        worst = max(worst, lhs - rhs)
        ok = ok and lhs <= rhs + 1e-10
    return CheckResult(ok, {"worst_margin": worst})


def _check_deviation_monotonic(scale: float, seed: int) -> CheckResult:
    b = core.BoundSpec(x_max=1.0, theta_max=1.0, phi_max=1.0, xi_max=0.1)
    grid = [10**p for p in range(2, 9)]
    eps = [identify.epsilon_bound(n, 3, 0.05, b).epsilon for n in grid]
    decreasing = all(a > b_ for a, b_ in zip(eps, eps[1:]))
    ratio_ok = identify.epsilon_bound(10**8, 3, 0.05, b).epsilon < identify.epsilon_bound(10**4, 3, 0.05, b).epsilon / 50.0
    return CheckResult(decreasing and ratio_ok, {"eps_1e4": eps[2], "eps_1e8": eps[6]})


def _check_identification_dominance(scale: float, seed: int) -> CheckResult:
    d, k, n = 2, 4, 2000
    sampler = core.CovariateSampler.uniform_cube(d)
    rng = np.random.default_rng(seed)
    truth = core.random_net(d, k, rng, 1.0)
    b = core.BoundSpec(x_max=sampler.x_max, theta_max=1.5, phi_max=2.25, xi_max=0.0)
    alpha = core.nominal_alpha(sampler)
    cfg = core.TrainConfig(learning_rate=0.2, max_iters=3000, grad_tol=1e-9)
    runs = max(int(5 * scale), 2)
    datasets = [core.generate_dataset(truth, sampler, 0.0, "zero", n, seed + 100 + r) for r in range(runs)]
    starts = [core.seeded_start(d, k, replace(cfg, seed=seed + 200 + r)) for r in range(runs)]
    fits = core.projected_gd_stack(datasets, starts, cfg, radius=b.theta_max)
    bound = identify.epsilon_bound(n, d, 0.1, b)
    all_ok = True
    worst = 0.0
    for fit in fits:
        verdict = identify.identification_check(truth, fit.net, bound, alpha, b.x_max)
        all_ok = all_ok and verdict.holds and verdict.frob_holds
        worst = max(worst, verdict.measured_sup_gap_sq / verdict.certified_sup_gap_sq)
    return CheckResult(all_ok, {"worst_ratio": worst, "runs": runs, "fits": [fit.diagnostics() for fit in fits]})


def _check_smooth_best_arm(scale: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    phi_star = core.InducedForm(np.diag([3.0, 1.0, 0.5]))
    M = bandit.eigengap_constant(phi_star)
    n = max(int(200 * scale), 20)
    ok = True
    for _ in range(n):
        g = rng.standard_normal((3, 3))
        e = (g + g.T) / 2.0
        e /= np.linalg.norm(e)
        phi = core.InducedForm(phi_star.phi + rng.uniform(0.0, 1.0) * e)
        verdict = bandit.smooth_best_arm_check(phi, phi_star, M)
        ok = ok and verdict.holds is True
    return CheckResult(ok, {"trials": n})


def _check_alignment(scale: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    n = max(int(200 * scale), 20)
    ok = True
    worst = -math.inf
    for _ in range(n):
        d, k = 3, 5
        theta_p = core.random_net(d, k, rng)
        smin = transfer.sigma_min(theta_p)
        if smin < 0.2:
            continue
        theta = core.QuadNet(theta_p.theta + 0.05 * rng.standard_normal((d, k)))
        res = transfer.align(theta, theta_p, sigma0=0.2)
        bound = identify.frobenius_gap(theta, theta_p) / smin
        orth = max(
            float(np.linalg.norm(res.R @ res.R.T - np.eye(k))),
            float(np.linalg.norm(res.R_prime @ res.R_prime.T - np.eye(k))),
        )
        ok = ok and res.aligned_gap <= bound + 1e-10 and orth <= 1e-10
        worst = max(worst, res.aligned_gap - bound)
    return CheckResult(ok, {"worst_margin": worst})


def _check_worst_case_shift(scale: float, seed: int) -> CheckResult:
    ok = True
    worst = 0.0
    for a in (0.3, 1.0):
        for T in range(1, 11):
            spec, exact = module_net.worst_case_shift(a, T)
            brute = module_net.sequence_tv_bruteforce(spec)
            worst = max(worst, abs(brute - exact))
            ok = ok and abs(brute - exact) <= 1e-12
    return CheckResult(ok, {"worst_abs_err": worst})


def _check_mixture_shift(scale: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    n = max(int(10 * scale), 3)
    ok = True
    for i in range(n):
        chain = module_net.random_chain(4, 8, rng)
        shifted = module_net.shifted_chain(chain, 0.2, rng)
        spec = module_net.ShiftSpec(chain, shifted, 0.2)
        parser = module_net.random_parser(4, 3, rng)
        ok = ok and module_net.mixture_shift_check(spec, parser)["holds"]
    return CheckResult(ok, {"specs": n})


def _check_sequence_error(scale: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    chain = module_net.random_chain(3, 5, rng)
    parser_true = module_net.random_parser(3, 3, rng)
    n = max(int(10 * scale), 3)
    ok = True
    for i in range(n):
        table = parser_true.table.copy()
        flat = rng.random(table.shape) < 0.1
        rand_mod = rng.integers(1, 4, size=table.shape)
        table = np.where(flat, rand_mod, table)
        parser_hat = module_net.Parser(table)
        res = module_net.sequence_error_check(parser_hat, parser_true, chain, 0, seed)
        ok = ok and res["holds"] and res["exact"]
    return CheckResult(ok, {"parsers": n})


def _check_composition_bound(scale: float, seed: int) -> CheckResult:
    scenario = default_scenario("modules")
    scenario["n_mc"] = max(int(200 * scale), 50)
    scenario["n_train"] = max(int(300 * scale), 100)
    report = run_modules_seed(scenario, seed)
    return CheckResult(
        bool(report["holds"]), {"freq_within": report["freq_within"], "target": report["target"]}
    )


VERIFY_CHECKS = {
    "strong-convexity-mc": _check_strong_convexity,
    "loss-lipschitz-pairs": _check_loss_lipschitz,
    "deviation-monotonicity": _check_deviation_monotonic,
    "identification-dominance": _check_identification_dominance,
    "smooth-best-arm": _check_smooth_best_arm,
    "orthogonal-alignment": _check_alignment,
    "worst-case-sequence-shift": _check_worst_case_shift,
    "mixture-shift-linearity": _check_mixture_shift,
    "parser-sequence-error": _check_sequence_error,
    "composition-error-bound": _check_composition_bound,
}


def run_verify_seed(scenario: dict, seed: int) -> dict:
    """Run the checks named in scenario["checks"] (all when absent or empty),
    in suite order; unselected checks never run."""
    scale = float(_value(scenario, "scale"))
    wanted = scenario.get("checks")
    results = {
        name: fn(scale, seed) for name, fn in VERIFY_CHECKS.items() if not wanted or name in wanted
    }
    return {
        "checks": [
            {"check": name, "passed": int(r.passed), **r.detail} for name, r in results.items()
        ],
        "all_passed": int(all(r.passed for r in results.values())),
    }


# ---------------------------------------------------------------------------
# sweeps


def run_sweep(config: ExperimentConfig) -> tuple[int, dict]:
    scenario = config.scenario
    axis = scenario["axis"]
    grid = [int(g) for g in scenario["grid"]]
    base = scenario.get("base", {})
    if len(grid) < 3 or any(a >= b for a, b in zip(grid, grid[1:])):
        raise RejectedInput(f"grid must hold at least 3 strictly increasing counts, got {grid} after int()")
    config.out_dir.mkdir(parents=True, exist_ok=True)

    command, key = SWEEP_AXES[axis]

    def one(task):
        g, seed = task
        b = {**base, key: [g] if key == "n_grid" else g}
        if axis == "T":
            b["trace_stride"] = max(1, g // 50)
        payload = _SEED_RUNNERS[command](b, seed)
        if axis == "n":
            row = payload["rows"][0]
            metric = math.sqrt(row["sup_gap_sq"])
        elif axis == "T":
            metric = payload["final_cum_regret"]
            row = {"T": g, "replicate": seed, "cum_regret_final": metric}
        elif axis == "n_g":
            metric = math.sqrt(payload["gold_sup_gap"])
            row = {"n_g": g, "seed": seed, "gold_sup_gap": payload["gold_sup_gap"],
                   "certified": payload["certified"], "holds": payload["holds"]}
        else:
            gaps = payload["table"]["gap_l2"][payload["table"]["parse_match"]]
            metric = float(np.mean(gaps)) if gaps.size else 0.0
            row = {"T": g, "seed": seed, "mean_matched_gap": metric, "freq_within": payload["freq_within"]}
        return {"axis_value": g, "seed": seed, "metric": metric, "row": row}

    results = _map_tasks(one, [(g, seed) for g in grid for seed in config.seeds], config.parallelism)
    results.sort(key=lambda r: (r["axis_value"], r["seed"]))

    medians = [float(np.median([r["metric"] for r in results if r["axis_value"] == g])) for g in grid]
    summary = {"axis": axis, "grid": grid, "medians": medians,
               "slope": None, "intercept": None, "stderr": None}
    if all(m > 0 for m in medians):
        slope, intercept, stderr = bandit.fit_loglog_slope(np.array(grid, dtype=float), np.array(medians))
        summary.update({"slope": slope, "intercept": intercept, "stderr": stderr})

    table = _columns([r["row"] for r in results])
    write_csv(config.out_dir / "sweep.csv", dict(sorted(table.items())))
    (config.out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return EXIT_OK, summary


def _map_tasks(fn, tasks, parallelism: int):
    if parallelism <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# top-level run


_SEED_RUNNERS = {
    "identify": run_identify_seed,
    "bandit": run_bandit_seed,
    "transfer": run_transfer_seed,
    "modules": run_modules_seed,
    "verify": run_verify_seed,
}


def run(config: ExperimentConfig) -> int:
    """Execute the configured command; returns the process exit status."""
    if config.command == "sweep":
        return run_sweep(config)[0]

    runner = _SEED_RUNNERS[config.command]
    config.out_dir.mkdir(parents=True, exist_ok=True)
    digest = scenario_hash(config.scenario)

    def one(seed: int):
        t0 = time.perf_counter()
        payload = runner(config.scenario, seed)
        wall = (time.perf_counter() - t0) * 1000.0
        return seed, payload, wall

    outputs = _map_tasks(one, list(config.seeds), config.parallelism)
    outputs.sort(key=lambda r: r[0])

    with open(config.out_dir / "runs.jsonl", "a") as fh:
        for seed, payload, wall in outputs:
            slim = {k: v for k, v in payload.items() if k not in ("table", "rows")}
            record = {
                "command": config.command,
                "scenario_hash": digest,
                "seed": seed,
                "wall_time_ms": round(wall, 3),
                "artifact_version": ARTIFACT_VERSION,
                "payload": slim,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    status = EXIT_OK
    if config.command == "identify":
        rows = sorted((r for _, p, _ in outputs for r in p["rows"]), key=lambda r: (r["n"], r["seed"]))
        write_csv(config.out_dir / "identify.csv", _columns(rows))
    elif config.command in ("bandit", "modules"):
        stem = "trace" if config.command == "bandit" else "modules"
        for seed, payload, _ in outputs:
            write_csv(config.out_dir / f"{stem}_{seed}.csv", payload["table"])
    elif config.command == "verify":
        rows = [{"seed": seed, "check": chk["check"], "passed": chk["passed"]}
                for seed, payload, _ in outputs for chk in payload["checks"]]
        for row in rows:
            print(f"[{'PASS' if row['passed'] else 'FAIL'}] {row['check']}")
        write_csv(config.out_dir / "checks.csv", _columns(rows))
        failed = sorted({row["check"] for row in rows if not row["passed"]})
        if failed:
            print("violated checks: " + ", ".join(failed))
            status = EXIT_CHECK_FAILED
    # the verdict is identify's all_hold, transfer's or modules' holds
    verdicts = [p.get("all_hold", p.get("holds", True)) for _, p, _ in outputs]
    if config.scenario.get("require_holds") and not all(verdicts):
        status = EXIT_CHECK_FAILED
    return status
