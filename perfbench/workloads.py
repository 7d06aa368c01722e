"""The benchmark's workloads: one `qni-lab` command and scenario each.

Each scenario reproduces the regime of one of the expensive acceptance
criteria, so a workload stresses the layer that criterion spends its time in.
Scenarios are plain JSON data; building a `harness.ExperimentConfig` from them
is part of the timed set-up.
"""

from __future__ import annotations

# Fields a scenario inherits from `harness.default_scenario(command)` are
# copied here, so a change of the program's defaults cannot change the
# benchmark's inputs.
_TRANSFER_BASE = {
    "xi_max": 0.0, "noise_kind": "zero", "delta": 0.1,
    "sampler": {"kind": "uniform_cube", "half_width": 0.5},
    "shift_sampler": {"kind": "uniform_cube", "half_width": 0.5},
}
_BANDIT_BASE = {"d": 3, "k": 5, "spectrum": [1.0, 0.3, 0.1]}
_MODULES_BASE = {
    "d": 2, "k": 3, "alphabet_size": 4, "x_max": 1.0, "lipschitz_target": 0.9,
    "width": 3, "n_train": 400, "xi_max": 0.02, "noise_kind": "uniform",
    "n_parser_words": 300, "library_seed": 5, "parser_seed": 3, "chain_seed": 4,
    "train": {"learning_rate": 0.15, "max_iters": 2000, "grad_tol": 1e-7},
}

WORKLOADS = {
    # C09's shape (d=10, k=12) at n_p=1e4 instead of C09's 5e4, so a run
    # holds ~10 operations of ~2.5 s rather than four of ~6 s: per-sample GD
    # is still ~95% of self time, in qnn_core. linalg, module_net and harness
    # are negligible: their bypass. GD runs 3000 iterations, not C09's 1500:
    # at 1500, operation seed 1810720960 stops far from converged (proxy gap
    # 9.2e-3 at n_p=1e4, 1.0e-2 at 5e4) and fails the cap below.
    "transfer-d10": {
        "command": "transfer",
        "scenario": {
            **_TRANSFER_BASE,
            "d": 10, "k": 12, "B": 0.1, "n_p": 10000, "n_g": 50, "sigma0": 0.2,
            "theta_seed": 900,
            "train": {"learning_rate": 0.5, "max_iters": 3000, "grad_tol": 1e-8},
            "require_holds": True,
        },
        # The certified bound here is ~1e19, so require_holds cannot fail;
        # these caps on the squared sup gaps in runs.jsonl catch a bad fit.
        # Over 40 operation seeds at the baseline commit, that one included,
        # the largest gaps were 2.2e-7 (proxy) and 3.6e-3 (gold), so the caps
        # leave margins of 1e4 and 5x. Stopping GD at 500 iterations gives
        # proxy gaps of 6e-3 to 3e-2 on three seeds of four, which the proxy
        # cap flags.
        "max_sup_gap": {"proxy_sup_gap": 2e-3, "gold_sup_gap": 2e-2},
    },
    # Many small fits plus ~3000 linalg calls (Jacobi eigensolves, thin SVDs)
    # per seed: the many-small-calls workload, where linalg shows.
    "verify-suite": {
        "command": "verify",
        "scenario": {"scale": 1.0},
    },
    # C07's top horizon: 200k trace rows built and written per seed make
    # harness the largest layer (~69% of self time), and the largest peak RSS.
    # Not declared in BENCHMARK.json: with four workloads a run could last
    # only 18 s inside the benchmark's time budget, too short for steady
    # medians, and harness leads on no ROADMAP item. It stays runnable by
    # hand, and smoke.py checks the bandit output checks on it.
    "bandit-long-trace": {
        "command": "bandit",
        "scenario": {
            **_BANDIT_BASE,
            "theta_seed": 700, "T": 200000, "m_scale": 2e-4, "xi_max": 0.02,
            "train": {"learning_rate": 0.25, "max_iters": 2500, "grad_tol": 1e-8},
            "trace_stride": 1,
        },
    },
    # C13's T=8 rung: Python loops in sample_word, parse and compose, and
    # ~160k single-point forward calls; module_net is <= 7% everywhere else.
    "modules-long-words": {
        "command": "modules",
        "scenario": {
            **_MODULES_BASE,
            "T": 8, "alpha_shift": 0.005, "n_mc": 5000, "require_holds": True,
        },
    },
}

# Shrunk scenarios for the smoke test: same commands and code paths.
TINY_OVERRIDES = {
    "transfer-d10": {"d": 4, "k": 5, "n_p": 2000, "n_g": 20,
                     "train": {"learning_rate": 0.5, "max_iters": 1500, "grad_tol": 1e-8}},
    "verify-suite": {"scale": 0.05},
    "bandit-long-trace": {"T": 3000,
                          "train": {"learning_rate": 0.25, "max_iters": 300, "grad_tol": 1e-8}},
    "modules-long-words": {"T": 4, "n_mc": 200, "n_train": 100, "n_parser_words": 50,
                           "train": {"learning_rate": 0.15, "max_iters": 300, "grad_tol": 1e-7}},
}
