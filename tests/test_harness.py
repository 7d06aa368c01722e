import importlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_write_csv
from qni_lab import cli, harness
from qni_lab.errors import RejectedInput


def small_identify_scenario():
    sc = harness.default_scenario("identify")
    sc.update({"n_grid": [300], "n_eval": 200, "d": 2, "k": 3,
               "train": {"learning_rate": 0.2, "max_iters": 800, "grad_tol": 1e-7}})
    return sc


def read_rows(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, lines[1:]


FIT_KEYS = {"iterations", "converged", "final_loss", "grad_norm"}


def payloads(jsonl: Path):
    out = []
    for line in jsonl.read_text().strip().splitlines():
        rec = json.loads(line)
        rec.pop("wall_time_ms")
        out.append(rec)
    return out


def test_config_validation(tmp_path):
    with pytest.raises(RejectedInput):
        harness.ExperimentConfig("nope", {}, (0,), tmp_path)
    with pytest.raises(RejectedInput):
        harness.ExperimentConfig("identify", {}, (), tmp_path)
    with pytest.raises(RejectedInput):
        harness.ExperimentConfig("identify", {}, (1, 1), tmp_path)


def test_identify_run_writes_expected_files(tmp_path):
    cfg = harness.ExperimentConfig("identify", small_identify_scenario(), (3, 1), tmp_path)
    assert harness.run(cfg) == 0
    header, rows = read_rows(tmp_path / "identify.csv")
    assert header == ["n", "seed", "shift_id", "emp_loss_q", "sup_gap_sq", "certified_bound", "holds"]
    assert len(rows) == 2
    # rows are sorted by (n, seed) regardless of the seed order given
    assert rows[0].split(",")[1] == "1"
    recs = payloads(tmp_path / "runs.jsonl")
    assert [r["seed"] for r in recs] == [1, 3]
    assert all(r["command"] == "identify" for r in recs)
    assert all(r["scenario_hash"] == recs[0]["scenario_hash"] for r in recs)


def test_write_csv_equals_the_per_cell_writer(tmp_path):
    # every column kind, each as an array and as a list; the oracle writes
    # the Python values that .tolist() gives, one cell at a time
    columns = {
        "float": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1 + 0.2, 5e-324, 1.0, -2.5e17],
        "int": [0, -1, 7, 2**62, -(2**62), 3, 10**15, 42, 1],
        "bool": [True, False, False, True, True, False, True, False, True],
        "text": ["plain", "a,b", 'say "hi"', "uniform_cube(d=3,h=0.25)", "", " lead", "x\ny", "explore",
                 "tab\there"],
    }
    table = {f"{name}_array": np.array(values) for name, values in columns.items()}
    table.update({f"{name}_list": values[::-1] for name, values in columns.items()})
    table["int64_list"] = [np.int64(v) for v in columns["int"]]
    table["bool_array_list"] = list(np.array(columns["bool"]))  # numpy bools
    rows = [{name: (v.item() if isinstance(v, np.generic) else v) for name, v in zip(table, cells)}
            for cells in zip(*(list(c) for c in table.values()))]
    harness.write_csv(tmp_path / "columns.csv", table)
    reference_write_csv(tmp_path / "rows.csv", list(table), rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        harness.write_csv(tmp_path / "t.csv", {"a": [1, 2], "b": [1.0]})


# README states each data table's columns as "writes `<file>` with columns `a, b, ...`".
def test_readme_csv_columns_match_the_written_headers(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = dict(re.findall(r"writes (?:per-seed )?`([^`]+)` with columns\s+`([^`]+)`", readme))
    train = {"learning_rate": 0.2, "max_iters": 100, "grad_tol": 1e-6}
    runs = {
        "identify.csv": ("identify", small_identify_scenario()),
        "trace_<seed>.csv": ("bandit", default_with("bandit", T=60, train=train)),
        "modules_<seed>.csv": ("modules", default_with("modules", n_mc=20, n_train=60, n_parser_words=20,
                                                       train=train)),
    }
    assert documented.keys() == runs.keys()
    for name, (command, scenario) in runs.items():
        out = tmp_path / command
        assert harness.run(harness.ExperimentConfig(command, scenario, (0,), out)) == 0
        header = (out / name.replace("<seed>", "0")).read_text().splitlines()[0]
        assert header.split(",") == documented[name].split(", "), name


def test_identify_rerun_is_byte_identical(tmp_path):
    cfg1 = harness.ExperimentConfig("identify", small_identify_scenario(), (0,), tmp_path / "a")
    cfg2 = harness.ExperimentConfig("identify", small_identify_scenario(), (0,), tmp_path / "b")
    harness.run(cfg1)
    harness.run(cfg2)
    assert (tmp_path / "a/identify.csv").read_bytes() == (tmp_path / "b/identify.csv").read_bytes()
    assert payloads(tmp_path / "a/runs.jsonl") == payloads(tmp_path / "b/runs.jsonl")


def test_parallel_matches_serial(tmp_path):
    sc = small_identify_scenario()
    serial = harness.ExperimentConfig("identify", sc, (0, 1, 2, 4), tmp_path / "s", parallelism=1)
    parallel = harness.ExperimentConfig("identify", sc, (0, 1, 2, 4), tmp_path / "p", parallelism=4)
    harness.run(serial)
    harness.run(parallel)
    assert (tmp_path / "s/identify.csv").read_bytes() == (tmp_path / "p/identify.csv").read_bytes()


def test_bandit_run_trace_schema(tmp_path):
    sc = harness.default_scenario("bandit")
    sc.update({"T": 400, "train": {"learning_rate": 0.15, "max_iters": 800, "grad_tol": 1e-7}})
    cfg = harness.ExperimentConfig("bandit", sc, (5,), tmp_path)
    assert harness.run(cfg) == 0
    header, rows = read_rows(tmp_path / "trace_5.csv")
    assert header == ["t", "phase", "reward", "inst_regret", "cum_regret"]
    assert len(rows) == 400
    phases = {r.split(",")[1] for r in rows}
    assert phases <= {"explore", "commit"}
    assert set(payloads(tmp_path / "runs.jsonl")[0]["payload"]["fit"]) == FIT_KEYS


def test_transfer_run_payload_schema(tmp_path):
    sc = harness.default_scenario("transfer")
    sc.update({"n_p": 1500, "n_g": 15, "d": 4, "k": 5,
               "train": {"learning_rate": 0.15, "max_iters": 1200, "grad_tol": 1e-7}})
    cfg = harness.ExperimentConfig("transfer", sc, (2,), tmp_path)
    assert harness.run(cfg) == 0
    recs = payloads(tmp_path / "runs.jsonl")
    assert set(recs[0]["payload"]) == {"n_p", "n_g", "B", "B_hat", "eps_p", "eps_g", "proxy_sup_gap",
                                       "gold_sup_gap", "certified", "holds", "seed",
                                       "proxy_fit", "gold_fit"}


def test_transfer_payload_reports_unconverged_fits(tmp_path):
    # lr=50 for 50 iterations neither converges nor diverges; the verdict
    # still reads "holds", so only the fit records show the fits failed
    sc = harness.default_scenario("transfer")
    sc["train"] = {"learning_rate": 50, "max_iters": 50}
    assert harness.run(harness.ExperimentConfig("transfer", sc, (0,), tmp_path)) == 0
    payload = payloads(tmp_path / "runs.jsonl")[0]["payload"]
    for key in ("proxy_fit", "gold_fit"):
        assert set(payload[key]) == FIT_KEYS
        assert payload[key]["converged"] is False
        assert payload[key]["iterations"] == 50


def test_fit_diagnostics_reach_runs_jsonl_but_not_csv(tmp_path):
    cfg = harness.ExperimentConfig("identify", small_identify_scenario(), (3, 1), tmp_path)
    harness.run(cfg)
    fits = [f for rec in payloads(tmp_path / "runs.jsonl") for f in rec["payload"]["fits"]]
    assert [(f["n"], f["seed"]) for f in fits] == [(300, 1), (300, 3)]
    assert all(set(f) == FIT_KEYS | {"n", "seed"} for f in fits)
    assert "converged" not in (tmp_path / "identify.csv").read_text()


def test_modules_run_csv_schema(tmp_path):
    sc = harness.default_scenario("modules")
    sc.update({"n_mc": 60, "n_train": 150, "n_parser_words": 80,
               "train": {"learning_rate": 0.15, "max_iters": 600, "grad_tol": 1e-6}})
    cfg = harness.ExperimentConfig("modules", sc, (4,), tmp_path)
    assert harness.run(cfg) == 0
    header, rows = read_rows(tmp_path / "modules_4.csv")
    assert header == ["word_id", "parse_match", "gap_l2", "bound", "within_bound"]
    assert len(rows) == 60
    fits = payloads(tmp_path / "runs.jsonl")[0]["payload"]["fits"]
    assert len(fits) == sc["k"] and all(len(coords) == sc["d"] for coords in fits)
    assert all(set(f) == FIT_KEYS for coords in fits for f in coords)


def test_verify_suite_passes_and_prints(tmp_path, capsys):
    cfg = harness.ExperimentConfig("verify", {"scale": 0.2}, (0,), tmp_path)
    status = harness.run(cfg)
    out = capsys.readouterr().out
    assert status == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 10
    assert all(l.startswith("[PASS]") for l in lines)
    names = {l.split("] ", 1)[1] for l in lines}
    assert names == {
        "strong-convexity-mc", "loss-lipschitz-pairs", "deviation-monotonicity",
        "identification-dominance", "smooth-best-arm", "orthogonal-alignment",
        "worst-case-sequence-shift", "mixture-shift-linearity",
        "parser-sequence-error", "composition-error-bound",
    }


def test_sweep_identify_axis(tmp_path):
    sc = {"axis": "n", "grid": [200, 400, 800], "base": small_identify_scenario()}
    sc["base"]["xi_max"] = 0.1
    sc["base"]["noise_kind"] = "uniform"
    cfg = harness.ExperimentConfig("sweep", sc, (0, 1), tmp_path)
    assert harness.run(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["axis"] == "n"
    assert summary["grid"] == [200, 400, 800]
    assert len(summary["medians"]) == 3
    assert summary["slope"] is not None
    header, rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 6


def test_sweep_rejects_bad_grid(tmp_path):
    sc = {"axis": "n", "grid": [400, 200], "base": small_identify_scenario()}
    cfg = harness.ExperimentConfig("sweep", sc, (0,), tmp_path)
    with pytest.raises(RejectedInput):
        harness.run(cfg)


def test_sweep_transfer_axis(tmp_path):
    base = harness.default_scenario("transfer")
    base.update({"d": 4, "k": 5, "n_p": 1200,
                 "train": {"learning_rate": 0.2, "max_iters": 800, "grad_tol": 1e-7}})
    sc = {"axis": "n_g", "grid": [10, 20, 40], "base": base}
    cfg = harness.ExperimentConfig("sweep", sc, (0,), tmp_path)
    assert harness.run(cfg) == 0
    header, rows = read_rows(tmp_path / "sweep.csv")
    assert set(header) >= {"n_g", "seed", "gold_sup_gap", "certified", "holds"}
    assert len(rows) == 3


def test_sweep_module_axis_stays_within_bound(tmp_path):
    base = harness.default_scenario("modules")
    base.update({"n_mc": 150, "n_train": 250, "n_parser_words": 120, "alpha_shift": 0.01,
                 "train": {"learning_rate": 0.15, "max_iters": 800, "grad_tol": 1e-7}})
    sc = {"axis": "T_modules", "grid": [2, 4, 8], "base": base}
    cfg = harness.ExperimentConfig("sweep", sc, (0, 1), tmp_path)
    assert harness.run(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    # contractive quadratic modules drive iterates toward the origin, where
    # fitted and true nets coincide, so the matched gap shrinks with depth;
    # the depth-linear certified bound dominates it at every grid point
    assert all(m > 0 for m in summary["medians"])
    header, rows = read_rows(tmp_path / "sweep.csv")
    freq_col = header.index("freq_within")
    assert all(float(r.split(",")[freq_col]) == 1.0 for r in rows)


def test_identify_require_holds_flag(tmp_path):
    sc = small_identify_scenario()
    sc["require_holds"] = True
    cfg = harness.ExperimentConfig("identify", sc, (0,), tmp_path)
    assert harness.run(cfg) == 0


def test_verify_exit_code_names_failed_check(tmp_path, capsys, monkeypatch):
    def broken_check(scale, seed):
        return harness.CheckResult(False, {"reason": "stub"})

    monkeypatch.setattr(harness, "VERIFY_CHECKS", {
        "deviation-monotonicity": harness._check_deviation_monotonic,
        "always-broken": broken_check,
    })
    cfg = harness.ExperimentConfig("verify", {"scale": 0.1}, (0,), tmp_path)
    status = harness.run(cfg)
    out = capsys.readouterr().out
    assert status == 1
    assert "[FAIL] always-broken" in out
    assert "violated checks: always-broken" in out


def test_verify_runs_only_selected_checks(tmp_path, monkeypatch):
    ran = []

    def check(name):
        def fn(scale, seed):
            ran.append(name)
            return harness.CheckResult(True)
        return fn

    monkeypatch.setattr(harness, "VERIFY_CHECKS", {n: check(n) for n in ("a", "b", "c")})
    cfg = harness.ExperimentConfig("verify", {"checks": ["c", "a"]}, (0,), tmp_path)
    assert harness.run(cfg) == 0
    assert ran == ["a", "c"]
    header, rows = read_rows(tmp_path / "checks.csv")
    assert rows == ["0,a,1", "0,c,1"]


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"checks": ["no-such-check"]}))
    status = cli.main(["verify", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "no-such-check" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checks.csv").exists()


def default_without(command, key):
    return {k: v for k, v in harness.default_scenario(command).items() if k != key}


def default_with(command, **changes):
    return {**harness.default_scenario(command), **changes}


@pytest.mark.parametrize("command, scenario, missing", [
    ("identify", default_without("identify", "truth_seed"), "truth_seed"),
    ("bandit", default_without("bandit", "spectrum"), "spectrum"),
    ("transfer", default_without("transfer", "sigma0"), "sigma0"),
    ("modules", default_without("modules", "chain_seed"), "chain_seed"),
    ("sweep", {"axis": "T", "grid": [100, 200, 400], "base": default_without("bandit", "d")}, "d"),
    ("sweep", {"axis": "n", "grid": [100, 200, 400]}, "truth_seed"),
])
def test_cli_missing_scenario_key_exits_2(tmp_path, capsys, command, scenario, missing):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    status = cli.main([command, "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_mixture_sampler_without_atoms_exits_2(tmp_path, capsys):
    scenario = small_identify_scenario()
    scenario["sampler"] = {"kind": "custom_mixture"}
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    assert cli.main(["identify", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    assert "atoms" in capsys.readouterr().err


def write_scenario(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


@pytest.mark.parametrize("command, scenario, wrong", [
    ("identify", {"d": "3", "k": 6, "truth_seed": 101}, "d"),
    ("identify", {**harness.default_scenario("identify"), "k": True}, "k"),
    ("identify", {**harness.default_scenario("identify"), "train": {"learning_rate": "0.1"}},
     "train.learning_rate"),
    ("bandit", {**harness.default_scenario("bandit"), "spectrum": [1.0, "a", 0.1]}, "spectrum"),
    ("transfer", {**harness.default_scenario("transfer"), "train": {"max_iters": False}},
     "train.max_iters"),
    ("sweep", {"axis": "T_modules", "grid": [2, 3, 4],
               "base": {**harness.default_scenario("modules"), "chain_seed": 4.0}}, "chain_seed"),
    ("verify", {"scale": "abc"}, "scale"),
    ("identify", {**harness.default_scenario("identify"), "n_eval": "x"}, "n_eval"),
    ("identify", {**harness.default_scenario("identify"), "n_grid": [500, None]}, "n_grid"),
    ("bandit", {**harness.default_scenario("bandit"), "trace_stride": None}, "trace_stride"),
    ("modules", {**harness.default_scenario("modules"), "width": 2.5}, "width"),
    ("transfer", {**harness.default_scenario("transfer"),
                  "shift_sampler": {"kind": "uniform_cube", "half_width": "0.5"}},
     "shift_sampler.half_width"),
])
def test_cli_wrongly_typed_scenario_value_exits_2(tmp_path, capsys, command, scenario, wrong):
    status = cli.main([command, "--scenario", write_scenario(tmp_path, scenario),
                       "--out", str(tmp_path / "out")])
    assert status == 2
    assert f"wrong type: {wrong}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_optional_keys_may_be_null_where_null_means_the_default(tmp_path):
    scenario = {**harness.default_scenario("modules"), "width": None,
                "train": {"learning_rate": 0.15, "init_scale": None}}
    harness.ExperimentConfig("modules", scenario, (0,), tmp_path)


@pytest.mark.parametrize("command, key", [
    ("identify", "truth_seed"),
    ("bandit", "theta_seed"),
    ("transfer", "theta_seed"),
    ("modules", "library_seed"),
    ("modules", "parser_seed"),
    ("modules", "chain_seed"),
])
def test_cli_negative_scenario_seed_exits_2(tmp_path, capsys, command, key):
    scenario = {**harness.default_scenario(command), key: -1}
    status = cli.main([command, "--scenario", write_scenario(tmp_path, scenario),
                       "--out", str(tmp_path / "out")])
    assert status == 2
    assert f"out of range: {key} must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, scenario, message", [
    ("sweep", {"axis": "n", "grid": ["a", "b", "c"], "base": default_with("identify")}, "wrong type: grid"),
    ("identify", default_with("identify", sampler={"kind": "custom_mixture", "atoms": "x"}), "atoms"),
    ("identify", default_with("identify", sampler={"kind": "custom_mixture", "atoms": [[0.1, 0.2, 0.3]],
                                                 "weights": "x"}), "weights"),
    ("modules", default_with("modules", width=0), "out of range: width must be >= 1"),
    ("modules", default_with("modules", width=-1), "out of range: width must be >= 1"),
    ("modules", default_with("modules", alphabet_size=0), "out of range: alphabet_size must be >= 1"),
    ("modules", default_with("modules", x_max=0), "out of range: x_max must be > 0"),
    ("identify", default_with("identify", d=-1), "out of range: d must be >= 1"),
    ("identify", default_with("identify", n_grid=[]), "wrong type: n_grid"),
    ("bandit", default_with("bandit", M="x"), "wrong type: M"),
    ("bandit", default_with("bandit", M=-1), "out of range: M must be > 0"),
    ("bandit", default_with("bandit", k=2), "k = 2 < d = 3"),
    ("transfer", default_with("transfer", sigma0=-1), "out of range: sigma0 must be > 0"),
    ("transfer", default_with("transfer", k=3), "k = 3 < d = 6"),
    ("verify", {"scale": 0, "checks": ["strong-convexity-mc"]}, "out of range: scale must be > 0"),
    ("verify", {"scale": -1, "checks": ["strong-convexity-mc"]}, "out of range: scale must be > 0"),
    # Counts below 1 (int() made them 0) and reals outside their domain: each
    # used to run, silently or into an error raised after the output
    # directory was made (the sweep, before writing its files).
    ("modules", default_with("modules", T=0.5), "out of range: T must be >= 1"),
    ("transfer", default_with("transfer", n_g=0.5), "out of range: n_g must be >= 1"),
    ("transfer", default_with("transfer", n_p=0.5), "out of range: n_p must be >= 1"),
    ("bandit", default_with("bandit", trace_stride=0.5), "out of range: trace_stride must be >= 1"),
    ("bandit", default_with("bandit", T=0.5), "out of range: T must be >= 1"),
    ("identify", default_with("identify", n_grid=[0.5]), "out of range: n_grid must be >= 1"),
    ("identify", default_with("identify", n_eval=0.5), "out of range: n_eval must be >= 1"),
    ("identify", default_with("identify", train={"max_iters": 0.5}),
     "out of range: train.max_iters must be >= 1"),
    ("modules", default_with("modules", n_mc=0.5), "out of range: n_mc must be >= 1"),
    ("modules", default_with("modules", n_train=0.5), "out of range: n_train must be >= 1"),
    ("modules", default_with("modules", n_parser_words=0.5), "out of range: n_parser_words must be >= 1"),
    ("sweep", {"axis": "T_modules", "grid": [0.5, 2, 3], "base": default_without("modules", "T")},
     "out of range: grid must be >= 1"),
    ("modules", default_with("modules", alpha_shift=-0.1), "out of range: alpha_shift must be >= 0 and <= 2"),
    ("modules", default_with("modules", alpha_shift=3), "out of range: alpha_shift must be >= 0 and <= 2"),
    ("identify", default_with("identify", delta=1.5), "out of range: delta must be > 0 and < 1"),
    ("identify", default_with("identify", delta=1), "out of range: delta must be > 0 and < 1"),
    ("bandit", default_with("bandit", spectrum=[1, -0.3, 0.1]), "out of range: spectrum must be >= 0"),
    ("bandit", default_with("bandit", xi_max=-0.02), "out of range: xi_max must be >= 0"),
    ("transfer", default_with("transfer", B=-0.1), "out of range: B must be >= 0"),
    # JSON Infinity meets a lower bound: counts then overflowed int(), and a
    # real ran into Diverged, both after the output directory was made.
    ("modules", default_with("modules", T=math.inf), "out of range: T must be finite"),
    ("modules", default_with("modules", n_mc=math.inf), "out of range: n_mc must be finite"),
    ("identify", default_with("identify", train={"learning_rate": math.inf}),
     "out of range: train.learning_rate must be finite"),
    ("identify", default_with("identify", n_grid=[math.inf]), "out of range: n_grid must be finite"),
    ("bandit", default_with("bandit", spectrum=[1, -math.inf, 0.1]), "out of range: spectrum must be finite"),
    # generate_dataset rejects an unknown noise kind too, but only once the
    # output directory is made
    ("identify", default_with("identify", noise_kind="bogus"), "unknown noise_kind 'bogus'"),
    ("transfer", default_with("transfer", noise_kind="bogus"), "unknown noise_kind 'bogus'"),
    ("modules", default_with("modules", noise_kind="bogus"), "unknown noise_kind 'bogus'"),
    # A sampler with zero curvature identifies nothing: identify used to exit
    # 2 from identification_check, transfer with a misleading message from
    # expanded_radius, both after the output directory was made.
    ("identify", default_with("identify", sampler={"kind": "custom_mixture", "atoms": [[1, 0, 0], [0, 1, 0]]}),
     "sampler has zero curvature"),
    ("transfer", default_with("transfer", sampler={"kind": "custom_mixture",
                                                   "atoms": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]}),
     "sampler has zero curvature"),
    ("sweep", {"axis": "n_g", "grid": [10, 20, 40], "base": default_with(
        "transfer", sampler={"kind": "custom_mixture", "atoms": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]})},
     "sampler has zero curvature"),
    # A grid that int() collapses ran a point twice, or gave a NaN median
    # and numpy warnings, with exit 0.
    ("sweep", {"axis": "n", "grid": [300, 300.5, 600], "base": default_with("identify")}, "strictly increasing"),
    ("sweep", {"axis": "n", "grid": [300, 300, 600], "base": default_with("identify")}, "strictly increasing"),
    # A reward net without the eigengap the bandit assumes raised a traceback
    # with exit 1, as d = 1 with M given did (an IndexError); a spectrum of
    # the wrong length and d = 1 exited 2, but after the output directory
    # was made.
    ("bandit", default_with("bandit", spectrum=[1.0, 1.0, 0.1]), "top eigenvalues are degenerate"),
    ("bandit", default_with("bandit", spectrum=[0, 0, 0]), "top eigenvalues are degenerate"),
    ("bandit", default_with("bandit", M=1), "eigengap 0.7 is below 4/M = 4"),
    ("sweep", {"axis": "T", "grid": [100, 200, 400], "base": {
        k: v for k, v in default_with("bandit", spectrum=[1.0, 1.0, 0.1]).items() if k != "T"}},
     "top eigenvalues are degenerate"),
    ("bandit", default_with("bandit", spectrum=[1.0, 0.3]), "spectrum must list d eigenvalues"),
    ("bandit", default_with("bandit", d=1, spectrum=[1.0]), "need d >= 2 for an eigengap"),
    ("bandit", default_with("bandit", d=1, spectrum=[1.0], M=1), "need d >= 2 for an eigengap"),
])
def test_cli_scenario_value_outside_its_domain_exits_2(tmp_path, capsys, command, scenario, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a negative spectrum entry once warned in np.sqrt
        status = cli.main([command, "--scenario", write_scenario(tmp_path, scenario),
                           "--out", str(tmp_path / "out")])
    assert status == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class RecordingDict(dict):
    """A scenario that records every key read from it or its nested objects."""

    def __init__(self, data, seen):
        super().__init__({k: RecordingDict(v, seen) if isinstance(v, dict) else v for k, v in data.items()})
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


# Free-form keys the schema table does not describe.
UNDECLARED_KEYS = {"noise_kind", "kind", "atoms", "weights", "checks", "require_holds"}


@pytest.mark.parametrize("command", ["identify", "bandit", "transfer", "modules", "verify"])
def test_builders_read_only_declared_keys(tmp_path, command):
    seen = set()
    scenario = RecordingDict(harness.default_scenario(command), seen)
    assert harness.run(harness.ExperimentConfig(command, scenario, (0,), tmp_path)) == 0
    assert seen and seen <= set(harness.SCENARIO_KEYS) | UNDECLARED_KEYS


def test_readme_documents_every_scenario_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [key for key in harness.SCENARIO_KEYS if f"| `{key}` |" not in readme] == []


def test_readme_key_table_bounds_match_the_scenario_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {cells[1].strip("`"): cells[3] for cells in
            ([c.strip() for c in line.split("|")] for line in readme.splitlines())
            if len(cells) == 7}
    assert {key: rows[key] for key in harness.SCENARIO_KEYS} == {
        key: spec.bounds or "" for key, spec in harness.SCENARIO_KEYS.items()}


# Suffixes of the data files README names as `<module>.<suffix>`, such as `identify.csv`.
FILE_SUFFIXES = {"csv", "json", "jsonl"}


def test_readme_names_only_definitions_the_package_has():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {p.stem for p in Path(harness.__file__).parent.glob("*.py")} - {"__init__"}
    named = [(module, name) for module, name in
             re.findall(r"`(?:qni_lab\.)?([a-z_]+)\.([A-Za-z_]\w*)", readme)
             if module in modules and name not in FILE_SUFFIXES]
    assert named, "the README names no package definition"
    assert [f"{module}.{name}" for module, name in named
            if not hasattr(importlib.import_module(f"qni_lab.{module}"), name)] == []


def test_strong_convexity_check_holds_at_small_scale():
    # at scale 1e-4 the check once drew 20 points, which failed it on 6 seeds of 20
    assert all(harness._check_strong_convexity(1e-4, seed).passed for seed in range(20))


def test_cli_negative_run_seed_exits_2(tmp_path, capsys):
    assert cli.main(["identify", "--seeds=1,-1", "--out", str(tmp_path / "out")]) == 2
    assert "seeds must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_diverged_fit_exits_2(tmp_path, capsys):
    scenario = {**harness.default_scenario("modules"), "train": {"learning_rate": 50, "max_iters": 50}}
    status = cli.main(["modules", "--scenario", write_scenario(tmp_path, scenario),
                       "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "diverge" in err and "iteration 4" in err


def test_sweep_base_may_omit_the_swept_key(tmp_path):
    sc = {"axis": "T", "grid": [100, 200, 400], "base": default_without("bandit", "T")}
    harness.ExperimentConfig("sweep", sc, (0,), tmp_path)


def test_cli_non_object_scenario_exits_2(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text("[1, 2]")
    assert cli.main(["verify", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2


def test_scenario_hash_stable_and_sensitive():
    a = harness.scenario_hash({"x": 1, "y": [1, 2]})
    b = harness.scenario_hash({"y": [1, 2], "x": 1})
    c = harness.scenario_hash({"x": 2, "y": [1, 2]})
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_missing_scenario_exits_2(tmp_path, capsys):
    status = cli.main(["identify", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert status == 2
    assert "absent.json" in capsys.readouterr().err


def test_cli_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status = cli.main(["identify", "--scenario", str(bad), "--out", str(tmp_path)])
    assert status == 2


@pytest.mark.parametrize("bad_path", ["scenario is a directory", "scenario is not UTF-8", "out is a file"])
def test_cli_unreadable_scenario_or_unwritable_out_exits_2(tmp_path, capsys, bad_path):
    scenario, out = tmp_path / "scenario.json", tmp_path / "out"
    if bad_path == "scenario is a directory":
        scenario.mkdir()
    elif bad_path == "scenario is not UTF-8":
        scenario.write_bytes(b'{"d": "\xff"}')
    else:
        scenario.write_text(json.dumps(small_identify_scenario()))
        out.write_text("")
    assert cli.main(["identify", "--scenario", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(out if bad_path == "out is a file" else scenario) in err


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_cli_runs_scenario_file_and_env_override(tmp_path, monkeypatch):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(small_identify_scenario()))
    out_env = tmp_path / "env_out"
    monkeypatch.setenv("QNI_LAB_OUT", str(out_env))
    status = cli.main(["identify", "--scenario", str(scenario_path),
                       "--seeds", "0", "--out", str(tmp_path / "ignored")])
    assert status == 0
    assert (out_env / "identify.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_bad_seeds_exit_2(tmp_path, capsys):
    status = cli.main(["identify", "--seeds", "1,zap", "--out", str(tmp_path)])
    assert status == 2
