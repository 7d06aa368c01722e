import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mixture_bruteforce,
    reference_composition_experiment,
    reference_measured_lipschitz,
    reference_parse,
    reference_sample_word,
    reference_uniform_ball,
)
from qni_lab import module_net as mn, qnn_core as core
from qni_lab.errors import RejectedInput


def tiny_library(rng, d=2, k=3, x_max=1.0, lipschitz=0.9):
    return mn.make_library(d, k, x_max, lipschitz, rng)


# ---------------------------------------------------------------------------
# parsing


def test_parse_constant_table():
    parser = mn.Parser(np.ones((3, 4), dtype=int))
    out = mn.parse(parser, np.array([0, 2, 1, 1]))
    assert np.array_equal(out, [1, 1, 1, 1])


def test_parse_single_token_uses_start_state():
    table = np.array([[2, 1, 1], [1, 2, 2]])  # columns: j_prev in {0,1,2}
    parser = mn.Parser(table)
    assert np.array_equal(mn.parse(parser, np.array([0])), [2])
    assert np.array_equal(mn.parse(parser, np.array([1])), [1])


def test_parse_matches_naive_recursion():
    rng = np.random.default_rng(0)
    parser = mn.random_parser(4, 3, rng)

    def naive(word, t):
        if t == 0:
            return mn.START_STATE
        return int(parser.table[word[t - 1], naive(word, t - 1)])

    for _ in range(20):
        word = rng.integers(0, 4, size=6)
        expected = [naive(word, t) for t in range(1, 7)]
        assert np.array_equal(mn.parse(parser, word), expected)


def test_parse_rejects_foreign_tokens():
    parser = mn.Parser(np.ones((2, 3), dtype=int))
    with pytest.raises(RejectedInput):
        mn.parse(parser, np.array([0, 5]))


@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("token", [-1, 2])
def test_batched_parse_rejects_a_foreign_token_in_any_row(row, token):
    parser = mn.Parser(np.ones((2, 3), dtype=int))
    words = np.zeros((7, 4), dtype=int)
    words[row, 2] = token
    with pytest.raises(RejectedInput):
        mn.parse(parser, words)


def test_batched_parse_matches_the_per_word_fold():
    rng = np.random.default_rng(40)
    parser = mn.random_parser(5, 4, rng)
    words = rng.integers(0, 5, size=(300, 9))
    assert np.array_equal(mn.parse(parser, words), [reference_parse(parser, w) for w in words])
    assert mn.parse(parser, np.zeros((3, 0), dtype=int)).shape == (3, 0)


# ---------------------------------------------------------------------------
# composition


def test_compose_empty_word_is_identity():
    rng = np.random.default_rng(1)
    lib = tiny_library(rng)
    parser = mn.random_parser(3, 3, rng)
    x = np.array([0.3, -0.2])
    out, trace = mn.compose(lib, parser, x, np.array([], dtype=int))
    assert np.array_equal(out, x)
    assert len(trace) == 1


def test_compose_single_step_matches_module():
    rng = np.random.default_rng(2)
    lib = tiny_library(rng)
    parser = mn.Parser(np.full((3, 4), 2, dtype=int))
    x = np.array([0.4, 0.1])
    out, trace = mn.compose(lib, parser, x, np.array([1]))
    assert np.allclose(out, lib.apply(2, x))
    assert len(trace) == 2


def test_compose_telescoping_gap_bound():
    # fitted vs true on a matched parse obeys gap_T <= sum K^(T-t) eps_step
    rng = np.random.default_rng(3)
    lib = tiny_library(rng, lipschitz=0.8)
    fitted = mn.fit_library(lib, 300, 0.02, "uniform", core.TrainConfig(
        learning_rate=0.15, max_iters=1500, grad_tol=1e-8), seed=4)
    eps_f, per_module = mn.module_sup_error(fitted, lib)
    K = lib.k_module
    parser = mn.random_parser(3, 3, rng)
    chain = mn.random_chain(3, 5, rng)
    for trial in range(30):
        w = mn.sample_word(chain, rng)
        x = rng.uniform(-0.5, 0.5, size=2)
        out_true, _ = mn.compose(lib, parser, x, w)
        out_hat, _ = mn.compose(fitted, parser, x, w)
        gap = np.linalg.norm(out_hat - out_true)
        T = len(w)
        bound = sum(K ** (T - t) * eps_f for t in range(1, T + 1))
        assert gap <= bound + 1e-9


# ---------------------------------------------------------------------------
# token chain


def test_sample_word_deterministic_chain():
    # permutation transitions give a unique trajectory
    chain = mn.TokenChain(
        initial=np.array([0.0, 1.0, 0.0]),
        transition=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
        T=6,
    )
    rng = np.random.default_rng(5)
    w = mn.sample_word(chain, rng)
    assert np.array_equal(w, [1, 2, 0, 1, 2, 0])


def test_sample_word_bigram_frequencies():
    rng = np.random.default_rng(6)
    chain = mn.random_chain(3, 2, rng)
    n = 100_000
    words = mn.sample_words(chain, rng.random((n, chain.T)))  # the words n sample_word calls give
    counts = np.zeros((3, 3))
    firsts = np.zeros(3)
    np.add.at(firsts, words[:, 0], 1)
    np.add.at(counts, (words[:, 0], words[:, 1]), 1)
    for z in range(3):
        assert firsts[z] / n == pytest.approx(chain.initial[z], abs=4 * math.sqrt(0.25 / n))
        row_n = firsts[z]
        if row_n > 0:
            for z2 in range(3):
                se = math.sqrt(0.25 / row_n)
                assert counts[z, z2] / row_n == pytest.approx(chain.transition[z, z2], abs=4 * se)


def _chain_with_zero_tokens(rng, nz, T):
    """A random chain; about a third of its entries are set to zero, and
    every row keeps at least one positive entry."""
    rows = rng.dirichlet(np.ones(nz), size=nz + 1)
    rows[rng.random(rows.shape) < 0.33] = 0.0
    rows[np.arange(nz + 1), rng.integers(0, nz, size=nz + 1)] += 0.5
    rows /= rows.sum(axis=1, keepdims=True)
    return mn.TokenChain(rows[0], rows[1:], T=T)


def test_sample_words_equal_the_choice_loop_and_leave_the_generator_where_it_did():
    rng = np.random.default_rng(41)
    Ts = [0, 1] * 20 + list(rng.integers(2, 9, size=180))
    for i, T in enumerate(Ts):
        nz = int(rng.integers(1, 7))
        chain = _chain_with_zero_tokens(rng, nz, int(T)) if i % 2 else mn.random_chain(nz, int(T), rng)
        seed = int(rng.integers(2**32))
        ref_rng, rng_batched, rng_one = (np.random.default_rng(seed) for _ in range(3))
        expected = [reference_sample_word(chain, ref_rng) for _ in range(25)]
        words = mn.sample_words(chain, rng_batched.random((25, chain.T)))
        singles = [mn.sample_word(chain, rng_one) for _ in range(25)]
        assert words.shape == (25, chain.T)
        assert np.array_equal(words, np.array(expected).reshape(25, chain.T))
        assert all(np.array_equal(w, e) for w, e in zip(singles, expected))
        nxt = ref_rng.random()
        assert rng_batched.random() == nxt and rng_one.random() == nxt


def test_sample_words_never_draw_a_zero_probability_token():
    chain = mn.TokenChain(np.array([0.5, 0.0, 0.5]),
                          np.array([[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 0.0, 1.0]]), T=5)
    words = mn.sample_words(chain, np.random.default_rng(42).random((2000, 5)))
    assert not np.any(words[:, 0] == 1)
    assert not np.any((words[:, :-1] == 0) & (words[:, 1:] != 1))


def test_sample_words_break_ties_as_choice_does():
    # choice takes searchsorted(cdf, u, side="right"): a uniform equal to a
    # cumulative value, 0.0 included, goes past every token ending there
    chain = mn.TokenChain(np.array([0.0, 0.25, 0.0, 0.75]), np.full((4, 4), 0.25), T=1)
    words = mn.sample_words(chain, np.array([[0.0], [0.25], [0.5]]))
    assert words[:, 0].tolist() == [1, 3, 3]


def test_sample_words_rejects_uniforms_of_the_wrong_shape():
    chain = mn.random_chain(3, 4, np.random.default_rng(43))
    with pytest.raises(RejectedInput):
        mn.sample_words(chain, np.zeros((5, 3)))
    with pytest.raises(RejectedInput):
        mn.sample_words(chain, np.zeros(4))


def test_sample_word_seed_determinism():
    rng = np.random.default_rng(7)
    chain = mn.random_chain(4, 8, rng)
    a = mn.sample_word(chain, np.random.default_rng(9))
    b = mn.sample_word(chain, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_chain_validates_stochasticity():
    with pytest.raises(RejectedInput):
        mn.TokenChain(np.array([0.5, 0.4]), np.eye(2), T=2)
    with pytest.raises(RejectedInput):
        mn.TokenChain(np.array([0.5, 0.5]), np.array([[1.1, -0.1], [0.0, 1.0]]), T=2)


# ---------------------------------------------------------------------------
# tv distance


def test_tv_distance_basics():
    assert mn.tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert mn.tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    with pytest.raises(RejectedInput):
        mn.tv_distance([1.0], [0.5, 0.5])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
def test_tv_distance_symmetric_and_bounded(ws_p, ws_q):
    size = min(len(ws_p), len(ws_q))
    p = np.array(ws_p[:size]); p /= p.sum()
    q = np.array(ws_q[:size]); q /= q.sum()
    assert mn.tv_distance(p, q) == pytest.approx(mn.tv_distance(q, p))
    assert 0.0 <= mn.tv_distance(p, q) <= 2.0


# ---------------------------------------------------------------------------
# worst-case shift construction


def test_worst_case_shift_formula_values():
    _, tv = mn.worst_case_shift(1.0, 2)
    assert tv == pytest.approx(1.5)
    _, tv_small = mn.worst_case_shift(0.01, 1)
    assert tv_small == pytest.approx(0.01)


def test_worst_case_shift_satisfies_row_budget_with_equality():
    spec, _ = mn.worst_case_shift(0.4, 5)
    assert mn.tv_distance(spec.base.initial, spec.shifted.initial) == pytest.approx(0.4)
    assert mn.tv_distance(spec.base.transition[0], spec.shifted.transition[0]) == pytest.approx(0.4)
    assert mn.tv_distance(spec.base.transition[1], spec.shifted.transition[1]) == 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("T", [1, 3, 7, 12])
def test_worst_case_shift_matches_bruteforce(alpha, T):
    spec, exact = mn.worst_case_shift(alpha, T)
    assert mn.sequence_tv_bruteforce(spec) == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_t1_mass_on_start_state():
    rng = np.random.default_rng(8)
    chain = mn.random_chain(4, 3, rng)
    parser = mn.random_parser(4, 3, rng)
    p1 = mn.mixture_distributions(chain, parser)[0][0]
    assert np.allclose(p1[:, mn.START_STATE], chain.initial)
    assert p1[:, 1:].sum() == 0.0


def test_mixture_steps_are_distributions():
    rng = np.random.default_rng(9)
    chain = mn.random_chain(5, 7, rng)
    parser = mn.random_parser(5, 4, rng)
    steps, avg = mn.mixture_distributions(chain, parser)
    for p in steps:
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12
    assert abs(avg.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("t", [1, 2, 4, 6])
def test_mixture_dp_equals_bruteforce(t):
    rng = np.random.default_rng(10 + t)
    chain = mn.random_chain(3, 6, rng)
    parser = mn.random_parser(3, 3, rng)
    dp = mn.mixture_distributions(chain, parser)[0][t - 1]
    bf = mixture_bruteforce(chain, parser, t)
    assert np.abs(dp - bf).max() <= 1e-12


def test_mixture_shift_check_no_shift():
    rng = np.random.default_rng(11)
    chain = mn.random_chain(4, 5, rng)
    spec = mn.ShiftSpec(chain, chain, 0.1)
    parser = mn.random_parser(4, 3, rng)
    out = mn.mixture_shift_check(spec, parser)
    assert out["holds"]
    assert max(out["per_step_tv"]) == 0.0


def test_mixture_shift_worst_case_strict_for_t_ge_2():
    alpha = 0.3
    spec, _ = mn.worst_case_shift(alpha, 6)
    parser = mn.Parser(np.ones((2, 2), dtype=int))
    out = mn.mixture_shift_check(spec, parser)
    assert out["holds"]
    per = out["per_step_tv"]
    assert per[0] == pytest.approx(alpha)
    for t in range(1, 6):
        assert per[t] < (t + 1) * alpha - 1e-9


def test_mixture_shift_random_specs_hold():
    rng = np.random.default_rng(12)
    for _ in range(10):
        chain = mn.random_chain(4, 8, rng)
        shifted = mn.shifted_chain(chain, 0.2, rng)
        spec = mn.ShiftSpec(chain, shifted, 0.2)
        parser = mn.random_parser(4, 3, rng)
        assert mn.mixture_shift_check(spec, parser)["holds"]


def test_shift_spec_validates_row_budget():
    base = mn.TokenChain(np.array([1.0, 0.0]), np.eye(2), T=3)
    far = mn.TokenChain(np.array([0.0, 1.0]), np.eye(2), T=3)
    with pytest.raises(RejectedInput):
        mn.ShiftSpec(base, far, 0.5)


# ---------------------------------------------------------------------------
# parser training


def test_train_parser_consistent_labels_zero_error():
    rng = np.random.default_rng(13)
    parser_true = mn.random_parser(3, 3, rng)
    chain = mn.random_chain(3, 6, rng)
    examples = []
    for _ in range(200):
        w = mn.sample_word(chain, rng)
        js = mn.parse(parser_true, w)
        j_prev = mn.START_STATE
        for z, j in zip(w, js):
            examples.append((int(j_prev), int(z), int(j)))
            j_prev = int(j)
    fitted = mn.train_parser(examples, alphabet_size=3, k=3)
    for j_prev, z, j_next in examples:
        assert fitted.table[z, j_prev] == j_next


def test_train_parser_majority_vote():
    examples = [(0, 0, 2)] * 3 + [(0, 0, 5)] * 1 + [(1, 0, 5)] * 2
    fitted = mn.train_parser(examples, alphabet_size=1, k=5)
    assert fitted.table[0, 0] == 2
    assert fitted.table[0, 1] == 5
    # unseen cells default to module 1
    assert fitted.table[0, 2] == 1


def test_train_parser_heldout_error_bounded_by_unseen_mass():
    rng = np.random.default_rng(14)
    parser_true = mn.random_parser(3, 3, rng)
    chain = mn.random_chain(3, 5, rng)
    examples = []
    for _ in range(60):
        w = mn.sample_word(chain, rng)
        js = mn.parse(parser_true, w)
        j_prev = mn.START_STATE
        for z, j in zip(w, js):
            examples.append((int(j_prev), int(z), int(j)))
            j_prev = int(j)
    fitted = mn.train_parser(examples, alphabet_size=3, k=3)
    # labels are deterministic, so held-out per-step error is at most the
    # mixture mass of unseen cells
    _, avg = mn.mixture_distributions(chain, parser_true)
    seen = np.zeros_like(fitted.table, dtype=bool)
    for j_prev, z, _ in examples:
        seen[z, j_prev] = True
    unseen_mass = float(avg[~seen].sum())
    eps_g = mn.parser_disagreement(fitted, parser_true, avg)
    assert eps_g <= unseen_mass + 1e-12


# ---------------------------------------------------------------------------
# sequence error


def test_sequence_error_identical_parsers():
    rng = np.random.default_rng(15)
    chain = mn.random_chain(3, 4, rng)
    parser = mn.random_parser(3, 3, rng)
    out = mn.sequence_error_check(parser, parser, chain, 0, 0)
    assert out["eps_g"] == 0.0 and out["sequence_error"] == 0.0 and out["holds"]


def test_sequence_error_unreachable_cell():
    # token 2 never occurs: initial and all transition rows give it zero mass
    initial = np.array([0.6, 0.4, 0.0])
    transition = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
    chain = mn.TokenChain(initial, transition, T=4)
    rng = np.random.default_rng(16)
    parser_true = mn.random_parser(3, 3, rng)
    table = parser_true.table.copy()
    table[2, 0] = (table[2, 0] % 3) + 1  # corrupt a never-reachable cell
    parser_hat = mn.Parser(table)
    out = mn.sequence_error_check(parser_hat, parser_true, chain, 0, 0)
    assert out["eps_g"] == 0.0
    assert out["sequence_error"] == 0.0
    assert out["holds"]


def test_sequence_error_corrupted_parsers_enumerated():
    rng = np.random.default_rng(17)
    chain = mn.random_chain(3, 5, rng)
    parser_true = mn.random_parser(3, 3, rng)
    for _ in range(10):
        table = parser_true.table.copy()
        mask = rng.random(table.shape) < 0.1
        table = np.where(mask, rng.integers(1, 4, size=table.shape), table)
        out = mn.sequence_error_check(mn.Parser(table), parser_true, chain, 0, 0)
        assert out["exact"]
        assert out["sequence_error"] <= out["bound"] + 1e-12


def test_sequence_error_montecarlo_path():
    rng = np.random.default_rng(18)
    chain = mn.random_chain(4, 12, rng)  # 4^12 words forces the MC branch
    parser_true = mn.random_parser(4, 3, rng)
    table = parser_true.table.copy()
    table[0, 0] = (table[0, 0] % 3) + 1
    out = mn.sequence_error_check(mn.Parser(table), parser_true, chain, 4000, 3)
    assert not out["exact"]
    assert out["holds"]


def test_sequence_error_montecarlo_path_rejects_zero_samples():
    rng = np.random.default_rng(18)
    chain = mn.random_chain(4, 12, rng)
    parser = mn.random_parser(4, 3, rng)
    with pytest.raises(RejectedInput):
        mn.sequence_error_check(parser, parser, chain, 0, 3)


def test_sequence_error_montecarlo_path_equals_the_per_word_loop():
    rng = np.random.default_rng(44)
    chain = mn.random_chain(4, 12, rng)
    parser_true = mn.random_parser(4, 3, rng)
    mask = rng.random(parser_true.table.shape) < 0.2
    mask[0, 0] = True
    parser_hat = mn.Parser(np.where(mask, parser_true.table % 3 + 1, parser_true.table))
    word_rng = np.random.default_rng(5)
    bad = 0
    for _ in range(1500):
        w = reference_sample_word(chain, word_rng)
        bad += not np.array_equal(reference_parse(parser_hat, w), reference_parse(parser_true, w))
    out = mn.sequence_error_check(parser_hat, parser_true, chain, 1500, 5)
    assert not out["exact"] and bad > 0
    assert out["sequence_error"] == bad / 1500


@pytest.mark.parametrize("T", [0, 1, 5])
def test_sequence_error_enumerated_path_equals_the_per_word_sum(T):
    rng = np.random.default_rng(53 + T)
    chain = _chain_with_zero_tokens(rng, 3, T)
    parser_true = mn.random_parser(3, 3, rng)
    parser_hat = mn.Parser(np.where(rng.random((3, 4)) < 0.3, parser_true.table % 3 + 1, parser_true.table))
    words, probs = mn.enumerate_word_distribution(chain)
    err = 0.0
    for w, p in zip(words, probs):
        if p > 0.0 and not np.array_equal(reference_parse(parser_hat, w), reference_parse(parser_true, w)):
            err += p
    out = mn.sequence_error_check(parser_hat, parser_true, chain, 0, 0)
    assert out["exact"] and (err > 0.0 or T == 0)
    assert out["sequence_error"] == err


# ---------------------------------------------------------------------------
# module errors and the composition experiment


def test_module_sup_error_zero_for_identical_libraries():
    rng = np.random.default_rng(19)
    lib = tiny_library(rng)
    eps_f, per_module = mn.module_sup_error(lib, lib)
    assert eps_f == 0.0
    assert all(v == 0.0 for v in per_module)


def test_module_sup_error_dominates_sampled_gaps():
    rng = np.random.default_rng(20)
    lib = tiny_library(rng)
    fitted = mn.fit_library(lib, 200, 0.05, "uniform",
                            core.TrainConfig(learning_rate=0.15, max_iters=1200, grad_tol=1e-8), seed=21)
    eps_f, _ = mn.module_sup_error(fitted, lib)
    for _ in range(300):
        x = reference_uniform_ball(2, 1.0, rng)
        for j in range(1, 4):
            gap = np.linalg.norm(fitted.apply(j, x) - lib.apply(j, x))
            assert gap <= eps_f + 1e-9




def test_library_lipschitz_construction_and_contraction():
    rng = np.random.default_rng(22)
    lib = mn.make_library(3, 2, 1.0, 0.8, rng)
    assert lib.lipschitz_bound() == pytest.approx(0.8, rel=1e-9)
    # outputs stay well inside the ball for a contractive target
    for _ in range(200):
        x = reference_uniform_ball(3, 1.0, rng)
        for j in (1, 2):
            assert np.linalg.norm(lib.apply(j, x)) <= 1.0
    measured = lib.measured_lipschitz(300, rng)
    assert measured <= lib.lipschitz_bound() + 1e-9


def test_composition_experiment_exact_setup_has_zero_gap():
    rng = np.random.default_rng(23)
    lib = tiny_library(rng)
    parser = mn.random_parser(3, 3, rng)
    chain = mn.random_chain(3, 4, rng)
    spec = mn.ShiftSpec(chain, chain, 0.0)
    report = mn.composition_error_experiment(lib, lib, parser, parser, spec, 100, 0)
    assert report["eps_f"] == 0.0 and report["eps_g"] == 0.0
    assert report["freq_parse_match"] == 1.0
    assert np.all(report["table"]["gap_l2"] == 0.0)
    assert report["holds"]


def test_composition_experiment_rejects_zero_samples():
    rng = np.random.default_rng(23)
    lib = tiny_library(rng)
    parser = mn.random_parser(3, 3, rng)
    chain = mn.random_chain(3, 4, rng)
    with pytest.raises(RejectedInput):
        mn.composition_error_experiment(lib, lib, parser, parser, mn.ShiftSpec(chain, chain, 0.0), 0, 0)


def test_composition_experiment_contractive_bound():
    rng = np.random.default_rng(24)
    lib = tiny_library(rng, lipschitz=0.9)
    fitted = mn.fit_library(lib, 300, 0.02, "uniform",
                            core.TrainConfig(learning_rate=0.15, max_iters=1500, grad_tol=1e-8), seed=25)
    parser = mn.random_parser(4, 3, rng)
    chain = mn.random_chain(4, 6, rng)
    shifted = mn.shifted_chain(chain, 0.05, rng)
    spec = mn.ShiftSpec(chain, shifted, 0.05)
    report = mn.composition_error_experiment(lib, fitted, parser, parser, spec, 400, 1)
    # matched parses obey the telescoped bound with no violations
    matched = report["table"]["parse_match"]
    assert matched.any() and report["table"]["within_bound"][matched].all()
    assert report["holds"]


def test_composition_experiment_expansive_bound():
    rng = np.random.default_rng(26)
    lib = mn.make_library(2, 3, 1.0, 1.5, rng)
    fitted = mn.fit_library(lib, 300, 0.02, "uniform",
                            core.TrainConfig(learning_rate=0.1, max_iters=1500, grad_tol=1e-8), seed=27)
    parser = mn.random_parser(3, 3, rng)
    chain = mn.random_chain(3, 6, rng)
    spec = mn.ShiftSpec(chain, chain, 0.0)
    report = mn.composition_error_experiment(lib, fitted, parser, parser, spec, 300, 2)
    assert report["k_module"] == pytest.approx(1.5, rel=1e-9)
    assert report["gap_bound"] == pytest.approx(6 * report["eps_f"] * 1.5**5, rel=1e-9)
    matched = report["table"]["parse_match"]
    assert matched.any() and report["table"]["within_bound"][matched].all()


# ---------------------------------------------------------------------------
# the batched composition path against the per-word oracles


@pytest.fixture(scope="module")
def c13_libraries():
    """C13's library shape (d=2, k=3, x_max=1, K=0.9) and an expansive one
    (K=1.5), each with a short fit: equality does not need a good fit."""
    rng = np.random.default_rng(45)
    cfg = core.TrainConfig(learning_rate=0.15, max_iters=200, grad_tol=1e-8)
    out = {}
    for lipschitz in (0.9, 1.5):
        lib = mn.make_library(2, 3, 1.0, lipschitz, rng)
        out[lipschitz] = (lib, mn.fit_library(lib, 100, 0.02, "uniform", cfg, seed=46))
    return out


@pytest.mark.parametrize("lipschitz, T", [(0.9, 1), (0.9, 2), (0.9, 8), (1.5, 4)])
def test_composition_experiment_equals_the_per_word_oracle(c13_libraries, lipschitz, T):
    lib, fitted = c13_libraries[lipschitz]
    rng = np.random.default_rng(47 + T)
    parser_true = mn.random_parser(4, 3, rng)
    table = parser_true.table.copy()
    table[rng.random(table.shape) < 0.15] = 2
    parser_hat = mn.Parser(table)
    chain = mn.random_chain(4, T, rng)
    spec = mn.ShiftSpec(chain, mn.shifted_chain(chain, 0.005, rng), 0.005)
    report = mn.composition_error_experiment(lib, fitted, parser_true, parser_hat, spec, 300, 48 + T)
    expected = reference_composition_experiment(lib, fitted, parser_true, parser_hat, spec, 300, 48 + T)
    assert report.keys() == expected.keys()
    for key in expected.keys() - {"table"}:
        assert report[key] == expected[key], key
    assert report["table"].keys() == expected["table"].keys()
    for name, column in expected["table"].items():
        values = report["table"][name].tolist()
        assert values == column and list(map(type, values)) == list(map(type, column)), name


@pytest.mark.parametrize("d, lipschitz", [(2, 0.9), (3, 1.5), (10, 0.8)])
def test_measured_lipschitz_equals_the_per_pair_loop(d, lipschitz):
    lib = mn.make_library(d, 3, 1.0, lipschitz, np.random.default_rng(49))
    assert lib.measured_lipschitz(250, np.random.default_rng(50)) == reference_measured_lipschitz(
        lib, 250, np.random.default_rng(50))


def test_batched_compose_rows_equal_one_row_calls():
    rng = np.random.default_rng(51)
    lib = tiny_library(rng)
    parser = mn.random_parser(3, 3, rng)
    words = rng.integers(0, 3, size=(40, 5))
    x = rng.uniform(-0.5, 0.5, size=(40, 2))
    out, trace = mn.compose(lib, parser, x, words)
    assert out.shape == (40, 2) and len(trace) == 6
    for i in range(40):
        assert np.array_equal(out[i], mn.compose(lib, parser, x[i], words[i])[0])
    with pytest.raises(RejectedInput):
        mn.compose(lib, parser, x[:39], words)
    with pytest.raises(RejectedInput):
        lib.apply(np.full(40, 4), x)


@pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2), (1, 2, 3, 4), (0, 2, 2, 3), (1, 0, 0, 3), (1, 2, 2, 0)])
def test_library_rejects_thetas_that_are_not_a_k_d_d_width_array(shape):
    with pytest.raises(RejectedInput, match="thetas must be a"):
        mn.ModuleLibrary(np.ones(shape), x_max=1.0)


def test_library_rejects_non_finite_thetas_and_a_nonpositive_radius():
    thetas = np.ones((1, 2, 2, 3))
    with pytest.raises(RejectedInput, match="x_max"):
        mn.ModuleLibrary(thetas, x_max=0.0)
    thetas[0, 1, 0, 2] = np.nan
    with pytest.raises(RejectedInput, match="non-finite"):
        mn.ModuleLibrary(thetas, x_max=1.0)
