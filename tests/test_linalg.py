import numpy as np
import pytest

from conftest import power_iteration_extreme, random_symmetric
from qni_lab.linalg import extreme_eigenpair, top_eigenpair


def first_significant(vec):
    return vec[np.abs(vec) > 1e-12][0]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_eigenpairs_match_power_iteration(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        a = random_symmetric(d, rng)
        lam_e, vec_e = extreme_eigenpair(a)
        lam_t, vec_t = top_eigenpair(a)
        for lam, vec in ((lam_e, vec_e), (lam_t, vec_t)):
            # defining property and unit norm
            assert np.linalg.norm(a @ vec - lam * vec) < 1e-9
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(lam_e) == pytest.approx(power_iteration_extreme(a, iters=5000), rel=1e-8)
        # shifting by ||a||_F makes every eigenvalue positive, so the extreme
        # eigenvalue of the shifted matrix is the top one
        shift = np.linalg.norm(a)
        top = power_iteration_extreme(a + shift * np.eye(d), iters=5000) - shift
        assert lam_t == pytest.approx(top, abs=1e-8)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_symmetric(4, rng)
        for fn in (top_eigenpair, extreme_eigenpair):
            lam1, v1 = fn(a)
            lam2, v2 = fn(a.copy())
            assert lam1 == lam2
            assert np.array_equal(v1, v2)
            assert first_significant(v1) > 0
    # entries below the sign tolerance do not decide the sign
    v = np.array([1e-14, -0.6, 0.8])
    _, vec = top_eigenpair(5.0 * np.outer(v, v))
    assert np.allclose(vec, -v)


def test_top_and_extreme_eigenpairs():
    a = np.diag([2.0, -5.0, 1.0])
    lam, vec = top_eigenpair(a)
    assert lam == pytest.approx(2.0)
    assert np.allclose(np.abs(vec), [1, 0, 0])
    lam_e, vec_e = extreme_eigenpair(a)
    assert lam_e == pytest.approx(-5.0)
    assert np.allclose(np.abs(vec_e), [0, 1, 0])
    # equal magnitudes: the positive end wins
    lam_tie, vec_tie = extreme_eigenpair(np.diag([-2.0, 2.0, 1.0]))
    assert lam_tie == pytest.approx(2.0)
    assert np.allclose(vec_tie, [0, 1, 0])
