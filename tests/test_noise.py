import numpy as np
import pytest

from varwit import (
    HermitianOperator,
    NoiseChannel,
    NoiseFitResult,
    dual_apply,
    fit_alpha,
    identity,
    moments,
    noisy_povm,
    projective_povm,
    spin1_components,
    spin1_moment_pairs,
    spin_flip_channel,
    variance,
)
from helpers import random_channel, random_hermitian, random_povm, random_pure

SQ2 = 1.0 / np.sqrt(2.0)
FLIP = np.diag([-1.0, 1.0, -1.0])


def make_calibration(alpha, num=25, weights=(0.5, 0.5)):
    """Exact V values of the theta1 test-state family under given noise."""
    from varwit import TestStateParams, make_test_state

    x_pair, y_pair = spin1_moment_pairs(alpha)
    cal = []
    step = 180.0 / (num + 1)
    for k in range(1, num + 1):
        psi = make_test_state(TestStateParams(theta1=k * step, theta2=23.3))
        v = weights[0] * variance(psi, x_pair) + weights[1] * variance(psi, y_pair)
        cal.append((psi, v))
    return cal


def test_channel_validates_probabilities():
    with pytest.raises(ValueError):
        NoiseChannel(branches=((0.5, np.eye(3)), (0.6, FLIP)))
    with pytest.raises(ValueError):
        NoiseChannel(branches=((1.5, np.eye(3)), (-0.5, FLIP)))


def test_channel_validates_unitarity():
    for bad in (np.diag([2.0, 1.0, 1.0]), np.diag([np.nan, 1.0, 1.0])):
        with pytest.raises(ValueError, match="not unitary"):
            NoiseChannel(branches=((1.0, bad),))


def test_channel_drops_zero_probability_branches():
    ch = spin_flip_channel(0.0)
    assert len(ch.branches) == 1
    assert np.array_equal(ch.branches[0][1], np.eye(3))


def test_channel_json_round_trip():
    ch = spin_flip_channel(0.2)
    payload = ch.to_dict()
    assert set(payload) == {"dim", "branches"}
    assert payload["dim"] == 3
    assert set(payload["branches"][0]) == {"p", "unitary"}
    back = NoiseChannel.from_dict(payload)
    assert len(back.branches) == len(ch.branches)
    for (p1, u1), (p2, u2) in zip(back.branches, ch.branches):
        assert p1 == p2
        assert np.array_equal(u1, u2)
    for dim in (3.7, 3.0, True, "3", 4):
        with pytest.raises(ValueError, match="dim field"):
            NoiseChannel.from_dict(dict(payload, dim=dim))


def test_spin_flip_channel_branch_probabilities():
    ch = spin_flip_channel(0.2)
    probs = sorted(p for p, _ in ch.branches)
    assert np.allclose(probs, [0.1, 0.9], atol=1e-15)
    ch = spin_flip_channel(1.0)
    probs = sorted(p for p, _ in ch.branches)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)
    with pytest.raises(ValueError):
        spin_flip_channel(1.2)
    with pytest.raises(ValueError):
        spin_flip_channel(-0.1)


def test_dual_apply_identity_channel():
    lx, _, _ = spin1_components()
    out = dual_apply(spin_flip_channel(0.0), lx)
    assert np.max(np.abs(out.entries - lx.entries)) < 1e-15


def test_dual_apply_contracts_first_moment():
    lx, _, _ = spin1_components()
    out = dual_apply(spin_flip_channel(0.2), lx)
    assert np.max(np.abs(out.entries - 0.8 * lx.entries)) < 1e-12
    assert abs(out.entries[0, 1] - 0.8 * SQ2) < 1e-12


def test_dual_apply_leaves_second_moment_unchanged():
    lx, _, _ = spin1_components()
    lx2 = HermitianOperator(lx.entries @ lx.entries)
    for alpha in (0.0, 0.3, 1.0):
        out = dual_apply(spin_flip_channel(alpha), lx2)
        assert np.max(np.abs(out.entries - lx2.entries)) < 1e-12


def test_dual_apply_dim_mismatch():
    with pytest.raises(ValueError):
        dual_apply(spin_flip_channel(0.2), HermitianOperator(np.eye(2)))


def test_dual_apply_unitality_random_channels():
    rng = np.random.default_rng(0)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        ch = random_channel(rng, dim, int(rng.integers(1, 4)))
        out = dual_apply(ch, identity(dim))
        assert np.max(np.abs(out.entries - np.eye(dim))) < 1e-12


def test_dual_apply_preserves_positivity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        psd = HermitianOperator(g @ g.conj().T)
        ch = random_channel(rng, dim, 3)
        out = dual_apply(ch, psd)
        assert np.linalg.eigvalsh(out.entries)[0] > -1e-10


def test_dual_apply_is_linear():
    rng = np.random.default_rng(8)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        ch = random_channel(rng, dim, 2)
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        s, t = rng.normal(size=2)
        combo = HermitianOperator(s * a.entries + t * b.entries)
        lhs = dual_apply(ch, combo).entries
        rhs = s * dual_apply(ch, a).entries + t * dual_apply(ch, b).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_noisy_povm_identity_channel():
    lx, _, _ = spin1_components()
    povm = projective_povm(lx)
    out = noisy_povm(spin_flip_channel(0.0), povm)
    for a, b in zip(out.elements, povm.elements):
        assert np.max(np.abs(a.entries - b.entries)) < 1e-15


def test_noisy_povm_pure_flip_negates_first_moment():
    # conjugation by diag(-1, 1, -1) alone flips the sign of L_X
    lx, _, _ = spin1_components()
    pure_flip = NoiseChannel(branches=((1.0, FLIP),))
    out = noisy_povm(pure_flip, projective_povm(lx))
    first = moments(out, 1)[0]
    assert np.max(np.abs(first.entries + lx.entries)) < 1e-12


def test_noisy_povm_alpha_one_kills_first_moment():
    # the alpha=1 mixture is half identity, half flip, so the first
    # moment contracts all the way to zero rather than to -L_X
    lx, _, _ = spin1_components()
    out = noisy_povm(spin_flip_channel(1.0), projective_povm(lx))
    first = moments(out, 1)[0]
    assert np.max(np.abs(first.entries)) < 1e-12


def test_noisy_povm_contracts_ly_first_moment():
    _, ly, _ = spin1_components()
    out = noisy_povm(spin_flip_channel(0.2), projective_povm(ly))
    first = moments(out, 1)[0]
    assert np.max(np.abs(first.entries - 0.8 * ly.entries)) < 1e-12


def test_noisy_povm_preserves_completeness():
    rng = np.random.default_rng(12)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        povm = random_povm(rng, dim, 3)
        ch = random_channel(rng, dim, 2)
        out = noisy_povm(ch, povm)
        total = sum(e.entries for e in out.elements)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-10


def test_spin_flip_first_moment_contraction_family():
    lx, ly, _ = spin1_components()
    for op in (lx, ly):
        op2 = op.entries @ op.entries
        povm = projective_povm(op)
        for alpha in (0.0, 0.1, 0.2, 0.5, 1.0):
            noisy = noisy_povm(spin_flip_channel(alpha), povm)
            first, second = moments(noisy, 2)
            assert np.max(np.abs(first.entries - (1 - alpha) * op.entries)) < 1e-12
            assert np.max(np.abs(second.entries - op2)) < 1e-12


def test_full_flip_fixes_commuting_operators():
    ch = spin_flip_channel(1.0)
    diag = HermitianOperator(np.diag([2.0, -1.0, 0.5]))
    out = dual_apply(ch, diag)
    assert np.max(np.abs(out.entries - diag.entries)) < 1e-12


def test_spin1_moment_pairs_match_noisy_povm_route():
    lx, ly, _ = spin1_components()
    for alpha in (0.0, 0.2, 0.7):
        x_pair, y_pair = spin1_moment_pairs(alpha)
        ch = spin_flip_channel(alpha)
        for pair, op in ((x_pair, lx), (y_pair, ly)):
            first, second = moments(noisy_povm(ch, projective_povm(op)), 2)
            assert np.max(np.abs(pair.first.entries - first.entries)) < 1e-12
            assert np.max(np.abs(pair.second.entries - second.entries)) < 1e-12


def test_fit_result_validates_residual_consistency():
    with pytest.raises(ValueError):
        NoiseFitResult(alpha=0.2, residual=1.0, per_state_residuals=(0.1, 0.2))
    with pytest.raises(ValueError):
        NoiseFitResult(alpha=1.5, residual=0.0, per_state_residuals=())


def test_fit_alpha_round_trip_exact():
    res = fit_alpha(make_calibration(0.2))
    assert abs(res.alpha - 0.2) < 1e-4
    assert res.residual < 1e-12
    res = fit_alpha(make_calibration(0.0))
    assert abs(res.alpha) < 1e-4


def test_fit_alpha_with_gaussian_noise_smoke():
    cal = make_calibration(0.2)
    rng = np.random.default_rng(17)
    for _ in range(5):
        noisy = [(psi, v + rng.normal(0.0, 0.01)) for psi, v in cal]
        res = fit_alpha(noisy)
        assert abs(res.alpha - 0.2) < 0.02


def test_fit_alpha_respects_weights():
    cal = make_calibration(0.3, weights=(0.7, 0.3))
    res = fit_alpha(cal, weights=(0.7, 0.3))
    assert abs(res.alpha - 0.3) < 1e-4


def test_fit_alpha_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_alpha([])
    cal = make_calibration(0.2, num=3)
    cal[0] = (cal[0][0], float("nan"))
    with pytest.raises(ValueError):
        fit_alpha(cal)
    cal = make_calibration(0.2, num=3)
    for weights in ((float("nan"), 0.5), (float("inf"), 0.5), (0.0, 0.0), (-0.1, 0.5),
                    (1e300, 0.5)):
        with pytest.raises(ValueError):
            fit_alpha(cal, weights=weights)
    from varwit import TestStateParams, make_test_state

    # theta1 = 0 states have zero first-moment means, so V does not depend on alpha
    flat = [(make_test_state(TestStateParams(theta1=0.0, theta2=t)), 0.5) for t in (10.0, 30.0)]
    with pytest.raises(ValueError, match="does not constrain alpha"):
        fit_alpha(flat)


def _fit_terms(calibration, weights):
    """a_i, b_i of V_i = a_i - eta^2 b_i, from the ideal L_X, L_Y expectations."""
    lx, ly, _ = spin1_components()
    lam, mu = weights
    a, b = [], []
    for psi, _ in calibration:
        v = psi.amplitudes
        ex1, ey1 = (float((v.conj() @ op.entries @ v).real) for op in (lx, ly))
        ex2, ey2 = (float((v.conj() @ op.entries @ op.entries @ v).real) for op in (lx, ly))
        a.append(lam * ex2 + mu * ey2)
        b.append(lam * ex1**2 + mu * ey1**2)
    return np.array(a), np.array(b)


def test_fit_alpha_is_the_exact_least_squares_minimum():
    cal = make_calibration(0.2)
    rng = np.random.default_rng(23)
    grid = np.linspace(0.0, 1.0, 10001)
    for weights in ((0.5, 0.5), (0.7, 0.3)):
        a, b = _fit_terms(cal, weights)
        for _ in range(5):
            measured = np.array([v for _, v in cal]) + rng.normal(0.0, 0.01, len(cal))
            res = fit_alpha([(psi, m) for (psi, _), m in zip(cal, measured)], weights=weights)
            t = np.clip(b @ (a - measured) / (b @ b), 0.0, 1.0)
            assert abs(res.alpha - (1.0 - np.sqrt(t))) < 1e-12
            model = a[None, :] - ((1.0 - grid) ** 2)[:, None] * b[None, :]
            grid_losses = np.sum((model - measured[None, :]) ** 2, axis=1)
            assert res.residual <= grid_losses.min() + 1e-15


def test_fit_alpha_clips_to_the_unit_interval():
    cal = make_calibration(0.2)
    a, b = _fit_terms(cal, (0.5, 0.5))
    states = [psi for psi, _ in cal]
    res = fit_alpha(list(zip(states, a - 1.2 * b)))
    assert res.alpha == 0.0
    res = fit_alpha(list(zip(states, a + 0.1 * b)))
    assert res.alpha == 1.0


def test_spin_flip_variance_is_linear_in_eta_squared():
    rng = np.random.default_rng(31)
    lam, mu = 0.7, 0.3

    def v_of(alpha, psi):
        x, y = spin1_moment_pairs(alpha)
        return lam * variance(psi, x) + mu * variance(psi, y)

    for _ in range(20):
        psi = random_pure(rng, 3)
        v1, v0 = v_of(1.0, psi), v_of(0.0, psi)
        for alpha in (0.1, 0.37, 0.8):
            assert abs(v_of(alpha, psi) - (v1 - (1.0 - alpha) ** 2 * (v1 - v0))) < 1e-12
