import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from varwit import (
    DensityMatrix,
    DetectionWindow,
    HermitianOperator,
    MomentPair,
    PureState,
    WitnessVerdict,
    build_global_moments,
    detection_window,
    evaluate_witness,
    evaluate_witness_from_tuple,
    expectation,
    make_singlet,
    projective_povm,
    spin1_components,
    spin1_moment_pairs,
    tensor,
    variance,
)
from helpers import random_density, random_pure


def singlet_density():
    return DensityMatrix.from_pure(make_singlet())


def global_pair(alpha):
    x, y = spin1_moment_pairs(alpha)
    return build_global_moments(x), build_global_moments(y)


def test_global_moments_on_singlet_vanish():
    gx, gy = global_pair(0.0)
    rho = singlet_density()
    assert abs(expectation(rho, gx.first)) < 1e-12
    assert abs(expectation(rho, gx.second)) < 1e-12
    assert abs(expectation(rho, gy.second)) < 1e-12


def test_global_moments_zero_local_moments():
    zero = HermitianOperator(np.zeros((3, 3)))
    g = build_global_moments(MomentPair(first=zero, second=zero))
    assert np.max(np.abs(g.first.entries)) == 0.0
    assert np.max(np.abs(g.second.entries)) == 0.0


def test_global_moments_noisy_singlet_value():
    gx, _ = global_pair(0.2)
    rho = singlet_density()
    v = expectation(rho, gx.second) - expectation(rho, gx.first) ** 2
    assert abs(v - 0.48) < 1e-10
    assert abs(0.48 - 4.0 / 3.0 * (1.0 - 0.8**2)) < 1e-12


def test_global_moments_match_joint_povm_route():
    # for projective local measurements the formulas must agree with
    # forming the product POVM of (x_a, x_b) and taking moments of the sum
    lx, ly, _ = spin1_components()
    for op in (lx, ly):
        povm = projective_povm(op)
        m1 = np.zeros((9, 9), dtype=complex)
        m2 = np.zeros((9, 9), dtype=complex)
        for xa, pa in zip(povm.outcomes, povm.elements):
            for xb, pb in zip(povm.outcomes, povm.elements):
                joint = np.kron(pa.entries, pb.entries)
                m1 += (xa + xb) * joint
                m2 += (xa + xb) ** 2 * joint
        pair = MomentPair(first=op, second=HermitianOperator(op.entries @ op.entries))
        g = build_global_moments(pair)
        assert np.max(np.abs(g.first.entries - m1)) < 1e-10
        assert np.max(np.abs(g.second.entries - m2)) < 1e-10


def test_verdict_invariant_enforced():
    with pytest.raises(ValueError):
        WitnessVerdict(
            lam=0.5, mu=0.5, v_value=0.1, c_sep=0.4, detected=False, margin=0.3
        )
    with pytest.raises(ValueError):
        WitnessVerdict(
            lam=0.5, mu=0.5, v_value=0.1, c_sep=0.4, detected=True, margin=0.2
        )


def test_evaluate_witness_singlet_noiseless():
    gx, gy = global_pair(0.0)
    verdict = evaluate_witness(singlet_density(), gx, gy, 0.5, 0.5, 7.0 / 16.0)
    assert abs(verdict.v_value) < 1e-12
    assert verdict.detected


def test_evaluate_witness_singlet_adapted():
    gx, gy = global_pair(0.2)
    verdict = evaluate_witness(singlet_density(), gx, gy, 0.5, 0.5, 0.7614)
    assert abs(verdict.v_value - 0.48) < 1e-10
    assert verdict.detected
    assert verdict.margin > 0.25


def test_evaluate_witness_noisy_data_against_noiseless_bound_fails():
    gx, gy = global_pair(0.2)
    verdict = evaluate_witness(singlet_density(), gx, gy, 0.5, 0.5, 7.0 / 16.0)
    assert verdict.v_value >= 7.0 / 16.0
    assert not verdict.detected


def test_evaluate_witness_dim_mismatch():
    gx, gy = global_pair(0.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        evaluate_witness(random_density(rng, 3), gx, gy, 0.5, 0.5, 0.4)


def test_tuple_verdicts_from_reported_measurements():
    v = evaluate_witness_from_tuple(0.021, 0.021, 0.5, 0.5, 0.4375)
    assert v.detected
    assert abs(v.margin - 0.4165) < 1e-12
    v = evaluate_witness_from_tuple(0.492, 0.492, 0.5, 0.5, 0.7614)
    assert v.detected
    assert abs(v.margin - 0.2694) < 1e-12
    v = evaluate_witness_from_tuple(0.0, 0.0, 0.3, 0.7, 1e-6)
    assert v.detected


def test_tuple_verdict_rejects_negative_variance():
    for d2x in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            evaluate_witness_from_tuple(d2x, 0.2, 0.5, 0.5, 0.4)


def test_detection_window_type_validation():
    with pytest.raises(ValueError):
        DetectionWindow(lambda_lo=0.8, lambda_hi=0.2, resolution=1e-3)
    with pytest.raises(ValueError):
        DetectionWindow(lambda_lo=-0.1, lambda_hi=0.5, resolution=1e-3)


def test_detection_window_rejects_bad_knots():
    lams, values = np.linspace(0.0, 1.0, 5), np.full(5, 0.5)
    bad = [
        (lams[[0, 2, 1, 3, 4]], values),  # unsorted
        (np.array([0.0, 0.5, 0.5, 1.0]), values[:4]),  # not strictly ascending
        (np.array([0.0]), np.array([0.5])),  # too short
        (np.linspace(0.0, 0.9, 5), values),  # does not reach 1
        (np.linspace(0.1, 1.0, 5), values),  # does not start at 0
        (np.array([0.0, np.nan, 1.0]), values[:3]),  # non-finite knot
        (lams, np.array([0.5, 0.5, np.inf, 0.5, 0.5])),  # non-finite value
        (lams, values[:4]),  # shape mismatch
        (lams.reshape(1, 5), values.reshape(1, 5)),  # not 1-D
    ]
    for bad_lams, bad_values in bad:
        with pytest.raises(ValueError):
            detection_window(0.1, 0.1, bad_lams, bad_values)
    for d2x in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            detection_window(d2x, 0.1, lams, values)
    assert len(detection_window(0.1, 0.1, lams, values)) == 1


def test_window_edges_on_a_hand_curve():
    # margins (-0.1, 0.2, 0.2, -0.2, -0.2): the margin is zero a third of the
    # way into the first segment and half way into the third
    lams = np.linspace(0.0, 1.0, 5)
    windows = detection_window(0.0, 0.0, lams, np.array([-0.1, 0.2, 0.2, -0.2, -0.2]))
    assert [(w.lambda_lo, w.lambda_hi) for w in windows] == [
        pytest.approx((0.25 / 3.0, 0.625), abs=1e-15)
    ]
    assert windows[0].resolution == 0.25
    # a positive margin at a grid end keeps that end; a touching zero at a
    # knot ends a window there
    windows = detection_window(0.0, 0.0, lams, np.array([0.1, 0.0, 0.1, 0.1, 0.0]))
    assert [(w.lambda_lo, w.lambda_hi) for w in windows] == [(0.0, 0.25), (0.25, 1.0)]


def test_window_perfect_tuple_noiseless(curve_noiseless):
    lams, values = curve_noiseless
    windows = detection_window(0.0, 0.0, lams, values)
    assert len(windows) == 1
    w = windows[0]
    assert w.lambda_lo < 0.028 and w.lambda_hi > 0.985
    assert w.resolution == np.max(np.diff(lams))


def test_window_noisy_singlet_tuple(curve_adapted_02):
    lams, values = curve_adapted_02
    windows = detection_window(0.48, 0.48, lams, values)
    assert len(windows) == 1
    w = windows[0]
    assert 0.0 < w.lambda_lo < 0.5 < w.lambda_hi < 1.0


def test_window_hopeless_tuple_is_empty(curve_adapted_02):
    lams, values = curve_adapted_02
    windows = detection_window(10.0, 10.0, lams, values)
    assert windows == []


def test_window_membership_matches_pointwise_verdicts(curve_adapted_02):
    lams, values = curve_adapted_02
    windows = detection_window(0.48, 0.48, lams, values)
    w = windows[0]
    # the edges are exact for the interpolated curve
    for lam in np.linspace(0.0, 1.0, 1001):
        c = float(np.interp(lam, lams, values))
        verdict = evaluate_witness_from_tuple(0.48, 0.48, lam, 1 - lam, c)
        if w.lambda_lo + 1e-12 <= lam <= w.lambda_hi - 1e-12:
            assert verdict.detected
        elif lam < w.lambda_lo - 1e-12 or lam > w.lambda_hi + 1e-12:
            assert not verdict.detected


def test_window_symmetric_for_symmetric_tuple(curve_adapted_02):
    lams, values = curve_adapted_02
    for d2 in (0.3, 0.48, 0.6):
        windows = detection_window(d2, d2, lams, values)
        for w in windows:
            assert abs((w.lambda_lo + w.lambda_hi) / 2.0 - 0.5) < 1e-3


# property tests, derandomized: the examples drawn depend only on the test
# and on the literals hypothesis finds in the code under test, so a new
# constant there can change them; the @example cases are always run
random_curve = settings(max_examples=200, deadline=None, derandomize=True, database=None)

variance_value = st.floats(0.0, 3.0)


@random_curve
@given(
    steps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
    values=st.lists(st.floats(-2.0, 2.0), min_size=31, max_size=31),
    d2x=variance_value,
    d2y=variance_value,
)
# rounding once put a lower edge below 0, and made two windows that touch at
# a zero knot overlap by an ulp
@example(steps=[0.7265625, 0.5, 0.5], values=[0.0, 0.5] + [0.0] * 29, d2x=0.40625, d2y=0.0)
@example(steps=[0.1, 0.1, 0.7265625], values=[0.0, 0.5, 0.0, 0.5] + [0.0] * 27, d2x=0.0, d2y=0.0)
def test_windows_are_the_positive_runs_of_the_margin(steps, values, d2x, d2y):
    lams = np.concatenate([[0.0], np.cumsum(steps)])
    lams = lams / lams[-1]
    lams[-1] = 1.0
    assume((np.diff(lams) > 0).all())
    values = np.array(values[: lams.size])
    margin = values - (lams * d2x + (1.0 - lams) * d2y)
    windows = detection_window(d2x, d2y, lams, values)
    for w in windows:
        assert w.resolution == np.max(np.diff(lams))
    for prev, nxt in zip(windows, windows[1:]):
        assert prev.lambda_hi <= nxt.lambda_lo
    # a knot strictly inside a window has a positive margin, one outside every
    # window a nonpositive one
    inside = np.zeros(lams.size, dtype=bool)
    for w in windows:
        inside |= (w.lambda_lo < lams) & (lams < w.lambda_hi)
    outside = ~inside
    for w in windows:
        outside &= (lams < w.lambda_lo) | (lams > w.lambda_hi)
    assert (margin[inside] > 0).all()
    assert (margin[outside] <= 0).all()
    # each edge inside the grid is the zero of the interpolated margin, up to
    # rounding: one ulp of lambda moves the margin by its slope times eps
    for w in windows:
        for lam in (w.lambda_lo, w.lambda_hi):
            if 0.0 < lam < 1.0:
                k = min(np.searchsorted(lams, lam, side="right"), lams.size - 1) - 1
                rise = abs(margin[k + 1] - margin[k])
                scale = abs(margin[k]) + abs(margin[k + 1]) + rise / (lams[k + 1] - lams[k])
                assert abs(np.interp(lam, lams, margin)) <= 4 * np.finfo(float).eps * scale


# 200 tuples from a seeded generator, so they do not change with the code
# under test, plus the corners of the range and the separable tuples (0, 2)
# and (2, 0), which lie on the facets where the exact bound is linear
CURVE_TUPLES = [tuple(t) for t in np.random.default_rng(21).uniform(0.0, 3.0, (200, 2))] + [
    (0.0, 0.0), (0.0, 3.0), (3.0, 0.0), (3.0, 3.0), (0.0, 2.0), (2.0, 0.0), (2.2e-60, 2.0)
]


def test_certified_curves_give_at_most_one_window(certified_curves):
    # a certified c(lambda) is concave, so the margin against a line is too
    # and its positive set is one interval; rounding could split it, which
    # this checks rather than assumes
    for lams, values, certified in certified_curves.values():
        assert certified.all()
        for d2x, d2y in CURVE_TUPLES:
            assert len(detection_window(d2x, d2y, lams, values)) <= 1, (d2x, d2y)


def test_variance_additivity_on_product_states():
    rng = np.random.default_rng(33)
    for alpha in (0.0, 0.2):
        x_pair, _ = spin1_moment_pairs(alpha)
        g = build_global_moments(x_pair)
        for _ in range(50):
            rho_a = random_density(rng, 3)
            rho_b = random_density(rng, 3)
            prod = DensityMatrix(
                np.kron(rho_a.matrix.entries, rho_b.matrix.entries)
            )
            d2_global = expectation(prod, g.second) - expectation(prod, g.first) ** 2
            d2_local = variance(rho_a, x_pair) + variance(rho_b, x_pair)
            assert abs(d2_global - d2_local) < 1e-10


def test_soundness_product_states_never_detected(curve_adapted_02):
    lams, values = curve_adapted_02
    c_half = float(values[100])
    gx, gy = global_pair(0.2)
    rng = np.random.default_rng(55)
    for _ in range(200):
        psi_a = random_pure(rng, 3)
        psi_b = random_pure(rng, 3)
        prod = DensityMatrix.from_pure(
            PureState(np.kron(psi_a.amplitudes, psi_b.amplitudes))
        )
        verdict = evaluate_witness(prod, gx, gy, 0.5, 0.5, c_half)
        assert verdict.v_value >= c_half - 1e-9
