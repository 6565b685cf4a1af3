import numpy as np
import pytest

from varwit import bounds
from varwit import (
    BoundResult,
    PureState,
    RegionBoundary,
    WeightedPair,
    certified_bound,
    compose_sep_bound,
    eig_hermitian,
    expectation,
    grid_bound,
    moment_pair,
    penalty_operator,
    seesaw_bound,
    sep_bound_curve,
    spin1_components,
    spin1_moment_pairs,
    trace_region,
    variance_functional,
)
from helpers import random_povm, random_pure, scalar_seesaw


def spin1_pair(lam, mu, alpha=0.0):
    x, y = spin1_moment_pairs(alpha)
    return WeightedPair(lam, mu, x, y)


def test_weighted_pair_validation():
    x, y = spin1_moment_pairs(0.0)
    with pytest.raises(ValueError):
        WeightedPair(-0.1, 0.5, x, y)
    with pytest.raises(ValueError):
        WeightedPair(0.0, 0.0, x, y)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            WeightedPair(bad, 0.5, x, y)


def test_weighted_pair_rejects_overflowing_weights():
    x, y = spin1_moment_pairs(0.0)
    with pytest.raises(ValueError, match=r"weights \(1e\+308, 1e\+308\)"):
        WeightedPair(1e308, 1e308, x, y)
    # large but safe weights still solve, without overflow warnings
    with np.errstate(all="raise"):
        res = certified_bound(WeightedPair(1e300, 1e300, x, y), max_iter=3)
    assert np.isfinite(res.value)


def test_penalty_single_observable_eigenstate():
    pair = spin1_pair(1.0, 0.0)
    pen = penalty_operator(pair, 1.0, 0.0)
    lx, _, _ = spin1_components()
    expected = (lx.entries - np.eye(3)) @ (lx.entries - np.eye(3))
    assert np.max(np.abs(pen.entries - expected)) < 1e-12
    assert abs(np.linalg.eigvalsh(pen.entries)[0]) < 1e-12


def test_penalty_at_zero_means_is_half_moment_sum():
    lx, ly, _ = spin1_components()
    expected = 0.5 * (lx.entries @ lx.entries + ly.entries @ ly.entries)
    for alpha in (0.0, 0.2):
        pen = penalty_operator(spin1_pair(0.5, 0.5, alpha), 0.0, 0.0)
        assert np.max(np.abs(pen.entries - expected)) < 1e-12
        assert abs(np.linalg.eigvalsh(pen.entries)[0] - 0.5) < 1e-12


def test_penalty_dominates_functional():
    rng = np.random.default_rng(2)
    pair = spin1_pair(0.6, 0.4, 0.2)
    for _ in range(100):
        psi = random_pure(rng, 3)
        x_bar, y_bar = rng.normal(size=2)
        pen = expectation(psi, penalty_operator(pair, x_bar, y_bar))
        val = variance_functional(pair, psi)
        assert pen >= val - 1e-10
        # equality exactly at the state's own first-moment expectations
        mx = expectation(psi, pair.x.first)
        my = expectation(psi, pair.y.first)
        tight = expectation(psi, penalty_operator(pair, mx, my))
        assert abs(tight - val) < 1e-10


def test_seesaw_single_observable_reaches_zero():
    res = seesaw_bound(spin1_pair(1.0, 0.0))
    assert res.converged
    assert res.method == "seesaw"
    assert abs(res.value) < 1e-9


def test_seesaw_noiseless_local_bound():
    res = seesaw_bound(spin1_pair(1.0, 1.0))
    assert res.converged
    assert abs(res.value - 7.0 / 16.0) < 1e-6


def test_seesaw_noisy_local_bound():
    res = seesaw_bound(spin1_pair(1.0, 1.0, 0.2))
    assert res.converged
    assert abs(res.value - 0.7614) < 2e-3


def test_seesaw_minimizer_reproduces_value():
    for lam in (0.3, 0.5, 0.8):
        pair = spin1_pair(lam, 1.0 - lam, 0.2)
        res = seesaw_bound(pair)
        assert abs(variance_functional(pair, res.minimizer) - res.value) < 1e-8


def test_seesaw_value_is_monotone_in_iterations():
    # V(psi_{k+1}) <= lambda_min(P(m_k)) <= V(psi_k): one more step never raises the value
    for alpha in (0.0, 0.2, 0.5):
        for lam in (0.3, 0.5):
            pair = spin1_pair(lam, 1.0 - lam, alpha)
            values = [
                seesaw_bound(pair, starts=1, max_iter=k, seed=1).value for k in range(1, 81)
            ]
            assert np.all(np.diff(values) <= 1e-12)


def test_grid_single_observable():
    res = grid_bound(spin1_pair(1.0, 0.0), grid_n=101, polish=False)
    assert res.method == "grid"
    assert res.value < 1e-4


def test_grid_polished_noiseless_bound():
    res = grid_bound(spin1_pair(1.0, 1.0), grid_n=201)
    assert res.method == "grid_refined"
    assert abs(res.value - 0.4375) < 1e-5


def test_grid_full_noise_diagonal_case():
    # at alpha=1 the first moments vanish, so the optimum sits at means
    # (0, 0) where the penalty is L_X^2 + L_Y^2 = diag(1, 2, 1)
    res = grid_bound(spin1_pair(1.0, 1.0, 1.0), grid_n=51)
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.means[0]) < 1e-12 and abs(res.means[1]) < 1e-12


def test_grid_requires_minimum_resolution():
    with pytest.raises(ValueError):
        grid_bound(spin1_pair(0.5, 0.5), grid_n=9)


def test_certified_bound_is_certified():
    res = certified_bound(spin1_pair(0.5, 0.5, 0.2))
    assert res.converged or res.method in ("grid", "grid_refined")


def test_certified_bound_trusts_a_stall_the_oracle_confirms():
    # this seed's starts stall in the flat valley a hair below the oracle
    pair = spin1_pair(0.355, 0.645, 0.2)
    stalled = seesaw_bound(pair, seed=1)
    assert not stalled.converged and not stalled.certified
    oracle = grid_bound(pair)
    assert oracle.certified
    res = certified_bound(pair, seed=1)
    assert res.certified
    assert res.value == min(stalled.value, oracle.value)


def test_certified_bound_rejects_a_stall_the_oracle_undercuts():
    # a single start from this seed stalls far above the mesh oracle
    pair = spin1_pair(0.2, 0.8)
    stalled = seesaw_bound(pair, starts=1, seed=2)
    res = certified_bound(pair, starts=1, seed=2)
    assert not res.certified
    assert res.value == grid_bound(pair).value < stalled.value - 1e-2
    assert not grid_bound(pair, polish=False).certified


def test_compose_sep_bound_sums_locals():
    local = seesaw_bound(spin1_pair(0.5, 0.5))
    assert abs(compose_sep_bound(local, local) - 7.0 / 16.0) < 1e-6
    trivial = seesaw_bound(spin1_pair(1.0, 0.0))
    assert abs(compose_sep_bound(local, trivial) - local.value) < 1e-9


def test_compose_sep_bound_rejects_uncertified():
    local = seesaw_bound(spin1_pair(0.5, 0.5))
    stalled = BoundResult(
        value=local.value,
        minimizer=local.minimizer,
        means=local.means,
        iterations=500,
        converged=False,
        method="seesaw",
        certified=False,
    )
    with pytest.raises(ValueError):
        compose_sep_bound(local, stalled)


def test_oracle_agreement_smoke():
    for alpha in (0.0, 0.2):
        for lam in (0.25, 0.5, 0.75):
            pair = spin1_pair(lam, 1.0 - lam, alpha)
            s = seesaw_bound(pair)
            g = grid_bound(pair, grid_n=201)
            assert abs(s.value - g.value) < 1e-4


def test_lower_bound_soundness_random_states():
    rng = np.random.default_rng(21)
    for alpha in (0.0, 0.2):
        pair = spin1_pair(0.5, 0.5, alpha)
        res = seesaw_bound(pair)
        for _ in range(300):
            psi = random_pure(rng, 3)
            assert variance_functional(pair, psi) >= res.value - 1e-9


def test_noise_raises_local_bound():
    for lam in np.linspace(0.1, 0.9, 9):
        b0 = certified_bound(spin1_pair(lam, 1.0 - lam, 0.0))
        b2 = certified_bound(spin1_pair(lam, 1.0 - lam, 0.2))
        assert b2.value >= b0.value - 1e-9


def test_weight_scaling_homogeneity():
    pair1 = spin1_pair(0.37, 0.63)
    pair3 = spin1_pair(3 * 0.37, 3 * 0.63)
    s1 = seesaw_bound(pair1)
    s3 = seesaw_bound(pair3)
    assert abs(s3.value - 3.0 * s1.value) < 1e-8
    g1 = grid_bound(pair1, grid_n=101, polish=False)
    g3 = grid_bound(pair3, grid_n=101, polish=False)
    assert abs(g3.value - 3.0 * g1.value) < 1e-12


def test_trace_region_validates_lambdas():
    x, y = spin1_moment_pairs(0.0)
    with pytest.raises(ValueError):
        trace_region(x, y, [0.5, 0.3])
    with pytest.raises(ValueError):
        trace_region(x, y, [0.0, 0.5])


def test_trace_region_endpoint_approaches_known_corner():
    x, y = spin1_moment_pairs(0.0)
    reg = trace_region(x, y, [0.999])
    dx, dy = reg.points[0]
    assert dx < 1e-4
    assert abs(dy - 0.5) < 1e-3


def test_trace_region_supporting_lines():
    x, y = spin1_moment_pairs(0.2)
    lams = list(np.linspace(0.1, 0.9, 9))
    reg = trace_region(x, y, lams)
    assert all(reg.certified)
    for dx, dy in reg.points:
        for lam, c in zip(reg.lambdas, reg.bounds):
            assert lam * dx + (1 - lam) * dy >= c - 1e-8


def test_trace_region_symmetric_weight_has_mirrored_twin():
    # the lambda = 1/2 supporting line touches the boundary at two
    # mirror-image points; swapping the measurement roles returns the twin
    x, y = spin1_moment_pairs(0.0)
    fwd = trace_region(x, y, [0.5])
    rev = trace_region(y, x, [0.5])
    dx, dy = fwd.points[0]
    rdy, rdx = rev.points[0]
    assert abs(dx - rdy) < 1e-6 and abs(dy - rdx) < 1e-6
    assert abs(fwd.bounds[0] - rev.bounds[0]) < 1e-9
    assert abs((dx + dy) / 2.0 - 7.0 / 32.0) < 1e-8


def test_trace_region_flags_stalled_points():
    x, y = spin1_moment_pairs(0.0)
    reg = trace_region(x, y, [0.4, 0.6], max_iter=1)
    assert len(reg.points) == 2
    assert not any(reg.certified)


def test_region_boundary_rejects_undercut_point():
    with pytest.raises(ValueError):
        RegionBoundary(
            points=((0.0, 0.0),),
            lambdas=(0.5,),
            bounds=(1.0,),
            certified=(True,),
        )


def test_noisy_region_lies_outside_noiseless_region():
    x0, y0 = spin1_moment_pairs(0.0)
    x2, y2 = spin1_moment_pairs(0.2)
    lams = list(np.linspace(0.1, 0.9, 9))
    base = trace_region(x0, y0, lams)
    noisy = trace_region(x2, y2, lams)
    # each noisy boundary point satisfies every noiseless supporting line
    for dx, dy in noisy.points:
        for lam, c in zip(base.lambdas, base.bounds):
            assert lam * dx + (1 - lam) * dy >= c - 1e-8


def test_sep_bound_curve_composes_two_parties():
    x, y = spin1_moment_pairs(0.0)
    lams, values, certified = sep_bound_curve(x, y, num=21)
    assert len(lams) == 21 and len(values) == 21 and certified.all()
    mid = values[10]
    assert abs(mid - 7.0 / 16.0) < 1e-6
    local = certified_bound(WeightedPair(lams[10], 1 - lams[10], x, y))
    assert abs(mid - 2.0 * local.value) < 1e-9


def test_bound_result_rejects_negative_value():
    psi = PureState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        BoundResult(
            value=-1e-6,
            minimizer=psi,
            means=(0.0, 0.0),
            iterations=1,
            converged=True,
            method="seesaw",
        )
    with pytest.raises(ValueError):
        BoundResult(
            value=0.1,
            minimizer=psi,
            means=(0.0, 0.0),
            iterations=1,
            converged=True,
            method="newton",
        )


def assert_same_as_scalar(res, pair, **kwargs):
    vec, value, xm, ym, iters, conv, _ = scalar_seesaw(pair, **kwargs)
    assert res.value == value
    assert res.means == (xm, ym)
    assert res.iterations == iters
    assert res.converged == conv
    assert np.array_equal(res.minimizer.amplitudes, vec)


def random_povm_pairs():
    rng = np.random.default_rng(8)
    return [
        (moment_pair(random_povm(rng, 3, 4)), moment_pair(random_povm(rng, 3, 3)))
        for _ in range(2)
    ]


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 1.0])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
def test_engine_matches_scalar_seesaw_bit_for_bit(alpha, lam):
    pair = spin1_pair(lam, 1.0 - lam, alpha)
    for kwargs in ({"seed": 1}, {"seed": 2, "max_iter": 3}):
        assert_same_as_scalar(seesaw_bound(pair, **kwargs), pair, **kwargs)


def test_engine_squares_means_like_python_floats():
    # on this point of the noiseless 201-point curve numpy's square and
    # the libm pow behind a Python float's ** 2 round one mean differently
    pair = spin1_pair(0.265, 0.735)
    assert_same_as_scalar(seesaw_bound(pair), pair)


def test_engine_matches_scalar_seesaw_on_random_povms():
    for x, y in random_povm_pairs():
        for lam in (0.0, 0.3, 0.5, 1.0):
            pair = WeightedPair(lam, 1.0 - lam, x, y)
            for kwargs in ({}, {"max_iter": 3}):
                assert_same_as_scalar(seesaw_bound(pair, **kwargs), pair, **kwargs)


def test_engine_chunks_do_not_change_rows(monkeypatch):
    # 6 weights x 16 starts run in 14 chunks of 7 rows
    monkeypatch.setattr(bounds, "_CHUNK", 7)
    x, y = spin1_moment_pairs(0.5)
    lams = [0.0, 0.2, 0.45, 0.5, 0.8, 1.0]
    found = bounds._seesaw_many(x, y, lams, [1.0 - l for l in lams], 16, 1e-10, 500, 3)
    for lam, res in zip(lams, found):
        assert_same_as_scalar(res, WeightedPair(lam, 1.0 - lam, x, y), seed=3)


@pytest.mark.parametrize("alpha", [0.2, 0.5])
def test_sep_bound_curve_rows_equal_certified_bound(alpha):
    x, y = spin1_moment_pairs(alpha)
    lams, values, certified = sep_bound_curve(x, y, num=11, seed=4)
    for lam, value, ok in zip(lams, values, certified):
        res = certified_bound(WeightedPair(float(lam), float(1.0 - lam), x, y), seed=4)
        assert value == 2.0 * res.value
        assert ok == res.certified


def test_sep_bound_curve_solves_all_weights_in_one_batch(monkeypatch):
    # one stacked eigensolve per seesaw step for the whole curve, plus at
    # most one polish run per weight sent to the mesh oracle
    counts = {"eigh": 0, "oracle": 0}
    eigh, oracle = np.linalg.eigh, bounds.grid_bound

    def counted_eigh(a, *args, **kwargs):
        counts["eigh"] += 1
        return eigh(a, *args, **kwargs)

    def counted_oracle(*args, **kwargs):
        counts["oracle"] += 1
        return oracle(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(bounds, "grid_bound", counted_oracle)
    max_iter = 500
    x, y = spin1_moment_pairs(0.2)
    sep_bound_curve(x, y, num=201, max_iter=max_iter)
    assert counts["oracle"] >= 1
    assert counts["eigh"] <= max_iter * (1 + counts["oracle"])
