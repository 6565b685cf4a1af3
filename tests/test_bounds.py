import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varwit import bounds
from varwit import (
    BoundResult,
    MomentPair,
    PureState,
    RegionBoundary,
    WeightedPair,
    certified_bound,
    compose_sep_bound,
    detection_window,
    eig_hermitian,
    expectation,
    moment_pair,
    penalty_operator,
    projective_povm,
    seesaw_bound,
    sep_bound_curve,
    spin1_components,
    spin1_moment_pairs,
    theta1_sweep,
    theta2_sweep,
    trace_region,
    variance,
    variance_functional,
)
from helpers import (
    capped_seesaw,
    descent_minima,
    local_infimum,
    random_povm,
    random_pure,
    raw_grid_route,
    scalar_descend,
    spin1_box,
)


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
    with np.errstate(all="raise"), capped_seesaw(3):
        res = certified_bound(WeightedPair(1e300, 1e300, x, y))
    assert np.isfinite(res.value)


def test_stop_rules_tolerances_and_fixed_angles_are_not_arguments():
    # the seesaw's stop rule, the degeneracy tolerance and the sweeps' fixed
    # angles each have one value, a module constant
    solvers = (
        seesaw_bound,
        certified_bound,
        bounds.local_bounds,
        sep_bound_curve,
        trace_region,
        bounds._certified_curve,
        bounds._certify,
        bounds._seesaw_rows,
    )
    for fn in solvers + (projective_povm, theta1_sweep, theta2_sweep):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"tol", "max_iter", "degeneracy_tol", "theta1", "theta2"}, fn.__name__
    # every descent starts from a proven vertex, so nothing seeds a bound
    for fn in solvers:
        assert not set(inspect.signature(fn).parameters) & {"starts", "seed"}, fn.__name__


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
            values = []
            for k in range(1, 81):
                with capped_seesaw(k):
                    values.append(raw_grid_route(pair).value)
            assert np.all(np.diff(values) <= 1e-12)


def test_grid_single_observable():
    # an eigenstate of L_X alone has no variance
    res = certified_bound(spin1_pair(1.0, 0.0))
    assert res.certified
    assert abs(res.value) < 1e-12


def test_grid_polished_noiseless_bound():
    res = certified_bound(spin1_pair(1.0, 1.0))
    assert abs(res.value - 0.4375) < 1e-5


def test_grid_full_noise_diagonal_case():
    # at alpha=1 the first moments vanish, so the optimum sits at means
    # (0, 0) where the penalty is L_X^2 + L_Y^2 = diag(1, 2, 1)
    res = certified_bound(spin1_pair(1.0, 1.0, 1.0))
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.means[0]) < 1e-12 and abs(res.means[1]) < 1e-12


def test_value_floor_is_measured_in_the_penalty_scale():
    # at lam = 1e300 a zero bound comes out near -8e283 by rounding, about
    # 1e-17 of the penalty's scale; no record may reject that as negative,
    # and a certified bound clamps it to 0
    pair = spin1_pair(1e300, 0.0)
    for res in (seesaw_bound(pair), raw_grid_route(pair), certified_bound(pair)):
        assert bounds.VALUE_FLOOR * pair.scale <= res.value <= 1e-12 * pair.scale
    assert certified_bound(pair).value == 0.0
    BoundResult(value=-1e-6, minimizer=PureState(np.array([1.0, 0.0, 0.0])), means=(0.0, 0.0),
                iterations=1, converged=True, scale=1e4)


def linalg_matrices(monkeypatch, routine, fn):
    """How many matrices fn passes through np.linalg.<routine>."""
    solved = []
    solve = getattr(np.linalg, routine)

    def counted(a, *args, **kwargs):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, counted)
    fn()
    monkeypatch.undo()
    return sum(solved)


def test_grid_bound_solves_few_matrices(monkeypatch):
    # 5% of the 40,401 nodes of a 201 x 201 mesh of means
    pair = spin1_pair(0.3, 0.7, 0.2)
    solved = linalg_matrices(monkeypatch, "eigvalsh", lambda: certified_bound(pair))
    assert solved <= 0.05 * 201**2


def test_grid_bound_on_the_degenerate_box_solves_its_corners(monkeypatch):
    # at alpha = 1 the box is 4.6e-16 wide and every vertex ties, so the
    # coarse gap prunes both first cells
    pair = spin1_pair(0.5, 0.5, 1.0)
    solved = linalg_matrices(monkeypatch, "eigvalsh", lambda: certified_bound(pair))
    assert solved <= 64


@pytest.mark.parametrize("alpha, lam", [(0.2, 0.5), (0.0, 0.5), (0.5, 0.5), (None, 0.9)])
def test_grid_bound_solves_each_vertex_once(monkeypatch, alpha, lam):
    # cells that share a vertex share its eigensolve, in every round; the
    # spin-1 proofs tile a quarter box, and alpha None is a random POVM box
    # (about 200 matrices), whose proof tiles the whole box
    x, y = random_pairs(17)[:2] if alpha is None else spin1_moment_pairs(alpha)
    pair = WeightedPair(lam, 1.0 - lam, x, y)
    solved = []
    solve = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        solved.extend(m.tobytes() for m in np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    certified_bound(pair)
    assert len(solved) > 100
    assert len(set(solved)) == len(solved)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_grid_bound_peaks_below_one_mib(alpha):
    pair = spin1_pair(0.5, 0.5, alpha)
    tracemalloc.start()
    try:
        certified_bound(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_certified_bound_is_certified():
    res = certified_bound(spin1_pair(0.5, 0.5, 0.2))
    assert res.certified
    exact = local_infimum(0.5, 0.5, 0.2)
    assert abs(res.value - exact) <= bounds.GAP_TOL * res.scale


def proven_lower(pair, upper, gap=bounds.GAP_TOL):
    """The branch-and-bound's proven lower bound for one weighted pair."""
    proof = bounds._branch_and_bound(bounds._batch([pair]), np.array([upper]), gap)
    return float(proof.lower[0])


def penalty_scale(pair):
    return pair.lam * bounds._penalty_scale(pair.x) + pair.mu * bounds._penalty_scale(pair.y)


def test_certified_bound_trusts_a_stall_the_oracle_confirms():
    # two steps leave the first polish stalled a few 1e-13 above the
    # infimum; the branch-and-bound proves the stalled value within the gap
    pair = spin1_pair(0.355, 0.645, 0.2)
    with capped_seesaw(2):
        stalled = raw_grid_route(pair)
        assert not stalled.converged and not stalled.certified
        res = certified_bound(pair)
    assert res.certified
    assert res.value <= stalled.value
    lower = proven_lower(pair, stalled.value)
    assert res.value - bounds.GAP_TOL * penalty_scale(pair) <= lower <= res.value
    assert lower <= local_infimum(0.355, 0.645, 0.2) <= res.value + 1e-12


def test_certified_bound_rejects_a_stall_the_oracle_undercuts(monkeypatch):
    # after one step the first polish is stalled 1.2e-8 above the
    # infimum; the branch-and-bound at GAP_TOL finds a lower vertex, and
    # the second polish from it is returned, proven and certified
    pair = spin1_pair(0.2, 0.8)
    exact = local_infimum(0.2, 0.8, 0.0)
    with capped_seesaw(1):
        stalled = raw_grid_route(pair)
        assert not stalled.converged
        assert stalled.value > exact + 1e-8
        res = certified_bound(pair)
        assert res.certified
        assert res.value < stalled.value - 1e-8
        assert exact - 1e-12 <= res.value <= exact + bounds.GAP_TOL * penalty_scale(pair)
        assert abs(variance_functional(pair, res.minimizer) - res.value) < 1e-12
        # a cell cap the proofs cannot close within leaves the stall uncertified
        monkeypatch.setattr(bounds, "_MAX_CELLS", 2)
        stalled = raw_grid_route(pair)
        capped = certified_bound(pair)
        assert not stalled.converged and not capped.certified
        assert capped.value <= stalled.value


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
        certified=False,
    )
    with pytest.raises(ValueError):
        compose_sep_bound(local, stalled)


def test_oracle_agreement_smoke():
    for alpha in (0.0, 0.2):
        for lam in (0.25, 0.5, 0.75):
            pair = spin1_pair(lam, 1.0 - lam, alpha)
            exact = local_infimum(lam, 1.0 - lam, alpha)
            assert abs(certified_bound(pair).value - exact) < 1e-4


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
    g1 = certified_bound(pair1)
    g3 = certified_bound(pair3)
    assert abs(g3.value - 3.0 * g1.value) < 1e-8


def test_empty_inputs_raise_no_pairs_error():
    x, y = spin1_moment_pairs(0.0)
    for solve in (lambda: bounds.local_bounds([]), lambda: trace_region(x, y, [])):
        with pytest.raises(ValueError, match="no weighted pairs given"):
            solve()


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
    # mirror-image points (a, b) and (b, a), a != b; with the measurement
    # roles swapped the point found, read back as (Var X, Var Y), lies on
    # the same line, whichever of the twins it is
    x, y = spin1_moment_pairs(0.0)
    fwd = trace_region(x, y, [0.5])
    rev = trace_region(y, x, [0.5])
    dx, dy = fwd.points[0]
    rdy, rdx = rev.points[0]
    assert abs(fwd.bounds[0] - rev.bounds[0]) < 1e-9
    for a, b, c in ((dx, dy, fwd.bounds[0]), (rdx, rdy, rev.bounds[0])):
        assert abs((a + b) / 2.0 - c) < 1e-8
        assert abs((a + b) / 2.0 - 7.0 / 32.0) < 1e-8
        assert abs(a - b) > 0.1
    assert {round(dx, 6), round(dy, 6)} == {round(rdx, 6), round(rdy, 6)}


def test_trace_region_flags_stalled_points(monkeypatch):
    x, y = spin1_moment_pairs(0.0)
    with capped_seesaw(1):
        # one step stalls every polish, and the proof then certifies each point
        reg = trace_region(x, y, [0.4, 0.6])
        assert all(reg.certified)
        # with a cell cap the proof cannot close within, the points stay flagged
        monkeypatch.setattr(bounds, "_MAX_CELLS", 2)
        reg = trace_region(x, y, [0.4, 0.6])
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
    # point 0 undercuts line 1 alone and point 1 undercuts both: the message
    # names the first pair in (point, line) order
    with pytest.raises(ValueError, match=r"^point \(0\.25, 0\.5\) falls below the supporting line at lambda=0\.75$"):
        RegionBoundary(
            points=((0.25, 0.5), (0.0, 0.0)),
            lambdas=(0.25, 0.75),
            bounds=(0.4, 0.35),
            certified=(True, True),
        )
    # an uncertified index is neither a checked point nor a line: point 1
    # would undercut line 0, and point 0 line 1
    RegionBoundary(
        points=((0.5, 0.5), (0.0, 0.0)),
        lambdas=(0.25, 0.75),
        bounds=(0.5, 2.0),
        certified=(True, False),
    )
    # SUPPORT_TOL is absolute: an undercut by less than it passes
    RegionBoundary(points=((0.0, 0.0),), lambdas=(0.5,), bounds=(0.9e-8,), certified=(True,))
    # many points and lines: the first undercut lies blocks in, and line 0,
    # which every point undercuts, is not certified
    n = 3000
    points = [(1.0, 1.0)] * n
    points[2000], points[2500] = (-1.0, -2.0), (-3.0, -3.0)
    points[0] = (-5.0, -5.0)
    lams = tuple(float(l) for l in np.linspace(0.01, 0.99, n))
    certified = (False,) + (True,) * (n - 1)
    message = f"point (-1.0, -2.0) falls below the supporting line at lambda={lams[1]}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RegionBoundary(points=tuple(points), lambdas=lams, bounds=(0.0,) * n, certified=certified)


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
        )


def assert_same_as_scalar(res, pair, x0, y0, max_iter=500):
    vec, value, xm, ym, iters, conv = scalar_descend(pair, x0, y0, 1e-10, max_iter)
    assert res.value == value
    assert res.means == (xm, ym)
    assert res.iterations == iters
    assert res.converged == conv
    assert np.array_equal(res.minimizer.amplitudes, vec)


def spread_starts(pair, count, seed):
    """`count` starting means, uniform over the spectral box of `pair`'s (X1, Y1)."""
    xlo, xhi, ylo, yhi = bounds._spectral_box(pair.x, pair.y)
    rng = np.random.default_rng(seed)
    return list(zip(rng.uniform(xlo, xhi, count).tolist(), rng.uniform(ylo, yhi, count).tolist()))


def assert_engine_matches_scalar(pairs, starts, max_iter=500):
    # the engine runs pairs[k] from starts[k], every run in one batch
    x0, y0 = np.array(starts).T
    runs = bounds._in_chunks(bounds._seesaw_rows, bounds._batch(pairs), x0, y0)
    for k, (pair, start) in enumerate(zip(pairs, starts)):
        assert_same_as_scalar(runs.record(k, runs.converged[k]), pair, *start, max_iter=max_iter)


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
    starts = spread_starts(pair, 6, 1)
    assert_engine_matches_scalar([pair] * 6, starts)
    with capped_seesaw(3):
        assert_engine_matches_scalar([pair] * 6, starts, max_iter=3)
    # the first polish of every bound is one such run, from the lowest
    # vertex of its proof
    proof = bounds._branch_and_bound(bounds._batch([pair]), np.array([np.inf]), bounds.GRID_GAP)
    assert_same_as_scalar(raw_grid_route(pair), pair, float(proof.xm[0]), float(proof.ym[0]))
    assert same_result(seesaw_bound(pair), certified_bound(pair))


def test_engine_squares_means_like_python_floats():
    # from this start, on this point of the noiseless 201-point curve,
    # numpy's square and the libm pow behind a Python float's ** 2 round
    # one mean differently
    pair = spin1_pair(0.265, 0.735)
    assert_engine_matches_scalar([pair], [(0.40547861116410977, 0.7202375733051889)])


def test_engine_matches_scalar_seesaw_on_random_povms():
    for x, y in random_povm_pairs():
        for lam in (0.0, 0.3, 0.5, 1.0):
            pair = WeightedPair(lam, 1.0 - lam, x, y)
            starts = spread_starts(pair, 6, 0)
            assert_engine_matches_scalar([pair] * 6, starts)
            with capped_seesaw(3):
                assert_engine_matches_scalar([pair] * 6, starts, max_iter=3)


def same_result(a, b):
    return (a.to_dict(), a.certified, a.scale) == (b.to_dict(), b.certified, b.scale)


def two_box_pairs(lams_a, lams_b):
    """Weighted pairs of the alpha = 0.5 box at lams_a, then of the alpha = 0.2 box at lams_b."""
    return [
        WeightedPair(lam, 1.0 - lam, *box)
        for box, lams in ((spin1_moment_pairs(0.5), lams_a), (spin1_moment_pairs(0.2), lams_b))
        for lam in lams
    ]


def test_engine_chunks_do_not_change_rows(monkeypatch):
    # two boxes of three weights each, 4 starts a weight: chunks of 7 rows
    # split both boxes, and rows 7 to 13 hold both; each run is still the
    # scalar run from its start
    monkeypatch.setattr(bounds, "_CHUNK", 7)
    pairs = [pair for pair in two_box_pairs([0.0, 0.45, 0.5], [0.2, 0.8, 1.0]) for _ in range(4)]
    assert_engine_matches_scalar(pairs, [spread_starts(p, 1, k)[0] for k, p in enumerate(pairs)])


def test_proof_chunks_do_not_change_rows(monkeypatch):
    # one step stalls every polish, so all 8 weights go through both
    # proofs, which then run in 3 chunks each
    x, y = spin1_moment_pairs(0.2)
    lams = [0.1, 0.2, 0.3, 0.35, 0.45, 0.6, 0.72, 0.9]
    with capped_seesaw(1):
        whole = trace_region(x, y, lams)
        monkeypatch.setattr(bounds, "_CHUNK", 3)
        chunked = trace_region(x, y, lams)
    assert all(whole.certified)
    assert chunked.bounds == whole.bounds
    assert chunked.points == whole.points
    assert chunked.certified == whole.certified
    # six rows of two boxes in chunks of 2: a chunk boundary splits each
    # box, and the middle chunk holds both
    monkeypatch.undo()
    mixed = two_box_pairs([0.2, 0.5, 0.7], [0.3, 0.6, 0.9])
    alone = [certified_bound(pair) for pair in mixed]
    monkeypatch.setattr(bounds, "_CHUNK", 2)
    for grid, res in zip(alone, bounds.local_bounds(mixed)):
        assert same_result(res, grid)


@pytest.mark.parametrize("alpha", [0.2, 0.5])
def test_sep_bound_curve_rows_equal_certified_bound(alpha):
    x, y = spin1_moment_pairs(alpha)
    lams, values, certified = sep_bound_curve(x, y, num=11)
    for lam, value, ok in zip(lams, values, certified):
        res = certified_bound(WeightedPair(float(lam), float(1.0 - lam), x, y))
        assert value == 2.0 * res.value
        assert ok == res.certified


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5])
def test_trace_region_points_equal_certified_bound_variances(alpha):
    # the region reads each point off the solver's arrays; it must be the
    # variance pair of `certified_bound`'s minimizer, bit for bit
    x, y = spin1_moment_pairs(alpha)
    lams = [0.1, 0.3, 0.5, 0.72, 0.9]
    reg = trace_region(x, y, lams)
    for lam, point, value, ok in zip(lams, reg.points, reg.bounds, reg.certified):
        res = certified_bound(WeightedPair(lam, 1.0 - lam, x, y))
        assert point == (variance(res.minimizer, x), variance(res.minimizer, y))
        assert (value, ok) == (res.value, res.certified)


def test_sep_bound_curve_builds_no_record_per_weight(monkeypatch):
    # the curve validates its box once and reads every weight off arrays
    counts = {BoundResult: 0, PureState: 0, WeightedPair: 0}
    for cls in counts:

        def counted(self, cls=cls, check=cls.__post_init__):
            counts[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    _, _, certified = sep_bound_curve(*spin1_moment_pairs(0.2), num=201)
    assert certified.all()
    assert counts[BoundResult] == 0 and counts[PureState] == 0
    assert counts[WeightedPair] <= 2


def test_stalled_certified_bound_solves_its_spectral_box_once(monkeypatch):
    # the first proof and polish, the proof at GAP_TOL and the second polish
    # of one stalled pair share one span and one pair of penalty scales
    pair = spin1_pair(0.5, 0.5, 0.2)
    calls = {"_spectral_box": 0, "_penalty_scale": 0}
    for name in calls:

        def counted(*args, name=name, fn=getattr(bounds, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(bounds, name, counted)
    with capped_seesaw(2):
        assert not raw_grid_route(pair).converged
        calls.update(dict.fromkeys(calls, 0))
        certified_bound(pair)
    assert calls == {"_spectral_box": 1, "_penalty_scale": 2}


def test_sep_bound_curve_solves_all_weights_in_one_batch(monkeypatch):
    # one stacked eigensolve per polish step for the whole curve, one more
    # per step of the second polish, one coarse branch-and-bound for every
    # weight and one at GAP_TOL for every weight whose polish stalls: their
    # rounds, and so their eigvalsh calls, are those of the hardest weight
    # alone
    x, y = spin1_moment_pairs(0.2)
    counts = {"eigh": 0, "eigvalsh": 0}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    # a cap the slowest polishes need more steps than, so that some stall
    max_iter = 2
    with capped_seesaw(max_iter):
        lams, _, certified = sep_bound_curve(x, y, num=201)
        assert certified.all()
        assert counts["eigh"] <= 2 * max_iter
        curve_calls = counts["eigvalsh"]
        stalled = [
            float(lam) for lam in lams
            if not raw_grid_route(WeightedPair(float(lam), float(1.0 - lam), x, y)).converged
        ]
        assert len(stalled) >= 4
        single_calls = []
        for lam in stalled:
            counts["eigvalsh"] = 0
            certified_bound(WeightedPair(lam, 1.0 - lam, x, y))
            single_calls.append(counts["eigvalsh"])
        assert curve_calls <= max(single_calls)


def assert_within_gap(value, exact, pair):
    # a certified value is V at a real state, proven within the gap
    assert exact - 1e-12 <= value <= exact + bounds.GAP_TOL * penalty_scale(pair)


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 1.0])
def test_sep_bound_curve_matches_the_exact_infimum(alpha, certified_curves):
    x, y = spin1_moment_pairs(alpha)
    lams, values, certified = certified_curves[alpha]
    assert certified.all()
    # a variance sum is never negative, and neither is a certified bound
    assert values.min() >= 0.0
    for lam, value in zip(lams, values):
        pair = WeightedPair(float(lam), float(1.0 - lam), x, y)
        assert_within_gap(value / 2.0, local_infimum(pair.lam, pair.mu, alpha), pair)


def test_separable_facet_tuples_get_no_window(certified_curves):
    # (0, 2) and (2, 0) are the variance pairs of products of L_X = 0 or
    # L_Y = 0 eigenstates at any alpha: separable, and on the bound along a
    # facet of the curve, so no weight may detect them
    for lams, values, _ in certified_curves.values():
        for d2x, d2y in ((0.0, 2.0), (2.0, 0.0)):
            assert not detection_window(d2x, d2y, lams, values)


@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_report_curves_lie_within_1e_9_of_the_exact_infimum(alpha):
    # the two curves `report` solves; a first-order seesaw stopped up to
    # 2.4e-9 above the infimum on them, on the unsafe side
    x, y = spin1_moment_pairs(alpha)
    lams, values, certified = sep_bound_curve(x, y, num=201)
    assert certified.all()
    for lam, value in zip(lams, values):
        assert abs(value / 2.0 - local_infimum(float(lam), float(1.0 - lam), alpha)) <= 1e-9


def test_sep_bound_curve_solves_few_eigh_matrices(monkeypatch):
    # 201 polish rows; a first-order seesaw from 16 starts a weight passed
    # about 195,000 matrices through eigh here
    x, y = spin1_moment_pairs(0.2)
    solved = linalg_matrices(monkeypatch, "eigh", lambda: sep_bound_curve(x, y, num=201))
    assert solved <= 60_000


def test_seesaw_bound_is_scale_invariant():
    # the step and the stop rule work in units of the penalty scale, so the
    # weights' magnitude neither stops a run early nor overflows
    x, y = spin1_moment_pairs(0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [
            seesaw_bound(WeightedPair(0.3 * s, 0.7 * s, x, y)).value / s
            for s in (1e-12, 1.0, 1e300)
        ]
    assert max(values) - min(values) <= 1e-12 * values[1]


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 1.0])
def test_trace_region_matches_the_exact_infimum(alpha):
    x, y = spin1_moment_pairs(alpha)
    reg = trace_region(x, y, list(np.linspace(0.05, 0.95, 19)))
    assert all(reg.certified)
    for lam, c in zip(reg.lambdas, reg.bounds):
        pair = WeightedPair(lam, 1.0 - lam, x, y)
        assert_within_gap(c, local_infimum(lam, 1.0 - lam, alpha), pair)


def test_no_descended_state_falls_below_a_certified_bound(certified_curves):
    # an independent search that probes near the minimizers: batched gradient
    # descent on the unit sphere of C^3 from many starts, numpy only
    cases = []  # (alpha, lam, certified local value)
    for alpha in (0.0, 0.2):
        lams, values, certified = certified_curves[alpha]
        for k in range(20, 181, 20):
            assert certified[k]
            cases.append((alpha, float(lams[k]), values[k] / 2.0))
    for alpha in (0.5, 1.0):
        for lam in (0.3, 0.5, 0.8):
            res = certified_bound(spin1_pair(lam, 1.0 - lam, alpha))
            assert res.certified
            cases.append((alpha, lam, res.value))
    found = descent_minima([(lam, 1.0 - lam, *spin1_box(alpha)) for alpha, lam, _ in cases])
    for (alpha, lam, value), v in zip(cases, found):
        pair = spin1_pair(lam, 1.0 - lam, alpha)
        assert v >= value - bounds.GAP_TOL * penalty_scale(pair) - 1e-12
        # the descent gets close enough to the minimizers to test them
        assert v <= value + 1e-6


def test_proof_on_a_degenerate_box():
    # at alpha = 1 the first moments vanish and the box of means shrinks to
    # a point: to rounding dust for the noisy box, exactly for a box built
    # with X1 = 0
    x, y = spin1_moment_pairs(1.0)
    exact_x = MomentPair(np.zeros((3, 3)), x.second)
    for pair in (spin1_pair(0.3, 0.7, 1.0), WeightedPair(0.3, 0.7, exact_x, y)):
        assert np.max(np.abs(bounds._spectral_box(pair.x, pair.y))) < 1e-15
        with capped_seesaw(1):
            stalled = raw_grid_route(pair)
            assert not stalled.certified
            res = certified_bound(pair)
        assert res.certified
        exact = local_infimum(0.3, 0.7, 1.0)
        assert_within_gap(res.value, exact, pair)
        lower = proven_lower(pair, stalled.value)
        assert exact - 1e-12 <= lower <= exact


@pytest.mark.parametrize("alpha, alpha_b", [(0.0, 0.2), (0.2, 1.0), (0.5, 0.1)])
def test_proof_composes_unequal_parties(alpha, alpha_b):
    # one step stalls every polish, so each party's bound is the proven one
    for lam in (0.3, 0.72):
        pair_a, pair_b = spin1_pair(lam, 1.0 - lam, alpha), spin1_pair(lam, 1.0 - lam, alpha_b)
        with capped_seesaw(1):
            local_a = certified_bound(pair_a)
            local_b = certified_bound(pair_b)
        exact = local_infimum(lam, 1.0 - lam, alpha) + local_infimum(lam, 1.0 - lam, alpha_b)
        gap = bounds.GAP_TOL * (penalty_scale(pair_a) + penalty_scale(pair_b))
        assert exact - 2e-12 <= compose_sep_bound(local_a, local_b) <= exact + gap


def test_proof_does_not_depend_on_the_weights_scale():
    # in units of the penalty's scale the proof is the same at any magnitude
    x, y = spin1_moment_pairs(0.2)
    exact = local_infimum(0.3, 0.7, 0.2)
    for w in (1e-12, 1.0, 1e200):
        pair = WeightedPair(0.3 * w, 0.7 * w, x, y)
        lower = proven_lower(pair, np.inf)
        assert exact - bounds.GAP_TOL * penalty_scale(pair) / w <= lower / w <= exact


def box_spans(batch, pairs):
    """Each box's span of means, the spectral box of its (X1, Y1)."""
    first = np.unique(batch.box, return_index=True)[1]
    return np.array([bounds._spectral_box(pairs[i].x, pairs[i].y) for i in first])


def whole_box(batch, pairs):
    """`batch` with every box's proof tiling its whole span, less no defect."""
    return batch._replace(proof_spans=box_spans(batch, pairs), defects=np.zeros_like(batch.defects))


def proof_lowers(batch):
    return bounds._branch_and_bound(batch, np.full(batch.lam.size, np.inf), bounds.GAP_TOL).lower


def test_quarter_box_proof_brackets_the_exact_infimum():
    # the noisy spin-1 f is mirror symmetric on both sides, so each proof
    # tiles x, y >= 0; it must stay a proof, and close to the whole box's
    cases = [(alpha, lam) for alpha in (0.0, 0.2, 0.5, 0.7, 1.0) for lam in (0.1, 0.3, 0.5, 0.72, 0.9)]
    pairs = [spin1_pair(lam, 1.0 - lam, alpha) for alpha, lam in cases]
    batch = bounds._batch(pairs)
    spans = box_spans(batch, pairs)
    lo, hi = spans[:, 0::2], spans[:, 1::2]
    assert np.array_equal(batch.proof_spans[:, 0::2], np.zeros_like(lo))
    assert np.array_equal(batch.proof_spans[:, 1::2], np.maximum(hi, -lo))
    assert np.all(batch.defects <= bounds._slack(3) * batch.scales)
    quarter, whole = proof_lowers(batch), proof_lowers(whole_box(batch, pairs))
    for (alpha, lam), pair, low, full in zip(cases, pairs, quarter, whole):
        assert low <= local_infimum(lam, 1.0 - lam, alpha)
        assert abs(low - full) <= bounds.GAP_TOL * penalty_scale(pair)


def test_random_boxes_keep_their_whole_box(monkeypatch):
    # a random POVM box has no mirror symmetry: its proof tiles the whole
    # span, less no defect, and every route gives the bits it gave before
    # boxes had mirrors
    lams = (0.2, 0.5, 0.9)
    pairs = [WeightedPair(lam, 1.0 - lam, *random_pairs(seed)[:2]) for seed in (3, 17) for lam in lams]
    batch = bounds._batch(pairs)
    assert np.array_equal(batch.proof_spans, box_spans(batch, pairs))
    assert not batch.defects.any()
    with capped_seesaw(3):
        routes = [(raw_grid_route(pair), certified_bound(pair)) for pair in pairs]
        monkeypatch.setattr(bounds, "_mirrors", lambda ops, spans, scales: (spans, np.zeros_like(scales)))
        for pair, (grid, certified) in zip(pairs, routes):
            assert same_result(raw_grid_route(pair), grid)
            assert same_result(certified_bound(pair), certified)


def test_a_mirror_broken_beyond_rounding_keeps_its_side():
    # Y1 + eps I breaks the conjugation mirror (y side) by eps and keeps the
    # parity mirror (x side); 1e-6 is far beyond rounding, 1e-15 within it
    x, y = spin1_moment_pairs(0.2)
    exact = bounds._batch([spin1_pair(0.5, 0.5, 0.2)])
    for eps, halved in ((1e-6, False), (1e-15, True)):
        y_off = MomentPair(y.first.entries + eps * np.eye(3), y.second)
        pair = WeightedPair(0.5, 0.5, x, y_off)
        batch = bounds._batch([pair])
        xlo, xhi, ylo, yhi = bounds._spectral_box(x, y_off)
        assert tuple(batch.proof_spans[0, :2]) == (0.0, max(xhi, -xlo))
        assert tuple(batch.proof_spans[0, 2:]) == ((0.0, max(yhi, -ylo)) if halved else (ylo, yhi))
        lower, undefected = proof_lowers(batch)[0], proof_lowers(batch._replace(
            defects=np.zeros_like(batch.defects)))[0]
        # the shift moves every V by at most mu (2 eps |<Y1>| + eps^2) < 2 eps
        assert lower <= local_infimum(0.5, 0.5, 0.2) + 2.0 * eps
        if halved:
            # the y term of the measured defect grew with eps, and the
            # proof subtracts it
            assert batch.defects[0, 1] > exact.defects[0, 1]
            drop = pair.lam * batch.defects[0, 0] + pair.mu * batch.defects[0, 1]
            assert abs((undefected - lower) - drop) <= 4.0 * np.spacing(lower)


def entrywise_mirrors(x, y):
    """A box's proof span and (ex, ey) defect, each mirror's residual taken entry by entry.

    The x side mirror sends entry a of an operator to (-1)^(i + j) conj(a),
    the y side mirror to conj(a); the residual is that less t a, with t
    the sign the mirror should give the operator.
    """
    ops = (x.first.entries, x.second.entries, y.first.entries, y.second.entries)
    signs = ((-1.0, 1.0, 1.0, 1.0), (1.0, 1.0, -1.0, 1.0))
    span = list(bounds._spectral_box(x, y))
    reach = (max(span[1], -span[0]), max(span[3], -span[2]))
    scales = (bounds._penalty_scale(x), bounds._penalty_scale(y))
    slack = bounds._slack(x.dim)
    defect = [0.0, 0.0]
    for side in (0, 1):
        norms = []
        for op, t in zip(ops, signs[side]):
            squares = 0.0
            for i in range(x.dim):
                for j in range(x.dim):
                    a = complex(op[i, j])
                    mirrored = (-1) ** (i + j) * a.conjugate() if side == 0 else a.conjugate()
                    squares += abs(mirrored - t * a) ** 2
            norms.append(math.sqrt(squares))
        ex = norms[1] + 2.0 * reach[0] * norms[0]
        ey = norms[3] + 2.0 * reach[1] * norms[2]
        if ex <= slack * scales[0] and ey <= slack * scales[1] and span[2 * side] <= 0.0 <= span[2 * side + 1]:
            span[2 * side : 2 * side + 2] = 0.0, reach[side]
            defect = [defect[0] + ex, defect[1] + ey]
    return span, defect


def test_mirror_defects_match_an_entrywise_residual():
    x, y = spin1_moment_pairs(0.2)
    shifted = [(x, MomentPair(y.first.entries + eps * np.eye(3), y.second)) for eps in (1e-15, 1e-6)]
    boxes = [spin1_moment_pairs(alpha) for alpha in (0.0, 0.2, 1.0)] + shifted
    batches = [[box] for box in boxes] + [[boxes[1], shifted[0]]]
    for batch_boxes in batches:
        batch = bounds._batch([WeightedPair(0.5, 0.5, bx, by) for bx, by in batch_boxes])
        for b, (bx, by) in enumerate(batch_boxes):
            span, defect = entrywise_mirrors(bx, by)
            assert batch.proof_spans[b].tolist() == span
            np.testing.assert_allclose(batch.defects[b], defect, rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("alpha, lam", [(0.11013211899741604, 0.307333), (0.125, 0.378)])
def test_certified_bound_at_a_knee_lies_at_or_below_the_infimum(alpha, lam):
    # two branches of local minima come within GRID_GAP / 2 of each other
    # here; the coarse proof's vertex lies in the wrong basin, and its
    # polish converges at means (0.625, 0) or (0.738, 0), 1.2e-5 and
    # 1.4e-5 above the infimum, the global minimum lying at x = 0
    res = certified_bound(spin1_pair(lam, 1.0 - lam, alpha))
    assert res.value <= local_infimum(lam, 1.0 - lam, alpha)


# property tests over random POVM boxes, derandomized: the examples drawn
# depend only on the test and on the literals hypothesis finds in the code
# under test, so a new constant there can change them; the @example cases
# are always run
random_box = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def random_pairs(seed):
    rng = np.random.default_rng(seed)
    return moment_pair(random_povm(rng, 3, 4)), moment_pair(random_povm(rng, 3, 3)), rng


@random_box
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.02, 0.98))
def test_proven_lower_bound_lies_below_every_state(seed, lam):
    x, y, rng = random_pairs(seed)
    pair = WeightedPair(lam, 1.0 - lam, x, y)
    found = certified_bound(pair)
    lower = proven_lower(pair, found.value)
    assert lower <= found.value
    for _ in range(50):
        assert lower <= variance_functional(pair, random_pure(rng, 3))


@random_box
@given(seed=st.integers(0, 2**32 - 1))
def test_sep_bound_curve_is_concave_in_lambda(seed):
    # c(lam) is an infimum of functions affine in lam, so certified values,
    # each proven within the gap, bend down up to that gap
    x, y, _ = random_pairs(seed)
    lams, values, certified = sep_bound_curve(x, y, num=21)
    scale = 2.0 * max(bounds._penalty_scale(x), bounds._penalty_scale(y))
    bend = values[:-2] - 2.0 * values[1:-1] + values[2:]
    ok = certified[:-2] & certified[1:-1] & certified[2:]
    assert np.all(bend[ok] <= 4.0 * bounds.GAP_TOL * scale)
    # every certified minimizer's variance pair lies on or above every
    # certified supporting line; RegionBoundary raises otherwise
    trace_region(x, y, list(lams[1:-1]))


@random_box
@given(lam=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0))
def test_proven_lower_bound_brackets_the_exact_infimum(lam, alpha):
    # with no seesaw value to start from, the proof alone closes the gap
    pair = spin1_pair(lam, 1.0 - lam, alpha)
    lower = proven_lower(pair, np.inf)
    exact = local_infimum(lam, 1.0 - lam, alpha)
    assert exact - bounds.GAP_TOL * penalty_scale(pair) <= lower <= exact


@random_box
@given(
    lam=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.001, 0.999)),
    alpha=st.floats(0.0, 1.0),
    weight=st.sampled_from([1.0, 1e-12, 1e300]),
    seed=st.none() | st.integers(0, 2**32 - 1),
)
@example(lam=0.5, alpha=1.0, weight=1.0, seed=None)
@example(lam=0.0, alpha=0.2, weight=1.0, seed=None)
@example(lam=1.0, alpha=0.2, weight=1.0, seed=None)
@example(lam=0.5, alpha=0.0, weight=1.0, seed=None)
@example(lam=0.5, alpha=0.2, weight=1.0, seed=None)
@example(lam=0.5, alpha=0.5, weight=1.0, seed=None)
@example(lam=0.3, alpha=0.2, weight=1e-12, seed=None)
@example(lam=0.3, alpha=0.2, weight=1e300, seed=None)
@example(lam=1.0, alpha=0.0, weight=1e300, seed=None)
def test_grid_bound_lies_in_its_proven_window(lam, alpha, weight, seed):
    # the coarse run's lowest vertex lies within GRID_GAP / 2 of the
    # infimum and the polish only lowers it, and the certified value is that
    # less one more rounding slack; seed draws a random POVM box in place of
    # the spin-1 one at alpha, where the GAP_TOL proof stands in for the
    # exact infimum
    x, y = spin1_moment_pairs(alpha) if seed is None else random_pairs(seed)[:2]
    pair = WeightedPair(lam * weight, (1.0 - lam) * weight, x, y)
    slack = 4.0 * pair.dim**2 * np.finfo(float).eps * pair.scale
    if seed is None:
        low = high = weight * local_infimum(lam, 1.0 - lam, alpha)
    else:
        low = proven_lower(pair, np.inf)
        high = low + bounds.GAP_TOL * pair.scale
    with np.errstate(all="raise"):
        found = certified_bound(pair)
    assert low - 2.0 * slack <= found.value <= high + 0.5 * bounds.GRID_GAP * pair.scale
