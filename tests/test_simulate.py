import numpy as np
import pytest

from varwit.noise import spin1_povms as noise_povms
from varwit import (
    DensityMatrix,
    Povm,
    SampleConfig,
    TestStateParams,
    build_global_moments,
    certified_bound,
    expectation,
    joint_outcome_distribution,
    make_singlet,
    make_test_state,
    outcome_distribution,
    projective_povm,
    run_calibration,
    sample_variance_tuple,
    spin1_components,
    spin1_moment_pairs,
    theta1_sweep,
    theta2_sweep,
    variance,
    WeightedPair,
)

SQ3 = 1.0 / np.sqrt(3.0)


def spin1_povms():
    lx, ly, _ = spin1_components()
    return projective_povm(lx), projective_povm(ly)


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        TestStateParams(theta1=float("inf"), theta2=0.0)
    with pytest.raises(ValueError):
        SampleConfig(shots=0, seed=1, trials=1)
    with pytest.raises(ValueError):
        SampleConfig(shots=10, seed=1, trials=0)


def test_make_singlet_amplitudes():
    psi = make_singlet()
    assert psi.dim == 9
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    expected = np.zeros(9)
    expected[2] = SQ3
    expected[6] = SQ3
    expected[4] = -SQ3
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-15


def test_make_singlet_total_spin_zero():
    rho = DensityMatrix.from_pure(make_singlet())
    x_pair, y_pair = spin1_moment_pairs(0.0)
    for pair in (x_pair, y_pair):
        g = build_global_moments(pair)
        assert abs(expectation(rho, g.first)) < 1e-12
        d2 = expectation(rho, g.second) - expectation(rho, g.first) ** 2
        assert abs(d2) < 1e-12


def test_make_singlet_reduced_states_maximally_mixed():
    psi = make_singlet().amplitudes.reshape(3, 3)
    red_a = psi @ psi.conj().T
    red_b = psi.T @ psi.conj()
    assert np.max(np.abs(red_a - np.eye(3) / 3.0)) < 1e-12
    assert np.max(np.abs(red_b - np.eye(3) / 3.0)) < 1e-12


def test_make_test_state_special_angles():
    psi = make_test_state(TestStateParams(0.0, 123.0))
    assert np.max(np.abs(psi.amplitudes - np.array([0, 1, 0]))) < 1e-12
    psi = make_test_state(TestStateParams(90.0, 0.0))
    assert np.max(np.abs(psi.amplitudes - np.array([1, 0, 0]))) < 1e-12
    psi = make_test_state(TestStateParams(90.0, 45.0))
    root2 = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(psi.amplitudes - np.array([root2, 0, root2]))) < 1e-12


def test_make_test_state_known_variance_sum():
    psi = make_test_state(TestStateParams(90.0, 45.0))
    x_pair, y_pair = spin1_moment_pairs(0.0)
    v = 0.5 * variance(psi, x_pair) + 0.5 * variance(psi, y_pair)
    assert abs(v - 0.5) < 1e-12


def test_make_test_state_periodic_in_angles():
    a = make_test_state(TestStateParams(37.0, 101.0))
    b = make_test_state(TestStateParams(37.0 + 360.0, 101.0 - 360.0))
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10


def test_theta_sweeps_cover_open_interval():
    sweep = theta1_sweep(num=45)
    assert len(sweep) == 45
    assert all(0.0 < p.theta1 < 180.0 for p in sweep)
    assert all(p.theta2 == 23.3 for p in sweep)
    sweep = theta2_sweep(num=10)
    assert len(sweep) == 10
    assert all(0.0 < p.theta2 < 180.0 for p in sweep)
    assert all(p.theta1 == 28.0 for p in sweep)


def test_joint_distribution_singlet_spin_zero():
    px, _ = spin1_povms()
    rho = DensityMatrix.from_pure(make_singlet())
    dist = joint_outcome_distribution(rho, px, px)
    total = sum(p for _, p in dist)
    assert abs(total - 1.0) < 1e-10
    mass_off_diagonal = sum(p for (xa, xb), p in dist if abs(xa + xb) > 1e-8)
    assert mass_off_diagonal < 1e-12


def test_joint_distribution_maximally_mixed_uniform():
    px, _ = spin1_povms()
    rho = DensityMatrix(np.eye(9) / 9.0)
    dist = joint_outcome_distribution(rho, px, px)
    assert len(dist) == 9
    for _, p in dist:
        assert abs(p - 1.0 / 9.0) < 1e-12


def test_joint_distribution_identity_povm():
    trivial = Povm(outcomes=(1.0,), elements=(np.eye(3),))
    rho = DensityMatrix(np.eye(9) / 9.0)
    dist = joint_outcome_distribution(rho, trivial, trivial)
    assert len(dist) == 1
    assert abs(dist[0][1] - 1.0) < 1e-12


def test_joint_distribution_dim_mismatch():
    px, _ = spin1_povms()
    rho = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        joint_outcome_distribution(rho, px, px)


def test_outcome_distribution_sums_to_one():
    px, _ = spin1_povms()
    psi = make_test_state(TestStateParams(28.0, 23.3))
    dist = outcome_distribution(psi, px)
    assert abs(sum(p for _, p in dist) - 1.0) < 1e-12
    assert all(p >= -1e-12 for _, p in dist)


def test_sampling_singlet_ideal_is_a_point_mass():
    # all spin-zero outcome pairs have identical sums up to eigenvalue
    # rounding, so the sample variance collapses to numerical dust
    px, py = spin1_povms()
    rho = DensityMatrix.from_pure(make_singlet())
    d2x, d2y, _ = sample_variance_tuple(
        rho, px, px, py, py, SampleConfig(shots=2000, seed=5, trials=3)
    )
    assert abs(d2x) < 1e-30
    assert abs(d2y) < 1e-30


def test_sampling_is_deterministic_per_seed():
    lx, ly, _ = spin1_components()
    from varwit import noisy_povm, spin_flip_channel

    ch = spin_flip_channel(0.2)
    px = noisy_povm(ch, projective_povm(lx))
    py = noisy_povm(ch, projective_povm(ly))
    rho = DensityMatrix.from_pure(make_singlet())
    cfg = SampleConfig(shots=4000, seed=11, trials=4)
    first = sample_variance_tuple(rho, px, px, py, py, cfg)
    second = sample_variance_tuple(rho, px, px, py, py, cfg)
    assert first == second
    third = sample_variance_tuple(
        rho, px, px, py, py, SampleConfig(shots=4000, seed=12, trials=4)
    )
    assert third != first


def test_sampling_noisy_singlet_matches_population_value():
    lx, ly, _ = spin1_components()
    from varwit import noisy_povm, spin_flip_channel

    ch = spin_flip_channel(0.2)
    px = noisy_povm(ch, projective_povm(lx))
    py = noisy_povm(ch, projective_povm(ly))
    rho = DensityMatrix.from_pure(make_singlet())
    d2x, d2y, per_trial = sample_variance_tuple(
        rho, px, px, py, py, SampleConfig(shots=20000, seed=3, trials=20)
    )
    stds = np.std([t[0] for t in per_trial], ddof=1), np.std(
        [t[1] for t in per_trial], ddof=1
    )
    assert abs(d2x - 0.48) < 0.02
    assert abs(d2y - 0.48) < 0.02
    assert stds[0] < 0.02 and stds[1] < 0.02


def test_sampling_maximally_mixed_second_moment():
    px, py = spin1_povms()
    rho = DensityMatrix(np.eye(9) / 9.0)
    d2x, _, _ = sample_variance_tuple(
        rho, px, px, py, py, SampleConfig(shots=200000, seed=7, trials=1)
    )
    assert abs(d2x - 4.0 / 3.0) < 0.02


def reference_variances(seq, dist, shots, trials):
    """Unbiased sample variances of `trials` rows of counts drawn in one call from seq."""
    outcomes, probs = (np.array(col) for col in zip(*dist))
    counts = np.random.default_rng(seq).multinomial(shots, probs / probs.sum(), size=trials)
    return np.array([row @ (outcomes - row @ outcomes / shots) ** 2 for row in counts]) / (shots - 1)


def test_each_setting_draws_every_trial_from_its_own_child_seed():
    px, py = noise_povms(0.2)
    rho = DensityMatrix.from_pure(make_singlet())
    _, _, short = sample_variance_tuple(rho, px, px, py, py, SampleConfig(shots=600, seed=4, trials=3))
    _, _, long = sample_variance_tuple(rho, px, px, py, py, SampleConfig(shots=600, seed=4, trials=8))
    # trial k is row k of its setting's draw, whatever the trial count
    assert short == long[:3]
    dists = [
        [(a + b, p) for (a, b), p in joint_outcome_distribution(rho, povm, povm)] for povm in (px, py)
    ]
    children = np.random.SeedSequence(4).spawn(2)
    want = [reference_variances(child, dist, 300, 8) for child, dist in zip(children, dists)]
    np.testing.assert_allclose(np.array(long), np.array(want).T, rtol=1e-12, atol=0.0)
    # a calibration record's trials are the rows of its sweep point's two draws
    sweep = theta1_sweep(num=4)
    for trials in (1, 5):
        records = run_calibration(sweep, 0.2, SampleConfig(shots=600, seed=4, trials=trials))
        for rec, point in zip(records, np.random.SeedSequence(4).spawn(len(sweep))):
            psi = make_test_state(rec.params)
            s2x, s2y = (
                reference_variances(child, outcome_distribution(psi, povm), 300, 5)[:trials]
                for child, povm in zip(point.spawn(2), (px, py))
            )
            assert abs(rec.v_sampled_mean - np.mean(0.5 * s2x + 0.5 * s2y)) <= 1e-12


def test_one_sampling_call_builds_one_generator_per_setting(monkeypatch):
    built = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    px, py = noise_povms(0.2)
    rho = DensityMatrix.from_pure(make_singlet())
    sample_variance_tuple(rho, px, px, py, py, SampleConfig(shots=600, seed=4, trials=50))
    assert len(built) == 2
    del built[:]
    run_calibration(theta1_sweep(num=3), 0.2, SampleConfig(shots=600, seed=4, trials=50))
    assert len(built) == 2 * 3


def test_sampling_needs_enough_shots():
    px, py = spin1_povms()
    rho = DensityMatrix(np.eye(9) / 9.0)
    with pytest.raises(ValueError):
        sample_variance_tuple(rho, px, px, py, py, SampleConfig(shots=3, seed=0, trials=1))


def test_run_calibration_identity_channel():
    records = run_calibration(
        theta1_sweep(num=9), 0.0, SampleConfig(shots=2000, seed=0, trials=3)
    )
    assert len(records) == 9
    for rec in records:
        assert rec.v_ideal == rec.v_noisy
        assert rec.v_sampled_std >= 0.0
        assert rec.v_ideal >= 7.0 / 32.0 - 1e-9


def test_run_calibration_known_state_value():
    records = run_calibration(
        [TestStateParams(90.0, 45.0)], 0.0, SampleConfig(shots=2000, seed=0, trials=2)
    )
    assert abs(records[0].v_ideal - 0.5) < 1e-12


def test_run_calibration_respects_local_bounds():
    x, y = spin1_moment_pairs(0.2)
    c_noisy = 2.0 * certified_bound(WeightedPair(0.5, 0.5, x, y)).value
    records = run_calibration(
        theta1_sweep(num=15), 0.2, SampleConfig(shots=2000, seed=1, trials=2)
    )
    for rec in records:
        # local spin-1 states obey half the two-party bound per party
        assert rec.v_ideal >= 7.0 / 32.0 - 1e-9
        assert rec.v_noisy >= c_noisy / 2.0 - 1e-9


def test_run_calibration_is_deterministic():
    cfg = SampleConfig(shots=2000, seed=42, trials=5)
    a = run_calibration(theta1_sweep(num=5), 0.2, cfg)
    b = run_calibration(theta1_sweep(num=5), 0.2, cfg)
    for ra, rb in zip(a, b):
        assert ra.v_sampled_mean == rb.v_sampled_mean
        assert ra.v_sampled_std == rb.v_sampled_std


def test_run_calibration_single_trial_has_zero_std():
    records = run_calibration(
        theta1_sweep(num=3), 0.1, SampleConfig(shots=2000, seed=9, trials=1)
    )
    for rec in records:
        assert rec.v_sampled_std == 0.0


def test_run_calibration_rejects_empty_sweep():
    with pytest.raises(ValueError):
        run_calibration([], 0.0, SampleConfig(shots=100, seed=0, trials=1))
