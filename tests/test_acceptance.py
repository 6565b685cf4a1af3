"""Benchmark gate: the package's headline numbers, one test per claim.

Each test pins one quantitative requirement of the library at its stated
tolerance, so a verbose run reads as a line-per-criterion checklist.
Reference values: the noiseless two-party separability bound 7/16, the
noise-adapted bound 0.7614 at alpha = 0.2, the singlet benchmark values
0 and 0.48, and the detection windows that a correct implementation must
strictly enclose.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from varwit import (
    DensityMatrix,
    MomentPair,
    PureState,
    SampleConfig,
    TestStateParams,
    WeightedPair,
    build_global_moments,
    certified_bound,
    compose_sep_bound,
    expectation,
    fit_alpha,
    make_singlet,
    make_test_state,
    moments,
    noisy_povm,
    projective_povm,
    run_calibration,
    seesaw_bound,
    spin1_components,
    spin1_moment_pairs,
    spin_flip_channel,
    theta1_sweep,
    theta2_sweep,
    variance,
)
from varwit.cli import EXIT_OK, main
from helpers import local_infimum, random_density, random_pure

C_NOISELESS = 7.0 / 16.0
C_ADAPTED = 0.7614
WINDOW_IDEAL = (0.028, 0.985)
WINDOW_ADAPTED = (0.250, 0.755)


def half_half_pair(alpha):
    x, y = spin1_moment_pairs(alpha)
    return WeightedPair(0.5, 0.5, x, y)


def singlet_variance_tuple(alpha):
    rho = DensityMatrix.from_pure(make_singlet())
    x, y = spin1_moment_pairs(alpha)
    out = []
    for pair in (x, y):
        g = build_global_moments(pair)
        out.append(expectation(rho, g.second) - expectation(rho, g.first) ** 2)
    return out[0], out[1]


def test_criterion_1_noiseless_bound_both_methods():
    start = time.perf_counter()
    pair = half_half_pair(0.0)
    by_seesaw = seesaw_bound(pair)
    by_grid = certified_bound(pair)
    assert by_seesaw.converged
    assert abs(compose_sep_bound(by_seesaw, by_seesaw) - C_NOISELESS) < 1e-6
    assert abs(compose_sep_bound(by_grid, by_grid) - C_NOISELESS) < 1e-6
    assert time.perf_counter() - start < 5.0


def test_criterion_2_adapted_bound_both_methods():
    start = time.perf_counter()
    pair = half_half_pair(0.2)
    by_seesaw = seesaw_bound(pair)
    by_grid = certified_bound(pair)
    assert by_seesaw.converged
    assert abs(compose_sep_bound(by_seesaw, by_seesaw) - C_ADAPTED) < 2e-3
    assert abs(compose_sep_bound(by_grid, by_grid) - C_ADAPTED) < 2e-3
    assert time.perf_counter() - start < 5.0


def test_criterion_3_noisy_moment_matrices():
    lx, ly, _ = spin1_components()
    channel = spin_flip_channel(0.2)
    for op in (lx, ly):
        first, second = moments(noisy_povm(channel, projective_povm(op)), 2)
        assert np.max(np.abs(first.entries - 0.8 * op.entries)) < 1e-12
        exact_second = op.entries @ op.entries
        assert np.max(np.abs(second.entries - exact_second)) < 1e-12


def test_criterion_4_singlet_benchmark_values():
    d2x0, d2y0 = singlet_variance_tuple(0.0)
    v0 = 0.5 * d2x0 + 0.5 * d2y0
    # zero up to eigendecomposition dust; no binary64 result of the
    # projective construction can square to exactly 1/2
    assert abs(v0) <= 1e-14
    d2x, d2y = singlet_variance_tuple(0.2)
    v_noisy = 0.5 * d2x + 0.5 * d2y
    assert abs(v_noisy - 0.48) < 1e-10
    assert abs(v_noisy - 0.492) <= 3.0 * 0.018
    assert v_noisy >= C_NOISELESS
    assert v_noisy < C_ADAPTED


def test_criterion_5_detection_windows(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["report", "--state", "singlet", "--alpha", "0.2", "--output-dir", out])
    capsys.readouterr()
    assert code == EXIT_OK
    with open(os.path.join(out, "windows.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    resolution = summary["resolution"]
    spans = {}
    for key, target in (("ideal", WINDOW_IDEAL), ("adapted", WINDOW_ADAPTED)):
        windows = summary["windows"][key]
        assert len(windows) == 1
        lo, hi = windows[0]["lambda_lo"], windows[0]["lambda_hi"]
        assert lo < target[0] and hi > target[1]
        assert abs(0.5 * (lo + hi) - 0.5) <= 1e-3
        spans[key] = (lo, hi)
    with open(os.path.join(out, "report.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 201
    for row in rows:
        lam = float(row["lambda"])
        v_ideal, v_noisy = float(row["v_ideal"]), float(row["v_noisy"])
        c_nl, c_ad = float(row["c_noiseless"]), float(row["c_adapted"])
        assert (row["detected_ideal"] == "true") == (v_ideal < c_nl)
        assert (row["detected_adapted"] == "true") == (v_noisy < c_ad)
        assert (row["detected_non_adapted"] == "true") == (v_noisy < c_nl)
        for key, column in (("ideal", "detected_ideal"), ("adapted", "detected_adapted")):
            lo, hi = spans[key]
            if lo + resolution < lam < hi - resolution:
                assert row[column] == "true"
            elif lam < lo - resolution or lam > hi + resolution:
                assert row[column] == "false"


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 0.1, 0.2, 0.3):
        x, y = spin1_moment_pairs(alpha)
        for lam in np.linspace(0.05, 0.95, 19):
            pair = WeightedPair(float(lam), float(1.0 - lam), x, y)
            exact = local_infimum(pair.lam, pair.mu, alpha)
            for res in (seesaw_bound(pair), certified_bound(pair)):
                worst = max(worst, abs(res.value - exact))
    assert worst <= 1e-4
    assert time.perf_counter() - start < 120.0


def test_criterion_7_soundness_suite():
    rng = np.random.default_rng(101)
    for alpha in (0.0, 0.2):
        x, y = spin1_moment_pairs(alpha)
        local = certified_bound(WeightedPair(0.5, 0.5, x, y))
        c_sep = compose_sep_bound(local, local)
        for _ in range(1000):
            psi = random_pure(rng, 3)
            v = 0.5 * variance(psi, x) + 0.5 * variance(psi, y)
            assert v >= local.value - 1e-9
        gx, gy = build_global_moments(x), build_global_moments(y)
        for k in range(1000):
            if k % 2:
                rho_a, rho_b = random_density(rng, 3), random_density(rng, 3)
                prod = DensityMatrix(
                    np.kron(rho_a.matrix.entries, rho_b.matrix.entries)
                )
            else:
                psi_a, psi_b = random_pure(rng, 3), random_pure(rng, 3)
                prod = DensityMatrix.from_pure(
                    PureState(np.kron(psi_a.amplitudes, psi_b.amplitudes))
                )
            v = 0.0
            for weight, g in ((0.5, gx), (0.5, gy)):
                v += weight * (expectation(prod, g.second) - expectation(prod, g.first) ** 2)
            assert v >= c_sep - 1e-9


def test_criterion_8_calibration_statistics():
    sweep = theta1_sweep(45) + theta2_sweep(45)
    config = SampleConfig(shots=20000, seed=0, trials=100)
    records = run_calibration(sweep, 0.2, config)
    assert len(records) == 90
    for record in records:
        assert record.v_sampled_std < 0.01
        standard_error = record.v_sampled_std / np.sqrt(config.trials)
        assert abs(record.v_sampled_mean - record.v_noisy) <= 5.0 * standard_error


def test_criterion_9_noise_fit_round_trip():
    x_pair, y_pair = spin1_moment_pairs(0.2)
    calibration = []
    for params in theta1_sweep(25):
        psi = make_test_state(params)
        v = 0.5 * variance(psi, x_pair) + 0.5 * variance(psi, y_pair)
        calibration.append((psi, v))
    exact = fit_alpha(calibration)
    assert abs(exact.alpha - 0.2) <= 1e-4
    rng = np.random.default_rng(7)
    for _ in range(100):
        noisy = [(psi, v + rng.normal(0.0, 0.01)) for psi, v in calibration]
        fit = fit_alpha(noisy)
        assert abs(fit.alpha - 0.2) <= 0.02
