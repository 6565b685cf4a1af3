"""Benchmark states and finite-statistics measurement simulation.

Shot noise is modeled as i.i.d. multinomial sampling of outcome
(coincidence) counts at fixed total shots; the RNG is seeded and
splittable, every trial and every sweep point draws from its own child
seed, so runs are reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .operators import (
    DensityMatrix,
    Povm,
    PureState,
    expectation,
    moment_pair,
    tensor,
    variance,
)
from .noise import spin1_moment_pairs, spin1_povms

PROB_FLOOR = -1e-12
PROB_SUM_TOL = 1e-10

_SQRT3_INV = 1.0 / np.sqrt(3.0)

# the fixed angles, in degrees, of the paper's two calibration sweeps: theta2
# while theta1 sweeps, theta1 while theta2 sweeps
_SWEEP_THETA2 = 23.3
_SWEEP_THETA1 = 28.0


@dataclass(frozen=True)
class TestStateParams:
    """Preparation angles, in degrees, of one calibration test state."""

    # not a test case, despite the name pytest pattern-matches on
    __test__ = False

    theta1: float
    theta2: float

    def __post_init__(self):
        if not (np.isfinite(self.theta1) and np.isfinite(self.theta2)):
            raise ValueError("angles must be finite")


@dataclass(frozen=True)
class SampleConfig:
    """Total shot budget, RNG seed, and trial count for error bars."""

    shots: int
    seed: int
    trials: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        # the multinomial sampler counts in int64
        if self.shots > np.iinfo(np.int64).max:
            raise ValueError(f"shots must be at most {np.iinfo(np.int64).max}, got {self.shots}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class CalibrationRecord:
    """Exact and sampled variance sums for one test state."""

    params: TestStateParams
    v_ideal: float
    v_noisy: float
    v_sampled_mean: float
    v_sampled_std: float

    def __post_init__(self):
        if self.v_sampled_std < 0:
            raise ValueError(f"sampled std must be >= 0, got {self.v_sampled_std}")


def make_singlet() -> PureState:
    """The two-qutrit total-spin-zero state (|02> + |20> - |11>)/sqrt(3).

    Row-major pairing: amplitude of |ab> sits at index 3a + b. All total
    angular momentum components annihilate this state, so every global
    spin variance vanishes on it.
    """
    vec = np.zeros(9, dtype=complex)
    vec[2] = _SQRT3_INV
    vec[6] = _SQRT3_INV
    vec[4] = -_SQRT3_INV
    return PureState(vec)


def make_test_state(params: TestStateParams) -> PureState:
    """sin(t1)cos(t2)|0> + cos(t1)|1> + sin(t1)sin(t2)|2>, angles in degrees."""
    t1 = np.deg2rad(params.theta1)
    t2 = np.deg2rad(params.theta2)
    vec = np.array(
        [np.sin(t1) * np.cos(t2), np.cos(t1), np.sin(t1) * np.sin(t2)], dtype=complex
    )
    return PureState(vec)


def theta1_sweep(num: int = 45) -> List[TestStateParams]:
    """Uniform theta1 values strictly inside (0, 180) degrees at the paper's fixed theta2."""
    step = 180.0 / (num + 1)
    return [TestStateParams(theta1=k * step, theta2=_SWEEP_THETA2) for k in range(1, num + 1)]


def theta2_sweep(num: int = 45) -> List[TestStateParams]:
    """Uniform theta2 values strictly inside (0, 180) degrees at the paper's fixed theta1."""
    step = 180.0 / (num + 1)
    return [TestStateParams(theta1=_SWEEP_THETA1, theta2=k * step) for k in range(1, num + 1)]


def outcome_distribution(
    state: Union[DensityMatrix, PureState], povm: Povm
) -> List[Tuple[float, float]]:
    """Outcome probabilities of one measurement in one state."""
    if state.dim != povm.dim:
        raise ValueError(f"state dim {state.dim} does not match POVM dim {povm.dim}")
    out = []
    for x, element in zip(povm.outcomes, povm.elements):
        p = expectation(state, element)
        if p < PROB_FLOOR:
            raise ValueError(f"outcome {x} has negative probability {p:.3e}")
        out.append((x, max(p, 0.0)))
    total = sum(p for _, p in out)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return out


def joint_outcome_distribution(
    state: DensityMatrix, povm_a: Povm, povm_b: Povm
) -> List[Tuple[Tuple[float, float], float]]:
    """Probabilities of joint outcomes (x_a, x_b) under a product measurement."""
    if state.dim != povm_a.dim * povm_b.dim:
        raise ValueError(
            f"state dim {state.dim} does not factor as {povm_a.dim} x {povm_b.dim}"
        )
    out = []
    for xa, ea in zip(povm_a.outcomes, povm_a.elements):
        for xb, eb in zip(povm_b.outcomes, povm_b.elements):
            p = expectation(state, tensor(ea, eb))
            if p < PROB_FLOOR:
                raise ValueError(
                    f"outcome pair ({xa}, {xb}) has negative probability {p:.3e}"
                )
            out.append(((xa, xb), max(p, 0.0)))
    total = sum(p for _, p in out)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return out


def _sample_variance(rng: np.random.Generator, outcomes: np.ndarray, probs: np.ndarray, shots: int) -> float:
    """Unbiased sample variance of `shots` i.i.d. draws, tallied multinomially."""
    counts = rng.multinomial(shots, probs / probs.sum())
    mean = float(counts @ outcomes) / shots
    return float(counts @ (outcomes - mean) ** 2) / (shots - 1)


def _sample_trials(
    seq: np.random.SeedSequence,
    dist_x: Sequence[Tuple[float, float]],
    dist_y: Sequence[Tuple[float, float]],
    config: SampleConfig,
) -> List[Tuple[float, float]]:
    """Per-trial sample variances of the X and Y outcome distributions.

    The shot budget is split evenly (floor) between the two settings.
    Each trial draws from its own child of seq, X counts before Y counts.
    """
    per_setting = config.shots // 2
    if per_setting < 2:
        raise ValueError(
            f"need at least 2 shots per setting for a variance, got {per_setting}"
        )
    outs_x, probs_x = (np.array(col) for col in zip(*dist_x))
    outs_y, probs_y = (np.array(col) for col in zip(*dist_y))
    per_trial = []
    for child in seq.spawn(config.trials):
        rng = np.random.default_rng(child)
        s2x = _sample_variance(rng, outs_x, probs_x, per_setting)
        s2y = _sample_variance(rng, outs_y, probs_y, per_setting)
        per_trial.append((s2x, s2y))
    return per_trial


def sample_variance_tuple(
    state: DensityMatrix,
    povm_xa: Povm,
    povm_xb: Povm,
    povm_ya: Povm,
    povm_yb: Povm,
    config: SampleConfig,
) -> Tuple[float, float, List[Tuple[float, float]]]:
    """Finite-statistics estimate of the global variance tuple.

    The shot budget is split evenly between the X and Y settings (floor).
    Each trial draws fresh counts from the joint outcome distributions and
    computes the unbiased sample variance of x_a + x_b per setting; the
    headline values are the means over trials and the per-trial tuples are
    returned for spread estimates.
    """
    dist_x = [(xa + xb, p) for (xa, xb), p in joint_outcome_distribution(state, povm_xa, povm_xb)]
    dist_y = [(ya + yb, p) for (ya, yb), p in joint_outcome_distribution(state, povm_ya, povm_yb)]
    per_trial = _sample_trials(np.random.SeedSequence(config.seed), dist_x, dist_y, config)
    d2x = float(np.mean([t[0] for t in per_trial]))
    d2y = float(np.mean([t[1] for t in per_trial]))
    return d2x, d2y, per_trial


def run_calibration(
    theta_sweep: Sequence[TestStateParams], alpha: float, config: SampleConfig
) -> List[CalibrationRecord]:
    """Sweep test states through the (possibly noisy) measurement box.

    Per state this reports the exact variance sum at weights 1/2, 1/2 for
    the ideal and the noisy measurements, together with the sampled mean
    and spread from finite statistics drawn on the noisy box. Sweep
    points and trials use independently derived child seeds and records
    come back in input order.
    """
    if not theta_sweep:
        raise ValueError("theta sweep is empty")
    ideal_x, ideal_y = spin1_moment_pairs(0.0)
    povm_x, povm_y = spin1_povms(alpha)
    noisy_x, noisy_y = moment_pair(povm_x), moment_pair(povm_y)
    records: List[CalibrationRecord] = []
    sweep_seeds = np.random.SeedSequence(config.seed).spawn(len(theta_sweep))
    for params, record_seq in zip(theta_sweep, sweep_seeds):
        psi = make_test_state(params)
        v_ideal = 0.5 * variance(psi, ideal_x) + 0.5 * variance(psi, ideal_y)
        v_noisy = 0.5 * variance(psi, noisy_x) + 0.5 * variance(psi, noisy_y)
        trials = _sample_trials(
            record_seq, outcome_distribution(psi, povm_x), outcome_distribution(psi, povm_y), config
        )
        values = [0.5 * s2x + 0.5 * s2y for s2x, s2y in trials]
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if config.trials > 1 else 0.0
        records.append(
            CalibrationRecord(
                params=params,
                v_ideal=v_ideal,
                v_noisy=v_noisy,
                v_sampled_mean=mean,
                v_sampled_std=std,
            )
        )
    return records
