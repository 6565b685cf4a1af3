"""Benchmark states and finite-statistics measurement simulation.

Shot noise is modeled as i.i.d. multinomial sampling of outcome
(coincidence) counts at fixed total shots. The RNG is seeded and
splittable: each sweep point, and in it each setting, draws from its own
child seed, every trial's counts in one call, so runs are reproducible
and order-independent and a trial's values do not depend on the count.
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


def _checked_distribution(labels: Sequence, probs: Sequence[float], what: str) -> list:
    """(label, p) pairs, p clipped at 0; p below PROB_FLOOR or a sum off 1 raises."""
    out = []
    for x, p in zip(labels, probs):
        if p < PROB_FLOOR:
            raise ValueError(f"{what} {x} has negative probability {p:.3e}")
        out.append((x, max(p, 0.0)))
    total = sum(p for _, p in out)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return out


def outcome_distribution(
    state: Union[DensityMatrix, PureState], povm: Povm
) -> List[Tuple[float, float]]:
    """Outcome probabilities of one measurement in one state."""
    if state.dim != povm.dim:
        raise ValueError(f"state dim {state.dim} does not match POVM dim {povm.dim}")
    probs = [expectation(state, e) for e in povm.elements]
    return _checked_distribution(povm.outcomes, probs, "outcome")


def joint_outcome_distribution(
    state: DensityMatrix, povm_a: Povm, povm_b: Povm
) -> List[Tuple[Tuple[float, float], float]]:
    """Probabilities of joint outcomes (x_a, x_b) under a product measurement."""
    if state.dim != povm_a.dim * povm_b.dim:
        raise ValueError(
            f"state dim {state.dim} does not factor as {povm_a.dim} x {povm_b.dim}"
        )
    rho = (state.density() if isinstance(state, PureState) else state).matrix.entries
    labels = [(xa, xb) for xa in povm_a.outcomes for xb in povm_b.outcomes]
    probs = [float(np.trace(rho @ np.kron(ea.entries, eb.entries)).real)
             for ea in povm_a.elements for eb in povm_b.elements]
    return _checked_distribution(labels, probs, "outcome pair")


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (ddof 1) of `values`; 0 for a single value."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _sample_trials(
    seq: np.random.SeedSequence,
    dist_x: Sequence[Tuple[float, float]],
    dist_y: Sequence[Tuple[float, float]],
    config: SampleConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial unbiased sample variances of the X and of the Y outcome distribution.

    The shot budget is split evenly (floor) between the two settings.
    Each setting draws from its own child of seq, X from the first, and
    draws every trial's counts in one multinomial call; trial k is row k
    of that draw, so its values do not depend on config.trials.
    """
    per_setting = config.shots // 2
    if per_setting < 2:
        raise ValueError(
            f"need at least 2 shots per setting for a variance, got {per_setting}"
        )
    variances = []
    for child, dist in zip(seq.spawn(2), (dist_x, dist_y)):
        outcomes, probs = (np.array(col) for col in zip(*dist))
        rng = np.random.default_rng(child)
        counts = rng.multinomial(per_setting, probs / probs.sum(), size=config.trials)
        # column by column, so a row's arithmetic does not depend on the row count
        mean = sum(c * x for c, x in zip(counts.T, outcomes)) / per_setting
        spread = sum(c * (x - mean) ** 2 for c, x in zip(counts.T, outcomes))
        variances.append(spread / (per_setting - 1))
    return variances[0], variances[1]


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
    computes the unbiased sample variance of x_a + x_b per setting
    (`_sample_trials`); the headline values are the means over trials and
    the per-trial tuples are returned for spread estimates.
    """
    dist_x = [(xa + xb, p) for (xa, xb), p in joint_outcome_distribution(state, povm_xa, povm_xb)]
    dist_y = [(ya + yb, p) for (ya, yb), p in joint_outcome_distribution(state, povm_ya, povm_yb)]
    s2x, s2y = _sample_trials(np.random.SeedSequence(config.seed), dist_x, dist_y, config)
    return float(np.mean(s2x)), float(np.mean(s2y)), list(zip(s2x.tolist(), s2y.tolist()))


def run_calibration(
    theta_sweep: Sequence[TestStateParams], alpha: float, config: SampleConfig
) -> List[CalibrationRecord]:
    """Sweep test states through the (possibly noisy) measurement box.

    Per state this reports the exact variance sum at weights 1/2, 1/2 for
    the ideal and the noisy measurements, together with the sampled mean
    and spread (`sample_std`) from finite statistics drawn on the noisy
    box. Each sweep point draws from its own child seed
    (`_sample_trials`), and records come back in input order.
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
        s2x, s2y = _sample_trials(
            record_seq, outcome_distribution(psi, povm_x), outcome_distribution(psi, povm_y), config
        )
        values = 0.5 * s2x + 0.5 * s2y
        records.append(
            CalibrationRecord(
                params=params,
                v_ideal=v_ideal,
                v_noisy=v_noisy,
                v_sampled_mean=float(np.mean(values)),
                v_sampled_std=sample_std(values),
            )
        )
    return records
