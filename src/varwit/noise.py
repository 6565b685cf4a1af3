"""Local measurement noise as mixture-of-unitaries channels.

Noise acts in the Heisenberg (dual) picture: channels transform POVM
elements and moment operators while states stay untouched. The spin-flip
family used throughout contracts first moments by (1 - alpha) and leaves
second moments alone, which is what makes noise-adapted bounds worth
computing in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import List, Sequence, Tuple

import numpy as np

from .operators import (
    HermitianOperator,
    MomentPair,
    Povm,
    PureState,
    _check_dim_field,
    _matrix_from_json,
    _matrix_to_json,
    moment_pair,
    projective_povm,
    spin1_components,
    variance,
)

UNITARITY_TOL = 1e-10
PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """A mixture of unitaries (p_k, U_k), applied to operators as sum p_k U_k^dag A U_k.

    Branches with zero probability are dropped at construction so that
    dual application touches only live terms. The branch list could be
    extended to general Kraus operators later; nothing here needs that.
    """

    branches: Tuple[Tuple[float, np.ndarray], ...]

    def __post_init__(self):
        cleaned: List[Tuple[float, np.ndarray]] = []
        dims = set()
        total = 0.0
        for p, u in self.branches:
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"branch probability {p!r} outside [0, 1]")
            total += p
            if p == 0.0:
                continue
            mat = np.array(np.asarray(u, dtype=complex))
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"branch unitary has shape {mat.shape}")
            defect = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
            if not defect <= UNITARITY_TOL:
                raise ValueError(f"branch matrix is not unitary: max defect {defect:.3e}")
            dims.add(mat.shape[0])
            mat.flags.writeable = False
            cleaned.append((p, mat))
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"branch probabilities sum to {total!r}, expected 1")
        if not cleaned:
            raise ValueError("channel needs at least one branch with positive probability")
        if len(dims) != 1:
            raise ValueError(f"branch unitaries have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "branches", tuple(cleaned))

    @property
    def dim(self) -> int:
        return self.branches[0][1].shape[0]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "branches": [{"p": p, "unitary": _matrix_to_json(u)} for p, u in self.branches],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseChannel":
        branches = tuple(
            (float(b["p"]), _matrix_from_json(b["unitary"])) for b in data["branches"]
        )
        chan = cls(branches)
        _check_dim_field(data, chan.dim, "branch unitaries")
        return chan


@dataclass(frozen=True)
class NoiseFitResult:
    """Least-squares noise estimate from calibration data."""

    alpha: float
    residual: float
    per_state_residuals: Tuple[float, ...]

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha!r} outside [0, 1]")
        if abs(self.residual - sum(self.per_state_residuals)) > 1e-12:
            raise ValueError("residual does not equal the sum of per-state residuals")


def dual_apply(channel: NoiseChannel, op: HermitianOperator) -> HermitianOperator:
    """Heisenberg-picture action sum_k p_k U_k^dag op U_k.

    Unital and positivity preserving by construction; the output stays
    Hermitian, so it feeds straight back into moment arithmetic.
    """
    if channel.dim != op.dim:
        raise ValueError(f"channel dim {channel.dim} does not match operator dim {op.dim}")
    acc = np.zeros((op.dim, op.dim), dtype=complex)
    for p, u in channel.branches:
        acc += p * (u.conj().T @ op.entries @ u)
    return HermitianOperator(acc)


def noisy_povm(channel: NoiseChannel, povm: Povm) -> Povm:
    """Elementwise dual action on a POVM; outcome labels are untouched."""
    if channel.dim != povm.dim:
        raise ValueError(f"channel dim {channel.dim} does not match POVM dim {povm.dim}")
    return Povm(povm.outcomes, tuple(dual_apply(channel, e) for e in povm.elements))


def spin_flip_channel(alpha: float) -> NoiseChannel:
    """Spin flip with probability alpha/2: branches (1-alpha/2, I), (alpha/2, diag(-1,1,-1)).

    The flip unitary is the pi rotation about Z, which negates L_X and
    L_Y; the dual channel therefore contracts their first moments by
    (1-alpha) and fixes the second moments.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha!r} outside [0, 1]")
    flip = np.diag([-1.0, 1.0, -1.0]).astype(complex)
    return NoiseChannel(((1.0 - alpha / 2.0, np.eye(3, dtype=complex)), (alpha / 2.0, flip)))


@cache
def _spin1_povms() -> Tuple[Povm, Povm]:
    """The projective POVMs of the spin-1 L_X and L_Y, built once per process.

    They do not depend on the noise, and a Povm is immutable, so every
    caller may share them.
    """
    lx, ly, _ = spin1_components()
    return projective_povm(lx), projective_povm(ly)


def spin1_povms(alpha: float) -> Tuple[Povm, Povm]:
    """The spin-1 L_X and L_Y measurements under spin-flip noise alpha.

    The noise-free projective POVMs are built once per process
    (`_spin1_povms`); each call builds the channel and applies it to them.
    """
    povm_x, povm_y = _spin1_povms()
    channel = spin_flip_channel(alpha)
    return noisy_povm(channel, povm_x), noisy_povm(channel, povm_y)


def spin1_moment_pairs(alpha: float = 0.0) -> Tuple[MomentPair, MomentPair]:
    """Moment pairs of the spin-1 L_X, L_Y measurements under spin-flip noise.

    Built the honest way, channel acting on the projective POVMs
    (`spin1_povms`), so the result is exactly what a caller assembling the
    pipeline by hand would get.
    """
    povm_x, povm_y = spin1_povms(alpha)
    return moment_pair(povm_x), moment_pair(povm_y)


def fit_alpha(
    calibration: Sequence[Tuple[PureState, float]],
    weights: Tuple[float, float] = (0.5, 0.5),
) -> NoiseFitResult:
    """Exact least-squares fit of the spin-flip parameter from calibration sweeps.

    Args:
        calibration: (state, measured V) pairs; V is the weighted variance
            sum of the noisy L_X, L_Y measurements in that state.
        weights: (lambda, mu) of the fitted V; the plotted calibration
            quantity uses 1/2, 1/2. Finite, nonnegative, not both zero.

    Returns:
        The fitted alpha with its residual breakdown.

    The spin flip contracts first moments by eta = 1 - alpha and fixes
    second moments, so each fitted value is V_i = a_i - eta^2 b_i with
    a_i = V_i(alpha=1) and b_i = V_i(1) - V_i(0). The loss
    sum (a_i - t b_i - m_i)^2 is a parabola in t = eta^2, minimized over
    [0, 1] at t = clip(b.(a - m) / b.b, 0, 1). Raises ValueError when
    every b_i is zero (no state has a nonzero first-moment mean), since
    then no alpha fits better than another.
    """
    if not calibration:
        raise ValueError("calibration data is empty")
    lam, mu = float(weights[0]), float(weights[1])
    if not (np.isfinite(lam) and np.isfinite(mu) and lam >= 0 and mu >= 0 and lam + mu > 0):
        raise ValueError(f"weights must be finite, nonnegative and not both zero, got {weights}")
    measured = np.array([float(v) for _, v in calibration])
    if not np.all(np.isfinite(measured)):
        raise ValueError("measured values must be finite")

    def model_values(alpha: float) -> np.ndarray:
        x, y = spin1_moment_pairs(alpha)
        return np.array([lam * variance(s, x) + mu * variance(s, y) for s, _ in calibration])

    a = model_values(1.0)
    b = a - model_values(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        bb = float(b @ b)
        if bb == 0.0:
            raise ValueError("calibration data does not constrain alpha")
        t = float(np.clip(b @ (a - measured) / bb, 0.0, 1.0))
        per_state = (a - t * b - measured) ** 2
    if not (np.isfinite(bb) and np.all(np.isfinite(per_state))):
        raise ValueError("weights or measured values too large: the fit overflows float64")
    return NoiseFitResult(
        alpha=1.0 - float(np.sqrt(t)),
        residual=float(np.sum(per_state)),
        per_state_residuals=tuple(float(r) for r in per_state),
    )
