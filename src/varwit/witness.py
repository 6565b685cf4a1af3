"""Two-party witness evaluation and detection windows.

A witness verdict compares the weighted variance sum of global (joint)
measurements against a separability bound: strictly smaller means the
state cannot be separable. Detection windows collect the weights lambda
(with mu = 1 - lambda) for which a measured variance tuple is certified;
they are read in closed form off a cached bound curve's knots, since each
exact bound evaluation is a full optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .operators import (
    DensityMatrix,
    HermitianOperator,
    MomentPair,
    identity,
    tensor,
    variance,
)

@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of one witness comparison; detected means V is strictly below the bound."""

    lam: float
    mu: float
    v_value: float
    c_sep: float
    detected: bool
    margin: float

    def __post_init__(self):
        if abs(self.margin - (self.c_sep - self.v_value)) > 1e-12:
            raise ValueError("margin does not equal c_sep - v_value")
        if self.detected != (self.margin > 0):
            raise ValueError("detected flag contradicts the margin sign")


@dataclass(frozen=True)
class DetectionWindow:
    """A maximal interval of weights where the witness certifies entanglement."""

    lambda_lo: float
    lambda_hi: float
    resolution: float

    def __post_init__(self):
        if not 0.0 <= self.lambda_lo <= self.lambda_hi <= 1.0:
            raise ValueError(
                f"window [{self.lambda_lo}, {self.lambda_hi}] is not an interval inside [0, 1]"
            )
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")

    def to_dict(self) -> dict:
        return {
            "lambda_lo": self.lambda_lo,
            "lambda_hi": self.lambda_hi,
            "resolution": self.resolution,
        }


def build_global_moments(local: MomentPair) -> MomentPair:
    """Moment operators of the joint outcome x_A + x_B for identical local measurements.

    M1 = X1 (x) I + I (x) X1 and M2 = X2 (x) I + 2 X1 (x) X1 + I (x) X2,
    the expansion of (x_A + x_B)^2 over the product POVM. For projective
    local measurements this matches forming the joint POVM first and
    taking its moments directly. The result is an ordinary moment pair,
    so `variance` gives the global variance in any two-party state.
    """
    eye = identity(local.dim)
    m1 = HermitianOperator(
        tensor(local.first, eye).entries + tensor(eye, local.first).entries
    )
    m2 = HermitianOperator(
        tensor(local.second, eye).entries
        + 2.0 * tensor(local.first, local.first).entries
        + tensor(eye, local.second).entries
    )
    return MomentPair(m1, m2)


def _verdict(lam: float, mu: float, v_value: float, c_sep: float) -> WitnessVerdict:
    margin = c_sep - v_value
    return WitnessVerdict(
        lam=float(lam),
        mu=float(mu),
        v_value=float(v_value),
        c_sep=float(c_sep),
        detected=margin > 0,
        margin=float(margin),
    )


def evaluate_witness(
    state: DensityMatrix,
    gx: MomentPair,
    gy: MomentPair,
    lam: float,
    mu: float,
    c_sep: float,
) -> WitnessVerdict:
    """Evaluate the witness on a state.

    gx and gy are global moment pairs from build_global_moments. The
    bound c_sep must come from the bounds module for the same local
    pairs that built them; nothing here can check that pairing.
    """
    v = float(lam) * variance(state, gx) + float(mu) * variance(state, gy)
    return _verdict(lam, mu, v, c_sep)


def evaluate_witness_from_tuple(
    d2x: float, d2y: float, lam: float, mu: float, c_sep: float
) -> WitnessVerdict:
    """Same verdict logic on an experimentally supplied variance tuple."""
    if not (0.0 <= d2x < np.inf and 0.0 <= d2y < np.inf):
        raise ValueError(f"variances must be finite and nonnegative, got ({d2x}, {d2y})")
    return _verdict(lam, mu, float(lam) * float(d2x) + float(mu) * float(d2y), c_sep)


def knot_spacing(lams: np.ndarray) -> float:
    """Largest step between neighbouring knots of a bound curve.

    It is the accuracy of a detection-window edge: c(lambda) is concave
    and its knots are exact, so the true window reaches at most one knot
    step past each edge read off the interpolant.
    """
    return float(np.max(np.diff(lams)))


def detection_window(
    d2x: float, d2y: float, lams: np.ndarray, values: np.ndarray
) -> List[DetectionWindow]:
    """Maximal intervals of lambda where lam d2x + (1 - lam) d2y < c(lambda).

    c is the linear interpolant of the bound curve's knots (lams, values),
    so the margin c - V is linear between knots. Each maximal run of knots
    with a positive margin is one window; an edge inside the grid is the
    exact zero of the margin on the segment where it changes sign, and an
    edge at a grid end is that end. An empty list means the tuple is never
    certified.
    """
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    if lams.ndim != 1 or lams.shape != values.shape or lams.size < 2:
        raise ValueError("need matching 1-D knot arrays with at least two points")
    if not (np.isfinite(lams).all() and np.isfinite(values).all()):
        raise ValueError("knots must be finite")
    if lams[0] != 0.0 or lams[-1] != 1.0 or not (np.diff(lams) > 0).all():
        raise ValueError("lams must ascend strictly from 0.0 to 1.0")
    if not (0.0 <= d2x < np.inf and 0.0 <= d2y < np.inf):
        raise ValueError(f"variances must be finite and nonnegative, got ({d2x}, {d2y})")

    margin = values - (lams * d2x + (1.0 - lams) * d2y)
    # +1 where a run of positive margins starts, -1 one past where it ends
    step = np.diff((margin > 0).astype(np.int8), prepend=0, append=0)
    firsts, lasts = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1

    def edge(inside: int, outside: int) -> float:
        # zero of the linear margin between a positive knot and a nonpositive
        # neighbour; clipped so that rounding cannot carry it off its segment
        # (windows that touch at a zero knot would otherwise overlap by an ulp)
        m_in, m_out = margin[inside], margin[outside]
        zero = lams[inside] + (lams[outside] - lams[inside]) * m_in / (m_in - m_out)
        return float(np.clip(zero, *sorted((lams[inside], lams[outside]))))

    last = lams.size - 1
    resolution = knot_spacing(lams)
    return [
        DetectionWindow(
            lambda_lo=0.0 if k == 0 else edge(k, k - 1),
            lambda_hi=1.0 if j == last else edge(j, j + 1),
            resolution=resolution,
        )
        for k, j in zip(firsts, lasts)
    ]
