"""Two-party witness evaluation and detection windows.

A witness verdict compares the weighted variance sum of global (joint)
measurements against a separability bound: strictly smaller means the
state cannot be separable. Detection windows collect the weights lambda
(with mu = 1 - lambda) for which a measured variance tuple is certified,
using a cached bound curve since each exact bound evaluation is a full
optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .operators import (
    DensityMatrix,
    HermitianOperator,
    MomentPair,
    identity,
    tensor,
    variance,
)

# detection_window scans 1/resolution + 1 weights, one interpolant call each
MIN_RESOLUTION = 1e-6


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
    if d2x < 0 or d2y < 0:
        raise ValueError(f"variances must be nonnegative, got ({d2x}, {d2y})")
    return _verdict(lam, mu, float(lam) * float(d2x) + float(mu) * float(d2y), c_sep)


def bound_interpolant(lams: np.ndarray, values: np.ndarray) -> Callable[[float], float]:
    """Linear interpolant of a cached bound curve, usable as c_of_lambda."""
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    if lams.shape != values.shape or lams.ndim != 1 or lams.size < 2:
        raise ValueError("need matching 1-D grids with at least two points")

    def c_of_lambda(lam: float) -> float:
        return float(np.interp(lam, lams, values))

    return c_of_lambda


def _bisect_edge(
    margin: Callable[[float], float], a: float, b: float, resolution: float
) -> float:
    """Locate the sign change of margin inside [a, b] to within resolution."""
    pos_a = margin(a) > 0
    while b - a > resolution:
        mid = 0.5 * (a + b)
        if (margin(mid) > 0) == pos_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def detection_window(
    d2x: float,
    d2y: float,
    c_of_lambda: Callable[[float], float],
    resolution: float = 1e-3,
) -> List[DetectionWindow]:
    """Maximal intervals of lambda where lam d2x + (1 - lam) d2y < c(lambda).

    The unit interval is scanned at the requested resolution and each
    detected edge is then sharpened by bisection; an empty list means the
    tuple is never certified. The resolution must be at least
    MIN_RESOLUTION, which caps the scan at about a million points.
    """
    if not resolution >= MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    if d2x < 0 or d2y < 0:
        raise ValueError(f"variances must be nonnegative, got ({d2x}, {d2y})")

    def margin(lam: float) -> float:
        return c_of_lambda(lam) - (lam * d2x + (1.0 - lam) * d2y)

    n = int(np.ceil(1.0 / resolution)) + 1
    grid = np.linspace(0.0, 1.0, n)
    pos = np.array([margin(l) > 0 for l in grid])
    windows: List[DetectionWindow] = []
    k = 0
    while k < n:
        if not pos[k]:
            k += 1
            continue
        j = k
        while j + 1 < n and pos[j + 1]:
            j += 1
        lo = grid[k] if k == 0 else _bisect_edge(margin, grid[k - 1], grid[k], resolution)
        hi = grid[j] if j == n - 1 else _bisect_edge(margin, grid[j], grid[j + 1], resolution)
        windows.append(
            DetectionWindow(lambda_lo=float(lo), lambda_hi=float(hi), resolution=resolution)
        )
        k = j + 1
    return windows
