"""Weighted local uncertainty bounds over pure states.

The central quantity is the infimum of V = lambda Var(X) + mu Var(Y) over
pure states. At fixed means (x_bar, y_bar) the functional is the
expectation of a penalty operator, so the infimum becomes a minimization
of a smallest eigenvalue over two real mean parameters. Two independent
routes compute it: an alternating seesaw descent and a brute-force mesh
over the mean box. The seesaw is fast but local, the mesh is the trust
anchor; acceptance requires them to agree. `certified_bound` is the one
place that decides whether a bound may be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .operators import (
    DensityMatrix,
    HermitianOperator,
    MomentPair,
    PureState,
    variance,
)

VALUE_FLOOR = -1e-9
SUPPORT_TOL = 1e-8
# a stalled seesaw is trusted only when the mesh oracle lands this close
AGREE_TOL = 1e-4

_METHODS = ("seesaw", "grid", "grid_refined")


@dataclass(frozen=True, eq=False)
class WeightedPair:
    """Weights and moment pairs defining V = lam Var(X) + mu Var(Y)."""

    lam: float
    mu: float
    x: MomentPair
    y: MomentPair

    def __post_init__(self):
        lam, mu = float(self.lam), float(self.mu)
        if not (np.isfinite(lam) and np.isfinite(mu)):
            raise ValueError(f"weights must be finite, got ({lam}, {mu})")
        if lam < 0 or mu < 0:
            raise ValueError(f"weights must be nonnegative, got ({lam}, {mu})")
        if lam + mu <= 0:
            raise ValueError("at least one weight must be positive")
        if self.x.dim != self.y.dim:
            raise ValueError(f"moment pair dims differ: {self.x.dim} vs {self.y.dim}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.x.dim


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A local bound value with its minimizer and solver metadata.

    For the seesaw and grid_refined methods the value is the functional
    evaluated on the minimizer (they agree within 1e-8 by construction);
    an unpolished grid result reports the mesh minimum instead, which can
    sit slightly above what its own ground state achieves. `certified`
    says whether the value may serve as a separability bound; the solver
    that builds the result sets it.
    """

    value: float
    minimizer: PureState
    means: Tuple[float, float]
    iterations: int
    converged: bool
    method: str
    history: Optional[Tuple[float, ...]] = None
    certified: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.value < VALUE_FLOOR:
            raise ValueError(f"bound value {self.value!r} below zero beyond tolerance")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "minimizer": self.minimizer.to_dict(),
            "means": [self.means[0], self.means[1]],
            "iterations": self.iterations,
            "converged": self.converged,
            "method": self.method,
        }


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """Lower boundary of the achievable variance region.

    Each traced point is the minimizer's variance pair at one weight
    lambda (with mu = 1 - lambda); the matching bound value defines a
    supporting line that no other certified point may undercut.
    `converged` holds each point's certified flag.
    """

    points: Tuple[Tuple[float, float], ...]
    lambdas: Tuple[float, ...]
    bounds: Tuple[float, ...]
    converged: Tuple[bool, ...]

    def __post_init__(self):
        n = len(self.points)
        if not (len(self.lambdas) == len(self.bounds) == len(self.converged) == n):
            raise ValueError("field lengths differ")
        for (dx, dy), ok_pt in zip(self.points, self.converged):
            if not ok_pt:
                continue
            for lam, c, ok_line in zip(self.lambdas, self.bounds, self.converged):
                if not ok_line:
                    continue
                if lam * dx + (1.0 - lam) * dy < c - SUPPORT_TOL:
                    raise ValueError(
                        f"point ({dx}, {dy}) falls below the supporting line at lambda={lam}"
                    )


def variance_functional(pair: WeightedPair, state: Union[DensityMatrix, PureState]) -> float:
    """V = lam Var(X) + mu Var(Y) evaluated in a state."""
    return pair.lam * variance(state, pair.x) + pair.mu * variance(state, pair.y)


def penalty_operator(pair: WeightedPair, x_bar: float, y_bar: float) -> HermitianOperator:
    """The mean-penalized operator whose expectation dominates V.

    lam (X2 - 2 x_bar X1 + x_bar^2 I) + mu (Y2 - 2 y_bar Y1 + y_bar^2 I).
    For any state its expectation is >= V, with equality exactly when the
    penalty means match the state's own first-moment expectations; that
    is what makes alternating descent work.
    """
    return HermitianOperator(_penalty_raw(pair, float(x_bar), float(y_bar)))


def _penalty_raw(pair: WeightedPair, x_bar: float, y_bar: float) -> np.ndarray:
    x1, x2 = pair.x.first.entries, pair.x.second.entries
    y1, y2 = pair.y.first.entries, pair.y.second.entries
    eye = np.eye(pair.dim)
    return pair.lam * (x2 - 2.0 * x_bar * x1 + x_bar**2 * eye) + pair.mu * (
        y2 - 2.0 * y_bar * y1 + y_bar**2 * eye
    )


def _spectral_box(pair: WeightedPair) -> Tuple[float, float, float, float]:
    ex = np.linalg.eigvalsh(pair.x.first.entries)
    ey = np.linalg.eigvalsh(pair.y.first.entries)
    return float(ex[0]), float(ex[-1]), float(ey[0]), float(ey[-1])


def _achieved(pair: WeightedPair, vec: np.ndarray) -> Tuple[float, float, float]:
    """Functional value and first-moment means of a unit vector."""
    x1, x2 = pair.x.first.entries, pair.x.second.entries
    y1, y2 = pair.y.first.entries, pair.y.second.entries
    xm = float((vec.conj() @ x1 @ vec).real)
    ym = float((vec.conj() @ y1 @ vec).real)
    vx = float((vec.conj() @ x2 @ vec).real) - xm * xm
    vy = float((vec.conj() @ y2 @ vec).real) - ym * ym
    return pair.lam * vx + pair.mu * vy, xm, ym


def _descend(
    pair: WeightedPair, x_bar: float, y_bar: float, tol: float, max_iter: int
) -> Tuple[np.ndarray, float, float, float, int, bool, List[float]]:
    """One seesaw run from given starting means.

    Alternates the ground state of the penalty at the current means with
    updating the means to that state's expectations. The penalty
    eigenvalue sequence is non-increasing; descent stops when it moves
    less than tol.
    """
    x1 = pair.x.first.entries
    y1 = pair.y.first.entries
    val = np.inf
    vec = None
    history: List[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        pen = _penalty_raw(pair, x_bar, y_bar)
        w, vecs = np.linalg.eigh(pen)
        # ascending order makes the degenerate tie-break deterministic
        vec = vecs[:, 0]
        newval = float(w[0])
        history.append(newval)
        x_bar = float((vec.conj() @ x1 @ vec).real)
        y_bar = float((vec.conj() @ y1 @ vec).real)
        if abs(val - newval) < tol:
            converged = True
            val = newval
            break
        val = newval
    value, xm, ym = _achieved(pair, vec)
    return vec, value, xm, ym, iterations, converged, history


def seesaw_bound(
    pair: WeightedPair,
    starts: int = 16,
    tol: float = 1e-10,
    max_iter: int = 500,
    seed: int = 0,
    record_history: bool = False,
) -> BoundResult:
    """Multi-start alternating minimization of the weighted variance sum.

    Args:
        pair: weights and moment pairs.
        starts: independent starting means, drawn uniformly from the
            spectral box of (X1, Y1) with a deterministic seed.
        tol: stop a run when the penalty eigenvalue changes less than
            this.
        max_iter: iteration cap per run; converged=False if any run hits
            it (the best value found is still reported, uncertified).
        seed: RNG seed for the starting means.
        record_history: attach the winning run's eigenvalue sequence.

    Returns:
        Best run by (value, then lexicographic means).
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    xlo, xhi, ylo, yhi = _spectral_box(pair)
    rng = np.random.default_rng(seed)
    best = None
    all_converged = True
    for _ in range(starts):
        x0 = float(rng.uniform(xlo, xhi)) if xhi > xlo else xlo
        y0 = float(rng.uniform(ylo, yhi)) if yhi > ylo else ylo
        vec, value, xm, ym, iters, conv, hist = _descend(pair, x0, y0, tol, max_iter)
        all_converged = all_converged and conv
        key = (value, xm, ym)
        if best is None or key < best[0]:
            best = (key, vec, xm, ym, iters, hist)
    _, vec, xm, ym, iters, hist = best
    value = best[0][0]
    return BoundResult(
        value=value,
        minimizer=PureState(vec),
        means=(xm, ym),
        iterations=iters,
        converged=all_converged,
        method="seesaw",
        history=tuple(hist) if record_history else None,
        certified=all_converged,
    )


def grid_bound(
    pair: WeightedPair,
    grid_n: int = 201,
    polish: bool = True,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> BoundResult:
    """Brute-force mesh oracle for the same minimization.

    Evaluates the smallest penalty eigenvalue on a grid_n x grid_n mesh
    of means over the spectral box, batched through the eigensolver.
    With polish=True (the default) a single seesaw run refines the best
    mesh cell and the result is labeled grid_refined, certified when the
    polish converges; polish=False returns the raw mesh minimum, never
    certified since it can sit above the infimum.
    """
    if grid_n < 10:
        raise ValueError(f"grid_n must be >= 10, got {grid_n}")
    xlo, xhi, ylo, yhi = _spectral_box(pair)
    xs = np.linspace(xlo, xhi, grid_n)
    ys = np.linspace(ylo, yhi, grid_n)
    x1, x2 = pair.x.first.entries, pair.x.second.entries
    y1, y2 = pair.y.first.entries, pair.y.second.entries
    eye = np.eye(pair.dim)
    base = pair.lam * x2 + pair.mu * y2
    # stack of penalties over the whole mesh, shape (grid_n, grid_n, d, d)
    pen = (
        base[None, None]
        - 2.0 * pair.lam * xs[:, None, None, None] * x1[None, None]
        - 2.0 * pair.mu * ys[None, :, None, None] * y1[None, None]
        + (pair.lam * xs[:, None] ** 2 + pair.mu * ys[None, :] ** 2)[:, :, None, None]
        * eye[None, None]
    )
    smallest = np.linalg.eigvalsh(pen)[..., 0]
    i, j = np.unravel_index(int(np.argmin(smallest)), smallest.shape)
    if polish:
        vec, value, xm, ym, iters, conv, _ = _descend(
            pair, float(xs[i]), float(ys[j]), tol, max_iter
        )
        return BoundResult(
            value=value,
            minimizer=PureState(vec),
            means=(xm, ym),
            iterations=iters,
            converged=conv,
            method="grid_refined",
            certified=conv,
        )
    pen_best = _penalty_raw(pair, float(xs[i]), float(ys[j]))
    w, vecs = np.linalg.eigh(pen_best)
    return BoundResult(
        value=float(w[0]),
        minimizer=PureState(vecs[:, 0]),
        means=(float(xs[i]), float(ys[j])),
        iterations=0,
        converged=True,
        method="grid",
    )


def certified_bound(
    pair: WeightedPair,
    starts: int = 16,
    tol: float = 1e-10,
    max_iter: int = 500,
    seed: int = 0,
    grid_n: int = 201,
) -> BoundResult:
    """Seesaw first; if any start stalls, consult the mesh oracle.

    A converged seesaw is certified. A stalled one is certified only when
    the polished oracle converges and agrees with it within AGREE_TOL.
    Either way the lower of the two values is returned, ties going to the
    oracle, so a stalled run never raises a bound it could have lowered.
    """
    res = seesaw_bound(pair, starts=starts, tol=tol, max_iter=max_iter, seed=seed)
    if res.certified:
        return res
    alt = grid_bound(pair, grid_n=grid_n, polish=True, tol=tol, max_iter=max_iter)
    agreed = alt.certified and abs(alt.value - res.value) <= AGREE_TOL
    return replace(alt if alt.value <= res.value else res, certified=agreed)


def compose_sep_bound(local_a: BoundResult, local_b: BoundResult) -> float:
    """Two-party separability bound as the sum of local bounds.

    Variance additivity over product states splits the global infimum
    into independent per-party infima, so the composed bound is exact
    given exact local values. Requires each input to be certified.
    """
    for name, res in (("local_a", local_a), ("local_b", local_b)):
        if not res.certified:
            raise ValueError(f"{name} is not certified")
    return local_a.value + local_b.value


def trace_region(
    x: MomentPair,
    y: MomentPair,
    lambdas: Sequence[float],
    starts: int = 16,
    tol: float = 1e-10,
    max_iter: int = 500,
    seed: int = 0,
) -> RegionBoundary:
    """Trace the lower-left boundary of the achievable variance region.

    For each lambda (mu = 1 - lambda) the certified bound is solved and
    the minimizer's variance pair recorded; each bound value acts as a
    supporting line for the whole set of certified points. A solve that
    does not certify is kept as a flagged point rather than raised.
    """
    lams = [float(l) for l in lambdas]
    if any(not 0.0 < l < 1.0 for l in lams):
        raise ValueError("lambdas must lie strictly inside (0, 1)")
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambdas must be sorted ascending")
    points = []
    bounds = []
    flags = []
    for lam in lams:
        res = certified_bound(
            WeightedPair(lam, 1.0 - lam, x, y),
            starts=starts,
            tol=tol,
            max_iter=max_iter,
            seed=seed,
        )
        points.append((variance(res.minimizer, x), variance(res.minimizer, y)))
        bounds.append(res.value)
        flags.append(res.certified)
    return RegionBoundary(
        points=tuple(points),
        lambdas=tuple(lams),
        bounds=tuple(bounds),
        converged=tuple(flags),
    )


def sep_bound_curve(
    x: MomentPair,
    y: MomentPair,
    num: int = 201,
    starts: int = 16,
    tol: float = 1e-10,
    max_iter: int = 500,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separability bound c(lambda) on a uniform lambda grid over [0, 1].

    Returns the grid, the two-party bound for identical parties (twice the
    certified local bound) and each point's certified flag. Window
    extraction interpolates this cache linearly rather than re-solving per
    query.
    """
    lams = np.linspace(0.0, 1.0, num)
    vals = np.empty(num)
    certified = np.empty(num, dtype=bool)
    for k, lam in enumerate(lams):
        res = certified_bound(
            WeightedPair(float(lam), float(1.0 - lam), x, y),
            starts=starts,
            tol=tol,
            max_iter=max_iter,
            seed=seed,
        )
        vals[k] = 2.0 * res.value
        certified[k] = res.certified
    return lams, vals, certified
