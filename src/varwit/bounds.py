"""Weighted local uncertainty bounds over pure states.

The central quantity is the infimum of V = lambda Var(X) + mu Var(Y) over
pure states. At fixed means (x_bar, y_bar) the functional is the
expectation of a penalty operator, so the infimum becomes a minimization
of f(x_bar, y_bar), the penalty's smallest eigenvalue, over two real mean
parameters (the penalty-operator form of Dammeier, Schwonnek & Werner,
NJP 17, 093046 (2015)). A branch-and-bound over the mean box proves lower
bounds for the infimum, and a descent polishes the lowest vertex it
found; no descent starts anywhere else, so nothing is drawn at random.
One engine, `_seesaw_rows`, runs every descent, batched over weights.
Each step solves the penalty's eigenpairs at the current means. Their
gradient and Hessian of f give a saddle-free Newton step on the means; a
trial that would raise V is rejected for the first-order seesaw step,
moving the means to the ground state's expectations, so V never rises. A
run stops when f moves less than _TOL times the penalty scale, or after
_MAX_ITER eigensolves; both are constants of this module.
Every bound (`local_bounds`, `certified_bound`, `seesaw_bound`,
`sep_bound_curve`, `trace_region`) is reached by one rule, `_certify`:
the proof from the box alone at the coarse gap GRID_GAP, a polish of its
lowest vertex, and, where the polish stalls, a proof at GAP_TOL and a
second polish. That rule alone decides whether a bound may be trusted.

Inside the solver a batch (`_Batch`) is arrays: rows (lam, mu), each
carrying the index of its box (one party's moment pairs), and each box's
operators, penalty scales and proof span, gathered once per call. Where
f is mirror symmetric, f(x, y) = f(-x, y) or f(x, -y), the
branch-and-bound tiles only the half span of means >= 0 on that side:
the noisy spin-1 box has both mirrors, so its proofs tile a quarter of
the box. `_batch` tests each mirror once per box and measures its
defect, by Weyl's inequality a bound on how far rounding lets f differ
from its mirror image; a side is halved only when that defect is within
the rounding slack, and the proof subtracts it. At lam = mu a box may
also have a ring: a generator J that rotates X1 into Y1 and commutes
with X2 + Y2 (L_Z for the noisy spin-1 box, the symmetry behind the
Hofmann-Takeuchi closed form, PRA 68, 032103 (2003)), so f depends only
on the radius of the means. `_batch` measures the ring's defect the same
way (`_ring`), and a row with lam == mu on a box with a ring is proven by
a branch-and-bound over that radius alone (`_ring_proof`); `_prove`
routes every row to its proof.
The descent and both proofs run on chunks of _CHUNK rows (`_in_chunks`).
The engines and the rule pass only such arrays; `local_bounds` builds the
records at the edge, many pairs in one batch, and `certified_bound` is
its one-pair case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .operators import (
    DensityMatrix,
    HermitianOperator,
    MomentPair,
    PureState,
    variance,
)

# how far below zero rounding may carry a bound value, in units of the
# penalty's scale (`WeightedPair.scale`)
VALUE_FLOOR = -1e-9
SUPPORT_TOL = 1e-8
# a stalled polish is trusted only when its proven lower bound lies this
# close to its value, in units of the penalty's scale (`_penalty_scale`)
GAP_TOL = 1e-8
# the pruning gap of every bound's first proof (`_certify`), in the same
# units; its lowest vertex lies within half of it of the infimum
GRID_GAP = 1e-5
# a seesaw run stops when its penalty eigenvalue moves less than _TOL times
# the penalty scale (`WeightedPair.scale`), so the rule does not depend on
# the weights' magnitude, or after _MAX_ITER eigensolves, uncertified
_TOL = 1e-10
_MAX_ITER = 500
# branch-and-bound cells one weight may create before it gives up uncertified, in
# either proof; at GAP_TOL on the spin-1 box a lam = mu row takes 21 (alpha = 0) to 209
# (alpha = 0.5) intervals of radius, while a row 1e-9 off lam = mu still takes 44k
# (alpha = 0) to 19k (alpha = 0.5) triangles of the quarter box
_MAX_CELLS = 1 << 19
# rows per stacked eigensolve in the seesaw engine, and weights per
# branch-and-bound: a 201-point curve, one row a weight, fits one chunk
# many times over, and no input makes either hold more
_CHUNK = 4096

# the smallest |Hessian eigenvalue| a Newton step divides by, as a fraction
# of the seesaw's own curvature lam + mu; it bounds the step near a saddle
_CURVATURE_FLOOR = 0.01
# a ground-state gap at or below this, in units of the penalty scale, is
# rounding: the Hessian is then meaningless and the row takes the seesaw step
_GAP_FLOOR = 64 * np.finfo(float).eps


def _slack(dim: int) -> float:
    """Rounding slack of a penalty eigenvalue, in units of the penalty scale."""
    return 4.0 * dim**2 * np.finfo(float).eps


def _penalty_scale(m: MomentPair) -> float:
    """Largest entry of X2 - 2 x X1 + x^2 I over every mean x a state reaches.

    A mean obeys |x| <= ||X1|| <= dim max|X1_ij|, so entry magnitudes bound
    it without an eigensolve.
    """
    a1, a2 = np.abs([m.first.entries, m.second.entries]).max(axis=(1, 2)).tolist()
    reach = m.dim * a1
    return a2 + 2.0 * reach * a1 + reach * reach


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
        # every penalty eigenvalue is at most dim times its largest entry;
        # the factor 4 keeps sums and doubles of two bound values finite
        if not np.isfinite(4.0 * self.dim * self.scale):
            raise ValueError(f"weights ({lam}, {mu}) are too large: the penalty overflows float64")

    @property
    def dim(self) -> int:
        return self.x.dim

    @property
    def scale(self) -> float:
        """Bound on the penalty's entries over the means; the unit of its tolerances."""
        return self.lam * _penalty_scale(self.x) + self.mu * _penalty_scale(self.y)


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A local bound value with its minimizer and solver metadata.

    The value is the functional evaluated on the minimizer, less a
    rounding slack and clamped at 0 (`_certify`). Every result is a
    seesaw polish started from the lowest vertex of a branch-and-bound.
    `certified` says whether the value may serve as a separability bound;
    the rule that builds the result (`_certify`) sets it.
    `scale` is the pair's penalty scale, the unit in which the value may
    fall below zero by rounding (VALUE_FLOOR).
    """

    value: float
    minimizer: PureState
    means: Tuple[float, float]
    iterations: int
    converged: bool
    certified: bool = False
    scale: float = 1.0

    def __post_init__(self):
        if self.value < VALUE_FLOOR * self.scale:
            raise ValueError(f"bound value {self.value!r} below zero beyond tolerance")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "minimizer": self.minimizer.to_dict(),
            "means": [self.means[0], self.means[1]],
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """Lower boundary of the achievable variance region.

    Each traced point is the minimizer's variance pair at one weight
    lambda (with mu = 1 - lambda); the matching bound value defines a
    supporting line that no other certified point may undercut by more
    than SUPPORT_TOL, an absolute tolerance in the units of the bounds.
    `certified` holds each point's certified flag; an uncertified index
    is neither checked as a point nor used as a line.
    """

    points: Tuple[Tuple[float, float], ...]
    lambdas: Tuple[float, ...]
    bounds: Tuple[float, ...]
    certified: Tuple[bool, ...]

    def __post_init__(self):
        n = len(self.points)
        if not (len(self.lambdas) == len(self.bounds) == len(self.certified) == n):
            raise ValueError("field lengths differ")
        kept = np.flatnonzero(np.array(self.certified, dtype=bool))
        points = np.array(self.points, dtype=float).reshape(-1, 2)[kept]
        lams = np.array(self.lambdas, dtype=float)[kept]
        floors = np.array(self.bounds, dtype=float)[kept] - SUPPORT_TOL
        # blocks of points keep the (point, line) table near 2^20 entries
        step = max(1, (1 << 20) // max(kept.size, 1))
        for start in range(0, kept.size, step):
            block = points[start : start + step, :, None]
            under = lams * block[:, 0] + (1.0 - lams) * block[:, 1] < floors
            if under.any():
                # the first undercut in (point, line) order, each in input order
                i, j = divmod(int(np.argmax(under)), kept.size)
                (dx, dy), lam = self.points[kept[start + i]], self.lambdas[kept[j]]
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
    ops = (pair.x.first.entries, pair.x.second.entries, pair.y.first.entries, pair.y.second.entries)
    return HermitianOperator(_penalties(ops, pair.lam, pair.mu, float(x_bar), float(y_bar))[0])


def _penalties(ops, lam, mu, x, y) -> np.ndarray:
    """lam (X2 - 2 x X1 + x^2 I) + mu (Y2 - 2 y Y1 + y^2 I) of every row, shape (n, d, d).

    ops holds (X1, X2, Y1, Y2), each (d, d) or (n, d, d); lam, mu, x, y are scalars or (n,).
    """
    x1, x2, y1, y2 = ops
    lam, mu, x, y = (np.reshape(a, (-1, 1, 1)) for a in (lam, mu, x, y))
    eye = np.eye(x1.shape[-1])
    # float_power is libm pow, the rounding of a Python float's ** 2
    return lam * (x2 - 2.0 * x * x1 + np.float_power(x, 2) * eye) + mu * (
        y2 - 2.0 * y * y1 + np.float_power(y, 2) * eye
    )


def _spectral_box(x: MomentPair, y: MomentPair) -> Tuple[float, float, float, float]:
    (xlo, *_, xhi), (ylo, *_, yhi) = np.linalg.eigvalsh([x.first.entries, y.first.entries]).tolist()
    return xlo, xhi, ylo, yhi


def _expect(vecs: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Real expectations <v|op|v> of a stack of vectors, shape (n, d) -> (n,)."""
    # the contraction order of vec.conj() @ op @ vec, so each row's bits do
    # not depend on the batch it is solved in
    return ((vecs.conj()[:, None, :] @ op) @ vecs[:, :, None])[:, 0, 0].real


class _Descent(NamedTuple):
    """Per-row outcome of the seesaw engine."""

    vecs: np.ndarray  # (n, d) final ground states
    values: np.ndarray  # functional value of each ground state
    xm: np.ndarray  # its first-moment means
    ym: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    scale: np.ndarray  # the row's penalty scale

    def record(self, i: int, certified: bool) -> BoundResult:
        """Row i as a validated `BoundResult`."""
        return BoundResult(
            value=float(self.values[i]),
            minimizer=PureState(self.vecs[i]),
            means=(float(self.xm[i]), float(self.ym[i])),
            iterations=int(self.iterations[i]),
            converged=bool(self.converged[i]),
            certified=bool(certified),
            scale=float(self.scale[i]),
        )


class _Batch(NamedTuple):
    """Rows (lam, mu) as both engines take them, each carrying its box.

    A box is one party's moment pairs (x, y). ops[:, b] holds box b's
    (X1, X2, Y1, Y2) and scales[b] the penalty scales (`_penalty_scale`)
    of x and y. proof_spans[b] is the part of its span of means, the
    spectral box (xlo, xhi, ylo, yhi) of its (X1, Y1), that the
    branch-and-bound tiles: a side on which f is mirror symmetric to
    rounding shrinks to [0, max(hi, -lo)]. defects[b] holds the (x, y)
    terms of those mirrors' Weyl defects (`_mirrors`); a side kept whole
    adds none. rings[b] is box b's ring defect (`_ring`), the bound on how
    far f at lam = mu may differ from f at the radius of its means, in
    units of lam, or inf where the box has no ring; a row with lam == mu
    on a box with a ring is proven over that radius (`_ring_proof`). Row i
    belongs to box box[i].
    """

    ops: np.ndarray  # (4, boxes, d, d)
    scales: np.ndarray  # (boxes, 2)
    proof_spans: np.ndarray  # (boxes, 4)
    defects: np.ndarray  # (boxes, 2)
    rings: np.ndarray  # (boxes,)
    box: np.ndarray  # (rows,)
    lam: np.ndarray
    mu: np.ndarray

    def take(self, rows) -> "_Batch":
        """The batch of `rows`, an index array or a slice, with every box kept."""
        return self._replace(box=self.box[rows], lam=self.lam[rows], mu=self.mu[rows])

    def row_ops(self, rows) -> np.ndarray:
        """(X1, X2, Y1, Y2) of each of `rows`; a one-box batch broadcasts its (1, d, d) stacks."""
        return self.ops if self.ops.shape[1] == 1 else self.ops[:, self.box[rows]]

    def row_scales(self) -> np.ndarray:
        """Each row's penalty scale, lam times its box's X scale plus mu times its Y scale."""
        sx, sy = self.scales[self.box].T
        return self.lam * sx + self.mu * sy


# the signs of (X1, X2, Y1, Y2) under the mirror that halves each side:
# conjugation then the parity D = diag((-1)^k) maps the penalty P(x, y) to
# P(-x, y) when it negates X1 and keeps X2, Y1 and Y2; conjugation in the
# given basis maps P(x, y) to P(x, -y) when X1, X2, Y2 are real and Y1 is
# imaginary; shaped (side, op, box, row, column) to scale a stack of ops
_MIRROR_SIGNS = np.array([[-1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]]).reshape(2, 4, 1, 1, 1)


def _mirrors(ops: np.ndarray, spans: np.ndarray, scales: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each box's proof span and defect, from the two mirror symmetries of its f.

    The mirror of a side is an antiunitary U that sends each operator A
    to t A + dA, with t its sign in _MIRROR_SIGNS: dA is the exact residual
    of the image, D A* D (entries (-1)^(i + j) conj(a_ij)) on the x side and
    A* on the y side, less t A. U P(x, y) U^-1 then differs from the
    penalty at the mirrored means by lam (dX2 - 2 x dX1) + mu (dY2 - 2 y
    dY1), so by Weyl's inequality the mirror moves f by at most lam ex +
    mu ey, with ex = ||dX2||_F + 2 R_x ||dX1||_F, R_x the largest |mean| on
    the x side, and ey the same for y. A mirror whose ex and ey are at most
    the rounding slack (`_slack`) of the box's two penalty scales halves
    its side when the side's span holds 0: the proof tiles [0, max(hi,
    -lo)] there, which holds |x| for every x of the span, and its lower
    bound less the defects of the mirrors used bounds f on the whole span.

    Returns the proof spans (boxes, 4) and the summed (ex, ey) of the
    mirrors used (boxes, 2), zero for a box that uses none.
    """
    dim = ops.shape[-1]
    # the sign D A* D gives entry (i, j) of A*, (-1)^(i + j), on the x side; 1 on the y side
    parity = np.ones((2, 1, 1, dim, dim))
    parity[0, ..., 1::2, ::2] = parity[0, ..., ::2, 1::2] = -1.0
    # dA of each (side, op, box), its entries in one row
    residuals = (parity * ops.conj() - _MIRROR_SIGNS * ops).reshape(2, 4, -1, dim * dim)
    # ||dA||_F, vecdot summing |dA_ij|^2; a batch holds a box or two, so the rest is scalar arithmetic
    norms = np.sqrt(np.vecdot(residuals, residuals).real).tolist()
    slack = _slack(dim)
    proof_spans, defects = spans.tolist(), []
    for b, (span, (sx, sy)) in enumerate(zip(proof_spans, scales.tolist())):
        reach = [max(span[1], -span[0]), max(span[3], -span[2])]
        total = [0.0, 0.0]
        for side, (d1x, d2x, d1y, d2y) in enumerate(norms):
            ex = d2x[b] + 2.0 * reach[0] * d1x[b]
            ey = d2y[b] + 2.0 * reach[1] * d1y[b]
            if ex <= slack * sx and ey <= slack * sy and span[2 * side] <= 0.0 <= span[2 * side + 1]:
                span[2 * side : 2 * side + 2] = 0.0, reach[side]
                total = [total[0] + ex, total[1] + ey]
        defects.append(total)
    return np.array(proof_spans), np.array(defects)


def _ring(ops: np.ndarray, spans: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Each box's ring defect: how far, in units of lam, f at lam = mu may move under a rotation of its means.

    The candidate generator is J = -i [X1, Y1] / c, with c the least-squares
    fit of [J, X1] = i Y1, made exactly Hermitian; for the noisy spin-1 box
    -i [X1, Y1] = eta^2 L_Z and J = L_Z. Let E1 = [J, X1] - i Y1, E2 = [J,
    Y1] + i X1 and E3 = [J, X2 + Y2] be the exact residuals, and U(t) =
    exp(-i t J). Along the path a(t) + i b(t) = r e^(i (phi + t)) the means
    rotate, and G(t) = U(t)^* (a X1 + b Y1) U(t) has G'(t) = U^* i (a E1 + b
    E2) U, so ||G(t) - G(0)|| <= |t| r (||E1|| + ||E2||); likewise U^* (X2 +
    Y2) U moves by at most |t| ||E3||. At lam = mu the penalty is lam (X2 +
    Y2 - 2 x X1 - 2 y Y1 + r^2), so rotating the means (x, y) = r e^(i phi)
    onto (r, 0), |t| <= pi, conjugates the penalty at (r, 0) to within lam
    pi (||E3|| + 2 r (||E1|| + ||E2||)) of the penalty at (x, y), and by
    Weyl's inequality |f(x, y) - f(r, 0)| is at most that, with r at most
    R, the largest radius of the spectral box. Each norm is the computed
    Frobenius norm plus its rounding: each entry of a product J A sums 2d
    real products, so it is within gamma_2d (|J| |A|) of exact, |.| taking
    |Re| + |Im| entrywise; the subtractions and the rounding of X2 + Y2 add
    one eps / 2 each, so each residual is within (d + 1) eps || |J| |A| + |A|
    |J| ||_F of the computed one, to first order (the rest is of order
    eps^2 of it, far below the slack the proof subtracts). The defect is
    pi (e3 + 2 R (e1 + e2)) with e the bounded norms. A ring is kept when
    the defect is within the rounding slack (`_slack`) of the sum of the
    box's two penalty scales, so lam times it is within the slack of a lam
    = mu row's scale; a random POVM box fails that. It is also dropped
    when ||[X1, Y1]||_F is rounding dust, within the slack of the
    geometric mean of those scales: at alpha = 1, or for X1 = 0, J would be
    fitted to dust, or not at all.

    Of `spans` only each side's largest |mean| is read, which a proof span
    (`_mirrors`) keeps. Returns the defect of each box (boxes,), inf where
    it has no ring.
    """
    dim = ops.shape[-1]
    x1, x2, y1, y2 = ops
    slack = _slack(dim)
    sx, sy = scales.T

    def frobenius(m):
        flat = m.reshape(m.shape[:-2] + (dim * dim,))
        return np.sqrt(np.vecdot(flat, flat).real)

    comm = x1 @ y1 - y1 @ x1
    # a dust commutator can make c zero or J huge; such a box gets no ring, so its NaNs are dropped
    with np.errstate(all="ignore"):
        k = -1j * comm
        kx = k @ x1 - x1 @ k
        c = np.vecdot((1j * y1).reshape(-1, dim * dim), kx.reshape(-1, dim * dim)).real / frobenius(y1) ** 2
        j = k / c[:, None, None]
        j = 0.5 * (j + j.conj().swapaxes(-1, -2))
        # [J, A] less its target, for A = X1, Y1 and X2 + Y2
        a = np.stack([x1, y1, x2 + y2])
        res = j @ a - a @ j
        res[0] -= 1j * y1
        res[1] += 1j * x1
        aj, aa = np.abs(j.real) + np.abs(j.imag), np.abs(a.real) + np.abs(a.imag)
        e1, e2, e3 = frobenius(res) + (dim + 1) * np.finfo(float).eps * frobenius(aj @ aa + aa @ aj)
        reach = np.abs(spans).reshape(-1, 2, 2).max(axis=2)
        defect = np.pi * (e3 + 2.0 * np.hypot(reach[:, 0], reach[:, 1]) * (e1 + e2))
        kept = (frobenius(comm) > slack * np.sqrt(sx * sy)) & (defect <= slack * (sx + sy))
    return np.where(kept, defect, np.inf)


def _batch(pairs: Sequence[WeightedPair]) -> _Batch:
    """The batch of `pairs`; a run of consecutive pairs sharing their moment pairs is one box.

    Each box's operators, spectral box, penalty scales, mirror
    symmetries (`_mirrors`) and, where one of its rows has lam == mu, its
    ring (`_ring`) are gathered here, once, however many routes and chunks
    then read them.
    """
    if not pairs:
        raise ValueError("no weighted pairs given")
    boxes, box = [], []
    for pair in pairs:
        if not boxes or boxes[-1][0] is not pair.x or boxes[-1][1] is not pair.y:
            boxes.append((pair.x, pair.y))
        box.append(len(boxes) - 1)
    ops = np.array([[x.first.entries, x.second.entries, y.first.entries, y.second.entries] for x, y in boxes])
    ops = ops.swapaxes(0, 1)
    spans = np.array([_spectral_box(x, y) for x, y in boxes])
    scales = np.array([(_penalty_scale(x), _penalty_scale(y)) for x, y in boxes])
    box, lam, mu = np.array(box, dtype=int), np.array([p.lam for p in pairs]), np.array([p.mu for p in pairs])
    # only a lam = mu row reads its box's ring, so only such a box measures one
    even = np.zeros(len(boxes), dtype=bool)
    even[box[lam == mu]] = True
    rings = np.full(len(boxes), np.inf)
    if even.any():
        rings[even] = _ring(ops[:, even], spans[even], scales[even])
    return _Batch(ops, scales, *_mirrors(ops, spans, scales), rings, box, lam, mu)


def _in_chunks(engine, batch: _Batch, *per_row: np.ndarray, **fixed):
    """`engine(batch, *per_row, **fixed)` on chunks of _CHUNK rows, its fields joined in row order.

    Memory then does not grow with the number of rows; no row reads
    another's values in either engine, so chunks do not change them.
    """
    parts = [
        engine(batch.take(k), *(a[k] for a in per_row), **fixed)
        for k in (slice(lo, lo + _CHUNK) for lo in range(0, batch.lam.size, _CHUNK))
    ]
    return type(parts[0])(*(np.concatenate(field) for field in zip(*parts)))


def _seesaw_rows(batch: _Batch, x0: np.ndarray, y0: np.ndarray) -> _Descent:
    """Second-order seesaw descent of every row (lam, mu) of `batch` from (x0, y0) at once.

    Each step stacks the active rows' penalty operators at their current
    means, each built from its row's operators (`_Batch.row_ops`), and takes
    all eigenpairs from one batched eigensolve. The ground state v has
    V(v) = w0 - lam (x_bar - <X1>)^2 - mu (y_bar - <Y1>)^2. A trial
    reached by a Newton step is accepted only if its V is no larger than
    that of the last accepted state; otherwise the row takes the seesaw
    step from the accepted state (means := its expectations, so
    V(v_next) <= f(means) <= V(v)), and the step after that too. From an
    accepted state the next means are a saddle-free Newton step
    (`_newton_step`), or the seesaw step when it is not usable. V is thus
    non-increasing. A row stops when an accepted eigenvalue moves less
    than _TOL times its penalty scale, or after _MAX_ITER eigensolves, and
    drops out of the batch; it reports its last accepted state. Each row
    repeats the floating-point operations of a one-row run in the same
    order, so its result does not depend on the batch or the other boxes.
    The rows are one chunk; `_in_chunks` runs more.
    """
    n, dim = batch.lam.size, batch.ops.shape[-1]
    scale = batch.row_scales()
    vecs = np.empty((n, dim), dtype=complex)
    xm, ym = np.empty(n), np.empty(n)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    rows, lw, mw = np.arange(n), batch.lam, batch.mu
    lr, mr, sr = lw / scale, mw / scale, scale
    # the means of the next eigensolve, and whether they are a Newton trial
    x_bar, y_bar = x0, y0
    newton = np.zeros(n, dtype=bool)
    hold = np.zeros(n, dtype=bool)
    # the last accepted ground state: eigenvalue, V, vector, expectations
    acc_w = np.full(n, np.inf)
    acc_val = np.full(n, np.inf)
    acc_v = np.empty((n, dim), dtype=complex)
    acc_x, acc_y = np.empty(n), np.empty(n)
    for it in range(1, _MAX_ITER + 1):
        ops = x1, _, y1, _ = batch.row_ops(rows)
        w, basis = np.linalg.eigh(_penalties(ops, lw, mw, x_bar, y_bar))
        w = w / sr[:, None]
        # ascending order makes the degenerate tie-break deterministic
        v = basis[:, :, 0]
        # <v|X1 and <v|Y1, the contraction order of `_expect`
        vc = v.conj()[:, None, :]
        rx, ry = vc @ x1, vc @ y1
        xe = (rx @ v[:, :, None])[:, 0, 0].real
        ye = (ry @ v[:, :, None])[:, 0, 0].real
        dx, dy = x_bar - xe, y_bar - ye
        val = w[:, 0] - lr * dx * dx - mr * dy * dy
        ok = ~newton | (val <= acc_val)
        stop = ok & (np.abs(acc_w - w[:, 0]) < _TOL)
        acc_w, acc_val = np.where(ok, w[:, 0], acc_w), np.where(ok, val, acc_val)
        acc_v[ok], acc_x[ok], acc_y[ok] = v[ok], xe[ok], ye[ok]
        done = stop | (it == _MAX_ITER)
        out = rows[done]
        vecs[out] = acc_v[done]
        xm[out], ym[out] = acc_x[done], acc_y[done]
        iterations[out] = it
        converged[out] = stop[done]
        keep = ~done
        if not keep.any():
            break
        # a rejected trial returns to the seesaw step from the accepted
        # state, and the step after that is a seesaw step too
        step_x, step_y, usable = _newton_step(lr, mr, w, basis, rx, ry, dx, dy)
        newton = ok & ~hold & usable
        hold = ~ok
        x_bar = np.where(newton, x_bar + step_x, acc_x)
        y_bar = np.where(newton, y_bar + step_y, acc_y)
        rows, lw, mw, lr, mr, sr, x_bar, y_bar, newton, hold, acc_w, acc_val, acc_v, acc_x, acc_y = (
            a[keep]
            for a in (
                rows, lw, mw, lr, mr, sr, x_bar, y_bar, newton, hold, acc_w, acc_val, acc_v, acc_x, acc_y
            )
        )
    _, x2, _, y2 = batch.row_ops(slice(None))
    values = batch.lam * (_expect(vecs, x2) - xm * xm) + batch.mu * (_expect(vecs, y2) - ym * ym)
    return _Descent(vecs, values, xm, ym, iterations, converged, scale)


def _newton_step(lr, mr, w, basis, rx, ry, dx, dy):
    """Saddle-free Newton step on f = lambda_min(penalty) at each row's means.

    Weights and eigenvalues are in units of the penalty scale. With
    p_k = <v_k|X1|v_0> and q_k = <v_k|Y1|v_0> (rx @ basis holds their
    conjugates), the gradient is g = 2 (lr dx, mr dy) and the Hessian
    H = 2 diag(lr, mr) - 8 sum_k Re[(lr p_k, mr q_k)^T (lr p_k, mr q_k)^*]
    / (w_k - w_0). The step is -|H|^-1 g, where |H| takes the absolute
    values of H's eigenvalues, floored at _CURVATURE_FLOOR (lr + mr).
    Returns the step and whether it is usable: a ground-state gap above
    _GAP_FLOOR and a finite step.
    """
    dim = w.shape[1]
    gap = w[:, 1] - w[:, 0]
    fine = gap > _GAP_FLOOR
    px = rx @ basis
    py = ry @ basis
    sxx = np.zeros(w.shape[0])
    sxy = np.zeros(w.shape[0])
    syy = np.zeros(w.shape[0])
    for k in range(1, dim):
        den = np.where(fine, w[:, k] - w[:, 0], 1.0)
        a, b = px[:, 0, k], py[:, 0, k]
        sxx = sxx + (a.real * a.real + a.imag * a.imag) / den
        sxy = sxy + (a.real * b.real + a.imag * b.imag) / den
        syy = syy + (b.real * b.real + b.imag * b.imag) / den
    hxx = 2.0 * lr - 8.0 * lr * lr * sxx
    hyy = 2.0 * mr - 8.0 * mr * mr * syy
    hxy = -8.0 * lr * mr * sxy
    half = 0.5 * (hxx - hyy)
    mean = 0.5 * (hxx + hyy)
    r = np.sqrt(half * half + hxy * hxy)
    floor = _CURVATURE_FLOOR * (lr + mr)
    f1 = 1.0 / np.maximum(np.abs(mean - r), floor)
    f2 = 1.0 / np.maximum(np.abs(mean + r), floor)
    split = r > 0.0
    safe = np.where(split, r, 1.0)
    c2 = np.where(split, half / safe, 1.0)
    s2 = np.where(split, hxy / safe, 0.0)
    gx, gy = 2.0 * lr * dx, 2.0 * mr * dy
    k = f2 - f1
    sx = -(f1 * gx + k * (0.5 * ((1.0 + c2) * gx + s2 * gy)))
    sy = -(f1 * gy + k * (0.5 * (s2 * gx + (1.0 - c2) * gy)))
    fine = fine & np.isfinite(sx) & np.isfinite(sy)
    return sx, sy, fine


class _Proof(NamedTuple):
    """Per-row outcome of the branch-and-bound."""

    lower: np.ndarray  # proven lower bound on the infimum
    xm: np.ndarray  # means of the lowest vertex evaluated
    ym: np.ndarray


def _edge_lower(fp: np.ndarray, fq: np.ndarray, a: np.ndarray) -> np.ndarray:
    """min over t in [0, 1] of (1 - t) fp + t fq - a t (1 - t), for a >= 0."""
    d = fq - fp
    inner = np.abs(d) < a
    ratio = (a - d) / np.where(inner, 4.0 * a, 1.0)
    return np.where(inner, fp - (a - d) * ratio, np.minimum(fp, fq))


def _cell_lower(
    f: np.ndarray, dx: np.ndarray, dy: np.ndarray, lam: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Lower bound of f = g + lam x^2 + mu y^2 on each triangle of means.

    f holds the values at the three vertices, (dx, dy) the edges from
    vertex 0 to vertices 1 and 2. g is concave, so it lies above its
    affine interpolant; that plus the quadratic is, in barycentric
    coordinates (s, t), the convex quadratic
    f0 + s (D1 - Q1) + t (D2 - Q2) + Q(s d1 + t d2), with D = f - f0 and
    Q(d) = lam dx^2 + mu dy^2. Its minimum lies on an edge, where it has a
    closed form, or at the interior stationary point.
    """
    q1 = lam * dx[:, 0] ** 2 + mu * dy[:, 0] ** 2
    q2 = lam * dx[:, 1] ** 2 + mu * dy[:, 1] ** 2
    q12 = lam * (dx[:, 1] - dx[:, 0]) ** 2 + mu * (dy[:, 1] - dy[:, 0]) ** 2
    b = lam * dx[:, 0] * dx[:, 1] + mu * dy[:, 0] * dy[:, 1]
    f0, f1, f2 = f[:, 0], f[:, 1], f[:, 2]
    low = np.minimum(
        np.minimum(_edge_lower(f0, f1, q1), _edge_lower(f0, f2, q2)), _edge_lower(f1, f2, q12)
    )
    g1, g2 = f1 - f0 - q1, f2 - f0 - q2
    det = q1 * q2 - b * b
    pd = det > 0.0
    safe = np.where(pd, det, 1.0)
    s = -0.5 * (q2 * g1 - b * g2) / safe
    t = -0.5 * (q1 * g2 - b * g1) / safe
    inside = pd & (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    # evaluated at the solved point, so a rounding error in (s, t) only
    # enters to second order
    mid = f0 + s * g1 + t * g2 + s * s * q1 + t * t * q2 + 2.0 * s * t * b
    return np.where(inside, np.minimum(low, mid), low)


def _run_heads(*keys: np.ndarray) -> np.ndarray:
    """Mask of the entries that start a run of equal (keys[0][i], keys[1][i], ...).

    The keys must be sorted together, so that equal tuples are adjacent.
    """
    head = np.zeros(keys[0].shape[0], dtype=bool)
    head[:1] = True
    for key in keys:
        head[1:] |= key[1:] != key[:-1]
    return head


def _keep_lowest(best: np.ndarray, rows: np.ndarray, cand: np.ndarray) -> None:
    """Each row's lexicographic minimum of its `best` vertex (f, coordinates) and its `cand`, in place.

    Row i's candidates are the entries of `cand` with rows == i; the
    lexicographic order breaks ties, so they do not depend on the batch.
    """
    joined = np.concatenate([best, cand])
    owner = np.concatenate([np.arange(best.shape[0]), rows])
    order = np.lexsort((*joined.T[::-1], owner))
    best[:] = joined[order[_run_heads(owner[order])]]


def _branch_and_bound(batch: _Batch, upper: np.ndarray, gap: float) -> _Proof:
    """Proven lower bounds on inf V for every row (lam, mu) of `batch`, solved together.

    For a row of box b, inf V is the minimum over the span spans[b] of
    the means of f = g + lam x^2 + mu y^2, g = lambda_min(lam X2 + mu Y2
    - 2 lam x X1 - 2 mu y Y1). The proof tiles the box's proof span
    proof_spans[b], which is a half or a quarter of the span where f is
    mirror symmetric (`_mirrors`), and subtracts the row's mirror defect
    lam ex + mu ey along with the rounding slack; a box without mirrors
    tiles its whole span, less nothing. The proof span is split into right
    triangles; `_cell_lower` bounds f on each. Every evaluated f is an upper bound, as is the
    row's `upper` (a polished value, or +inf). A cell is pruned once its
    bound lies within gap / 2 of the row's best upper bound, so a row that
    ends by pruning has its lowest vertex within gap / 2 plus the slack of
    the infimum. Every surviving cell is bisected through its hypotenuse,
    its longest edge in units of the box, and the new vertices of all rows
    are evaluated in one `eigvalsh` call per round, each penalty built from
    its row's operators (`_Batch.row_ops`). One sort of the new
    vertices by (row, u, v) per round finds those that neighbouring cells
    share, so each vertex is evaluated once. A row stops at
    _MAX_CELLS cells with the bound its cells give so far. Each row works
    in units of its penalty scale, so the result does not depend on the
    weights' magnitude, and subtracts a rounding slack of a few eps. Rows
    do not interact, so a row's result does not depend on the batch. The
    rows are one chunk; `_in_chunks` runs more.
    """
    scale = batch.row_scales()
    lam, mu, upper = batch.lam / scale, batch.mu / scale, upper / scale
    n = lam.shape[0]
    row_xlo, row_xhi, row_ylo, row_yhi = batch.proof_spans[batch.box].T
    row_wx, row_wy = row_xhi - row_xlo, row_yhi - row_ylo
    ex, ey = batch.defects[batch.box].T

    def evaluate(rows, u, v):
        # u, v are the means in units of the box, exact dyadic fractions
        x1, x2, y1, y2 = batch.row_ops(rows)
        xb = row_xlo[rows] + u * row_wx[rows]
        yb = row_ylo[rows] + v * row_wy[rows]
        lr, mr = lam[rows], mu[rows]
        pen = (
            lr[:, None, None] * x2
            + mr[:, None, None] * y2
            - (2.0 * lr * xb)[:, None, None] * x1
            - (2.0 * mr * yb)[:, None, None] * y1
        )
        return np.linalg.eigvalsh(pen)[:, 0] + lr * xb * xb + mr * yb * yb

    best = np.zeros((n, 3))  # (f, u, v) of each row's lowest vertex
    best[:, 0] = np.inf
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rows = np.repeat(np.arange(n), 4)
    fc = evaluate(rows, np.tile(corners[:, 0], n), np.tile(corners[:, 1], n))
    _keep_lowest(best, rows, np.column_stack([fc, np.tile(corners, (n, 1))]))
    # two triangles per row, vertices ordered (a, b, c) with the right angle at b
    tri = np.array([[0, 1, 2], [0, 3, 2]])
    rows = np.repeat(np.arange(n), 2)
    uv = np.tile(corners[tri], (n, 1, 1))
    fv = fc.reshape(n, 4)[:, tri].reshape(-1, 3)
    lower = np.full(n, np.inf)
    cells = np.full(n, 2)
    while rows.size:
        upper = np.minimum(upper, best[:, 0])
        edges = uv[:, 1:] - uv[:, :1]
        low = _cell_lower(
            fv,
            edges[..., 0] * row_wx[rows, None],
            edges[..., 1] * row_wy[rows, None],
            lam[rows],
            mu[rows],
        )
        split = low < upper[rows] - 0.5 * gap
        cells += 2 * np.bincount(rows[split], minlength=n)
        split &= cells[rows] <= _MAX_CELLS
        np.minimum.at(lower, rows[~split], low[~split])
        rows, uv, fv = rows[split], uv[split], fv[split]
        if not rows.size:
            break
        # the new vertex halves the hypotenuse a-c; one sort by (row, u, v)
        # brings together the cells that share a vertex, which is evaluated once
        mid = 0.5 * (uv[:, 0] + uv[:, 2])
        order = np.lexsort((mid[:, 1], mid[:, 0], rows))
        key_rows, key_u, key_v = rows[order], mid[order, 0], mid[order, 1]
        head = _run_heads(key_rows, key_u, key_v)
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(head) - 1
        key_rows, key_u, key_v = key_rows[head], key_u[head], key_v[head]
        fk = evaluate(key_rows, key_u, key_v)
        _keep_lowest(best, key_rows, np.column_stack([fk, key_u, key_v]))
        # children (a, mid, b) and (b, mid, c), each with the right angle at mid
        m = rows.size
        child_uv, child_f = np.empty((2 * m, 3, 2)), np.empty((2 * m, 3))
        child_uv[:m, 0], child_uv[m:, 0] = uv[:, 0], uv[:, 1]
        child_uv[:m, 1] = child_uv[m:, 1] = mid
        child_uv[:m, 2], child_uv[m:, 2] = uv[:, 1], uv[:, 2]
        child_f[:m, 0], child_f[m:, 0] = fv[:, 0], fv[:, 1]
        child_f[:m, 1] = child_f[m:, 1] = fk[inverse]
        child_f[:m, 2], child_f[m:, 2] = fv[:, 1], fv[:, 2]
        uv, fv, rows = child_uv, child_f, np.concatenate([rows, rows])
    return _Proof(
        lower=(lower - _slack(batch.ops.shape[-1]) - (lam * ex + mu * ey)) * scale,
        xm=row_xlo + best[:, 1] * row_wx,
        ym=row_ylo + best[:, 2] * row_wy,
    )


def _ring_proof(batch: _Batch, upper: np.ndarray, gap: float) -> _Proof:
    """Proven lower bounds on inf V for rows with lam = mu on boxes with a ring, over the radius alone.

    On such a box f(x, y) lies within lam times the ring defect (`_ring`)
    of f(r, 0), r = |(x, y)|, for every pair of means of the span, whose
    radii are at most R, the largest radius of the spectral box. So the
    proof tiles r in [0, R] at means (r, 0), in intervals. Along the ray f =
    g + lam r^2 with g concave, so on a cell [r0, r1] f lies above the chord
    of its end values less lam (r1 - r0)^2 t (1 - t), whose minimum
    `_edge_lower` gives. Pruning, the _MAX_CELLS cap, the units of the
    penalty scale and the rounding slack are those of `_branch_and_bound`,
    and the lower bound also subtracts lam times the ring defect. Each
    round bisects every surviving cell and evaluates its midpoint, which
    no other cell shares, in one `eigvalsh` call for all rows. The lowest
    vertex is the lexicographic (f, r) minimum, returned as means (r, 0).
    Rows do not interact, so a row's result does not depend on the batch.
    The rows are one chunk; `_in_chunks` runs more.
    """
    scale = batch.row_scales()
    lam, upper = batch.lam / scale, upper / scale
    n = lam.shape[0]
    # R from each side's largest |mean|, which a mirror-halved proof span keeps
    radius = np.hypot(*np.abs(batch.proof_spans[batch.box]).reshape(n, 2, 2).max(axis=2).T)

    def evaluate(rows, t):
        # t is the radius in units of R, an exact dyadic fraction
        x1, x2, _, y2 = batch.row_ops(rows)
        r, lr = t * radius[rows], lam[rows]
        pen = lr[:, None, None] * (x2 + y2) - (2.0 * lr * r)[:, None, None] * x1
        return np.linalg.eigvalsh(pen)[:, 0] + lr * r * r

    best = np.zeros((n, 2))  # (f, t) of each row's lowest vertex
    best[:, 0] = np.inf
    rows, t0, t1 = np.arange(n), np.zeros(n), np.ones(n)
    f0, f1 = evaluate(rows, t0), evaluate(rows, t1)
    for t, f in ((t0, f0), (t1, f1)):
        _keep_lowest(best, rows, np.column_stack([f, t]))
    lower = np.full(n, np.inf)
    cells = np.ones(n, dtype=int)
    while rows.size:
        upper = np.minimum(upper, best[:, 0])
        width = (t1 - t0) * radius[rows]
        low = _edge_lower(f0, f1, lam[rows] * width * width)
        split = low < upper[rows] - 0.5 * gap
        cells += 2 * np.bincount(rows[split], minlength=n)
        split &= cells[rows] <= _MAX_CELLS
        np.minimum.at(lower, rows[~split], low[~split])
        rows, t0, t1, f0, f1 = rows[split], t0[split], t1[split], f0[split], f1[split]
        if not rows.size:
            break
        mid = 0.5 * (t0 + t1)
        fm = evaluate(rows, mid)
        _keep_lowest(best, rows, np.column_stack([fm, mid]))
        # children [t0, mid] and [mid, t1]
        t0, t1 = np.concatenate([t0, mid]), np.concatenate([mid, t1])
        f0, f1 = np.concatenate([f0, fm]), np.concatenate([fm, f1])
        rows = np.concatenate([rows, rows])
    return _Proof(
        lower=(lower - _slack(batch.ops.shape[-1]) - lam * batch.rings[batch.box]) * scale,
        xm=best[:, 1] * radius,
        ym=np.zeros(n),
    )


def _prove(batch: _Batch, upper: np.ndarray, gap: float) -> _Proof:
    """The proof of every row of `batch`, each by its route, in row order.

    A row with lam == mu exactly on a box with a ring (`_Batch.rings`) goes
    to `_ring_proof`, every other row to `_branch_and_bound`; each route
    runs on chunks (`_in_chunks`). Neither reads another row, so no row's
    result depends on its batch.
    """
    ring = (batch.lam == batch.mu) & np.isfinite(batch.rings[batch.box])
    proof = _Proof(*np.empty((3, batch.lam.size)))
    for engine, rows in ((_ring_proof, np.flatnonzero(ring)), (_branch_and_bound, np.flatnonzero(~ring))):
        if rows.size:
            part = _in_chunks(engine, batch.take(rows), upper[rows], gap=gap)
            for field, new in zip(proof, part):
                field[rows] = new
    return proof


def _certify(batch: _Batch) -> Tuple[_Descent, np.ndarray]:
    """The one rule behind every bound: each row of `batch` solved and judged, as arrays.

    One proof from the box alone (upper bound +inf) at the coarse gap
    GRID_GAP runs every row (`_prove`: the ring proof for a row with lam
    == mu on a box with a ring, the branch-and-bound for every other row),
    and one seesaw batch polishes the lowest vertex each row's proof
    found. That vertex lies within GRID_GAP / 2 plus a rounding slack of
    the infimum, in units of the penalty scale, and the polish only lowers
    V, so a converged polish ends within that much of the infimum in
    value; it is certified. That
    is all it promises: near a knee, where two branches of local minima
    come within GRID_GAP / 2 of each other, the vertex can lie in the
    wrong basin, and the polish converges at a local minimum above the
    infimum. `varwit witness --tuple 0.8599207990389836,0.4473465418192297
    --alpha 0.11013211899741604 --lambda 0.307333`, a separable tuple on
    the bound, is detected that way, margin 2.34e-5 (ROADMAP item 2 gives
    every row a proof at GAP_TOL instead). Every row
    whose polish stalled goes through one more batched proof, routed the
    same way, at GAP_TOL with its value as the upper bound, and a second
    polish from the lowest point that proof evaluated. The lower of the two
    values is kept, ties going to the second, so the value is always V at
    a real minimizer; it is certified when the proven lower bound lies
    within GAP_TOL times the penalty scale of it. On a mirror symmetric
    box (`_mirrors`) the proofs tile only means >= 0 on each symmetric
    side, so the minimizer may be the mirror image of the one the whole
    box would give; a ring proof's polish starts at means (r, 0), so its
    minimizer is the one of the ring that lies there. No row reads
    another's values, so a row's result does not depend on the batch.

    Returns the rows, their values lowered by the rounding slack of a
    penalty eigenvalue, 4 dim^2 eps of the penalty scale, and clamped at
    0, and which of them are certified. Where the exact bound is linear in
    lambda, rounding would otherwise put V an ulp above it as often as
    below, and a tuple on that facet would be detected by rounding alone;
    a variance sum is never negative, so the clamp keeps a lower bound.
    """
    if not batch.lam.size:
        raise ValueError("no weighted pairs given")
    proof = _prove(batch, np.full(batch.lam.size, np.inf), GRID_GAP)
    rows = _in_chunks(_seesaw_rows, batch, proof.xm, proof.ym)
    certified = rows.converged.copy()
    todo = np.flatnonzero(~certified)
    if todo.size:
        stalled = batch.take(todo)
        proof = _prove(stalled, rows.values[todo], GAP_TOL)
        polish = _in_chunks(_seesaw_rows, stalled, proof.xm, proof.ym)
        # the lower value is kept, ties going to the second polish
        take = ~(polish.values > rows.values[todo])
        for field, new in zip(rows, polish):
            field[todo[take]] = new[take]
        certified[todo] = proof.lower >= rows.values[todo] - GAP_TOL * rows.scale[todo]
    values = np.maximum(rows.values - _slack(batch.ops.shape[-1]) * rows.scale, 0.0)
    return rows._replace(values=values), certified


def local_bounds(pairs: Sequence[WeightedPair]) -> List[BoundResult]:
    """The bound of every pair (`_certify`), solved in one batch, one record per pair.

    Pairs that share their moment pairs with their neighbour form one
    box, whose operators, spectral box, penalty scales and proof span are
    gathered once. No row reads another's values, so each record equals
    the one-pair `certified_bound` bit for bit.
    """
    rows, certified = _certify(_batch(pairs))
    return [rows.record(i, certified[i]) for i in range(len(pairs))]


def certified_bound(pair: WeightedPair) -> BoundResult:
    """The bound of `pair` (`_certify`): the one-pair case of `local_bounds`."""
    return local_bounds([pair])[0]


def seesaw_bound(pair: WeightedPair) -> BoundResult:
    """`certified_bound` of `pair`, as `bound --method seesaw` prints it.

    Every descent is a second-order seesaw (`_seesaw_rows`) from a proven
    vertex, so the seesaw route is the certified route.
    """
    return certified_bound(pair)


def _certified_curve(x: MomentPair, y: MomentPair, lams: Sequence[float]) -> Tuple[_Descent, np.ndarray]:
    """`certified_bound` at weights (lam, 1 - lam) for every lam in [0, 1], solved together.

    The box is validated once, by its pairs at lam = 0 and lam = 1: every
    weight between them passes the same checks, its penalty scale lying
    between theirs; its ring, which neither end reads, is measured for
    the weight at lam = 1/2. One `_certify` batch covers every weight.
    Returns the rows it keeps and their certified flags; no record is built.
    """
    ends = _batch([WeightedPair(0.0, 1.0, x, y), WeightedPair(1.0, 0.0, x, y)])
    lam = np.array(lams, dtype=float)
    every_lam = ends._replace(
        rings=_ring(ends.ops, ends.proof_spans, ends.scales), box=np.zeros(lam.size, dtype=int), lam=lam, mu=1.0 - lam
    )
    return _certify(every_lam)


def _variances(vecs: np.ndarray, m: MomentPair) -> np.ndarray:
    """Outcome variance of a measurement in each of a stack of pure states."""
    first = _expect(vecs, m.first.entries)
    return _expect(vecs, m.second.entries) - first * first


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


def trace_region(x: MomentPair, y: MomentPair, lambdas: Sequence[float]) -> RegionBoundary:
    """Trace the lower-left boundary of the achievable variance region.

    For each lambda (mu = 1 - lambda) the certified bound is solved and
    the minimizer's variance pair recorded; each bound value acts as a
    supporting line for the whole set of certified points. A solve that
    does not certify is kept as a flagged point rather than raised. The
    lambdas are solved in one batch and each point is read off its arrays,
    bit for bit the variances of `certified_bound`'s minimizer.
    """
    lams = [float(l) for l in lambdas]
    if any(not 0.0 < l < 1.0 for l in lams):
        raise ValueError("lambdas must lie strictly inside (0, 1)")
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambdas must be sorted ascending")
    rows, certified = _certified_curve(x, y, lams)
    return RegionBoundary(
        points=tuple(zip(_variances(rows.vecs, x).tolist(), _variances(rows.vecs, y).tolist())),
        lambdas=tuple(lams),
        bounds=tuple(rows.values.tolist()),
        certified=tuple(certified.tolist()),
    )


def sep_bound_curve(x: MomentPair, y: MomentPair, num: int = 201) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separability bound c(lambda) on a uniform lambda grid over [0, 1].

    Returns the grid, the two-party bound for identical parties (twice the
    certified local bound) and each point's certified flag. Window
    extraction interpolates this cache linearly rather than re-solving per
    query. The weights are solved in one batch (`_certify`), with no
    record per weight.
    """
    lams = np.linspace(0.0, 1.0, num)
    rows, certified = _certified_curve(x, y, lams)
    return lams, 2.0 * rows.values, certified
