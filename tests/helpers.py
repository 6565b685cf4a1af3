"""Random object builders shared by the test modules."""

import math
from contextlib import contextmanager

import numpy as np

from varwit import DensityMatrix, HermitianOperator, NoiseChannel, Povm, PureState, bounds


@contextmanager
def capped_seesaw(steps):
    """Stop every seesaw run after at most `steps` eigensolves inside the block."""
    saved = bounds._MAX_ITER
    bounds._MAX_ITER = steps
    try:
        yield
    finally:
        bounds._MAX_ITER = saved


def raw_grid_route(pair):
    """The first step of every bound, alone: the GRID_GAP proof from the box, then one polish.

    No stall proof and no rounding slack: the record is the polish as it
    stopped, certified when it converged.
    """
    b = bounds._batch([pair])
    proof = bounds._prove(b, np.full(1, np.inf), bounds.GRID_GAP)
    rows = bounds._in_chunks(bounds._seesaw_rows, b, proof.xm, proof.ym)
    return rows.record(0, rows.converged[0])


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2.0)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_povm(rng, dim, n_elements):
    """A random POVM from normalized Wishart blocks, with random real outcomes."""
    blocks = []
    for _ in range(n_elements):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ g.conj().T)
    total = np.sum(blocks, axis=0)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    elements = [inv_sqrt @ b @ inv_sqrt for b in blocks]
    outcomes = [float(x) for x in rng.normal(size=n_elements)]
    return Povm(outcomes=tuple(outcomes), elements=tuple(elements))


def random_channel(rng, dim, n_branches):
    probs = rng.dirichlet(np.ones(n_branches))
    return NoiseChannel(
        branches=tuple(
            (float(p), random_unitary(rng, dim)) for p in probs
        )
    )


def scalar_descend(pair, x_bar, y_bar, tol, max_iter):
    """Reference run of the seesaw engine from one start: one 3x3 eigensolve per step.

    A test-only per-start copy of the second-order step in `varwit.bounds`,
    in Python floats; the batched engine must reproduce it bit for bit.
    Eigenvalues and weights are taken in units of the penalty scale, and a
    run stops when an accepted eigenvalue moves less than tol in those
    units. After each eigensolve the ground state's
    V = w0 - lam (x_bar - <X1>)^2 - mu (y_bar - <Y1>)^2 is computed; a
    Newton trial whose V exceeds the last accepted V is rejected, and the
    row goes back to the seesaw step from the accepted state, with one
    more seesaw step after it.
    """
    x1, x2 = pair.x.first.entries, pair.x.second.entries
    y1, y2 = pair.y.first.entries, pair.y.second.entries
    eye = np.eye(pair.dim)
    scale = pair.scale
    lam, mu = pair.lam / scale, pair.mu / scale
    acc_w = acc_val = float("inf")
    newton = hold = converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        pen = pair.lam * (x2 - 2.0 * x_bar * x1 + x_bar**2 * eye) + pair.mu * (
            y2 - 2.0 * y_bar * y1 + y_bar**2 * eye
        )
        w, basis = np.linalg.eigh(pen)
        w = w / scale
        vec = basis[:, 0]
        rx, ry = vec.conj() @ x1, vec.conj() @ y1
        xe, ye = float((rx @ vec).real), float((ry @ vec).real)
        dx, dy = x_bar - xe, y_bar - ye
        w0 = float(w[0])
        val = w0 - lam * dx * dx - mu * dy * dy
        ok = not newton or val <= acc_val
        if ok:
            converged = abs(acc_w - w0) < tol
            acc_w, acc_val, acc = w0, val, (vec, xe, ye)
            if converged:
                break
        newton = False
        if ok and not hold and float(w[1]) - w0 > 64 * np.finfo(float).eps:
            step = newton_step(lam, mu, w, rx @ basis, ry @ basis, dx, dy)
            newton = all(np.isfinite(step))
        hold = not ok
        if newton:
            x_bar, y_bar = x_bar + step[0], y_bar + step[1]
        else:
            x_bar, y_bar = acc[1], acc[2]
    vec, xm, ym = acc
    vx = float((vec.conj() @ x2 @ vec).real) - xm * xm
    vy = float((vec.conj() @ y2 @ vec).real) - ym * ym
    return vec, pair.lam * vx + pair.mu * vy, xm, ym, iterations, converged


def newton_step(lam, mu, w, px, py, dx, dy):
    """Saddle-free Newton step on the smallest penalty eigenvalue, in Python floats.

    The gradient is g = 2 (lam dx, mu dy); the Hessian is 2 diag(lam, mu)
    minus 8 sum_k (lam p_k, mu q_k)(lam p_k, mu q_k)^* / (w_k - w_0), with
    p_k, q_k the couplings <v_0|X1|v_k>, <v_0|Y1|v_k>. The step is
    -|H|^-1 g, each |eigenvalue| of H floored at (lam + mu) / 100.
    """
    sxx = sxy = syy = 0.0
    for k in range(1, len(w)):
        den = float(w[k] - w[0])
        a, b = complex(px[k]), complex(py[k])
        sxx = sxx + (a.real * a.real + a.imag * a.imag) / den
        sxy = sxy + (a.real * b.real + a.imag * b.imag) / den
        syy = syy + (b.real * b.real + b.imag * b.imag) / den
    hxx = 2.0 * lam - 8.0 * lam * lam * sxx
    hyy = 2.0 * mu - 8.0 * mu * mu * syy
    hxy = -8.0 * lam * mu * sxy
    half, mean = 0.5 * (hxx - hyy), 0.5 * (hxx + hyy)
    r = math.sqrt(half * half + hxy * hxy)
    floor = 0.01 * (lam + mu)
    f1 = 1.0 / max(abs(mean - r), floor)
    f2 = 1.0 / max(abs(mean + r), floor)
    c2, s2 = (half / r, hxy / r) if r > 0.0 else (1.0, 0.0)
    gx, gy = 2.0 * lam * dx, 2.0 * mu * dy
    k = f2 - f1
    return (
        -(f1 * gx + k * (0.5 * ((1.0 + c2) * gx + s2 * gy))),
        -(f1 * gy + k * (0.5 * (s2 * gx + (1.0 - c2) * gy))),
    )


def local_infimum(lam, mu, alpha):
    """Exact inf over qutrit states of lam Var X + mu Var Y in the noisy spin-1 box.

    X and Y are L_X and L_Y measured through the spin-flip channel, whose
    first moments are (1 - alpha) L and second moments L^2. The infimum is
    the minimum over the means (x, y) of the smallest eigenvalue of
    lam (X2 - 2 x X1 + x^2) + mu (Y2 - 2 y Y1 + y^2). In the Cartesian
    spin-1 basis that matrix is diag(mu, lam, lam + mu) coupled only through
    the z row, so its stationary points have closed forms: both means 0,
    or one mean 0 and the other solving a 2x2 block. (Points with both
    means nonzero have the value (lam + mu) / (4 eta^2), never below
    these.) The infimum is the smallest of them. At lam = mu = 1/2 it is
    the local uncertainty bound of Hofmann & Takeuchi, PRA 68, 032103
    (2003) and Guehne, PRL 92, 117903 (2004). Independent of `varwit`.
    """
    eta2 = (1.0 - alpha) ** 2
    if lam <= 0.0 or mu <= 0.0:
        return 0.0  # an eigenstate of the remaining observable
    values = [min(lam, mu)]
    for a, b in ((lam, mu), (mu, lam)):
        # the mean weighted by a nonzero, the other 0, its block eigenvalue lowest
        if 4.0 * eta2 * a >= b and a - 2.0 * eta2 * a <= b / 2.0:
            values.append(a + b / 2.0 - eta2 * a - b**2 / (16.0 * eta2 * a))
    return min(values)


# spin-1 angular momentum components L_X, L_Y in the L_Z eigenbasis
SPIN1_LX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SPIN1_LY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2.0)


def spin1_box(alpha):
    """Moment matrices (X1, X2, Y1, Y2) of L_X and L_Y measured through spin flip.

    The channel contracts first moments by 1 - alpha and leaves second
    moments alone. Independent of `varwit`.
    """
    eta = 1.0 - alpha
    return eta * SPIN1_LX, SPIN1_LX @ SPIN1_LX, eta * SPIN1_LY, SPIN1_LY @ SPIN1_LY


def descent_minima(problems, starts=32, steps=1000, seed=0):
    """Smallest lam Var X + mu Var Y that gradient descent reaches, per problem.

    Each problem is (lam, mu, X1, X2, Y1, Y2) on C^3. Every start of every
    problem descends together, one batch of 3-vectors: a gradient step in
    the tangent space of the unit sphere, then renormalisation. The
    gradient of V at a unit psi is H psi, with H = lam (X2 - 2 <X1> X1) +
    mu (Y2 - 2 <Y1> Y1). A state is a state, so no minimum returned can lie
    below the true infimum. Numpy only; independent of `varwit`.
    """
    rng = np.random.default_rng(seed)
    ops = np.repeat(np.array([p[2:] for p in problems], dtype=complex), starts, axis=0)
    weights = np.repeat(np.array([p[:2] for p in problems], dtype=float), starts, axis=0)
    lam, mu = weights[:, :1], weights[:, 1:]
    norms = np.linalg.norm(ops, ord=2, axis=(2, 3))
    # a step well inside the gradient's Lipschitz constant
    rate = 0.25 / (lam[:, 0] * (norms[:, 1] + 4 * norms[:, 0] ** 2)
                   + mu[:, 0] * (norms[:, 3] + 4 * norms[:, 2] ** 2))

    def measure(psi):
        applied = np.einsum("rkij,rj->rki", ops, psi)
        return applied, np.einsum("ri,rki->rk", psi.conj(), applied).real

    psi = rng.normal(size=(len(ops), 3)) + 1j * rng.normal(size=(len(ops), 3))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    for _ in range(steps):
        applied, means = measure(psi)
        grad = lam * (applied[:, 1] - 2 * means[:, :1] * applied[:, 0]) + mu * (
            applied[:, 3] - 2 * means[:, 2:3] * applied[:, 2]
        )
        grad -= np.einsum("ri,ri->r", psi.conj(), grad).real[:, None] * psi
        psi = psi - rate[:, None] * grad
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    _, means = measure(psi)
    v = lam[:, 0] * (means[:, 1] - means[:, 0] ** 2) + mu[:, 0] * (means[:, 3] - means[:, 2] ** 2)
    return v.reshape(len(problems), starts).min(axis=1)
