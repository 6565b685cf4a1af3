"""Independent numpy references that the benchmark checks varwit's outputs against.

Nothing here imports varwit. The spin-flip channel negates L_X and L_Y
with probability alpha/2, so the noisy first moments are (1 - alpha) L
and the second moments stay L^2. The closed form at lambda = mu = 1/2 is
the local-uncertainty-relation bound (Hofmann & Takeuchi, PRA 68, 032103
(2003); Guehne, PRL 92, 117903 (2004)) for that box; `local_infimum`
gives the exact local bound at every (lambda, mu).
"""

from __future__ import annotations

import numpy as np

_S = 1.0 / np.sqrt(2.0)
LX = _S * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
LY = _S * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
EYE3 = np.eye(3, dtype=complex)

SINGLET = np.zeros(9, dtype=complex)
SINGLET[[2, 6]] = 1.0 / np.sqrt(3.0)
SINGLET[4] = -1.0 / np.sqrt(3.0)


def local_moments(alpha):
    """((X1, X2), (Y1, Y2)) of the spin-1 L_X, L_Y box under spin-flip noise alpha."""
    eta = 1.0 - alpha
    return (eta * LX, LX @ LX), (eta * LY, LY @ LY)


def local_bound_half(alpha):
    """Exact inf over qutrit states of (Var X + Var Y)/2 for noise alpha."""
    eta2 = (1.0 - alpha) ** 2
    if eta2 <= 0.25:
        return 0.5
    return 0.5 - (eta2 - 0.25) ** 2 / (2.0 * eta2)


def sep_bound_half(alpha, alpha_b=None):
    """Exact two-party separability bound c_sep(1/2)."""
    return local_bound_half(alpha) + local_bound_half(alpha if alpha_b is None else alpha_b)


def _expect(vecs, op):
    return np.einsum("...i,ij,...j->...", vecs.conj(), op, vecs).real


def local_variances(vecs, alpha):
    """(Var X, Var Y) of unit vectors (shape (..., 3)) in the noisy box."""
    (x1, x2), (y1, y2) = local_moments(alpha)
    return (
        _expect(vecs, x2) - _expect(vecs, x1) ** 2,
        _expect(vecs, y2) - _expect(vecs, y1) ** 2,
    )


def local_means(vec, alpha):
    (x1, _), (y1, _) = local_moments(alpha)
    return float(_expect(vec, x1)), float(_expect(vec, y1))


def local_infimum(lam, mu, alpha):
    """Exact inf over qutrit states of lam Var X + mu Var Y in the noisy box.

    The infimum is the minimum over (x, y) of the smallest eigenvalue of
    lam (X2 - 2 x X1 + x^2) + mu (Y2 - 2 y Y1 + y^2). In the Cartesian
    spin-1 basis that matrix is diag(mu, lam, lam + mu) coupled only through
    the z row, so its stationary points have closed forms: both means 0,
    or one mean 0 and the other solving a 2x2 block. (Points with both
    means nonzero have the value (lam + mu) / (4 eta^2), never below
    these.) The infimum is the smallest of them; the benchmark's tests
    check it against a direct minimisation over the means. At
    lam = mu = 1/2 it reduces to local_bound_half.
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


def global_variance_tuple(rho, alpha):
    """Exact (Var(x_A + x_B), Var(y_A + y_B)) of a two-qutrit density matrix."""
    out = []
    for first, second in local_moments(alpha):
        m1 = np.kron(first, EYE3) + np.kron(EYE3, first)
        m2 = np.kron(second, EYE3) + 2.0 * np.kron(first, first) + np.kron(EYE3, second)
        out.append(float(np.trace(rho @ m2).real - np.trace(rho @ m1).real ** 2))
    return out[0], out[1]


def calibration_state(theta1_deg, theta2_deg):
    t1, t2 = np.deg2rad(theta1_deg), np.deg2rad(theta2_deg)
    return np.array([np.sin(t1) * np.cos(t2), np.cos(t1), np.sin(t1) * np.sin(t2)], dtype=complex)


def calibration_terms(vec):
    """(a, b) with V(alpha) = a - (1 - alpha)^2 b at weights (1/2, 1/2)."""
    vx0, vy0 = local_variances(vec, 0.0)
    mx, my = _expect(vec, LX), _expect(vec, LY)
    a = 0.5 * (vx0 + mx**2 + vy0 + my**2)
    b = 0.5 * (mx**2 + my**2)
    return float(a), float(b)


def least_squares_alpha(terms, measured):
    """Exact least-squares alpha in [0, 1] for V = a - eta^2 b, eta = 1 - alpha."""
    a = np.array([t[0] for t in terms])
    b = np.array([t[1] for t in terms])
    m = np.asarray(measured, dtype=float)
    eta2 = float(np.clip(np.dot(b, a - m) / np.dot(b, b), 0.0, 1.0))
    return 1.0 - np.sqrt(eta2)
