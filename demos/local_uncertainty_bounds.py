"""
Local uncertainty bounds for a spin-1 measurement pair
======================================================

Every quantum state of a spin-1 system carries a minimum amount of
combined spread in two incompatible measurements. This script computes
that minimum, the local uncertainty bound

    c(lam) = inf over pure states of  lam * Var(L_X) + (1 - lam) * Var(L_Y),

with a proof over the means polished by a descent, checks it against
the exact value, and shows why the result can be trusted, even where
the descent stalls.
"""

import numpy as np

from varwit import (
    WeightedPair,
    certified_bound,
    compose_sep_bound,
    penalty_operator,
    seesaw_bound,
    spin1_moment_pairs,
)

# the measurement pair: projective L_X and L_Y boxes with their first
# and second moment operators
x_pair, y_pair = spin1_moment_pairs(0.0)

# --- the object being minimized -------------------------------------
# At fixed means (x_bar, y_bar) the weighted variance sum becomes the
# smallest eigenvalue of a penalty operator. Minimizing that eigenvalue
# over the means gives the bound. At the symmetric point the penalty is
# simply (L_X^2 + L_Y^2) / 2:
pen = penalty_operator(WeightedPair(0.5, 0.5, x_pair, y_pair), 0.0, 0.0)
print("penalty at means (0, 0), lam = 1/2:")
print(np.round(pen.entries.real, 6))

# --- the solver ------------------------------------------------------
# A coarse branch-and-bound over the means, from the box alone, finds a
# vertex proven to lie close to the minimum. A descent over the means
# (the ground state at the current means, then a saddle-free Newton step
# on the means, or the plain update to the state's expectations where
# that step would not help) then polishes that vertex. certified_bound
# is this route; seesaw_bound returns the same result under the name of
# its descent.
pair = WeightedPair(0.5, 0.5, x_pair, y_pair)
by_seesaw = seesaw_bound(pair)
print(f"\nseesaw bound : {by_seesaw.value:.12f}  (converged={by_seesaw.converged})")
print(f"exact value  : {7 / 32:.12f}  (= 7/32)")

# the minimizer itself is an ordinary pure state; its variance pair
# realizes the bound with equality
dx = by_seesaw.means
print(f"minimizer means (<L_X>, <L_Y>) = ({dx[0]:+.6f}, {dx[1]:+.6f})")

# --- why a stalled seesaw can still be trusted ----------------------
# A descent can stop early, for instance in a flat valley; its value is then the variance of a real state but may sit above
# the infimum. certified_bound proves a lower bound instead of trusting
# it: the bound is the minimum over the means of g + lam x^2 + mu y^2,
# where g is the smallest penalty eigenvalue without its x^2, y^2 terms.
# g is concave, so on a triangle of means it lies above the plane through
# its three corners, and that plane plus the quadratic has a closed-form
# minimum. Triangles that could still hold a lower value are split until
# the proven bound meets the best value found. Every bound runs that
# proof from the box of means alone, coarsely, and polishes the lowest
# corner it evaluated; wherever the polish stalls, a fine proof follows.
# A polish that converged, or a stall the fine proof confirms, is
# certified, and its value is lowered by a rounding slack:
pair_02 = WeightedPair(0.2, 0.8, x_pair, y_pair)
certified = certified_bound(pair_02)
print(f"\ncertified bound at lam = 0.2: {certified.value:.12f}  (certified={certified.certified})")

# --- from local bound to separability bound -------------------------
# For a product state the global variances split into local parts, so
# the two-party bound for identical parties is just twice the local one.
c_sep = compose_sep_bound(by_seesaw, by_seesaw)
print(f"\ntwo-party separability bound at lam = 1/2: {c_sep:.12f}  (= 7/16)")

# --- the full weight family ------------------------------------------
# Sweeping lam in (0, 1) traces a family of bounds; each is a witness in
# its own right, and entangled states may beat some weights but not
# others.
print("\n lam     c_local      c_sep")
for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
    res = seesaw_bound(WeightedPair(lam, 1.0 - lam, x_pair, y_pair))
    print(f" {lam:.2f}  {res.value:.8f}  {2 * res.value:.8f}")
