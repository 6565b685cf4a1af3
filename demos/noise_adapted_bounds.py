"""
Adapting uncertainty bounds to a noisy measurement box
======================================================

Real measurement devices are noisy. Pushing the noise into the
measurement operators (the dual, Heisenberg picture) turns an ideal
measurement box into a noisy one, and the uncertainty bounds can be
recomputed for exactly the box the laboratory actually has. This
script shows how a spin-flip channel deforms the spin-1 moment
operators and how the separability bound grows with the noise.
"""

import numpy as np

from varwit import (
    WeightedPair,
    dual_apply,
    moments,
    noisy_povm,
    projective_povm,
    seesaw_bound,
    spin1_components,
    spin1_moment_pairs,
    spin_flip_channel,
)

# the channel: with probability 1 - a/2 nothing happens, with
# probability a/2 a flip unitary diag(-1, 1, -1) is applied
alpha = 0.2
channel = spin_flip_channel(alpha)
print(f"spin-flip channel at alpha = {alpha}:")
for p, u in channel.branches:
    print(f"  probability {p:.2f}, unitary diag = {np.diag(u).real}")

# --- what the noise does to the moment operators ---------------------
# First moments contract by (1 - alpha); second moments are untouched
# because the flip commutes with the squared components.
lx, _, _ = spin1_components()
first, second = moments(noisy_povm(channel, projective_povm(lx)), 2)
print("\nnoisy first moment of L_X (off-diagonals shrink by 1 - alpha):")
print(np.round(first.entries.real, 6))
print("noisy second moment of L_X (unchanged):")
print(np.round(second.entries.real, 6))

# the same contraction seen through the channel dual directly
contracted = dual_apply(channel, lx)
assert np.allclose(contracted.entries, (1.0 - alpha) * lx.entries)

# --- bounds grow with noise ------------------------------------------
# Noisier measurements resolve less, so the minimal achievable spread
# goes up. The adapted separability bound at alpha = 0.2 is much larger
# than the noiseless 7/16 = 0.4375, and that gap is exactly what a
# noise-adapted witness exploits. Each bound is a proof over the means
# polished by a descent (seesaw_bound, the certified bound).
print("\n alpha   c_sep(1/2)")
for a in (0.0, 0.1, 0.2, 0.3):
    x_pair, y_pair = spin1_moment_pairs(a)
    res = seesaw_bound(WeightedPair(0.5, 0.5, x_pair, y_pair))
    print(f"  {a:.1f}   {2 * res.value:.6f}")

print(
    "\nA state measured with the noisy box is judged against the adapted"
    "\nbound; judging it against the noiseless bound wastes the margin."
)
