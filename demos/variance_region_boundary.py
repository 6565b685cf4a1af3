"""
Tracing the achievable variance region
======================================

The pairs (Var(L_X), Var(L_Y)) achievable by pure spin-1 states fill a
region in the plane whose lower-left boundary encodes every weighted
uncertainty bound at once: each weight lam contributes a supporting
line lam * x + (1 - lam) * y = c(lam) that touches the region from
below. This script traces the boundary for the ideal measurement box
and for a noisy one, and writes both curves to an SVG.
"""

import numpy as np

from varwit import spin1_moment_pairs, trace_region
from varwit.svgplot import svg_line_plot

lambdas = [float(l) for l in np.linspace(0.02, 0.98, 33)]

print(" lam    noiseless (dx, dy)        alpha=0.2 (dx, dy)")
curves = {}
for alpha in (0.0, 0.2):
    x_pair, y_pair = spin1_moment_pairs(alpha)
    curves[alpha] = trace_region(x_pair, y_pair, lambdas)

for lam, p0, p2 in zip(lambdas, curves[0.0].points, curves[0.2].points):
    print(
        f" {lam:.3f}  ({p0[0]:.4f}, {p0[1]:.4f})    ({p2[0]:.4f}, {p2[1]:.4f})"
    )

# every point satisfies its own supporting-line equation, which is what
# makes the trace a certificate and not just a scatter of solver output
for alpha, region in curves.items():
    worst = max(
        abs(lam * p[0] + (1 - lam) * p[1] - c)
        for lam, c, p, ok in zip(
            region.lambdas, region.bounds, region.points, region.certified
        )
        if ok
    )
    print(f"\nalpha={alpha}: worst supporting-line residual {worst:.2e}")

# the noisy region sits strictly inside fewer low-variance options:
# every noisy boundary point stays above every noiseless supporting line
noiseless = curves[0.0]
margin = min(
    lam * p[0] + (1 - lam) * p[1] - c
    for p in curves[0.2].points
    for lam, c in zip(noiseless.lambdas, noiseless.bounds)
)
print(f"noisy boundary vs noiseless supporting lines: min margin {margin:+.4f}")

svg_line_plot(
    "variance_region_boundary.svg",
    [
        ("noiseless", [p[0] for p in noiseless.points], [p[1] for p in noiseless.points]),
        ("alpha=0.2", [p[0] for p in curves[0.2].points], [p[1] for p in curves[0.2].points]),
    ],
    title="lower boundary of the achievable variance region",
    xlabel="Var(L_X)",
    ylabel="Var(L_Y)",
)
print("wrote variance_region_boundary.svg")
