"""Covering the additive function ball with a product of block nets.

Per-block unit balls get greedy empirical nets; summing one center per block
covers the additive ball at twice the block radius.  The punchline is the
count: log |additive net| = sum of block log-counts, so the capacity exponent
does not grow with the number of blocks.
"""

import numpy as np

from kqreg import BlockLayout, Gaussian, additive_net, cover_ball
from kqreg.capacity import nearest_center, sample_additive_ball

rng = np.random.default_rng(3)
points = rng.random((10, 2))
layout = BlockLayout([1, 1])
specs = [Gaussian(sigma=1.0), Gaussian(sigma=1.0)]

print(f"{'eps':>7} {'|N1|':>6} {'|N2|':>6} {'|additive|':>10} {'worst dist':>11} {'2*eps':>6}")
for eps in (0.5, 0.25, 0.125):
    nets = [
        cover_ball(spec, points[:, [j]], R=1.0, eps=eps, seed=j)
        for j, spec in enumerate(specs)
    ]
    combo = additive_net(nets)
    blocks = sample_additive_ball(specs, layout, points, n=1000, seed=123)
    _, dists = nearest_center(combo, sum(blocks))
    print(f"{eps:7.3f} {nets[0].size:6d} {nets[1].size:6d} {combo.size:10d} "
          f"{dists.max():11.4f} {2 * eps:6.2f}")

print()
print("Counts multiply, so log-counts add: the additive ball is only s times")
print("as complex as one block, not exponentially harder.")
