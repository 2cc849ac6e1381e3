"""THMM on a pac-man movie: clustering, tracking, denoising, scoring.

A sprite walks over a cluttered grid, moving one pixel in its mouth
direction and occasionally turning left.  Single frames are ambiguous; the
THMM combines appearance with temporal coherence, recovering the sprite
classes, their motion habits, the trajectory, and clean frames.  This demo
uses a shortened sequence; the acceptance suite runs the full experiment.
"""

import numpy as np

from transmix import build_translation_set
from transmix.metrics import best_template_assignment, tracking_agreement
from transmix.synthgen import DIRECTIONS, gen_pacman, render_pacman_frame
from transmix import thmm, tmg

seed = 0
frames, truth = gen_pacman(seed, T=120)
shape = truth.params["shape"]
ts = build_translation_set(shape, 11, 11, "wrap")

print("training: TMG for appearances, then THMM refinement...")
pre = tmg.init_tmg(ts, 6, frames, seed=seed)
pre, _ = tmg.fit(pre, frames, 40, tol=1e-7)
model = thmm.from_tmg(pre, motion=thmm.uniform_motion(3.0, "vector", n_classes=6))
model, reports = thmm.fit(model, frames, 14, tol=0.0)
print(f"final log-likelihood: {reports[-1].loglik:.1f}")

sprites = np.stack([render_pacman_frame(shape, d, 0, 0, np.zeros((11, 11)))
                    for d in range(4)])
corr, match = best_template_assignment(model.mu, sprites, shape)
for c in range(6):
    print(f"cluster {c}: best sprite {DIRECTIONS[match[c]]:>5}, "
          f"correlation {corr[c]:.3f}")

rows = thmm.track(model, frames)
agree = tracking_agreement(rows[:, 1:3].astype(int), truth.shifts,
                           wrap=11, align_offset=True)
print(f"\ntrajectory agreement with ground truth: {agree:.2%} "
      f"(one global offset allowed: absolute position is unidentifiable)")

# hard denoising emits the transformed class template: sensor noise AND
# background clutter drop away; compare against sprite-only renderings
sprite_only = np.stack([
    render_pacman_frame(shape, truth.classes[t], *truth.shifts[t],
                        np.zeros((11, 11)))
    for t in range(frames.shape[0])])
restored = thmm.denoise(model, frames, mode="hard")
mse_before = np.mean((frames - sprite_only) ** 2)
mse_after = np.mean((restored - sprite_only) ** 2)
print(f"frame MSE vs sprite-only truth: {mse_before:.4f} -> {mse_after:.4f}")

score = thmm.score_sequence(model, frames)
print(f"\nsequence score under the model: {score:.1f}")
# typicality check: scrambling the time order asks for jumps beyond the
# motion threshold, so the chain must explain frames from reachable, poorly
# fitting states and the score falls far below the ordered sequence's
scrambled = frames[np.random.default_rng(1).permutation(frames.shape[0])]
print(f"temporally scrambled sequence  : "
      f"{thmm.score_sequence(model, scrambled):.1f}")
