"""large-frame: textured templates under the full wrap-around shift grid.

Per-op cost grows with n * L, so this is the workload where the M-step
statistics (`common.gaussian_template_stats`) and the emission table
dominate.  One round trains a TMG with tied sensor noise, scores the
held-out frames and registers each one with `tmg.posterior`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import logsumexp

import oracles
from oracles import require

# library functions are called through their modules, where the tracer
# patches them
from transmix import EmOptions, ImageShape, synthgen, tmg, transforms

# (side, textures, training frames per texture, held-out per texture,
#  EM iterations).  The side is odd so that the centred shift grid holds
# every wrap shift: registration is then exact up to one constant offset.
FULL = (23, 4, 8, 6, 3)
SMOKE = (7, 2, 6, 2, 1)
NOISE = 0.1


class LargeFrame:
    name = "large-frame"
    draws = 3

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.seed = seed
        self.side, self.C, self.per_train, self.per_test, self.iterations = \
            SMOKE if smoke else FULL

    def setup(self, work: Path, clock) -> dict:
        side, C = self.side, self.C
        shape = ImageShape(side, side)
        with clock("build"):
            ts = transforms.build_translation_set(shape, side, side, "wrap")
        rng = np.random.default_rng(self.seed)
        textures = rng.uniform(0.0, 1.0, (C, side, side))
        per = self.per_train + self.per_test
        X, labels, shifts = [], [], []
        with clock("gen"):
            for c in range(C):
                frames, truth = synthgen.gen_shifted_template(
                    int(rng.integers(2**31)), textures[c], T=per,
                    shift_range=side // 2, sensor_noise=NOISE, walk=False)
                X.append(frames)
                labels.append(np.full(per, c))
                shifts.append(truth.shifts)
        X, labels, shifts = (np.concatenate(a) for a in (X, labels, shifts))
        test = np.zeros(X.shape[0], dtype=bool)
        for c in range(C):
            test[c * per + self.per_train: (c + 1) * per] = True
        order = rng.permutation(int((~test).sum()))
        # one frame of each texture starts a cluster, so the registration
        # gate tests EM's alignment rather than the luck of the draw
        with clock("init"):
            model = tmg.init_tmg(ts, C, X[np.arange(C) * per], seed=self.seed)
        return {"X": X[~test][order], "X_te": X[test], "labels": labels[test],
                "shifts": shifts[test], "model": model}

    def train(self, st, clock) -> None:
        st["model"], st["reports"] = clock.fit(
            "tmg", tmg.fit, st["model"], st["X"], self.iterations,
            EmOptions(tie_psi=True, freeze_rho=True), tol=0)

    def infer(self, st, clock) -> None:
        m = st["model"]
        with clock("score"):
            st["scores"] = tmg.loglik(m, st["X_te"])
        states = []
        for i, x in enumerate(st["X_te"]):
            with clock(f"register.{i}"):
                states.append(np.unravel_index(tmg.posterior(m, x).resp.argmax(),
                                               (m.L, m.C)))
        st["states"] = np.array(states)

    def probe(self, st, clock) -> None:
        pass

    def ops(self, st) -> tuple[int, int]:
        """The fit, and each held-out frame scored and registered."""
        return 1 + st["X_te"].shape[0], 0

    def fingerprint(self, st):
        return (st["reports"][-1].loglik, tuple(st["scores"]),
                tuple(map(tuple, st["states"])))

    def check(self, st) -> dict:
        oracles.monotone([r.loglik for r in st["reports"]], "TMG EM")
        m, X_te = st["model"], st["X_te"]
        shifts = oracles.grid_shifts(m.transforms.grid)
        table = oracles.rolled_loglik(m.mu, m.phi, m.psi, X_te, (self.side,) * 2,
                                      shifts)
        got = tmg.loglik_table(m, X_te[:3])
        err = float(np.max(np.abs(got - table[:3]) / np.maximum(1.0, np.abs(table[:3]))))
        require(err <= 1e-9, f"loglik_table vs np.roll reference: rel error {err:.3g}")
        with np.errstate(divide="ignore"):
            joint = table + np.log(m.rho)[None] + np.log(m.pi)[None, None]
        want = logsumexp(joint, axis=(1, 2))
        for i, s in enumerate(st["scores"]):
            oracles.close(float(s), float(want[i]), 1e-9, "held-out log p(x) vs np.roll")
        best = np.array([np.unravel_index(j.argmax(), j.shape) for j in joint])
        require(np.array_equal(best, st["states"]),
                "tmg.posterior MAP state disagrees with the np.roll reference")

        pred = np.array([shifts[l] for l in st["states"][:, 0]])
        clusters = {}
        for c in range(m.C):
            sel = st["states"][:, 1] == c
            require(sel.any(), f"cluster {c} registers no held-out frame")
            purity = np.bincount(st["labels"][sel]).max() / sel.sum()
            agree = oracles.gauge_agreement(pred[sel], st["shifts"][sel], self.side)
            require(purity >= 0.9 and agree >= 0.9,
                    f"cluster {c}: purity {purity:.3f}, shift agreement {agree:.3f} "
                    "(both must reach 0.9)")
            clusters[c] = {"purity": float(purity), "shift_agreement": agree}
        return {"clusters": clusters, "final_loglik": st["reports"][-1].loglik}
