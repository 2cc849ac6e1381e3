"""glyph-classify: 8x8 sheared glyphs under the 29-op zero-padded
shear+translate family.

One round clusters the training glyphs with a 10-cluster TMG and with an
identity-only mixture trained the same way, trains one TCA model (K=3) per
class and a few MTCA steps, then classifies held-out glyphs with
`classify_batch` (Bayes rule over the ten TCA models), five at a time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import logsumexp

import oracles
from oracles import require

# library functions are called through their modules, where the tracer
# patches them
from transmix import ImageShape, classify, mtca, synthgen, tca, tmg, transforms

# (train per class, held-out per class, TMG iterations, TCA iterations,
#  MTCA iterations, sampled images for the dense-Gaussian check)
FULL = (30, 6, 8, 6, 2, 4)
SMOKE = (15, 2, 4, 3, 1, 2)
CLASSES, TCA_FACTORS, MTCA_FACTORS = 10, 3, 2
BATCH = 5


def _cluster_assign(model, X) -> np.ndarray:
    """MAP cluster of each image, the transformation summed out."""
    with np.errstate(divide="ignore"):
        joint = (tmg.loglik_table(model, X) + np.log(model.rho)[None]
                 + np.log(model.pi)[None, None])
    return logsumexp(joint, axis=1).argmax(axis=1)


class GlyphClassify:
    name = "glyph-classify"
    draws = 3

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.seed = seed
        (self.per_class, self.held_out, self.it_tmg, self.it_tca,
         self.it_mtca, self.sample) = SMOKE if smoke else FULL

    def setup(self, work: Path, clock) -> dict:
        shape = ImageShape(8, 8)
        with clock("build"):
            shear = transforms.build_shear_translation_set(shape, boundary="zero")
            ident = transforms.identity_set(shape)
        with clock("gen"):
            X, y, _ = synthgen.gen_sheared_glyphs(self.seed, per_class=self.per_class)
            X_te, y_te, _ = synthgen.gen_sheared_glyphs([self.seed, 1],
                                                        per_class=self.held_out)
        s = self.seed
        with clock("init"):
            return {
                "X": X, "y": y, "X_te": X_te, "y_te": y_te,
                "tmg": tmg.init_tmg(shear, CLASSES, X, seed=s),
                "mg": tmg.init_tmg(ident, CLASSES, X, seed=s),
                "tca": [tca.init_tca(shear, TCA_FACTORS, X[y == c], seed=s)
                        for c in range(CLASSES)],
                "mtca": mtca.init_mtca(shear, CLASSES, MTCA_FACTORS, X, seed=s),
            }

    def train(self, st, clock) -> None:
        X, y = st["X"], st["y"]
        st["reports"] = {}
        for key in ("tmg", "mg"):
            st[key], st["reports"][key] = clock.fit(key, tmg.fit, st[key], X,
                                                    self.it_tmg, tol=0)
        for c in range(CLASSES):
            st["tca"][c], st["reports"][f"tca{c}"] = clock.fit(
                f"tca{c}", tca.fit, st["tca"][c], X[y == c], self.it_tca, tol=0)
        st["mtca"], st["reports"]["mtca"] = clock.fit(
            "mtca", mtca.fit, st["mtca"], X, self.it_mtca, tol=0)

    def infer(self, st, clock) -> None:
        """Held-out glyphs are classified in batches of BATCH."""
        X_te, pred = st["X_te"], []
        for i in range(0, X_te.shape[0], BATCH):
            with clock(f"classify.{i}"):
                pred.append(classify.classify_batch(st["tca"], X_te[i:i + BATCH]))
        st["pred"] = np.concatenate(pred)
        for key in ("tmg", "mg"):
            with clock(f"assign.{key}"):
                st[f"assign_{key}"] = _cluster_assign(st[key], st["X"])

    def probe(self, st, clock) -> None:
        pass

    def ops(self, st) -> tuple[int, int]:
        """Each fit, each held-out glyph classified, and the two clusterings."""
        return len(st["reports"]) + st["X_te"].shape[0] + 2, 0

    def fingerprint(self, st):
        return (tuple(r[-1].loglik for r in st["reports"].values()),
                tuple(st["pred"]), tuple(st["assign_tmg"]), tuple(st["assign_mg"]))

    def check(self, st) -> dict:
        for key, reports in st["reports"].items():
            oracles.monotone([r.loglik for r in reports], f"{key} EM")

        X, y, X_te, y_te = st["X"], st["y"], st["X_te"], st["y_te"]
        pick = np.random.default_rng(12345).choice(X.shape[0], self.sample,
                                                   replace=False)
        ops = oracles.dense_ops(st["tmg"].transforms)
        got = tmg.loglik(st["tmg"], X[pick])
        for i, x in enumerate(X[pick]):
            oracles.close(float(got[i]), oracles.tmg_logp(st["tmg"], x, ops), 1e-9,
                          "TMG log p(x) vs dense Gaussian")
        dense = np.array([[oracles.tca_logp(m, x, ops) for m in st["tca"]]
                          for x in X_te[:self.sample]])
        for c, m in enumerate(st["tca"]):
            got = tca.loglik(m, X_te[:self.sample])
            for i in range(self.sample):
                oracles.close(float(got[i]), dense[i, c], 1e-9,
                              f"TCA class {c} log p(x) vs dense Gaussian")
        require(np.array_equal(st["pred"][:self.sample], dense.argmax(axis=1)),
                "classify_batch disagrees with the dense Bayes rule")

        error = float(np.mean(st["pred"] != y_te))
        require(error <= 0.35, f"held-out classification error {error:.3f} > 0.35")
        purity_tmg = oracles.purity_error(st["assign_tmg"], y)
        purity_mg = oracles.purity_error(st["assign_mg"], y)
        require(purity_tmg + 0.05 <= purity_mg,
                f"TMG purity error {purity_tmg:.3f} is not 0.05 below the "
                f"identity-only mixture's {purity_mg:.3f}")
        return {"classification_error": error, "purity_error_tmg": purity_tmg,
                "purity_error_mg": purity_mg,
                "final_loglik": {k: r[-1].loglik for k, r in st["reports"].items()}}
