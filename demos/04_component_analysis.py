"""Transformed component analysis: classification and tangent columns.

Per-class component analyzers trained on sheared glyphs.  A plain factor
analyzer must spend its components on writing-angle variation; giving the
model the shear family instead lets the components model genuine appearance
factors, which shows up directly in Bayes-rule test error.  Also shows
tangent columns: loading columns pinned to the template's derivatives along
the transformation family.
"""

import numpy as np

from transmix import EmOptions, ImageShape, identity_set
from transmix.metrics import classification_error
from transmix.synthgen import gen_sheared_glyphs
from transmix.tca import fit, init_tca, loglik, sample, tangent_columns
from transmix.transforms import build_shear_translation_set, build_translation_set

shape = ImageShape(8, 8)
shear = build_shear_translation_set(shape, boundary="zero")
ident = identity_set(shape)

seed = 0
X_tr, y_tr, _ = gen_sheared_glyphs(seed, per_class=80)
X_te, y_te, _ = gen_sheared_glyphs(seed + 500, per_class=40)

for name, ts in (("factor analysis", ident), ("TCA over shears", shear)):
    scores = np.empty((X_te.shape[0], 10))
    models = []
    for c in range(10):
        Xc = X_tr[y_tr == c]
        model = init_tca(ts, 3, Xc, seed=seed)
        model, _ = fit(model, Xc, 20, tol=1e-7)
        models.append(model)
        scores[:, c] = loglik(model, X_te)
    err = classification_error(scores.argmax(axis=1), y_te)
    print(f"{name:>18}: test error {err:.3f}")

# sampling from the last trained class model (digit 9)
draw = sample(models[-1], seed=7)
print("\na sample from the class-9 TCA (values rounded):")
print(np.round(draw.reshape(8, 8), 1))

# tangent columns: derivative of a template along horizontal shift
grid = build_translation_set(ImageShape(5, 5), 3, 3)
bump = np.zeros(25)
bump[12] = 1.0
col = tangent_columns(bump, grid, ("h",))
print("\nhorizontal-shift tangent column of a single-pixel template:")
print(col[:, 0].reshape(5, 5))

# EM keeps such columns pinned to the current template while it learns the
# rest: a class-9 TCA over shears with its first column along the shear
X9 = X_tr[y_tr == 9]
model, _ = fit(init_tca(shear, 3, X9, seed=seed), X9, 10,
               EmOptions(tangent_directions=("shear",)))
pinned = np.array_equal(model.loadings[:, :1], tangent_columns(model.mu, shear, ("shear",)))
print(f"\nafter 10 EM iterations with tangent_directions=('shear',), the first "
      f"loading column is the template's shear tangent: {pinned}")
