"""Input checks at the package's entry points: each refuses its bad input
with its own message.  Plus two small public calls that nothing else runs:
`write_pgm` of a flat pixel vector and `len` of a transformation set."""

import numpy as np
import pytest

from transmix import (ImageShape, TransformationSet, build_shear_translation_set,
                      build_translation_set, shift_op, transform_diag_cov)
from transmix import classify, cli, metrics, model_io, synthgen, tca, thmm, tmg

SHAPE = ImageShape(3, 3)


def _grid():
    return build_translation_set(SHAPE, 3, 3, "wrap")


def _frames(T=4, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (T, SHAPE.n))


def _no_params_set():
    return TransformationSet(np.arange(SHAPE.n)[None], SHAPE, "wrap")


def _header_only_csv(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("t,class\n")
    return cli.read_csv_columns(path, "class")


def _edge_only_motion():
    """A zero-padded grid whose motion table puts all its mass on the step
    (0, +1): a state in the last column has no move that stays on the grid."""
    ts = build_translation_set(SHAPE, 3, 3, "zero")
    motion = thmm.uniform_motion(1.0, "vector")
    table = np.zeros_like(motion.table)
    table.flat[motion.bins[motion.offsets.tolist().index([0, 1])]] = 1.0
    model = thmm.init_thmm(ts, 1, _frames(), motion=thmm.MotionPrior("vector", 1.0, table))
    return thmm.score_sequence(model, _frames())


def _thmm_denoise_bad_mode():
    model = thmm.init_thmm(_grid(), 1, _frames())
    return thmm.denoise(model, _frames(), mode="blur")


def _two_tmgs():
    return [tmg.init_tmg(_grid(), 1, _frames(), seed=s) for s in (0, 1)]


# (id, call(tmp_path), exception, message)
CHECKS = [
    ("marginal-loglik-no-model", lambda _: classify.marginal_loglik(object(), np.zeros(9)),
     TypeError, "no marginal likelihood for object"),
    ("priors-one-short", lambda _: classify.bayes_classify(_two_tmgs(), np.zeros(9), [1.0]),
     ValueError, "priors must be positive, one per model"),
    ("csv-header-only", _header_only_csv, ValueError, "empty CSV"),
    ("purity-misaligned", lambda _: metrics.clustering_purity_error([0, 1], [0]),
     ValueError, "label vectors must be nonempty and aligned"),
    ("save-unknown-model", lambda p: model_io.save_model(object(), p / "m.txm"),
     TypeError, "cannot serialize object"),
    ("pacman-grid-too-small", lambda _: synthgen.gen_pacman(0, T=2, grid=2),
     ValueError, "grid must fit the 3x3 sprite"),
    ("template-not-2d", lambda _: synthgen.gen_shifted_template(0, np.zeros(4), T=2,
                                                                shift_range=1, sensor_noise=0.1),
     ValueError, "template must be a 2-d image"),
    ("tangent-no-params", lambda _: tca.tangent_columns(np.zeros(9), _no_params_set(), ["h"]),
     ValueError, "transformation set carries no op parameters"),
    ("tangent-no-positive-shear",
     lambda _: tca.tangent_columns(np.zeros(9), build_shear_translation_set(SHAPE, [0.0], 3),
                                   ["shear"]),
     ValueError, "set has no positive shear level"),
    ("motion-off-the-edge", lambda _: _edge_only_motion(),
     ValueError, "motion prior leaves some state with no move"),
    ("denoise-mode", lambda _: _thmm_denoise_bad_mode(),
     ValueError, "mode must be 'soft' or 'hard'"),
    ("tmg-init", lambda _: tmg.init_tmg(_grid(), 1, _frames(), init="zeros"),
     ValueError, "init must be 'sample' or 'mean'"),
    ("grid-offsets-no-grid", lambda _: _no_params_set().grid_offsets(),
     ValueError, "not a grid-structured set"),
    ("grid-index-no-grid", lambda _: _no_params_set().grid_index(0, 0),
     ValueError, "not a grid-structured set"),
    ("grid-index-outside", lambda _: _grid().grid_index(2, 0),
     ValueError, r"shift \(2, 0\) outside the grid"),
    ("diag-cov-negative-psi",
     lambda _: transform_diag_cov(shift_op(SHAPE, 0, 1), np.ones(9), np.full(9, -1.0)),
     ValueError, "psi entries must be nonnegative"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_input_check_refuses_with_its_message(call, error, message, tmp_path):
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_write_pgm_of_a_flat_vector_takes_the_shape(tmp_path):
    image = np.linspace(0.0, 1.0, 6)
    model_io.write_pgm(tmp_path / "flat.pgm", image, ImageShape(2, 3))
    model_io.write_pgm(tmp_path / "grid.pgm", image.reshape(2, 3))
    assert (tmp_path / "flat.pgm").read_bytes() == (tmp_path / "grid.pgm").read_bytes()
    read, maxval = model_io.read_pgm(tmp_path / "flat.pgm")
    assert read.shape == (2, 3) and maxval == 255
    np.testing.assert_allclose(read.reshape(-1), image, atol=0.5 / 255)


def test_len_of_a_transformation_set_is_its_op_count():
    ts = _grid()
    assert len(ts) == ts.L == 9
    assert len(_no_params_set()) == 1
