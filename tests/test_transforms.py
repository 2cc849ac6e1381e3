import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmix import (DEFAULT_SHEAR_FAMILY, VOID, ImageShape, TransformOp,
                      TransformationSet, apply, apply_adjoint,
                      build_shear_translation_set, build_translation_set,
                      identity_set, shear_translate_op, shift_op,
                      transform_diag_cov)
from transmix.transforms import wrap_shift_index

from oracles import dense_matrix, dest_table, shear_index, shift_index

TABLES = ("source_matrix", "dest_matrix")


def test_translation_set_counts():
    ts = build_translation_set(ImageShape(11, 11), 11, 11)
    assert ts.L == 121
    single = build_translation_set(ImageShape(5, 5), 1, 1)
    assert single.L == 1
    x = np.arange(25.0)
    assert np.array_equal(apply(single[0], x), x)


def test_wrap_shift_moves_lit_pixel_everywhere():
    # brute force over all 9 pixel positions on a 3x3 grid
    shape = ImageShape(3, 3)
    down = shift_op(shape, 1, 0)
    up = shift_op(shape, -1, 0)
    for r in range(3):
        for c in range(3):
            x = np.zeros(9)
            x[r * 3 + c] = 1.0
            moved = apply(down, x)
            assert moved[((r + 1) % 3) * 3 + c] == 1.0
            assert moved.sum() == 1.0
            assert np.array_equal(apply(up, moved), x)


def test_apply_examples():
    shape = ImageShape(2, 2)
    x = np.array([1.0, 2.0, 3.0, 4.0])  # [a, b, c, d]
    wrap_right = shift_op(shape, 0, 1, "wrap")
    assert np.array_equal(apply(wrap_right, x), [2.0, 1.0, 4.0, 3.0])
    pad_down = shift_op(shape, 1, 0, "zero")
    assert np.array_equal(apply(pad_down, x), [0.0, 0.0, 1.0, 2.0])


def test_apply_adjoint_examples():
    shape = ImageShape(2, 2)
    ident = identity_set(ImageShape(2, 2))[0]
    x = np.array([0.3, -1.0, 2.0, 0.0])
    assert np.array_equal(apply_adjoint(ident, x), x)

    rng = np.random.default_rng(0)
    op = shift_op(ImageShape(4, 5), 2, -1, "wrap")
    v = rng.standard_normal(20)
    assert np.allclose(apply_adjoint(op, apply(op, v)), v)

    pad_down = shift_op(shape, 1, 0, "zero")
    y = apply(pad_down, np.array([1.0, 2.0, 3.0, 4.0]))
    # transpose of the hand-built 4x4 matrix maps [0,0,a,b] -> [a,b,0,0]
    assert np.array_equal(apply_adjoint(pad_down, y), [1.0, 2.0, 0.0, 0.0])


def test_transform_diag_cov_examples():
    shape = ImageShape(2, 2)
    phi = np.array([1.0, 2.0, 3.0, 4.0])
    ident = identity_set(shape)[0]
    psi = np.full(4, 0.5)
    assert np.array_equal(transform_diag_cov(ident, phi, psi), phi + psi)

    wrap_right = shift_op(shape, 0, 1, "wrap")
    got = transform_diag_cov(wrap_right, phi, np.zeros(4))
    assert np.array_equal(got, [2.0, 1.0, 4.0, 3.0])

    pad_down = shift_op(shape, 1, 0, "zero")
    got = transform_diag_cov(pad_down, phi, np.full(4, 0.1))
    assert np.allclose(got, [0.1, 0.1, 1.1, 2.1])


def test_transform_diag_cov_matches_dense_everywhere():
    rng = np.random.default_rng(1)
    shape = ImageShape(4, 4)
    sets = [build_translation_set(shape, 3, 3, "wrap"),
            build_translation_set(shape, 3, 3, "zero"),
            build_shear_translation_set(shape, [-0.5, 0.0, 0.5], 3, boundary="zero"),
            build_shear_translation_set(shape, [-0.5, 0.0, 0.5], 3, boundary="wrap")]
    for ts in sets:
        phi = rng.uniform(0.5, 2.0, shape.n)
        psi = rng.uniform(0.1, 1.0, shape.n)
        for op in ts:
            g = dense_matrix(op)
            dense = np.diag(g @ np.diag(phi) @ g.T) + psi
            assert np.allclose(transform_diag_cov(op, phi, psi), dense, atol=1e-15)


def test_default_shear_family():
    ts = build_shear_translation_set(ImageShape(8, 8))
    assert ts.L == len(DEFAULT_SHEAR_FAMILY) == 29
    # all ops distinct, identity present
    mats = {op.source_index.tobytes() for op in ts}
    assert len(mats) == 29
    ident = np.arange(64)
    assert any(np.array_equal(op.source_index, ident) for op in ts)


def test_zero_shear_zero_shift_is_identity():
    op = shear_translate_op(ImageShape(8, 8), 0.0, 0)
    assert np.array_equal(op.source_index, np.arange(64))


def test_shear_makes_diagonal_line():
    # enumerate pixels: vertical line at column 3 of an 8x8 image under a
    # unit-slope shear lands at column 3 + round(1.0 * (r - 3.5)) per row
    shape = ImageShape(8, 8)
    op = shear_translate_op(shape, 1.0, 0, boundary="zero")
    line = np.zeros((8, 8))
    line[:, 3] = 1.0
    out = apply(op, line.reshape(-1)).reshape(8, 8)
    expected = np.zeros((8, 8))
    for r in range(8):
        c = 3 + int(np.rint(1.0 * (r - 3.5)))
        if 0 <= c < 8:
            expected[r, c] = 1.0
    assert np.array_equal(out, expected)
    # scatter-then-gather is idempotent on the op's range
    y = out.reshape(-1)
    assert np.allclose(apply(op, apply_adjoint(op, y)), y)


def test_grid_indexing_invariant():
    ts = build_translation_set(ImageShape(5, 7), 3, 5)
    offsets = ts.grid_offsets()
    for l, (di, dj) in enumerate(offsets):
        assert ts.grid_index(di, dj) == l
        assert ts.params[l] == (di, dj)


def _translation(h, w, mv, mh, boundary):
    offsets = [(i - mv // 2, j - mh // 2) for i in range(mv) for j in range(mh)]
    return pytest.param(
        lambda: build_translation_set(ImageShape(h, w), mv, mh, boundary),
        [shift_index(h, w, di, dj, boundary == "wrap") for di, dj in offsets],
        (mv, mh), [(float(di), float(dj)) for di, dj in offsets], "translate",
        id=f"translate-{h}x{w}-{mv}x{mh}-{boundary}")


def _shear(h, w, boundary, ops, **kwargs):
    """Builder call with `kwargs`, which should give the (factor, shift) `ops`."""
    return pytest.param(
        lambda: build_shear_translation_set(ImageShape(h, w), boundary=boundary, **kwargs),
        [shear_index(h, w, s, t, boundary == "wrap") for s, t in ops],
        None, ops, "shear", id=f"shear-{h}x{w}-{len(ops)}-{boundary}")


LEVELS = [(s, t) for s in (-0.5, 0.0, 0.5) for t in (-1, 0, 1)]
PAIRS = [(0.3, 1), (-0.7, -2), (1.0, 0), (0.5, 2), (-1.5, 1)]
# grids below and at each boundary's extent cap, and each shear builder form
ORACLE_CASES = (
    [_translation(*grid) for grid in
     [(5, 7, 3, 5, "wrap"), (5, 7, 5, 7, "wrap"), (1, 6, 1, 5, "wrap"),
      (6, 1, 5, 1, "wrap"), (8, 8, 7, 7, "wrap"), (1, 1, 1, 1, "wrap"),
      (5, 7, 3, 5, "zero"), (5, 7, 9, 13, "zero"), (1, 6, 1, 11, "zero"),
      (6, 1, 11, 1, "zero"), (8, 8, 15, 15, "zero"), (1, 1, 1, 1, "zero")]]
    + [pytest.param(lambda: identity_set(ImageShape(5, 7)), [list(range(35))],
                    (1, 1), [(0.0, 0.0)], "translate", id="identity-5x7")]
    + [_shear(h, w, b, DEFAULT_SHEAR_FAMILY) for h, w, b in
       [(8, 8, "wrap"), (8, 8, "zero"), (1, 6, "wrap"), (1, 6, "zero"), (6, 1, "wrap")]]
    + [_shear(5, 7, b, LEVELS, shear_levels=[-0.5, 0.0, 0.5], shifts_h=3)
       for b in ("wrap", "zero")]
    + [_shear(6, 9, b, PAIRS, pairs=PAIRS) for b in ("wrap", "zero")])


@pytest.mark.parametrize("build, rows, grid, params, kind", ORACLE_CASES)
def test_set_tables_match_the_index_oracles(build, rows, grid, params, kind):
    """Every builder's tables against per-pixel loops from first principles."""
    ts = build()
    assert ts.source_matrix.dtype == ts.dest_matrix.dtype == np.int64
    assert ts.source_matrix.tolist() == rows
    assert ts.dest_matrix.tolist() == dest_table(rows, ts.shape.n)
    assert (ts.grid, ts.params, ts.kind) == (grid, tuple(params), kind)
    assert [op.source_index.tolist() for op in ts] == rows
    assert [op.dest_index.tolist() for op in ts] == ts.dest_matrix.tolist()
    assert all(isinstance(op, TransformOp) and not op.source_index.flags.writeable
               and not op.dest_index.flags.writeable for op in ts)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(-7, 7),
       st.integers(-7, 7), st.integers(0, 2 ** 31 - 1))
def test_wrap_ops_are_bijections(h, w, di, dj, seed):
    op = shift_op(ImageShape(h, w), di, dj, "wrap")
    x = np.random.default_rng(seed).standard_normal(h * w)
    assert np.allclose(apply_adjoint(op, apply(op, x)), x)
    assert np.allclose(apply(op, apply_adjoint(op, x)), x)


def test_structural_linearity():
    # one source lookup per output pixel: the op carries exactly n indices
    ts = build_translation_set(ImageShape(6, 6), 5, 5)
    for op in ts:
        assert op.source_index.shape == (36,)


def test_validation_errors():
    shape = ImageShape(4, 4)
    with pytest.raises(ValueError):
        build_translation_set(shape, 4, 3)  # even count
    with pytest.raises(ValueError):
        build_translation_set(shape, 9, 1, "zero")  # degenerate range
    with pytest.raises(ValueError):
        build_translation_set(shape, 5, 11, "wrap")  # beyond extent
    op = shift_op(shape, 1, 1)
    with pytest.raises(ValueError):
        apply(op, np.zeros(7))
    with pytest.raises(ValueError):
        apply_adjoint(op, np.zeros(3))
    with pytest.raises(ValueError):
        transform_diag_cov(op, np.zeros(16), np.ones(16))
    with pytest.raises(ValueError):
        ImageShape(0, 3)
    with pytest.raises(ValueError):
        shear_translate_op(shape, np.inf, 0)
    for bad in (16, -2):
        table = np.arange(32).reshape(2, 16) % 16
        table[1, 5] = bad
        with pytest.raises(ValueError, match="out of range"):
            TransformationSet(table, shape, "wrap")
    with pytest.raises(ValueError, match="shape"):
        TransformationSet(np.arange(15)[None], shape, "wrap")


SET_REFUSALS = {  # keyword arguments beside a 4-op 2x2 table, message
    "boundary": ({"boundary": "mirror"}, "boundary must be one of"),
    "grid-size": ({"grid": (3, 3)}, "grid dims inconsistent with op count"),
    "params-length": ({"params": ((0.0, 0.0),) * 3},
                      "params length must match op count"),
}


@pytest.mark.parametrize("case", sorted(SET_REFUSALS))
def test_set_refuses_a_bad_boundary_grid_or_params(case):
    shape = ImageShape(2, 2)
    table = np.stack([shift_op(shape, di, dj).source_index
                      for di in (0, 1) for dj in (0, 1)])
    kwargs, match = SET_REFUSALS[case]
    with pytest.raises(ValueError, match=match):
        TransformationSet(table, shape, **{"boundary": "wrap", **kwargs})


def test_batched_apply():
    op = shift_op(ImageShape(3, 3), 1, 2, "zero")
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((5, 9))
    stacked = np.stack([apply(op, row) for row in batch])
    assert np.allclose(apply(op, batch), stacked)
    stacked_adj = np.stack([apply_adjoint(op, row) for row in batch])
    assert np.allclose(apply_adjoint(op, batch), stacked_adj)


def test_dest_matrix_inverts_source_matrix_and_maps_void_to_void():
    ts = build_translation_set(ImageShape(4, 5), 3, 3, "zero")
    n, dest, src = ts.shape.n, ts.dest_matrix, ts.source_matrix
    assert dest.shape == (ts.L, n) and not dest.flags.writeable
    assert (dest == VOID).any() and (src == VOID).any()
    assert dest.min() == VOID and dest.max() < n
    assert dest is ts.dest_matrix
    for l, op in enumerate(ts):
        lands = dest[l] >= 0
        assert np.array_equal(src[l, dest[l, lands]], np.nonzero(lands)[0])
        assert np.count_nonzero(lands) == np.count_nonzero(src[l] >= 0)


def test_dest_matrix_refuses_a_non_injective_op():
    """Op 1 copies source pixel 0 to two output pixels: G diag(v) G^T would
    not be diagonal, so the diagonal kernels would score it wrongly.  The
    pass that builds dest_matrix refuses it when the set is constructed."""
    with pytest.raises(ValueError, match="op 1 is not injective"):
        TransformationSet(np.array([[0, 1, 2], [0, 0, 2]]), ImageShape(1, 3), "wrap")


def test_wrap_shift_index_rows_are_the_shift_ops():
    shape = ImageShape(3, 4)
    index = wrap_shift_index(shape)
    assert index.shape == (12, 12)
    for di in range(3):
        for dj in range(4):
            assert index[di * 4 + dj].tolist() == shift_index(3, 4, di, dj, True)


def test_wrap_rows_maps_a_full_wrap_grid_onto_wrap_shift_index():
    shape = ImageShape(5, 7)
    index = wrap_shift_index(shape)
    ts = build_translation_set(shape, 5, 7, "wrap")
    order = np.random.default_rng(0).permutation(shape.n)
    shuffled = TransformationSet(index[order], shape, "wrap")
    for s in (ts, shuffled):
        rows = s.wrap_rows
        assert sorted(rows.tolist()) == list(range(shape.n))
        assert np.array_equal(index[rows], s.source_matrix)
        assert not rows.flags.writeable
        assert s.wrap_rows is rows
    assert shuffled.wrap_rows.tolist() == order.tolist()


def _lazy_grid(h, w):
    """A full wrap grid as `build_translation_set` makes one, with its
    centred shifts; for even sides too, which the builder's odd counts
    leave out."""
    shape = ImageShape(h, w)
    if h % 2 and w % 2:
        return build_translation_set(shape, h, w, "wrap")
    i, j = np.divmod(np.arange(shape.n), w)
    di, dj = i - h // 2, j - w // 2
    params = tuple(zip(di.astype(float).tolist(), dj.astype(float).tolist()))
    return TransformationSet._full_wrap_grid(shape, di, dj, params)


@pytest.mark.parametrize("h, w", [(1, 1), (1, 5), (2, 5), (4, 6), (7, 7), (23, 23)])
def test_a_full_wrap_grid_builds_each_table_alone_on_its_first_read(h, w):
    ts = _lazy_grid(h, w)
    assert not set(TABLES) & set(vars(ts))
    assert (ts.L, ts.has_void, ts.grid, ts.kind) == (h * w, False, (h, w), "translate")
    rows = ts.wrap_rows
    assert ts.dest_matrix is ts.dest_matrix
    assert "source_matrix" not in vars(ts)
    want = TransformationSet(ts.source_matrix, ts.shape, "wrap", grid=ts.grid,
                             params=ts.params, kind=ts.kind)
    for name in TABLES:
        got = getattr(ts, name)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, getattr(want, name))
    assert np.array_equal(want.wrap_rows, rows) and not rows.flags.writeable
    with pytest.raises(AttributeError):
        ts.missing


def _one_row_permuted(shape):
    """A translate-tagged full wrap grid whose op 3 has two outputs swapped:
    still injective, no longer a shift."""
    table = build_translation_set(shape, shape.height, shape.width).source_matrix.copy()
    table[3, [0, 1]] = table[3, [1, 0]]
    return TransformationSet(table, shape, "wrap", grid=(shape.height, shape.width),
                             kind="translate")


def _one_shift_twice(shape):
    """L = n wrap shifts with shift 0 twice and shift 1 missing."""
    table = wrap_shift_index(shape)
    return TransformationSet(table[[0] + list(range(2, shape.n)) + [0]], shape, "wrap")


def _one_void_pixel(shape):
    """Every wrap shift once, with the output pixel that reads latent pixel
    0 in op 3 made VOID: that op's candidate row is VOID."""
    table = wrap_shift_index(shape)
    table[3, table[3] == 0] = VOID
    return TransformationSet(table, shape, "wrap")


@pytest.mark.parametrize("build", [
    lambda s: build_translation_set(s, 5, 5, "zero"),
    lambda s: build_translation_set(s, 3, 5, "wrap"),
    lambda s: build_shear_translation_set(
        s, pairs=[(f, t) for f in (0.0, 0.5, 1.0, -0.5, -1.0) for t in range(-2, 3)]),
    lambda s: identity_set(s),
    _one_row_permuted,
    _one_shift_twice,
    _one_void_pixel,
], ids=["zero-padded", "extent-capped", "wrap-shear", "identity", "one-row-permuted",
        "one-shift-twice", "one-void-pixel"])
def test_wrap_rows_is_none_for_every_other_set(build):
    ts = build(ImageShape(5, 5))
    assert ts.wrap_rows is None


SHEAR_REFUSALS = {  # keyword arguments of build_shear_translation_set, message
    "levels-only": ({"shear_levels": [0.0, 0.5]}, "give both shear_levels and shifts_h, or pairs"),
    "shifts-only": ({"shifts_h": 3}, "give both shear_levels and shifts_h, or pairs"),
    "even-shifts": ({"shear_levels": [0.0], "shifts_h": 2},
                    "horizontal shift count must be odd and >= 1"),
    "no-shifts": ({"shear_levels": [0.0], "shifts_h": 0},
                  "horizontal shift count must be odd and >= 1"),
    "no-pairs": ({"pairs": []}, "a TransformationSet needs at least one op"),
    "row-without-source": ({"pairs": [(0.0, 0), (0.0, 4)], "boundary": "zero"},
                           "shear+shift leaves a whole row without source columns"),
    "sheared-row-without-source": ({"pairs": [(3.0, 0)], "boundary": "zero"},
                                   "shear+shift leaves a whole row without source columns"),
}


@pytest.mark.parametrize("case", sorted(SHEAR_REFUSALS))
def test_shear_set_refuses_bad_levels_shifts_or_pairs(case):
    kwargs, match = SHEAR_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(match)):
        build_shear_translation_set(ImageShape(4, 4), **kwargs)
