"""Discrete image transformations as sparse generalized-permutation operators.

A transformation is stored as one source index per output pixel (``VOID``
marks output pixels with no source), and a family of L transformations as
one (L, n) table of them, a `TransformationSet`.  The induced matrix G has
at most one unit entry per row, so applying an operator is linear in the
pixel count.  Every operator must also be injective, no source pixel read
by two output pixels: then G has at most one unit entry per column too, and
``G diag(v) G^T`` stays diagonal, which is what makes the model likelihoods
in this package exact and cheap.

Encoding.  `TransformationSet.source_matrix` maps each observed pixel
to the latent pixel it reads, `TransformationSet.dest_matrix` each latent
pixel to the observed pixel it lands on, both with ``VOID`` = -1 where
there is none.  The model kernels read through them by plain gathers from
arrays that end in one zero pixel (`common._padded`): index -1 reads that
zero, so a gather yields 0 where a pixel has no counterpart, with no mask.

Which tables exist when.  The constructor decides once, before it builds
anything, whether a set is a full wrap grid: every wrap shift of the image
exactly once, in any order (a 1x1 identity set included), whatever made
the table (`build_translation_set`, a caller, a `.txm` file).  A grid
holds only its (L,) `wrap_rows`, which is all the FFT kernels read; the
first read of either (L, n) table builds that table alone, unvalidated,
since a grid is injective by construction.  At 63x63 each table holds
120 MiB.  Every other set holds both tables, after one validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .common import _padded, _read_only

VOID = -1

WRAP = "wrap"
ZERO = "zero"
_BOUNDARIES = (WRAP, ZERO)
# rows of an (L, n) table built or compared at a time
_ROW_BLOCK = 256

# Default shear+translate family: 7 shear slopes (quarter-pixel-per-row
# steps) crossed with horizontal shifts {-2, 0, 2}, plus 8 small combined
# perturbations around the identity.  29 operators total, identity included.
DEFAULT_SHEAR_FAMILY: tuple[tuple[float, int], ...] = tuple(
    [(s / 4.0, t) for s in range(-3, 4) for t in (-2, 0, 2)]
    + [(0.0, -1), (0.0, 1), (-0.25, -1), (-0.25, 1),
       (0.25, -1), (0.25, 1), (0.0, -3), (0.0, 3)]
)


@dataclass(frozen=True)
class ImageShape:
    """Height and width of the images an operator acts on."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("image dimensions must be >= 1")

    @property
    def n(self) -> int:
        """Total pixel count."""
        return self.height * self.width


@dataclass(frozen=True, eq=False)
class TransformationSet:
    """Ordered family of L operators sharing one shape and boundary rule,
    held as one read-only (L, n) table of source indices.

    Row l of ``source_matrix`` is op l: ``source_matrix[l, p]`` is the input
    pixel copied to output pixel p, or ``VOID`` when p has no source (a zero
    row of G).  Row l of ``dest_matrix`` inverts it: ``dest_matrix[l, q]``
    is the output pixel that input pixel q is copied to, or ``VOID``.  Every
    op must be injective, no input pixel copied twice, which the constructor
    checks once over the whole table as it builds ``dest_matrix``.  A full
    wrap grid holds only `wrap_rows` instead (see the module docstring):
    the row of `wrap_shift_index` that each op equals, read-only, which is
    None on every other set.

    ``grid``, when present, is ``(M_v, M_h)`` and op ``l = i * M_h + j`` is
    the integer shift by ``(i - M_v // 2, j - M_h // 2)``.  ``params`` keeps
    the per-op parameter tuple the builder used (shift offsets, or
    ``(shear, shift)`` pairs), which tangent-direction lookups rely on.
    """

    source_matrix: np.ndarray = field(repr=False)
    shape: ImageShape
    boundary: str
    grid: tuple[int, int] | None = None
    params: tuple[tuple[float, ...], ...] | None = None
    kind: str = "custom"
    dest_matrix: np.ndarray = field(init=False, repr=False)
    L: int = field(init=False)
    has_void: bool = field(init=False)
    wrap_rows: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        src = np.asarray(self.source_matrix, dtype=np.int64)
        n = self.shape.n
        if src.ndim != 2 or src.shape[0] < 1 or src.shape[1] != n:
            raise ValueError(f"source_matrix must have shape (L >= 1, {n}), "
                             f"got {src.shape}")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        L = src.shape[0]
        if self.grid is not None and self.grid[0] * self.grid[1] != L:
            raise ValueError("grid dims inconsistent with op count")
        if self.params is not None and len(self.params) != L:
            raise ValueError("params length must match op count")
        rows = _wrap_rows(self.shape, src) if self.boundary == WRAP else None
        if rows is not None:
            object.__delattr__(self, "source_matrix")
            self.__dict__.update(L=L, has_void=False, wrap_rows=rows)
            return
        src = src.copy()
        if src.min() < VOID or src.max() >= n:
            raise ValueError("source indices out of range")
        # dest_matrix inverts source_matrix row by row: scatter each output
        # pixel p to the input pixel it reads, in a table whose spare first
        # column takes every VOID, then read back.  An op is injective
        # exactly when every p reads back its own index: of two outputs
        # sharing a source, one scatter overwrites the other.
        at = src + 1 + (n + 1) * np.arange(L)[:, None]
        dest = np.full(L * (n + 1), VOID)
        dest[at] = np.arange(n)
        clash = (dest[at] != np.arange(n)) & (src >= 0)
        if clash.any():
            l = int(np.nonzero(clash)[0][0])
            raise ValueError(f"op {l} is not injective: it copies one "
                             "source pixel to several output pixels")
        self.__dict__.update(source_matrix=_read_only(src),
                             dest_matrix=_read_only(dest.reshape(L, n + 1)[:, 1:].copy()),
                             L=L, has_void=bool((src < 0).any()), wrap_rows=None)

    @classmethod
    def _full_wrap_grid(cls, shape: ImageShape, di, dj, params) -> TransformationSet:
        """The grid of every wrap shift (di[l], dj[l]) of `shape` once, made
        without a table: op l's `wrap_rows` entry is (di mod h) w + dj mod w."""
        ts = object.__new__(cls)
        ts.__dict__.update(
            shape=shape, boundary=WRAP, grid=(shape.height, shape.width),
            params=params, kind="translate", L=len(di), has_void=False,
            wrap_rows=_read_only(di % shape.height * shape.width + dj % shape.width))
        return ts

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: a table of a full
        # wrap grid, built alone on its first read (op l lands q on q + d_l)
        sign = {"source_matrix": 1, "dest_matrix": -1}.get(name)
        rows = self.__dict__.get("wrap_rows")
        if sign is None or rows is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        table = _read_only(_wrap_table(self.shape, rows, sign))
        object.__setattr__(self, name, table)
        return table

    def __len__(self) -> int:
        return self.L

    def __getitem__(self, l: int) -> TransformOp:
        return TransformOp(self, range(self.L)[l])

    def __iter__(self):
        return (TransformOp(self, l) for l in range(self.L))

    def source_blocks(self):
        """`source_matrix` in blocks of `_ROW_BLOCK` rows; a full wrap grid
        builds each block from `wrap_rows` as it is read, never the table."""
        for lo in range(0, self.L, _ROW_BLOCK):
            yield (self.source_matrix[lo:lo + _ROW_BLOCK] if self.wrap_rows is None
                   else _wrap_table(self.shape, self.wrap_rows[lo:lo + _ROW_BLOCK]))

    def same_tables(self, other: TransformationSet) -> bool:
        """Whether `other` holds the same ops in the same order: the same
        shape, boundary and L, then equal `wrap_rows` for two full wrap grids
        or equal `source_matrix`, compared in blocks of rows, for two other
        sets.  A grid never equals a set that is not one; nothing is built."""
        if self is other:
            return True
        if (self.shape, self.boundary, self.L) != (other.shape, other.boundary, other.L):
            return False
        rows, others = self.wrap_rows, other.wrap_rows
        if rows is not None or others is not None:
            return rows is not None and others is not None and np.array_equal(rows, others)
        return all(map(np.array_equal, self.source_blocks(), other.source_blocks()))

    def grid_offsets(self) -> np.ndarray:
        """(L, 2) signed (di, dj) shift offsets for grid-structured sets."""
        if self.grid is None:
            raise ValueError("not a grid-structured set")
        mv, mh = self.grid
        i, j = np.divmod(np.arange(self.L), mh)
        return np.stack([i - mv // 2, j - mh // 2], axis=1)

    def grid_index(self, di: int, dj: int) -> int:
        """Op index for the shift (di, dj); raises if outside the grid."""
        if self.grid is None:
            raise ValueError("not a grid-structured set")
        mv, mh = self.grid
        i, j = di + mv // 2, dj + mh // 2
        if not (0 <= i < mv and 0 <= j < mh):
            raise ValueError(f"shift ({di}, {dj}) outside the grid")
        return i * mh + j


@dataclass(frozen=True, eq=False)
class TransformOp:
    """Op ``l`` of a `TransformationSet`: row l of the set's tables.

    ``source_index[p]`` is the input pixel copied to output pixel ``p``, or
    ``VOID`` when output pixel ``p`` has no source (zero row of G);
    ``dest_index[q]`` is the output pixel that input pixel ``q`` is copied
    to, or ``VOID`` when it is copied to none (zero column of G).
    """

    transforms: TransformationSet
    l: int

    @property
    def source_index(self) -> np.ndarray:
        return self.transforms.source_matrix[self.l]

    @property
    def dest_index(self) -> np.ndarray:
        return self.transforms.dest_matrix[self.l]

    @property
    def shape(self) -> ImageShape:
        return self.transforms.shape

    @property
    def n(self) -> int:
        return self.shape.n


def _check_vector(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != n:
        raise ValueError(f"pixel vector of length {n} expected, got {x.shape}")
    return x


def apply(op: TransformOp, image) -> np.ndarray:
    """Apply G to a pixel vector (or a batch stacked on leading axes)."""
    x = _check_vector(image, op.n)
    return _padded(x, axis=-1)[..., op.source_index]


def apply_adjoint(op: TransformOp, image) -> np.ndarray:
    """Apply G^T (scatter).  Inverts `apply` exactly for wrap permutations."""
    x = _check_vector(image, op.n)
    return _padded(x, axis=-1)[..., op.dest_index]


def transform_diag_cov(op: TransformOp, phi, psi) -> np.ndarray:
    """Diagonal of G diag(phi) G^T + diag(psi).

    Exact for injective generalized permutations: off-diagonal terms vanish,
    so this is the full covariance of the transformed image.
    """
    phi = _check_vector(phi, op.n)
    psi = _check_vector(psi, op.n)
    if np.any(phi <= 0):
        raise ValueError("phi entries must be positive")
    if np.any(psi < 0):
        raise ValueError("psi entries must be nonnegative")
    return _padded(phi)[op.source_index] + psi


def _shift_table(shape: ImageShape, di, dj, boundary: str) -> np.ndarray:
    """(L, n) source indices of L ops: op l moves the content down by di[l]
    rows and output row r right by dj[l, r] columns (dj[l] may be a single
    column shift for every row).  Zero-pad leaves VOID where the source
    falls outside the image; wrap reads it modulo the image size."""
    h, w = shape.height, shape.width
    di = np.asarray(di, dtype=np.int64)
    rows = np.arange(h)[:, None] - di[:, None, None]
    cols = np.arange(w) - np.asarray(dj, dtype=np.int64).reshape(len(di), -1, 1)
    if boundary == WRAP:
        src = rows % h * w + cols % w
    else:
        inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        src = np.where(inside, rows * w + cols, VOID)
    return src.reshape(len(di), h * w)


def _wrap_table(shape: ImageShape, rows, sign: int = 1) -> np.ndarray:
    """(len(rows), n) source indices of the wrap shifts at `rows` of
    `wrap_shift_index`, or with `sign` -1 their destination indices."""
    di, dj = np.divmod(rows, shape.width)
    return _shift_table(shape, sign * di, sign * dj, WRAP)


def _wrap_rows(shape: ImageShape, src: np.ndarray) -> np.ndarray | None:
    """The row of `wrap_shift_index` that each op of the (L, n) table `src`
    equals, read-only, when the table holds every wrap shift exactly once;
    else None.  Op l's candidate is the shift d_l whose output pixel 0 reads
    src[l, 0] = -d_l.  The cheap tests come first, then the whole table is
    compared in blocks of rows, to bound the temporaries."""
    n, w = shape.n, shape.width
    first = src[:, 0]
    if len(src) != n or not ((first >= 0) & (first < n)).all():
        return None
    i, j = np.divmod(first, w)
    rows = -i % shape.height * w + -j % w
    whole = (np.bincount(rows) == 1).all() and all(
        np.array_equal(src[lo:lo + _ROW_BLOCK], _wrap_table(shape, rows[lo:lo + _ROW_BLOCK]))
        for lo in range(0, n, _ROW_BLOCK))
    return _read_only(rows) if whole else None


def shift_op(shape: ImageShape, di: int, dj: int, boundary: str = WRAP) -> TransformOp:
    """Integer-pixel shift moving content down by `di` rows, right by `dj`."""
    return TransformationSet(_shift_table(shape, [di], [dj], boundary),
                             shape, boundary)[0]


def wrap_shift_index(shape: ImageShape) -> np.ndarray:
    """(H W, n) source indices of every wrap shift: row di * W + dj is
    `shift_op(shape, di, dj, WRAP).source_index`, 0 <= di < H, 0 <= dj < W."""
    return _wrap_table(shape, np.arange(shape.n))


def build_translation_set(shape: ImageShape, shifts_v: int, shifts_h: int,
                          boundary: str = WRAP) -> TransformationSet:
    """Grid of integer shifts, centered on the identity.

    Counts must be odd so the (0, 0) shift sits at the grid center.  Shift
    ranges are capped so every op is distinct (wrap) or not all-VOID
    (zero-pad).
    """
    for count, extent, axis in ((shifts_v, shape.height, "vertical"),
                                (shifts_h, shape.width, "horizontal")):
        if count < 1 or count % 2 == 0:
            raise ValueError(f"{axis} shift count must be odd and >= 1")
        if boundary == WRAP and count > extent:
            raise ValueError(f"{axis} shift count {count} exceeds image extent {extent}")
        if boundary == ZERO and count // 2 >= extent:
            raise ValueError(
                f"{axis} shift range {count // 2} is degenerate for zero-pad "
                f"(all-VOID rows) on extent {extent}")
    i, j = np.divmod(np.arange(shifts_v * shifts_h), shifts_h)
    di, dj = i - shifts_v // 2, j - shifts_h // 2
    params = tuple(zip(di.astype(float).tolist(), dj.astype(float).tolist()))
    if boundary == WRAP and (shifts_v, shifts_h) == (shape.height, shape.width):
        return TransformationSet._full_wrap_grid(shape, di, dj, params)
    return TransformationSet(_shift_table(shape, di, dj, boundary), shape, boundary,
                             grid=(shifts_v, shifts_h), params=params,
                             kind="translate")


def identity_set(shape: ImageShape) -> TransformationSet:
    """Single-op identity family (reduces models to their classic forms)."""
    return build_translation_set(shape, 1, 1, WRAP)


def shear_translate_op(shape: ImageShape, factor: float, t: int,
                       boundary: str = WRAP) -> TransformOp:
    """Shear rows horizontally by round(factor * row offset), then shift by t.

    Nearest-neighbor resampling keeps the op a generalized permutation; row
    offsets are measured from the exact image center (height - 1) / 2.
    """
    return build_shear_translation_set(shape, pairs=[(factor, t)],
                                       boundary=boundary)[0]


def build_shear_translation_set(shape: ImageShape,
                                shear_levels: Sequence[float] | None = None,
                                shifts_h: int | None = None,
                                *,
                                pairs: Iterable[tuple[float, int]] | None = None,
                                boundary: str = WRAP) -> TransformationSet:
    """Family of shear+translate ops (see `shear_translate_op`).

    Either give `shear_levels` and an odd centered `shifts_h` count (full
    cross product), or explicit (factor, shift) `pairs`.  With no arguments
    the default 29-op family is built.
    """
    if pairs is None:
        if shear_levels is None and shifts_h is None:
            pairs = DEFAULT_SHEAR_FAMILY
        else:
            if shear_levels is None or shifts_h is None:
                raise ValueError("give both shear_levels and shifts_h, or pairs")
            if shifts_h < 1 or shifts_h % 2 == 0:
                raise ValueError("horizontal shift count must be odd and >= 1")
            shifts = [j - shifts_h // 2 for j in range(shifts_h)]
            pairs = [(float(s), t) for s in shear_levels for t in shifts]
    pairs = tuple((float(s), int(t)) for s, t in pairs)
    if not pairs:
        raise ValueError("a TransformationSet needs at least one op")
    factor, t = (np.array(v) for v in zip(*pairs))
    if not np.isfinite(factor).all():
        raise ValueError("shear factor must be finite")
    h, w = shape.height, shape.width
    k = np.rint(factor[:, None] * (np.arange(h) - (h - 1) / 2.0)).astype(np.int64)
    dj = k + t[:, None]
    if boundary == ZERO and np.any(np.abs(dj) >= w):
        raise ValueError("shear+shift leaves a whole row without source columns")
    return TransformationSet(_shift_table(shape, np.zeros(len(pairs)), dj, boundary),
                             shape, boundary, params=pairs, kind="shear")
