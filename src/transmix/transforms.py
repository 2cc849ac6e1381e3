"""Discrete image transformations as sparse generalized-permutation operators.

A transformation is stored as one source index per output pixel (``VOID``
marks output pixels with no source).  The induced matrix G has at most one
unit entry per row, so applying an operator is linear in the pixel count and
``G diag(v) G^T`` stays diagonal, which is what makes the model likelihoods
in this package exact and cheap.

Padded indices.  The model kernels read through a set by plain gathers,
with n (the pixel count) in place of ``VOID``, from arrays with one zero
pixel appended: a gather yields 0 where a pixel has no counterpart, with no
mask.  `TransformationSet.padded_source` maps each observed pixel to the
latent pixel it reads, `TransformationSet.padded_dest` each latent pixel to
the observed pixel it lands on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

VOID = -1

WRAP = "wrap"
ZERO = "zero"
_BOUNDARIES = (WRAP, ZERO)

# Default shear+translate family: 7 shear slopes (quarter-pixel-per-row
# steps) crossed with horizontal shifts {-2, 0, 2}, plus 8 small combined
# perturbations around the identity.  29 operators total, identity included.
DEFAULT_SHEAR_FAMILY: tuple[tuple[float, int], ...] = tuple(
    [(s / 4.0, t) for s in range(-3, 4) for t in (-2, 0, 2)]
    + [(0.0, -1), (0.0, 1), (-0.25, -1), (-0.25, 1),
       (0.25, -1), (0.25, 1), (0.0, -3), (0.0, 3)]
)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
class TransformOp:
    """One generalized-permutation operator on flattened pixel vectors.

    ``source_index[p]`` is the input pixel copied to output pixel ``p``, or
    ``VOID`` when output pixel ``p`` has no source (zero row of G).
    """

    source_index: np.ndarray
    shape: ImageShape

    def __post_init__(self):
        src = _read_only(np.ascontiguousarray(self.source_index, dtype=np.int64))
        object.__setattr__(self, "source_index", src)
        n = self.shape.n
        if src.shape != (n,):
            raise ValueError(f"source_index must have shape ({n},)")
        if src.min(initial=0) < VOID or src.max(initial=0) >= n:
            raise ValueError("source indices out of range")
        valid = src >= 0
        # Inverse map: dest_index[q] = output pixel fed by input q, VOID if
        # q is never read.  Only defined when the op is injective.
        sources = src[valid]
        injective = np.unique(sources).size == sources.size
        dest = None
        if injective:
            dest = np.full(n, VOID, dtype=np.int64)
            dest[sources] = np.nonzero(valid)[0]
            _read_only(dest)
        object.__setattr__(self, "injective", injective)
        object.__setattr__(self, "dest_index", dest)

    injective: bool = field(init=False)
    dest_index: np.ndarray | None = field(init=False)

    @property
    def n(self) -> int:
        return self.shape.n


@dataclass(frozen=True, eq=False)
class TransformationSet:
    """Ordered family of operators sharing one shape and boundary rule.

    ``grid``, when present, is ``(M_v, M_h)`` and op ``l = i * M_h + j`` is
    the integer shift by ``(i - M_v // 2, j - M_h // 2)``.  ``params`` keeps
    the per-op parameter tuple the builder used (shift offsets, or
    ``(shear, shift)`` pairs), which tangent-direction lookups rely on.
    """

    ops: tuple[TransformOp, ...]
    boundary: str
    grid: tuple[int, int] | None = None
    params: tuple[tuple[float, ...], ...] | None = None
    kind: str = "custom"

    def __post_init__(self):
        if len(self.ops) < 1:
            raise ValueError("a TransformationSet needs at least one op")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        shape = self.ops[0].shape
        if any(op.shape != shape for op in self.ops):
            raise ValueError("all ops must share one image shape")
        if self.grid is not None and self.grid[0] * self.grid[1] != len(self.ops):
            raise ValueError("grid dims inconsistent with op count")
        if self.params is not None and len(self.params) != len(self.ops):
            raise ValueError("params length must match op count")

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, l: int) -> TransformOp:
        return self.ops[l]

    def __iter__(self):
        return iter(self.ops)

    @property
    def L(self) -> int:
        return len(self.ops)

    @property
    def shape(self) -> ImageShape:
        return self.ops[0].shape

    @cached_property
    def source_matrix(self) -> np.ndarray:
        """(L, n) stacked source indices, VOID entries where rows are zero."""
        return _read_only(np.stack([op.source_index for op in self.ops]))

    @cached_property
    def padded_source(self) -> np.ndarray:
        """(L, n) `source_matrix` with VOID mapped to n."""
        src = self.source_matrix
        return _read_only(np.where(src >= 0, src, self.shape.n))

    @cached_property
    def padded_dest(self) -> np.ndarray:
        """(L, n) inverse maps with VOID mapped to n: row l holds, per latent
        pixel, the observed pixel op l copies it to.  Needs injective ops."""
        for l, op in enumerate(self.ops):
            if not op.injective:
                raise ValueError(f"op {l} is not injective: it copies one "
                                 "source pixel to several output pixels")
        dest = np.stack([op.dest_index for op in self.ops])
        return _read_only(np.where(dest >= 0, dest, self.shape.n))

    @property
    def has_void(self) -> bool:
        return bool((self.source_matrix < 0).any())

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


def _check_vector(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != n:
        raise ValueError(f"pixel vector of length {n} expected, got {x.shape}")
    return x


def apply(op: TransformOp, image) -> np.ndarray:
    """Apply G to a pixel vector (or a batch stacked on leading axes)."""
    x = _check_vector(image, op.n)
    src = op.source_index
    out = np.where(src >= 0, x[..., np.where(src >= 0, src, 0)], 0.0)
    return out


def apply_adjoint(op: TransformOp, image) -> np.ndarray:
    """Apply G^T (scatter).  Inverts `apply` exactly for wrap permutations."""
    x = _check_vector(image, op.n)
    if op.injective:
        dest = op.dest_index
        return np.where(dest >= 0, x[..., np.where(dest >= 0, dest, 0)], 0.0)
    out = np.zeros_like(x)
    valid = np.nonzero(op.source_index >= 0)[0]
    sources = op.source_index[valid]
    if x.ndim == 1:
        np.add.at(out, sources, x[valid])
    else:
        flat = out.reshape(-1, op.n)
        xf = x.reshape(-1, op.n)
        rows = np.arange(flat.shape[0])[:, None]
        np.add.at(flat, (rows, sources[None, :]), xf[:, valid])
        out = flat.reshape(x.shape)
    return out


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
    src = op.source_index
    return np.where(src >= 0, phi[np.where(src >= 0, src, 0)], 0.0) + psi


def shift_op(shape: ImageShape, di: int, dj: int, boundary: str = WRAP) -> TransformOp:
    """Integer-pixel shift moving content down by `di` rows, right by `dj`."""
    if boundary not in _BOUNDARIES:
        raise ValueError(f"boundary must be one of {_BOUNDARIES}")
    h, w = shape.height, shape.width
    rows = np.arange(h)[:, None] - di
    cols = np.arange(w)[None, :] - dj
    if boundary == WRAP:
        src = (rows % h) * w + (cols % w)
    else:
        inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        src = np.where(inside, np.clip(rows, 0, h - 1) * w + np.clip(cols, 0, w - 1), VOID)
    return TransformOp(src.reshape(-1).astype(np.int64), shape)


def wrap_shift_index(shape: ImageShape) -> np.ndarray:
    """(H W, n) source indices of every wrap shift: row di * W + dj is
    `shift_op(shape, di, dj, WRAP).source_index`, 0 <= di < H, 0 <= dj < W."""
    h, w = shape.height, shape.width
    di, dj = np.divmod(np.arange(h * w), w)
    rows = (np.arange(h)[None, :, None] - di[:, None, None]) % h
    cols = (np.arange(w)[None, None, :] - dj[:, None, None]) % w
    return (rows * w + cols).reshape(h * w, h * w)


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
    ops = []
    params = []
    for i in range(shifts_v):
        for j in range(shifts_h):
            di, dj = i - shifts_v // 2, j - shifts_h // 2
            ops.append(shift_op(shape, di, dj, boundary))
            params.append((float(di), float(dj)))
    return TransformationSet(tuple(ops), boundary, grid=(shifts_v, shifts_h),
                             params=tuple(params), kind="translate")


def identity_set(shape: ImageShape) -> TransformationSet:
    """Single-op identity family (reduces models to their classic forms)."""
    return build_translation_set(shape, 1, 1, WRAP)


def shear_translate_op(shape: ImageShape, factor: float, t: int,
                       boundary: str = WRAP) -> TransformOp:
    """Shear rows horizontally by round(factor * row offset), then shift by t.

    Nearest-neighbor resampling keeps the op a generalized permutation; row
    offsets are measured from the exact image center (height - 1) / 2.
    """
    if not np.isfinite(factor):
        raise ValueError("shear factor must be finite")
    h, w = shape.height, shape.width
    center = (h - 1) / 2.0
    k = np.rint(factor * (np.arange(h) - center)).astype(np.int64)
    if boundary == ZERO and np.any(np.abs(k + t) >= w):
        raise ValueError("shear+shift leaves a whole row without source columns")
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :] - k[:, None] - t
    if boundary == WRAP:
        src = rows * w + (cols % w)
    else:
        inside = (cols >= 0) & (cols < w)
        src = np.where(inside, rows * w + np.clip(cols, 0, w - 1), VOID)
    return TransformOp(src.reshape(-1).astype(np.int64), shape)


def build_shear_translation_set(shape: ImageShape,
                                shear_levels: Sequence[float] | None = None,
                                shifts_h: int | None = None,
                                *,
                                pairs: Iterable[tuple[float, int]] | None = None,
                                boundary: str = WRAP) -> TransformationSet:
    """Family of shear+translate ops.

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
    ops = tuple(shear_translate_op(shape, s, t, boundary) for s, t in pairs)
    return TransformationSet(ops, boundary, params=pairs, kind="shear")
