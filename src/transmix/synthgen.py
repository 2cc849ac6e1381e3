"""Seeded synthetic data generators with retained ground truth.

Every generator is a pure function of its seed and parameters, emits frames
as (T, n) float arrays, and returns a GroundTruth whose (class, shift)
records re-render the noiseless frames exactly.  That makes the generators
usable as oracles: tests compare model output against what was actually
drawn.

Each generator renders all of its frames with one gather through the
library's shift tables (`transforms._shift_table` or a set's
`source_matrix`), whose ``VOID`` = -1 reads the zero pixel `_padded`
appends; `render_pacman_frame` renders one frame through a `shift_op`, the
independent re-render that the tests check them against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import _padded
from .transforms import (WRAP, ZERO, ImageShape, TransformationSet, _shift_table, apply,
                         build_shear_translation_set, shift_op)

# 3x3 sprites, one per mouth/motion direction: all pixels lit except the
# corner facing the way the sprite moves.  Each sprite is the previous one
# rotated a quarter turn counterclockwise, so a "left turn" is a rotation,
# one place on in DIRECTIONS.
DIRECTIONS = ("right", "up", "left", "down")
_MOUTH_CORNER = {"right": (0, 2), "up": (0, 0), "left": (2, 0), "down": (2, 2)}
LEFT_TURN = {d: DIRECTIONS[(i + 1) % 4] for i, d in enumerate(DIRECTIONS)}
# one-pixel (di, dj) step of each direction, in DIRECTIONS order
_STEPS = np.array([(0, 1), (-1, 0), (0, -1), (1, 0)])


def sprite(direction: str) -> np.ndarray:
    """(3, 3) sprite for one motion direction."""
    s = np.ones((3, 3))
    s[_MOUTH_CORNER[direction]] = 0.0
    return s


@dataclass(eq=False)
class GroundTruth:
    """What the generator actually drew, for oracle-based tests.

    clean    (T, n) noiseless frames (structure only, no sensor noise)
    classes  (T,) class/direction index per frame
    shifts   (T, 2) signed (di, dj) grid shift per frame
    params   generator parameters, everything needed to re-render
    """

    clean: np.ndarray
    classes: np.ndarray
    shifts: np.ndarray
    params: dict = field(default_factory=dict)


def _check_params(counts=None, probabilities=None, nonnegative=None):
    """Refuse a bad generator parameter by name: counts below 1,
    probabilities outside [0, 1], negative noise levels and ranges (or any
    of them NaN)."""
    for name, v in (counts or {}).items():
        if not v >= 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    for name, v in (probabilities or {}).items():
        if not 0 <= v <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    for name, v in (nonnegative or {}).items():
        if not np.all(np.asarray(v) >= 0):
            raise ValueError(f"{name} must be nonnegative, got {v}")


def render_pacman_frame(shape: ImageShape, direction_idx: int, di: int, dj: int,
                        background: np.ndarray) -> np.ndarray:
    """Noiseless pac-man frame: background texture plus the sprite shifted
    (with wrap-around) from its centered canonical placement."""
    h, w = shape.height, shape.width
    canvas = np.zeros((h, w))
    r0, c0 = h // 2 - 1, w // 2 - 1
    canvas[r0:r0 + 3, c0:c0 + 3] = sprite(DIRECTIONS[direction_idx])
    moved = apply(shift_op(shape, di, dj, WRAP), canvas.reshape(-1))
    return np.maximum(moved, background.reshape(-1))


def gen_pacman(seed, T: int = 200, grid: int = 11, p_stay: float = 0.2,
               p_turn: float = 0.75, bg_noise: float = 0.1,
               sensor_noise: float = 0.05):
    """Pac-man movie: a 3x3 sprite walks on a wrap-around grid, moving one
    pixel in its mouth direction (staying put with p_stay) and turning left
    with p_turn; static background clutter plus per-frame sensor noise."""
    if grid < 3:
        raise ValueError("grid must fit the 3x3 sprite")
    _check_params(counts={"T": T}, probabilities={"p_stay": p_stay, "p_turn": p_turn},
                  nonnegative={"bg_noise": bg_noise, "sensor_noise": sensor_noise})
    rng = np.random.default_rng(seed)
    shape = ImageShape(grid, grid)
    background = np.abs(bg_noise * rng.standard_normal((grid, grid)))
    first = int(rng.integers(len(DIRECTIONS)))
    # step t > 0 draws the move's uniform, then the turn's; it moves the way
    # the sprite faced before the turn
    u = rng.random(2 * (T - 1)).reshape(T - 1, 2)
    turns = np.concatenate([[0], np.cumsum(u[:, 1] < p_turn)])
    classes = (first + turns) % len(DIRECTIONS)
    steps = (u[:, :1] >= p_stay) * _STEPS[classes[:-1]]
    pos = np.concatenate([np.zeros((1, 2), dtype=np.int64), np.cumsum(steps, axis=0)])
    half = grid // 2
    shifts = (pos + half) % grid - half
    canvases = np.zeros((len(DIRECTIONS), grid, grid))
    canvases[:, half - 1:half + 2, half - 1:half + 2] = [sprite(d) for d in DIRECTIONS]
    src = _shift_table(shape, shifts[:, 0], shifts[:, 1], WRAP)
    clean = np.maximum(canvases.reshape(len(DIRECTIONS), -1)[classes[:, None], src],
                       background.reshape(-1))
    frames = clean + sensor_noise * rng.standard_normal(clean.shape)
    truth = GroundTruth(clean=clean, classes=classes, shifts=shifts,
                        params={"shape": shape, "background": background,
                                "p_stay": p_stay, "p_turn": p_turn,
                                "bg_noise": bg_noise,
                                "sensor_noise": sensor_noise})
    return frames, truth


def gen_shifted_template(seed, template, T: int, shift_range: int,
                         sensor_noise: float, walk: bool = False,
                         boundary: str = "wrap"):
    """Shifted copies of one template: i.i.d. uniform shifts in the given
    range, or a random walk with unit steps, plus sensor noise."""
    _check_params(counts={"T": T},
                  nonnegative={"shift_range": shift_range, "sensor_noise": sensor_noise})
    if boundary not in (WRAP, ZERO):
        raise ValueError(f"boundary must be {WRAP!r} or {ZERO!r}, got {boundary!r}")
    rng = np.random.default_rng(seed)
    template = np.asarray(template, dtype=np.float64)
    if template.ndim != 2:
        raise ValueError("template must be a 2-d image")
    shape = ImageShape(*template.shape)
    flat = template.reshape(-1)
    shifts = np.zeros((T, 2), dtype=np.int64)
    if shift_range > 0:
        if walk:
            pos = np.zeros(2, dtype=np.int64)
            for t in range(T):
                shifts[t] = pos
                step = rng.integers(-1, 2, size=2)
                pos = np.clip(pos + step, -shift_range, shift_range)
        else:
            shifts = rng.integers(-shift_range, shift_range + 1, size=(T, 2))
    # a zero-pad shift's VOID (-1) reads the appended zero pixel
    clean = _padded(flat)[_shift_table(shape, shifts[:, 0], shifts[:, 1], boundary)]
    frames = clean + sensor_noise * rng.standard_normal(clean.shape)
    truth = GroundTruth(clean=clean, classes=np.zeros(T, dtype=np.int64),
                        shifts=shifts,
                        params={"shape": shape, "template": template,
                                "boundary": boundary, "walk": walk,
                                "sensor_noise": sensor_noise})
    return frames, truth


# 8x8 glyph prototypes for ten classes, a simple blocky digit font.
_GLYPH_ROWS = [
    ["00111100", "01100110", "01100110", "01100110",
     "01100110", "01100110", "01100110", "00111100"],  # 0
    ["00011000", "00111000", "00011000", "00011000",
     "00011000", "00011000", "00011000", "00111100"],  # 1
    ["00111100", "01100110", "00000110", "00001100",
     "00011000", "00110000", "01100000", "01111110"],  # 2
    ["00111100", "01100110", "00000110", "00011100",
     "00000110", "00000110", "01100110", "00111100"],  # 3
    ["00001100", "00011100", "00111100", "01101100",
     "01111110", "00001100", "00001100", "00001100"],  # 4
    ["01111110", "01100000", "01100000", "01111100",
     "00000110", "00000110", "01100110", "00111100"],  # 5
    ["00111100", "01100110", "01100000", "01111100",
     "01100110", "01100110", "01100110", "00111100"],  # 6
    ["01111110", "00000110", "00001100", "00011000",
     "00110000", "00110000", "00110000", "00110000"],  # 7
    ["00111100", "01100110", "01100110", "00111100",
     "01100110", "01100110", "01100110", "00111100"],  # 8
    ["00111100", "01100110", "01100110", "00111110",
     "00000110", "00000110", "01100110", "00111100"],  # 9
]

GLYPHS = np.stack([
    np.array([[float(ch) for ch in row] for row in rows])
    for rows in _GLYPH_ROWS
])


def gen_sheared_glyphs(seed, prototypes=None, per_class: int = 200,
                       transform_set: TransformationSet | None = None,
                       stroke_sigma=(0.15, 0.1), noise: float = 0.05):
    """Labeled glyph dataset with per-sample shear+translate transformations.

    Each sample applies a random op from the set to its class prototype
    perturbed along per-class variation images (intensity and a horizontal
    stroke-position wiggle), then adds pixel noise.  Returns
    (images (N, n), labels (N,), truth) where truth records the op index
    per sample.
    """
    _check_params(counts={"per_class": per_class},
                  nonnegative={"stroke_sigma": stroke_sigma, "noise": noise})
    rng = np.random.default_rng(seed)
    protos = GLYPHS if prototypes is None else np.asarray(prototypes, dtype=np.float64)
    shape = ImageShape(*protos.shape[1:])
    if transform_set is None:
        transform_set = build_shear_translation_set(shape, boundary=ZERO)
    n_class = protos.shape[0]
    flat = protos.reshape(n_class, -1)
    # variation images: brightness, and a horizontal position wiggle
    moved = _padded(flat, axis=1)[:, _shift_table(shape, [0, 0], [1, -1], ZERO)]
    wiggle = (moved[:, 0] - moved[:, 1]) * 0.5
    variations = np.stack([flat, wiggle], axis=1)  # (C, 2, n)
    sigmas = np.asarray(stroke_sigma, dtype=np.float64)[: variations.shape[1]]

    total = n_class * per_class
    labels = np.repeat(np.arange(n_class), per_class)
    ops = rng.integers(transform_set.L, size=total)
    coeffs = rng.standard_normal((total, sigmas.size)) * sigmas
    latent = flat[labels] + np.matmul(coeffs[:, None, :],
                                      variations[labels, :sigmas.size])[:, 0]
    clean = np.take_along_axis(_padded(latent, axis=1),
                               transform_set.source_matrix[ops], axis=1)
    images = clean + noise * rng.standard_normal(clean.shape)
    truth = GroundTruth(clean=clean, classes=labels,
                        shifts=np.zeros((total, 2), dtype=np.int64),
                        params={"shape": shape, "transform_set": transform_set,
                                "ops": ops, "coeffs": coeffs, "noise": noise})
    return images, labels, truth


def gen_occluded(base_frames, bar: tuple[int, int, int, int],
                 shape: ImageShape, value: float = 0.0):
    """Overwrite a fixed rectangle (r0, r1, c0, c1), end-exclusive, with a
    constant intensity in every frame; the unoccluded input is kept as the
    ground truth."""
    X = np.atleast_2d(np.asarray(base_frames, dtype=np.float64))
    r0, r1, c0, c1 = bar
    if not (0 <= r0 <= r1 <= shape.height and 0 <= c0 <= c1 <= shape.width):
        raise ValueError("bar rectangle out of bounds")
    mask = np.zeros((shape.height, shape.width), dtype=bool)
    mask[r0:r1, c0:c1] = True
    mask = mask.reshape(-1)
    frames = X.copy()
    frames[:, mask] = value
    truth = GroundTruth(clean=X.copy(), classes=np.zeros(X.shape[0], dtype=np.int64),
                        shifts=np.zeros((X.shape[0], 2), dtype=np.int64),
                        params={"bar": bar, "value": value, "mask": mask,
                                "shape": shape})
    return frames, truth
