"""Model and frame file handling.

Model files are one self-contained artifact: a human-readable ASCII header,
the transformation set (boundary, grid, per-op source-index table), the
parameter blocks as little-endian float64 in a fixed order, and a trailing
CRC32 of everything before it.  Saving the same model twice yields identical
bytes.

Frames are binary PGM (P5), 8- or 16-bit, mapped linearly to [0, 1].
"""

from __future__ import annotations

import math
import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np

from .thmm import MotionPrior, ThmmModel, _table_shape
from .mtca import MtcaModel
from .tca import TcaModel
from .tmg import TmgModel
from .transforms import ImageShape, TransformationSet

MAGIC = "TXMODEL"
VERSION = 1


class ModelIOError(Exception):
    """Base class for model-file problems."""


class VersionError(ModelIOError):
    """File magic or format version does not match this reader."""


class ChecksumError(ModelIOError):
    """Trailing checksum does not validate the payload."""


class UnknownFamilyError(ModelIOError):
    """File declares a family this reader does not know."""


class FamilyMismatchError(ModelIOError):
    """File holds a different family than the caller asked for."""


# model files name their family; a family's arrays are its class's `_AXES`
_CLASSES = {"tmg": TmgModel, "tca": TcaModel, "mtca": MtcaModel, "thmm": ThmmModel}


def _le(arr, dtype: str) -> np.ndarray:
    """`arr` as a contiguous little-endian block; no copy if it is one."""
    return np.ascontiguousarray(arr, dtype=dtype)


def save_model(model, path) -> None:
    """Write a model file; the byte stream is canonical for a given model.
    The parameter blocks follow the class's `_AXES`; a THMM's motion table
    comes last.  Blocks go to the file as they stand, under a running
    checksum: a save copies no table."""
    family = next((f for f, cls in _CLASSES.items() if type(model) is cls), None)
    if family is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    axes = "".join(model._AXES.values())
    ts = model.transforms
    lines = [f"{MAGIC} {VERSION}", f"family {family}",
             f"height {model.shape.height}", f"width {model.shape.width}"]
    if "C" in axes:
        lines.append(f"clusters {model.C}")
    if "K" in axes:
        lines.append(f"factors {model.K}")
        lines.append(f"fast {int(model.fast_likelihood)}")
    lines.append(f"boundary {ts.boundary}")
    lines.append("grid none" if ts.grid is None else f"grid {ts.grid[0]} {ts.grid[1]}")
    lines.append(f"kind {ts.kind}")
    lines.append(f"ops {ts.L}")
    param_width = 0 if ts.params is None else len(ts.params[0])
    lines.append(f"param_width {param_width}")
    if family == "thmm":
        m = model.motion
        lines.append(f"motion_mode {m.mode}")
        lines.append(f"motion_threshold {m.threshold!r}")
        lines.append(f"motion_per_class {int(m.per_class)}")
    lines.append("END")

    blocks = [("\n".join(lines) + "\n").encode("ascii"), _le(ts.source_matrix, "<i8")]
    if param_width:
        blocks.append(_le(ts.params, "<f8"))
    blocks += [_le(getattr(model, name), "<f8") for name in model._AXES]
    if family == "thmm":
        blocks.append(_le(model.motion.table, "<f8"))
    crc = 0
    with open(path, "wb") as fh:
        for block in blocks:
            fh.write(block)
            crc = zlib.crc32(block, crc)
        fh.write(struct.pack("<I", crc))


def _take(buf: memoryview, shape, dtype: str = "<f8",
          copy: bool = True) -> tuple[np.ndarray, memoryview]:
    """The next block, of the given shape, and the bytes after it; without
    `copy`, the block is a read-only view of `buf`."""
    if min(shape) < 0:
        raise ModelIOError(f"header gives a negative block size {shape}")
    need = math.prod(shape) * np.dtype(dtype).itemsize
    if len(buf) < need:
        raise ModelIOError("file truncated inside a parameter block")
    arr = np.frombuffer(buf[:need], dtype=dtype).reshape(shape)
    return (arr.copy() if copy else arr), buf[need:]


class _Header(dict):
    """Header fields by key; a missing key is a malformed file."""

    def __missing__(self, key):
        raise ModelIOError(f"header lacks the {key!r} line")


def load_model(path, family: str | None = None):
    """Read a model file back, verifying version, family and checksum.  Any
    fault in a file whose checksum holds is a `ModelIOError`."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ModelIOError("file too short to hold a checksum")
    if struct.unpack("<I", raw[-4:])[0] != zlib.crc32(memoryview(raw)[:-4]):
        raise ChecksumError("trailing checksum does not match the payload")
    try:
        return _parse(raw, family)
    except (ValueError, IndexError, OverflowError) as exc:  # and UnicodeDecodeError
        raise ModelIOError(f"malformed model file: {exc}") from exc


def _parse(raw: bytes, family: str | None):
    """The model in a file's bytes whose checksum holds: header,
    transformation set and parameter blocks, then the 4-byte checksum.  The
    blocks are read through views of `raw`, not copies of it."""
    end = raw.find(b"\nEND\n", 0, len(raw) - 4)
    if end < 0:
        raise ModelIOError("missing header terminator")
    header_text = raw[:end].decode("ascii")
    body = memoryview(raw)[end + len(b"\nEND\n"):-4]

    lines = header_text.splitlines()
    magic = (lines[0] if lines else "").split()
    if magic[:1] != [MAGIC]:
        raise VersionError(f"not a {MAGIC} file")
    if magic[1:] != [str(VERSION)]:
        version = " ".join(magic[1:]) or "missing"
        raise VersionError(f"format version {version} not supported")
    fields = _Header(line.split(maxsplit=1) for line in lines[1:])

    file_family = fields["family"]
    if file_family not in _CLASSES:
        raise UnknownFamilyError(f"unknown family {file_family!r}")
    if family is not None and family != file_family:
        raise FamilyMismatchError(
            f"file holds a {file_family} model, caller asked for {family}")
    cls = _CLASSES[file_family]

    shape = ImageShape(int(fields["height"]), int(fields["width"]))
    n = shape.n
    L = int(fields["ops"])
    # the set copies its table to int64 itself
    src, body = _take(body, (L, n), "<i8", copy=False)
    grid = None if fields["grid"] == "none" else tuple(int(v) for v in fields["grid"].split())
    param_width = int(fields["param_width"])
    params = None
    if param_width:
        raw_params, body = _take(body, (L, param_width), copy=False)
        params = tuple(tuple(row) for row in raw_params)
    ts = TransformationSet(src, shape, fields["boundary"], grid=grid, params=params,
                           kind=fields["kind"])

    axes = "".join(cls._AXES.values())
    size = {"n": n, "L": L}
    extra = {}
    if "C" in axes:
        size["C"] = int(fields["clusters"])
    if "K" in axes:
        size["K"] = int(fields["factors"])
        extra["fast_likelihood"] = bool(int(fields["fast"]))
    arrays = {}
    for name, field_axes in cls._AXES.items():
        arrays[name], body = _take(body, tuple(size[a] for a in field_axes))
    if file_family == "thmm":
        mode = fields["motion_mode"]
        threshold = float(fields["motion_threshold"])
        # the table's shape, from its radius alone: nothing is built before
        # `_take` has checked that the file holds the table.  A per-class
        # table has a leading class axis, and its rank is what says so
        table_shape = _table_shape(mode, threshold)
        if int(fields["motion_per_class"]):
            table_shape = (size["C"],) + table_shape
        table, body = _take(body, table_shape)
        extra["motion"] = MotionPrior(mode=mode, threshold=threshold, table=table)
    if len(body):
        raise ModelIOError(f"{len(body)} bytes follow the last parameter block")
    return cls(transforms=ts, **arrays, **extra)


def _quantised(images, maxval: int) -> np.ndarray:
    """PGM pixel values of images in [0, 1], clipped, as the file's dtype."""
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    data = np.clip(np.rint(np.asarray(images, dtype=np.float64) * maxval), 0, maxval)
    return data.astype(">u2" if maxval == 65535 else "u1")


def _header(height: int, width: int, maxval: int) -> bytes:
    return f"P5\n{width} {height}\n{maxval}\n".encode("ascii")


def write_pgm(path, image, shape: ImageShape | None = None, maxval: int = 255) -> None:
    """Binary PGM (P5); intensities map linearly from [0, 1], clipped."""
    data = _quantised(image, maxval)
    if data.ndim == 1:
        if shape is None:
            raise ValueError("flat pixel vector needs an explicit shape")
        data = data.reshape(shape.height, shape.width)
    Path(path).write_bytes(_header(*data.shape, maxval) + data.tobytes())


# a header token, after the whitespace and `#` comments (each up to its
# newline) before it; a `#` inside a token belongs to the token
_SKIP = re.compile(rb"(?:\s|#[^\n]*\n)*")
_TOKEN = re.compile(rb"\S+")


def _pgm_header(raw: bytes, path):
    """(height, width, maxval, dtype, pos) of a binary PGM's bytes, its
    pixels the height * width values of dtype from byte pos on.  Malformed
    input raises ValueError naming `path`."""

    def fail(msg):
        raise ValueError(f"{path}: {msg}")

    pos, tokens = 0, []
    while len(tokens) < 4:
        pos = _SKIP.match(raw, pos).end()
        if pos >= len(raw):
            fail("truncated header")
        if raw[pos] == ord("#"):
            fail("unterminated comment")
        end = _TOKEN.match(raw, pos).end()
        tokens.append(raw[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    if tokens[0] != b"P5":
        fail("not a binary PGM (P5)")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        fail("malformed header numbers")
    if maxval not in (255, 65535):
        fail(f"unsupported maxval {maxval}")
    dtype = np.dtype(">u2" if maxval == 65535 else "u1")
    count = width * height
    if len(raw) - pos < count * dtype.itemsize:
        fail("truncated pixel data")
    return height, width, maxval, dtype, pos


def _pgm_pixels(raw: bytes, path):
    """(height, width, maxval, pixels) of a binary PGM's bytes: the pixels
    as a flat integer view of `raw`.  Malformed input raises ValueError
    naming `path`."""
    height, width, maxval, dtype, pos = _pgm_header(raw, path)
    return height, width, maxval, np.frombuffer(raw, dtype=dtype, count=height * width,
                                                offset=pos)


def read_pgm(path):
    """Read a binary PGM; returns (image in [0, 1], maxval)."""
    height, width, maxval, pixels = _pgm_pixels(Path(path).read_bytes(), path)
    return pixels.reshape(height, width) / maxval, maxval


def _read_file(path) -> bytes:
    """A file's bytes through one unbuffered open."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


def _write_file(path, data: bytes) -> None:
    """Write a file's bytes through one unbuffered open."""
    with open(path, "wb", buffering=0) as f:
        view = memoryview(data)
        while view:
            view = view[f.write(view):]


def write_frames(frames, shape: ImageShape, directory, maxval: int = 255) -> None:
    """Frames as frame_XXXX.pgm files, the index zero-padded to four digits
    or to the last index's width if wider, so that the names sort in frame
    order.  The whole stack is quantised at once, then each frame's bytes
    are written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data = np.atleast_2d(_quantised(frames, maxval))
    if data.ndim == 2:
        data = data.reshape(len(data), shape.height, shape.width)
    header = _header(*data.shape[1:], maxval)
    digits = max(4, len(str(len(data) - 1)))
    base = str(directory)
    for t, frame in enumerate(data):
        _write_file(os.path.join(base, f"frame_{t:0{digits}d}.pgm"), header + frame.tobytes())


def read_frames(directory):
    """Read every .pgm in a directory, ordered by filename, into one (T, n)
    array.  Returns (frames (T, n), ImageShape).

    The files that carry the first file's header bytes and length are
    decoded with one `frombuffer`; any other file is parsed on its own."""
    directory = Path(directory)
    names = sorted(name for name in (os.listdir(directory) if directory.is_dir() else ())
                   if name.endswith(".pgm") and not name.startswith("."))
    if not names:
        raise ValueError(f"{directory}: no .pgm frames found")
    base = str(directory)
    raws = [_read_file(os.path.join(base, name)) for name in names]
    height, width, maxval, dtype, pos = _pgm_header(raws[0], directory / names[0])
    shape, head, end = (height, width), raws[0][:pos], pos + height * width * dtype.itemsize
    same = np.array([len(raw) == len(raws[0]) and raw.startswith(head) for raw in raws])
    block = np.frombuffer(b"".join(raw[pos:end] for raw, s in zip(raws, same) if s),
                          dtype=dtype).reshape(int(same.sum()), height * width)
    frames = np.empty((len(names), height * width))
    if same.all():
        np.divide(block, maxval, out=frames)
    else:
        frames[same] = block / maxval
    for t in np.flatnonzero(~same):
        path = directory / names[t]
        height, width, maxval, pixels = _pgm_pixels(raws[t], path)
        if (height, width) != shape:
            raise ValueError(f"{path}: frame shape {(height, width)} != first frame {shape}")
        np.divide(pixels, maxval, out=frames[t])
    return frames, ImageShape(*shape)


def montage(images, shape: ImageShape, cols: int | None = None,
            pad: int = 1) -> np.ndarray:
    """Tile images into one grid image, min-max normalized to [0, 1]."""
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    count = images.shape[0]
    cols = count if cols is None else cols
    rows = -(-count // cols)
    lo, hi = images.min(), images.max()
    scaled = (images - lo) / (hi - lo) if hi > lo else np.zeros_like(images)
    h, w = shape.height, shape.width
    out = np.ones((rows * (h + pad) - pad, cols * (w + pad) - pad))
    for idx in range(count):
        r, c = divmod(idx, cols)
        out[r * (h + pad):r * (h + pad) + h,
            c * (w + pad):c * (w + pad) + w] = scaled[idx].reshape(h, w)
    return out
