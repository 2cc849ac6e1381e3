import hashlib
import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmix import ImageShape, build_shear_translation_set, build_translation_set
from transmix import thmm as thmm_mod
from transmix.model_io import (ChecksumError, FamilyMismatchError, ModelIOError,
                               UnknownFamilyError, VersionError, load_model,
                               montage, read_frames, read_pgm, save_model,
                               write_frames, write_pgm)
from transmix.mtca import MtcaModel, init_mtca
from transmix.tca import TcaModel, init_tca
from transmix.thmm import MotionPrior, ThmmModel, init_thmm, uniform_motion
from transmix.tmg import TmgModel, init_tmg


def fields_equal(a, b):
    for name in vars(a):
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
    return True


def make_models():
    rng = np.random.default_rng(0)
    shape = ImageShape(4, 4)
    grid = build_translation_set(shape, 3, 3)
    shear = build_shear_translation_set(shape, [-0.5, 0.0, 0.5], 3, boundary="zero")
    X = rng.uniform(0, 1, (12, 16))
    return {
        "tmg": init_tmg(shear, 2, X, seed=1),
        "tca": init_tca(grid, 2, X, seed=2, fast_likelihood=True),
        "mtca": init_mtca(shear, 2, 1, X, seed=3),
        "thmm": init_thmm(grid, 2, X, seed=4,
                          motion=uniform_motion(1.5, "magnitude", n_classes=2)),
    }


def test_round_trip_bit_exact(tmp_path):
    for name, model in make_models().items():
        path = tmp_path / f"{name}.txm"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert fields_equal(model, loaded)
        ts_a, ts_b = model.transforms, loaded.transforms
        assert ts_a.boundary == ts_b.boundary
        assert ts_a.grid == ts_b.grid
        assert ts_a.params == ts_b.params
        assert np.array_equal(ts_a.source_matrix, ts_b.source_matrix)
        if name == "thmm":
            assert np.array_equal(model.motion.table, loaded.motion.table)
            assert model.motion.mode == loaded.motion.mode


def test_canonical_bytes(tmp_path):
    model = make_models()["tmg"]
    a, b = tmp_path / "a.txm", tmp_path / "b.txm"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_truncation_gives_checksum_error(tmp_path):
    model = make_models()["tca"]
    path = tmp_path / "m.txm"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises((ChecksumError, ModelIOError)):
        load_model(path)
    # flipped byte in the middle
    corrupt = bytearray(raw)
    corrupt[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(corrupt))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_family_mismatch(tmp_path):
    model = make_models()["tmg"]
    path = tmp_path / "m.txm"
    save_model(model, path)
    with pytest.raises(FamilyMismatchError):
        load_model(path, family="thmm")
    assert load_model(path, family="tmg") is not None


def _rewritten(raw, old=b"", new=b"", tail=b""):
    """A saved model file with `old` replaced by `new` once and `tail`
    appended, under a recomputed checksum."""
    assert old in raw
    body = raw[:-4].replace(old, new, 1) + tail
    return body + struct.pack("<I", zlib.crc32(body))


def test_version_and_family_errors(tmp_path):
    model = make_models()["tmg"]
    path = tmp_path / "m.txm"
    save_model(model, path)
    raw = path.read_bytes()

    def rewrite(old=b"", new=b"", tail=b""):
        return _rewritten(raw, old, new, tail)

    path.write_bytes(rewrite(b"TXMODEL 1", b"TXMODEL 9"))
    with pytest.raises(VersionError):
        load_model(path)
    path.write_bytes(rewrite(b"family tmg", b"family xyz"))
    with pytest.raises(UnknownFamilyError):
        load_model(path)
    path.write_bytes(rewrite(tail=bytes(64)))
    with pytest.raises(ModelIOError, match="64 bytes follow the last"):
        load_model(path)
    path.write_bytes(rewrite(b"clusters 2\n", b""))
    with pytest.raises(ModelIOError, match="'clusters'"):
        load_model(path)


# (family, header text, its replacement); every file keeps a valid checksum
MALFORMED_HEADERS = {
    "ops-not-integer": ("tmg", b"ops 9", b"ops x"),
    "height-not-integer": ("tmg", b"height 4", b"height 4.5"),
    "clusters-not-integer": ("tmg", b"clusters 2", b"clusters two"),
    "negative-ops": ("tmg", b"ops 9", b"ops -9"),
    "negative-clusters": ("tmg", b"clusters 2", b"clusters -2"),
    "bare-key": ("tmg", b"grid none", b"grid"),
    "empty-first-line": ("tmg", b"TXMODEL 1", b""),
    "missing-version": ("tmg", b"TXMODEL 1", b"TXMODEL"),
    "version-not-integer": ("tmg", b"TXMODEL 1", b"TXMODEL one"),
    "non-ascii": ("tmg", b"kind shear", "kind cisaillé".encode("utf-8")),
    "grid-not-integer": ("thmm", b"grid 3 3", b"grid 3 x"),
    "grid-one-number": ("thmm", b"grid 3 3", b"grid 3"),
    "infinite-threshold": ("thmm", b"motion_threshold 1.5", b"motion_threshold inf"),
    "unknown-motion-mode": ("thmm", b"motion_mode magnitude", b"motion_mode spiral"),
    "unknown-boundary": ("thmm", b"boundary wrap", b"boundary mirror"),
    "negative-factors": ("mtca", b"factors 1", b"factors -1"),
}


@pytest.mark.parametrize("case", MALFORMED_HEADERS)
def test_malformed_header_is_a_model_io_error(tmp_path, case):
    family, old, new = MALFORMED_HEADERS[case]
    path = tmp_path / "m.txm"
    save_model(make_models()[family], path)
    path.write_bytes(_rewritten(path.read_bytes(), old, new))
    with pytest.raises(ModelIOError):
        load_model(path)


def test_non_injective_op_in_a_file_is_a_model_io_error(tmp_path):
    model = make_models()["tmg"]
    path = tmp_path / "m.txm"
    save_model(model, path)
    row = model.transforms[0].source_index
    p, q = np.nonzero(row >= 0)[0][:2]
    twice = row.copy()
    twice[q] = row[p]
    path.write_bytes(_rewritten(path.read_bytes(), row.astype("<i8").tobytes(),
                                twice.astype("<i8").tobytes()))
    with pytest.raises(ModelIOError, match="op 0 is not injective"):
        load_model(path)


@pytest.mark.parametrize("bad", ["n", "-2"])
def test_out_of_range_source_index_in_a_file_is_a_model_io_error(tmp_path, bad):
    model = make_models()["tmg"]
    path = tmp_path / "m.txm"
    save_model(model, path)
    row = model.transforms[1].source_index
    broken = row.copy()
    broken[0] = model.n if bad == "n" else -2
    path.write_bytes(_rewritten(path.read_bytes(), row.astype("<i8").tobytes(),
                                broken.astype("<i8").tobytes()))
    with pytest.raises(ModelIOError, match="out of range"):
        load_model(path)


@pytest.mark.parametrize("mode", [b"magnitude", b"vector"])
def test_huge_motion_threshold_fails_before_a_table_is_built(tmp_path, monkeypatch, mode):
    """The motion table's size comes from the header's threshold; a file
    too short for it is refused from that size alone, before any table is
    built (building one loops over every displacement within the radius)."""
    path = tmp_path / "m.txm"
    save_model(make_models()["thmm"], path)
    raw = _rewritten(path.read_bytes(), b"motion_threshold 1.5", b"motion_threshold 1e9")
    path.write_bytes(_rewritten(raw, b"motion_mode magnitude", b"motion_mode " + mode))

    def built(threshold):
        raise AssertionError("a motion table was built before the size check")

    monkeypatch.setattr(thmm_mod, "motion_offsets", built)
    with pytest.raises(ModelIOError, match="truncated"):
        load_model(path)


def _ramp(shape, lo, hi):
    """Evenly spaced values from lo to hi, filled in C order."""
    size = int(np.prod(shape))
    return (lo + (hi - lo) * np.arange(size) / (size - 1)).reshape(shape)


def _dist(shape, axis):
    """Positive values summing to one along `axis`, each slice tilted the
    other way from its neighbour, so a transposed block changes the bytes."""
    shape = tuple(shape)
    k = shape[axis]
    rest = shape[:axis] + shape[axis + 1:]
    tilt = (np.arange(k) - (k - 1) / 2) / (k * k)
    sign = 1.0 - 2.0 * (np.arange(int(np.prod(rest))) % 2)
    return np.moveaxis((1.0 / k + sign[:, None] * tilt).reshape(rest + (k,)), -1, axis)


def _pinned_model(case):
    """A model built from closed-form arrays: elementwise arithmetic only, no
    RNG and no reductions, so its file depends on nothing but the format."""
    shape, C, K = ImageShape(3, 3), 2, 2
    n = shape.n
    grid = build_translation_set(shape, 3, 3)
    shear = build_shear_translation_set(shape, [-0.5, 0.0, 0.5], 3, boundary="zero")
    mu, phi, psi = _ramp((C, n), -1, 1), _ramp((C, n), 0.5, 1.5), _ramp(n, 0.25, 0.75)
    family, _, variant = case.partition("-")
    if family == "tmg":
        return TmgModel(transforms=shear, pi=_dist((C,), 0), mu=mu,
                        phi=phi, rho=_dist((shear.L, C), 0), psi=psi)
    if family == "tca":
        ts = grid if variant == "fast" else shear
        return TcaModel(transforms=ts, mu=mu[0],
                        loadings=_ramp((n, K), -0.5, 0.5), phi=phi[0],
                        rho=_dist((ts.L,), 0), psi=psi,
                        fast_likelihood=variant == "fast")
    if family == "mtca":
        K = int(variant[1:])
        ts = shear if K else grid
        return MtcaModel(transforms=ts, pi=_dist((C,), 0), mu=mu,
                         loadings=_ramp((C, n, K), -0.5, 0.5), phi=phi,
                         rho=_dist((ts.L, C), 0), psi=psi)
    mode, sharing = variant.split("-")
    per_class = sharing == "per_class"
    bins = (3, 3) if mode == "vector" else (2,)
    table = _dist((C if per_class else 1, int(np.prod(bins))), 1)
    table = table.reshape(((C,) if per_class else ()) + bins)
    return ThmmModel(transforms=grid, mu=mu, phi=phi, psi=psi,
                     pi_s=_dist((C * grid.L,), 0).reshape(C, grid.L),
                     class_trans=_dist((C, C), 1),
                     motion=MotionPrior(mode, 1.5, table))


_GRID = ("boundary wrap", "grid 3 3", "kind translate", "ops 9", "param_width 2")
_SHEAR = ("boundary zero", "grid none", "kind shear", "ops 9", "param_width 2")
_THMM = ("TXMODEL 1", "family thmm", "height 3", "width 3", "clusters 2") + _GRID

# header lines and SHA-256 of each pinned model's file, as written by the
# format's first reader; a change here is a change of the file format
PINNED = {
    "tmg": (("TXMODEL 1", "family tmg", "height 3", "width 3", "clusters 2") + _SHEAR,
            "44a28b0c3ca13aeeb6ae934e26322cb5f343fff592fd76b56e3fc9958577eef0"),
    "tca-fast": (("TXMODEL 1", "family tca", "height 3", "width 3", "factors 2",
                  "fast 1") + _GRID,
                 "3334a35bc3fbbe0a6032d780f1f44301f8d277730df8ca85a767a2efda50c987"),
    "tca-exact": (("TXMODEL 1", "family tca", "height 3", "width 3", "factors 2",
                   "fast 0") + _SHEAR,
                  "c840c286557c5f0f51dbec325281daddb2803aa0eb733fd61fa382d1d134d9d3"),
    "mtca-K0": (("TXMODEL 1", "family mtca", "height 3", "width 3", "clusters 2",
                 "factors 0", "fast 0") + _GRID,
                "68f57dad0315bb5dbfcd715c5c2e1d6640d18aad1c1abf98f97fe028a87f285c"),
    "mtca-K2": (("TXMODEL 1", "family mtca", "height 3", "width 3", "clusters 2",
                 "factors 2", "fast 0") + _SHEAR,
                "37cbcf760adc59727275f9005c60ff61ca8f4b4bff19ca9b8367e3c75e25867a"),
    "thmm-vector-per_class": (
        _THMM + ("motion_mode vector", "motion_threshold 1.5", "motion_per_class 1"),
        "be6bd30603642fb18e93ff72a1a774a86c6e2ac264146feb9362998841cfb30b"),
    "thmm-vector-shared": (
        _THMM + ("motion_mode vector", "motion_threshold 1.5", "motion_per_class 0"),
        "811721f4c742f49fc9b72bae7aad47541b12dc8d333dbbb82918107a0bd0520f"),
    "thmm-magnitude-per_class": (
        _THMM + ("motion_mode magnitude", "motion_threshold 1.5", "motion_per_class 1"),
        "e9543077198cbaf3cdb1f005da62ebe0d36f23ca08ebc34b7d46801352377c26"),
    "thmm-magnitude-shared": (
        _THMM + ("motion_mode magnitude", "motion_threshold 1.5", "motion_per_class 0"),
        "6e48af69de04543326f5a3ebcd001fbab6dd1080ddbdeb8ed8ec830d7b6d2238"),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_file_format_is_pinned(case, tmp_path):
    path = tmp_path / "m.txm"
    save_model(_pinned_model(case), path)
    raw = path.read_bytes()
    header, digest = PINNED[case]
    assert tuple(raw[:raw.index(b"\nEND\n")].decode("ascii").splitlines()) == header
    assert hashlib.sha256(raw).hexdigest() == digest
    again = tmp_path / "again.txm"
    save_model(load_model(path), again)
    assert again.read_bytes() == raw


def test_pgm_round_trip_8_and_16_bit(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.uniform(0, 1, (6, 5))
    for maxval in (255, 65535):
        path = tmp_path / f"img{maxval}.pgm"
        write_pgm(path, img, maxval=maxval)
        back, mv = read_pgm(path)
        assert mv == maxval
        assert np.abs(back - img).max() <= 0.5 / maxval + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([255, 65535]))
def test_pgm_quantization_bound(seed, maxval):
    import tempfile
    img = np.random.default_rng(seed).uniform(0, 1, (3, 4))
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/x.pgm"
        write_pgm(path, img, maxval=maxval)
        back, _ = read_pgm(path)
        assert np.abs(back - img).max() <= 0.5 / maxval + 1e-12


def test_frames_directory_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    shape = ImageShape(5, 4)
    frames = rng.uniform(0, 1, (7, 20))
    write_frames(frames, shape, tmp_path / "seq", maxval=65535)
    assert sorted(os.listdir(tmp_path / "seq")) == [f"frame_000{t}.pgm" for t in range(7)]
    back, got_shape = read_frames(tmp_path / "seq")
    assert got_shape == shape
    assert back.shape == frames.shape
    assert np.abs(back - frames).max() <= 0.5 / 65535 + 1e-12


def test_frames_past_ten_thousand_keep_their_order(tmp_path):
    # 10 001 frames of 2x2 pixels, frame t holding t's base-256 digits: the
    # names widen to five digits so that frame_10000 sorts last, not between
    # frame_1000 and frame_1001
    T = 10001
    digits = (np.arange(T)[:, None] >> np.array([0, 8, 16, 24])) & 255
    write_frames(digits / 255, ImageShape(2, 2), tmp_path / "seq")
    names = sorted(os.listdir(tmp_path / "seq"))
    assert (names[0], names[-1]) == ("frame_00000.pgm", "frame_10000.pgm")
    back, _ = read_frames(tmp_path / "seq")
    assert np.array_equal(np.rint(back * 255), digits)


def test_frames_other_headers_parse_on_their_own(tmp_path):
    # a comment, 16-bit pixels and trailing bytes: the files that do not
    # share the first file's header and length decode one by one
    seq = tmp_path / "seq"
    seq.mkdir()
    write_pgm(seq / "a.pgm", np.array([[0.0, 1.0]]))
    (seq / "b.pgm").write_bytes(b"P5\n# c\n2 1\n255\n" + bytes([51, 102]))
    (seq / "c.pgm").write_bytes(b"P5\n2 1\n65535\n" + bytes([0, 0, 255, 255]))
    (seq / "d.pgm").write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0, 7]))
    write_pgm(seq / "e.pgm", np.array([[1.0, 0.0]]))
    back, shape = read_frames(seq)
    assert shape == ImageShape(1, 2)
    assert np.array_equal(back, [[0, 1], [0.2, 0.4], [0, 1], [1, 0], [1, 0]])


def test_frames_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError):
        read_frames(empty)

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    write_pgm(mixed / "frame_0000.pgm", np.zeros((2, 2)))
    write_pgm(mixed / "frame_0001.pgm", np.zeros((3, 3)))
    with pytest.raises(ValueError, match="frame_0001"):
        read_frames(mixed)

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "frame_0000.pgm").write_bytes(b"P6\n2 2\n255\n")
    with pytest.raises(ValueError, match="frame_0000"):
        read_frames(bad)


def test_pgm_comments_and_16bit_values(tmp_path):
    path = tmp_path / "c.pgm"
    payload = np.array([[0, 32768], [65535, 1234]], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n# a comment\n2 2\n65535\n" + payload)
    img, maxval = read_pgm(path)
    assert maxval == 65535
    assert img[1, 0] == 1.0 and img[0, 0] == 0.0


def test_montage_layout():
    images = np.stack([np.zeros(6), np.ones(6), np.full(6, 0.5)])
    out = montage(images, ImageShape(2, 3), cols=2, pad=1)
    assert out.shape == (2 * 2 + 1, 3 * 2 + 1)
    assert out[0, 0] == 0.0 and out[0, 4] == 1.0


def test_saving_a_full_wrap_grid_builds_its_source_table_alone(tmp_path):
    """A save reads the one table it writes: on a builder-made full wrap
    grid that read builds `source_matrix` and nothing else, and every block
    goes to the file through the buffer protocol.  So the traced peak is the
    table itself plus the per-op (L, h) and (L, w) index arrays that build
    it, 1.15 tables at 31x31; 1.25 leaves room for that and nothing more (a
    copy of the table's bytes, as a save that joins its blocks would make,
    takes it past 2)."""
    side = 31
    shape = ImageShape(side, side)
    ts = build_translation_set(shape, side, side, "wrap")
    model = TmgModel(transforms=ts, mu=np.zeros((1, shape.n)), phi=np.ones((1, shape.n)),
                     psi=np.ones(shape.n), rho=np.full((ts.L, 1), 1.0 / ts.L), pi=np.ones(1))
    table = ts.L * shape.n * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_model(model, tmp_path / "grid.txm")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert "source_matrix" in vars(ts) and "dest_matrix" not in vars(ts)
    assert peak < 1.25 * table
    loaded = load_model(tmp_path / "grid.txm", family="tmg")
    assert np.array_equal(loaded.transforms.source_matrix, ts.source_matrix)


def test_loading_a_full_wrap_grid_copies_its_file_once(tmp_path):
    """A load reads the file's bytes once and takes every block as a view of
    them; the set's own int64 copy of the table and the scatter that builds
    its inverse are the rest.  At 31x31 that peaks at 5.16 tables; slicing
    the payload and the body as bytes and copying the table block before the
    set copies it again took it to 8.17."""
    side = 31
    shape = ImageShape(side, side)
    ts = build_translation_set(shape, side, side, "wrap")
    model = TmgModel(transforms=ts, mu=np.zeros((1, shape.n)), phi=np.ones((1, shape.n)),
                     psi=np.ones(shape.n), rho=np.full((ts.L, 1), 1.0 / ts.L), pi=np.ones(1))
    save_model(model, tmp_path / "grid.txm")
    table = ts.L * shape.n * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_model(tmp_path / "grid.txm", family="tmg")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * table
    assert np.array_equal(loaded.transforms.source_matrix, ts.source_matrix)
    for name in ("mu", "phi", "psi", "rho", "pi"):
        array = getattr(loaded, name)
        assert array.flags.writeable and array.flags.owndata, name


def _pgm_error(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_pgm(path)


@pytest.mark.parametrize("raw, message", [
    (b"P5\n2 2\n", "truncated header"),
    (b"P5\n2 2 # a comment with no end", "unterminated comment"),
    (b"P5\n2 x\n255\n" + bytes(4), "malformed header numbers"),
    (b"P5\n2 2\n1023\n" + bytes(8), "unsupported maxval 1023"),
    (b"P5\n2 2\n255\n" + bytes(3), "truncated pixel data"),
    (b"P5\n2 2\n65535\n" + bytes(7), "truncated pixel data"),
], ids=["truncated-header", "unterminated-comment", "header-numbers", "maxval",
        "truncated-8-bit", "truncated-16-bit"])
def test_read_pgm_refuses_a_malformed_file_naming_it(raw, message, tmp_path):
    _pgm_error(tmp_path, raw, message)


def test_pgm_writers_refuse_a_flat_vector_without_shape_and_a_bad_maxval(tmp_path):
    with pytest.raises(ValueError, match="flat pixel vector needs an explicit shape"):
        write_pgm(tmp_path / "flat.pgm", np.zeros(6))
    for maxval in (0, 256, 1023):
        with pytest.raises(ValueError, match="maxval must be 255 or 65535"):
            write_pgm(tmp_path / "bad.pgm", np.zeros((2, 3)), maxval=maxval)
        with pytest.raises(ValueError, match="maxval must be 255 or 65535"):
            write_frames(np.zeros((2, 6)), ImageShape(2, 3), tmp_path / "seq", maxval=maxval)
    assert not (tmp_path / "flat.pgm").exists() and not (tmp_path / "bad.pgm").exists()


@pytest.mark.parametrize("size", [0, 3])
def test_load_refuses_a_file_too_short_for_a_checksum(size, tmp_path):
    path = tmp_path / "short.txm"
    path.write_bytes(bytes(size))
    with pytest.raises(ModelIOError, match="file too short to hold a checksum"):
        load_model(path)


def test_load_refuses_a_header_without_its_end_line(tmp_path):
    save_model(make_models()["tmg"], tmp_path / "m.txm")
    path = tmp_path / "no-end.txm"
    path.write_bytes(_rewritten((tmp_path / "m.txm").read_bytes(), b"\nEND\n", b"\nEDN\n"))
    with pytest.raises(ModelIOError, match="missing header terminator"):
        load_model(path)
