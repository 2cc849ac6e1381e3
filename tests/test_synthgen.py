import hashlib

import numpy as np
import pytest

from transmix import (ImageShape, apply, apply_adjoint, build_shear_translation_set,
                      build_translation_set)
from transmix.synthgen import (DIRECTIONS, GLYPHS, LEFT_TURN, GroundTruth,
                               gen_occluded, gen_pacman, gen_shifted_template,
                               gen_sheared_glyphs, render_pacman_frame, sprite)
from transmix.thmm import sample_sequence

from test_thmm import random_thmm


def test_sprites_are_rotations_and_distinct():
    mats = [sprite(d) for d in DIRECTIONS]
    for a, b in zip(mats, mats[1:] + mats[:1]):
        assert not np.array_equal(a, b)
    # each left turn is a quarter-turn counterclockwise
    for d in DIRECTIONS:
        assert np.array_equal(np.rot90(sprite(d)), sprite(LEFT_TURN[d]))
    assert all(m.sum() == 8 for m in mats)


def test_pacman_defaults_and_determinism():
    frames, truth = gen_pacman(seed=0)
    assert frames.shape == (200, 121)
    assert truth.clean.shape == (200, 121)
    again, truth2 = gen_pacman(seed=0)
    assert np.array_equal(frames, again)
    assert np.array_equal(truth.shifts, truth2.shifts)
    assert np.array_equal(truth.classes, truth2.classes)


def test_pacman_frozen_dynamics():
    frames, truth = gen_pacman(seed=1, T=20, bg_noise=0.0, sensor_noise=0.0,
                               p_stay=1.0, p_turn=0.0)
    assert np.ptp(truth.classes) == 0
    assert np.all(truth.shifts == truth.shifts[0])
    assert np.allclose(frames, frames[0])


def test_pacman_ground_truth_rerenders():
    frames, truth = gen_pacman(seed=2, T=50)
    shape = truth.params["shape"]
    bg = truth.params["background"]
    for t in range(50):
        re = render_pacman_frame(shape, truth.classes[t], *truth.shifts[t], bg)
        assert np.array_equal(re, truth.clean[t])


def test_pacman_turn_statistics():
    _, truth = gen_pacman(seed=3, T=100_000, grid=5, bg_noise=0.0,
                          sensor_noise=0.0)
    turns = np.mean(truth.classes[1:] != truth.classes[:-1])
    p = 0.75
    bound = 3 * np.sqrt(p * (1 - p) / (truth.classes.size - 1))
    assert abs(turns - p) <= bound


BAD_PARAMS = [  # (generator call, parameter named in the message)
    (lambda: gen_pacman(seed=0, T=0), "T"),
    (lambda: gen_pacman(seed=0, T=-3), "T"),
    (lambda: gen_pacman(seed=0, p_stay=1.5), "p_stay"),
    (lambda: gen_pacman(seed=0, p_turn=-0.1), "p_turn"),
    (lambda: gen_pacman(seed=0, p_turn=float("nan")), "p_turn"),
    (lambda: gen_pacman(seed=0, bg_noise=-0.1), "bg_noise"),
    (lambda: gen_pacman(seed=0, sensor_noise=-1.0), "sensor_noise"),
    (lambda: gen_shifted_template(0, np.ones((4, 4)), 0, 1, 0.1), "T"),
    (lambda: gen_shifted_template(0, np.ones((4, 4)), 5, -1, 0.1), "shift_range"),
    (lambda: gen_shifted_template(0, np.ones((4, 4)), 5, 1, -0.1), "sensor_noise"),
    (lambda: gen_shifted_template(0, np.ones((4, 4)), 5, 1, 0.1, boundary="mirror"),
     "boundary"),
    (lambda: gen_sheared_glyphs(seed=0, per_class=0), "per_class"),
    (lambda: gen_sheared_glyphs(seed=0, per_class=2, noise=-0.05), "noise"),
    (lambda: gen_sheared_glyphs(seed=0, per_class=2, stroke_sigma=(0.1, -0.1)),
     "stroke_sigma"),
]


@pytest.mark.parametrize("call,name", BAD_PARAMS)
def test_generators_refuse_bad_parameters(call, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


def test_shifted_template_zero_range():
    template = np.zeros((4, 4))
    template[1:3, 1:3] = 1.0
    frames, truth = gen_shifted_template(seed=4, template=template, T=10,
                                         shift_range=0, sensor_noise=0.1)
    assert np.all(truth.shifts == 0)
    assert np.allclose(truth.clean, template.reshape(-1))

    many, _ = gen_shifted_template(seed=5, template=template, T=10_000,
                                   shift_range=0, sensor_noise=0.1)
    stderr = 0.1 / np.sqrt(10_000)
    assert np.abs(many.mean(axis=0) - template.reshape(-1)).max() <= 3 * stderr


def test_shifted_template_walk_steps():
    template = np.ones((5, 5))
    _, truth = gen_shifted_template(seed=6, template=template, T=200,
                                    shift_range=2, sensor_noise=0.0, walk=True)
    deltas = np.abs(np.diff(truth.shifts, axis=0))
    assert deltas.max() <= 1
    assert np.abs(truth.shifts).max() <= 2


def test_shifted_template_rerenders():
    template = np.random.default_rng(7).uniform(0, 1, (5, 5))
    frames, truth = gen_shifted_template(seed=8, template=template, T=30,
                                         shift_range=2, sensor_noise=0.05)
    from transmix import shift_op
    shape = truth.params["shape"]
    for t in range(30):
        op = shift_op(shape, *truth.shifts[t], "wrap")
        assert np.array_equal(apply(op, template.reshape(-1)), truth.clean[t])


def test_glyphs_identity_zero_noise():
    ident = build_shear_translation_set(ImageShape(8, 8), [0.0], 1)
    images, labels, _ = gen_sheared_glyphs(seed=9, per_class=3,
                                           transform_set=ident,
                                           stroke_sigma=(), noise=0.0)
    for i, lab in enumerate(labels):
        assert np.array_equal(images[i], GLYPHS[lab].reshape(-1))


def test_glyphs_mirror_supervised_regime_shape():
    images, labels, _ = gen_sheared_glyphs(seed=10, per_class=200)
    assert images.shape == (2000, 64)
    assert np.array_equal(np.bincount(labels), np.full(10, 200))


def test_glyphs_inverse_op_nearest_prototype():
    # wrap ops so the true op inverts exactly; intensity-only variation
    ts = build_shear_translation_set(ImageShape(8, 8), boundary="wrap")
    images, labels, truth = gen_sheared_glyphs(seed=11, per_class=20,
                                               transform_set=ts,
                                               stroke_sigma=(0.15,), noise=0.0)
    protos = GLYPHS.reshape(10, -1)
    protos_n = protos / np.linalg.norm(protos, axis=1, keepdims=True)
    hits = 0
    for i in range(images.shape[0]):
        undone = apply_adjoint(ts[truth.params["ops"][i]], images[i])
        scores = protos_n @ (undone / max(np.linalg.norm(undone), 1e-12))
        hits += int(np.argmax(scores)) == labels[i]
    assert hits == images.shape[0]


def test_occluded_identity_and_full_bar():
    rng = np.random.default_rng(12)
    shape = ImageShape(4, 4)
    base = rng.uniform(0, 1, (6, 16))
    same, truth = gen_occluded(base, (0, 0, 0, 0), shape)
    assert np.array_equal(same, base)
    assert np.array_equal(truth.clean, base)

    dark, _ = gen_occluded(base, (0, 4, 0, 4), shape, value=0.2)
    assert np.all(dark == 0.2)


def test_occluded_coverage_of_moving_template():
    template = np.zeros((8, 8))
    template[2:6, 2:6] = 1.0
    frames, truth = gen_shifted_template(seed=13, template=template, T=60,
                                         shift_range=3, sensor_noise=0.0)
    shape = truth.params["shape"]
    bar = (0, 8, 3, 5)  # vertical bar, 25% of the image
    occluded, occ_truth = gen_occluded(frames, bar, shape)
    mask = occ_truth.params["mask"]
    assert mask.mean() <= 0.30
    # every latent template pixel escapes the bar in at least one frame
    from transmix import shift_op
    support = template.reshape(-1) > 0.5
    seen = np.zeros(shape.n, dtype=bool)
    for t in range(60):
        op = shift_op(shape, *truth.shifts[t], "wrap")
        unoccluded_latent = apply_adjoint(op, (~mask).astype(float)) > 0.5
        seen |= support & unoccluded_latent
    assert np.array_equal(seen, support)


def test_occluded_bounds_checked():
    with pytest.raises(ValueError):
        gen_occluded(np.zeros((2, 16)), (0, 5, 0, 2), ImageShape(4, 4))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _template(seed, h, w):
    return np.random.default_rng(seed).uniform(0, 1, (h, w))


GEN_CASES = {
    "pacman-default": lambda: gen_pacman(seed=0),
    "pacman-T1": lambda: gen_pacman(seed=1, T=1),
    "pacman-frozen": lambda: gen_pacman(seed=1, T=20, bg_noise=0.0, sensor_noise=0.0,
                                        p_stay=1.0, p_turn=0.0),
    "pacman-grid5": lambda: gen_pacman(seed=3, T=2000, grid=5, bg_noise=0.0,
                                       sensor_noise=0.0),
    "pacman-grid7": lambda: gen_pacman(seed=7, T=100, grid=7),
    "pacman-grid3-restless": lambda: gen_pacman(seed=5, T=300, grid=3, p_stay=0.0,
                                                p_turn=1.0),
    "pacman-grid6-sticky": lambda: gen_pacman(seed=6, T=150, grid=6, p_stay=0.9,
                                              p_turn=0.1),
    "shifted-iid-wrap": lambda: gen_shifted_template(8, _template(7, 5, 5), 30, 2, 0.05),
    "shifted-iid-zero": lambda: gen_shifted_template(13, _template(1, 8, 8), 60, 3, 0.0,
                                                     boundary="zero"),
    "shifted-walk-wrap": lambda: gen_shifted_template(6, _template(2, 5, 5), 200, 2, 0.1,
                                                      walk=True),
    "shifted-walk-zero": lambda: gen_shifted_template(14, _template(3, 6, 4), 120, 2, 0.1,
                                                      walk=True, boundary="zero"),
    "shifted-range0": lambda: gen_shifted_template(4, _template(4, 4, 4), 10, 0, 0.1),
    "shifted-range0-walk": lambda: gen_shifted_template(5, _template(5, 4, 4), 10, 0, 0.1,
                                                        walk=True),
    "shifted-wide-zero": lambda: gen_shifted_template(15, _template(6, 4, 6), 40, 5, 0.05,
                                                      boundary="zero"),
    "glyphs-default": lambda: gen_sheared_glyphs(seed=10, per_class=20),
    "glyphs-wrap": lambda: gen_sheared_glyphs(
        seed=11, per_class=20, stroke_sigma=(0.15,),
        transform_set=build_shear_translation_set(ImageShape(8, 8), boundary="wrap")),
    "glyphs-no-strokes": lambda: gen_sheared_glyphs(
        seed=9, per_class=3, stroke_sigma=(), noise=0.0,
        transform_set=build_shear_translation_set(ImageShape(8, 8), [0.0], 1)),
    "glyphs-custom": lambda: gen_sheared_glyphs(
        seed=12, prototypes=_template(8, 18, 7).reshape(3, 6, 7), per_class=15,
        stroke_sigma=(0.3, 0.2, 0.1),
        transform_set=build_translation_set(ImageShape(6, 7), 3, 3, "zero")),
}

# SHA-256 over every array a generator returns, its GroundTruth arrays and
# the arrays in its params, as drawn by the frame-at-a-time renderers that
# preceded the batched ones: a change here changes the generated data
GEN_DIGESTS = {
    "pacman-default": "b3e3c5146d74bf3a7f3f034ad90ab80706d9479c6bb6a590ba1f5ce7beaad033",
    "pacman-T1": "41ecfbadd77b730c4d0ef22b62c569ec626476b774a5f314939b97494b726990",
    "pacman-frozen": "a2461a3fde8bfb1ae040b6962c9af584c155a39d273a8465a3770e790807fbb1",
    "pacman-grid5": "d16d7d9be1bbbee543c613e23f2d5f0c5b41c286461fe92aa8f04204858125ee",
    "pacman-grid7": "c3909bb19490a9a99130fe798e576ac5be2ebf26ea2666176966404688655d86",
    "pacman-grid3-restless": "8c8920425384dd7c342fe4b9ca4e8a6e4b3b363048f04adb44d7e081d8ca92fe",
    "pacman-grid6-sticky": "4cf541d0510caf3d5fff930eaf594d94930847bfd256293905573db9b17e958f",
    "shifted-iid-wrap": "205a9e674ab4b12899550478780d5c04d1aa8fcad88194fdd1c86a0e2571b48c",
    "shifted-iid-zero": "589dfa20549504fa0cb43d878f92461e602f1d848276e42fff92beb7a9c079ba",
    "shifted-walk-wrap": "6470dd264ceae9d926f89ae30d5417e394228a28e0b7e22aa99ad03f5def7b9a",
    "shifted-walk-zero": "0c12d988b55a4647414f9563530db46afa46b6998f6abaf508d17c78be0f8d27",
    "shifted-range0": "aac53dea1fbd0d97e869743a7f4e4d4b3436c35901c69edae46059826316f01a",
    "shifted-range0-walk": "b65331e8059a099bffca3d8072aa2fdf1c807a316e9dae12713af5a03e35ce02",
    "shifted-wide-zero": "f4ef5c41607013bf4ccb394934bd2e604cc6bb52e696b2ab25431c689a521479",
    "glyphs-default": "ddc738874fdd6779b9a6ed60f4ae69505143ceeff59c42f4917744c6d508d065",
    "glyphs-wrap": "31b3bf504d8c23bddb0639ad44c0d455d712f9ae572af48a1db21e037fdc751b",
    "glyphs-no-strokes": "c05ff259ae93321a8d585e417240f6b11aea2f2d58b2a1c75cfc20c76d6d7877",
    "glyphs-custom": "71e22498ec2f7c1cb476666c80217285eeabb5baa9388096caf7d8d9411cff75",
}


@pytest.mark.parametrize("case", list(GEN_CASES))
def test_generator_outputs_are_pinned(case):
    out = GEN_CASES[case]()
    truth = out[-1]
    arrays = list(out[:-1]) + [truth.clean, truth.classes, truth.shifts]
    arrays += [truth.params[key] for key in ("background", "template", "ops", "coeffs")
               if key in truth.params]
    assert _digest(*arrays) == GEN_DIGESTS[case]


SAMPLER_CASES = {  # grid, boundary, mode, per_class, threshold
    "5x5-wrap-vector": ((5, 5), "wrap", "vector", False, 1.5),
    "5x5-wrap-magnitude": ((5, 5), "wrap", "magnitude", True, 2.0),
    "5x5-zero-vector": ((5, 5), "zero", "vector", True, 2.0),
    "5x5-zero-magnitude": ((5, 5), "zero", "magnitude", False, 1.5),
    "2x5-wrap-aliasing": ((2, 5), "wrap", "vector", True, 1.5),
    "1x3-wrap-aliasing": ((1, 3), "wrap", "vector", False, 1.5),
}

# SHA-256 over the frames and states of five 30-frame samples per grid, as
# drawn by the sampler that tested grid bounds with its own arithmetic
SAMPLER_DIGESTS = {
    "5x5-wrap-vector": "1ee405bb765c95ca42b71351274e2ee4530fa88dfeaa38c8213bce1d3d828734",
    "5x5-wrap-magnitude": "e0eb0bb1d59a2eb18c976fdf6c6c1bc19cc9481c894e1504bfea02f345360224",
    "5x5-zero-vector": "62406399b9ff1b5a284918f3f78afea8dffbf5118b09ee04ca6adcf2679a5606",
    "5x5-zero-magnitude": "2a2a4032abab2035d647fafe1bb054d83f7918db31382add540ebd0cfcf7b79b",
    "2x5-wrap-aliasing": "85536167eb7f9c00931949475069b6432015411f22eab0ff8656dfe803d4a21d",
    "1x3-wrap-aliasing": "777b1b4e88620fb07a22f4ed1f7bec49287f50cd0b03355fdeab19a44c0eb297",
}


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_thmm_sampler_outputs_are_pinned(case):
    grid, boundary, mode, per_class, threshold = SAMPLER_CASES[case]
    arrays = []
    for seed in range(5):
        model = random_thmm(900 + seed, shape=ImageShape(5, 5), grid=grid, C=3,
                            boundary=boundary, mode=mode, per_class=per_class,
                            threshold=threshold)
        arrays.extend(sample_sequence(model, 30, seed))
    assert _digest(*arrays) == SAMPLER_DIGESTS[case]
