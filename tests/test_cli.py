import csv
import sys
from pathlib import Path

import numpy as np
import pytest

from transmix import ImageShape, Manifest
from transmix.cli import (build_transforms, cmd_eval, cmd_gen, cmd_infer,
                          cmd_train, main)
from transmix.metrics import (best_template_assignment, classification_error,
                              clustering_purity_error, normalized_correlation,
                              shift_max_correlation, tracking_agreement)
from transmix import model_io

SMALL = """
experiment = t
seed = 3
out = unused
generator = shifted
gen.template = block
gen.height = 5
gen.width = 5
gen.frames = 24
gen.shift_range = 1
gen.walk = true
gen.sensor_noise = 0.04
family = thmm
clusters = 1
transform = translate
transform.shifts_v = 5
transform.shifts_h = 5
transform.boundary = wrap
init.from_tmg = true
init.iterations = 4
iterations = 4
restarts = 1
tolerance = 0
motion.mode = vector
motion.threshold = 1.5
motion.per_class = false
"""


def test_manifest_parse_format_roundtrip(tmp_path):
    man = Manifest.parse(SMALL)
    assert man.get_int("gen.frames") == 24
    assert man.get_bool("gen.walk") is True
    assert man.get_float("gen.sensor_noise") == 0.04
    assert man.get("family") == "thmm"
    with pytest.raises(KeyError):
        man.get("missing")
    assert man.get("missing", "x") == "x"
    path = tmp_path / "m.txt"
    man.save(path)
    again = Manifest.load(path)
    assert again.entries == man.entries
    over = man.override({"seed": "9"})
    assert over.get_int("seed") == 9 and man.get_int("seed") == 3

    with pytest.raises(ValueError):
        Manifest.parse("not a pair")
    with pytest.raises(ValueError):
        Manifest.parse("k = maybe").get_bool("k")


def test_gen_writes_frames_and_truth(tmp_path):
    man = Manifest.parse(SMALL)
    out = cmd_gen(man, tmp_path / "gen")
    frames, shape = model_io.read_frames(out / "frames")
    assert frames.shape == (24, 25)
    assert shape == ImageShape(5, 5)
    with open(out / "truth.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    assert set(rows[0]) == {"t", "class", "i", "j"}


def test_train_is_deterministic(tmp_path):
    man = Manifest.parse(SMALL)
    p1 = cmd_train(man, tmp_path / "a")
    p2 = cmd_train(man, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    for artifact in ("steps.csv", "means.pgm", "variances.pgm", "psi.pgm",
                     "manifest.txt"):
        assert (tmp_path / "a" / artifact).read_bytes() == \
            (tmp_path / "b" / artifact).read_bytes()


def test_train_identity_family_is_mixture_baseline(tmp_path):
    man = Manifest.parse(SMALL).override({
        "family": "tmg", "transform": "identity", "clusters": "2",
        "iterations": "3"})
    path = cmd_train(man, tmp_path / "mg")
    model = model_io.load_model(path, family="tmg")
    assert model.L == 1


def test_infer_tasks_and_eval(tmp_path):
    man = Manifest.parse(SMALL)
    gen_dir = cmd_gen(man, tmp_path / "gen")
    model_path = cmd_train(man, tmp_path / "train")

    track_out = cmd_infer([model_path], gen_dir / "frames", "track",
                          tmp_path / "inf")
    assert (tmp_path / "inf" / "track.csv").exists()

    agreement = cmd_eval(tmp_path / "inf" / "track.csv", gen_dir / "truth.csv",
                         "tracking", wrap=5, align_offset=True)["agreement"]
    assert agreement >= 0.9

    res = cmd_infer([model_path], gen_dir / "frames", "score", tmp_path / "inf")
    assert np.isfinite(res["score"])
    den = cmd_infer([model_path], gen_dir / "frames", "denoise",
                    tmp_path / "inf")
    assert den["frames"].shape == (24, 25)
    stab = cmd_infer([model_path], gen_dir / "frames", "stabilize",
                     tmp_path / "inf")
    assert stab["frames"].shape == (24, 25)


def test_infer_score_prefers_own_sequence(tmp_path):
    man = Manifest.parse(SMALL)
    gen_dir = cmd_gen(man, tmp_path / "gen")
    model_path = cmd_train(man, tmp_path / "train")
    # a mismatched sequence: different template, bigger jumps
    other = man.override({"gen.template": "cross", "seed": "77",
                          "gen.shift_range": "2", "gen.walk": "false"})
    other_dir = cmd_gen(other, tmp_path / "gen2")
    own = cmd_infer([model_path], gen_dir / "frames", "score")["score"]
    mismatched = cmd_infer([model_path], other_dir / "frames", "score")["score"]
    assert own > mismatched


def test_classify_task_writes_predictions(tmp_path):
    man = Manifest.parse(SMALL)
    gen_dir = cmd_gen(man, tmp_path / "gen")
    a = cmd_train(man.override({"family": "tca", "factors": "1",
                                "iterations": "3"}), tmp_path / "ma")
    b = cmd_train(man.override({"family": "tca", "factors": "1",
                                "iterations": "3", "gen.template": "cross",
                                "seed": "5"}), tmp_path / "mb")
    res = cmd_infer([a, b], gen_dir / "frames", "classify", tmp_path / "pred")
    assert res["labels"].shape == (24,)
    pred_csv = tmp_path / "pred" / "pred.csv"
    assert pred_csv.exists()
    # frames come from the block-template world: class 0 should dominate
    assert res["labels"].mean() < 0.5


def test_eval_modes_on_fixtures(tmp_path):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"

    def write(path, rows, header=("t", "class", "i", "j")):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    write(pred, [(0, 1, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (3, 1, 0, 0)])
    write(truth, [(0, 1, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 1, 0, 0)])
    assert cmd_eval(pred, truth, "classification")["error"] == pytest.approx(0.25)

    # clusters {0,1} -> majority classes; hand-checked purity error 1/4
    assert cmd_eval(pred, truth, "clustering")["error"] == pytest.approx(0.25)

    write(pred, [(0, 0, 1, 2), (1, 0, 1, 3), (2, 0, 2, 2)])
    write(truth, [(0, 0, 1, 2), (1, 0, 1, 3), (2, 0, 0, 0)])
    assert cmd_eval(pred, truth, "tracking")["agreement"] == pytest.approx(2 / 3)

    write(pred, [(0, 1, 0, 0)])
    write(truth, [(0, 1, 0, 0)])
    assert cmd_eval(pred, truth, "classification")["error"] == 0.0
    write(pred, [(0, 0, 0, 0)])
    assert cmd_eval(pred, truth, "classification")["error"] == 1.0


def test_train_clamped_motion(tmp_path):
    # one-step-down motion only, supplied through the manifest, never learned
    table = np.zeros((3, 3))
    table[2, 1] = 1.0
    clamp = ",".join(str(v) for v in table.reshape(-1))
    man = Manifest.parse(SMALL).override({
        "motion.threshold": "1.0", "motion.per_class": "false",
        "options.clamp_motion": clamp, "iterations": "3",
        "init.iterations": "2"})
    path = cmd_train(man, tmp_path / "clamped")
    model = model_io.load_model(path, family="thmm")
    assert np.array_equal(model.motion.table, table)


def test_main_entrypoint(tmp_path):
    man_path = tmp_path / "man.txt"
    man_path.write_text(SMALL)
    rc = main(["gen", "--manifest", str(man_path), "--out",
               str(tmp_path / "g"), "--set", "gen.frames=6"])
    assert rc == 0
    frames, _ = model_io.read_frames(tmp_path / "g" / "frames")
    assert frames.shape[0] == 6
    rc = main(["train", "--manifest", str(man_path), "--out",
               str(tmp_path / "t"), "--set", "iterations=2",
               "--set", "init.iterations=2"])
    assert rc == 0
    rc = main(["infer", "--model", str(tmp_path / "t" / "model.txm"),
               "--frames", str(tmp_path / "g" / "frames"), "--task", "score"])
    assert rc == 0


def test_metric_validation_and_shift_correlation():
    with pytest.raises(ValueError):
        classification_error([], [])
    with pytest.raises(ValueError):
        tracking_agreement(np.zeros((3, 2)), np.zeros((4, 2)))
    rng = np.random.default_rng(0)
    shape = ImageShape(4, 4)
    img = rng.uniform(0, 1, 16)
    from transmix import apply, shift_op
    shifted = apply(shift_op(shape, 1, 3, "wrap"), img)
    assert shift_max_correlation(shifted, img, shape) == pytest.approx(1.0)
    assert normalized_correlation(img, img) == pytest.approx(1.0)

    means = np.stack([shifted, rng.uniform(0, 1, 16)])
    corr, match = best_template_assignment(means, img[None, :], shape)
    assert match[0] == 0 and corr[0] == pytest.approx(1.0)


def test_bundled_manifests_parse():
    root = Path(__file__).resolve().parents[1] / "manifests"
    for path in sorted(root.glob("*.txt")):
        man = Manifest.load(path)
        assert "family" in man and "generator" in man
