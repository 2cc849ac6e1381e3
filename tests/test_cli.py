import csv
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from transmix import EmOptions, ImageShape, Manifest, build_translation_set, thmm, tmg
from transmix.cli import (build_transforms, cmd_eval, cmd_gen, cmd_infer,
                          cmd_train, generate_data, main)
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


def test_infer_rejects_transposed_frames(tmp_path):
    # 6x4 frames hold as many pixels as the 4x6 model expects
    rng = np.random.default_rng(5)
    ts = build_translation_set(ImageShape(4, 6), 3, 3)
    model = thmm.init_thmm(ts, 1, rng.uniform(0, 1, (5, 24)), seed=6,
                           motion=thmm.uniform_motion(1.0))
    model_io.save_model(model, tmp_path / "model.txm")
    model_io.write_frames(rng.uniform(0, 1, (5, 24)), ImageShape(6, 4),
                          tmp_path / "frames")
    with pytest.raises(ValueError, match="6x4.*4x6"):
        cmd_infer([tmp_path / "model.txm"], tmp_path / "frames", "score")


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

    flipped = img[::-1]
    every_shift = [normalized_correlation(img, apply(shift_op(shape, di, dj), flipped))
                   for di in range(4) for dj in range(4)]
    assert shift_max_correlation(img, flipped, shape) == pytest.approx(
        max(every_shift), rel=1e-12)
    assert shift_max_correlation(img, np.ones(16), shape) == 0.0

    means = np.stack([shifted, rng.uniform(0, 1, 16)])
    corr, match = best_template_assignment(means, img[None, :], shape)
    assert match[0] == 0 and corr[0] == pytest.approx(1.0)


def test_bundled_manifests_parse():
    root = Path(__file__).resolve().parents[1] / "manifests"
    for path in sorted(root.glob("*.txt")):
        man = Manifest.load(path)
        assert "family" in man and "generator" in man


MANIFESTS = sorted((Path(__file__).resolve().parents[1] / "manifests").glob("*.txt"))
# tiny sizes for every generator; keys a manifest does not read are ignored
TINY = ("gen.frames=12", "gen.per_class=4", "iterations=2", "init.iterations=2",
        "restarts=1")


def _tiny(*more):
    return [arg for kv in TINY + more for arg in ("--set", kv)]


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.stem)
def test_every_shipped_manifest_trains_through_main(path, tmp_path):
    assert main(["train", "--manifest", str(path), "--out", str(tmp_path)] + _tiny()) == 0
    man = Manifest.load(path)
    model = model_io.load_model(tmp_path / "model.txm", family=man.get("family"))
    assert np.array_equal(model.transforms.source_matrix,
                          build_transforms(man, model.shape).source_matrix)


def test_train_with_shear_levels_builds_their_cross_product(tmp_path):
    path = MANIFESTS[0].parent / "glyphs-tmg.txt"
    argv = ["train", "--manifest", str(path), "--out", str(tmp_path)]
    assert main(argv + _tiny("transform.shear_levels=-0.5,0,0.5")) == 0
    model = model_io.load_model(tmp_path / "model.txm", family="tmg")
    assert model.transforms.params == tuple((s, t) for s in (-0.5, 0.0, 0.5)
                                            for t in (-1, 0, 1))


def test_eval_through_main_on_a_pacman_track(tmp_path, capsys):
    man = str(MANIFESTS[0].parent / "pacman-small.txt")
    gen, train, inf = (str(tmp_path / d) for d in ("gen", "train", "inf"))
    assert main(["gen", "--manifest", man, "--out", gen] + _tiny()) == 0
    assert main(["train", "--manifest", man, "--out", train] + _tiny()) == 0
    assert main(["infer", "--model", f"{train}/model.txm", "--frames", f"{gen}/frames",
                 "--task", "track", "--out", inf]) == 0
    pred, truth = f"{inf}/track.csv", f"{gen}/truth.csv"
    want = cmd_eval(pred, truth, "tracking", wrap=7, align_offset=True)["agreement"]
    capsys.readouterr()
    assert main(["eval", "--pred", pred, "--truth", truth, "--mode", "tracking",
                 "--wrap", "7", "--align-offset"]) == 0
    assert capsys.readouterr().out == f"agreement {want:.6g}\n"


def test_verbose_train_prints_one_line_per_step_row(tmp_path, capsys):
    cmd_train(Manifest.parse(SMALL), tmp_path, verbose=True)
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("trained thmm model")
    with open(tmp_path / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert printed[:-1] == [
        f"{r['iteration']} {r['loglik']} [{r['cluster_mass']}] "
        f"{r['rescued'].replace(' ', ',') or '-'}" for r in rows]


def test_train_mtca_components_tile_each_factor_image(tmp_path):
    man = Manifest.parse(SMALL).override({
        "family": "mtca", "clusters": "2", "factors": "2", "iterations": "2"})
    path = cmd_train(man, tmp_path / "mtca")
    model = model_io.load_model(path, family="mtca")
    assert (model.C, model.K) == (2, 2)
    tiles = [model.loadings[c, :, k] for c in range(model.C) for k in range(model.K)]
    model_io.write_pgm(tmp_path / "want.pgm", model_io.montage(tiles, model.shape))
    assert (tmp_path / "mtca" / "components.pgm").read_bytes() == \
        (tmp_path / "want.pgm").read_bytes()


@pytest.mark.parametrize("key, value", [("restarts", "0"), ("iterations", "-2"),
                                        ("init.iterations", "-1"), ("clusters", "0"),
                                        ("factors", "-1")])
def test_train_refuses_counts_below_their_least_value(key, value, tmp_path):
    man = Manifest.parse(SMALL).override({key: value})
    with pytest.raises(ValueError, match=repr(key)):
        cmd_train(man, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_train_through_main_refuses_a_bad_motion_threshold(value, tmp_path):
    man_path = tmp_path / "man.txt"
    man_path.write_text(SMALL)
    with pytest.raises(ValueError, match="motion threshold must be finite and >= 0"):
        main(["train", "--manifest", str(man_path), "--out", str(tmp_path / "out"),
              "--set", f"motion.threshold={value}"])
    assert not (tmp_path / "out" / "model.txm").exists()


def test_eval_names_the_file_and_column_of_a_bad_csv(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("t,class,i,j\n0,1,2,3\n")
    bad.write_text("t,label,i\n0,1,2\n")
    with pytest.raises(ValueError, match=r"bad\.csv: no 'class' column"):
        cmd_eval(bad, good, "classification")
    with pytest.raises(ValueError, match=r"bad\.csv: no 'j' column"):
        cmd_eval(good, bad, "tracking")
    bad.write_text("t,class,i,j\n0,x,2,3\n")
    with pytest.raises(ValueError, match=r"bad\.csv: could not convert .*'x'"):
        cmd_eval(bad, good, "clustering")


def test_eval_refuses_a_fractional_cell(tmp_path):
    truth, pred = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth.write_text("t,class,i,j\n0,1,2,3\n1,1,0,4\n")
    pred.write_text("t,class,i,j\n0,1.0,2,3\n1,1.7,0,4\n")
    with pytest.raises(ValueError, match=r"pred\.csv: column 'class', row 2: '1\.7' "
                                         r"is not a 64-bit integer"):
        cmd_eval(pred, truth, "classification")
    for cell in ("nan", "inf", "1e30"):
        pred.write_text(f"t,class,i,j\n0,1,2,3\n1,1,{cell},4\n")
        with pytest.raises(ValueError, match=rf"pred\.csv: column 'i', row 2: '{cell}'"):
            cmd_eval(pred, truth, "tracking")
    # an integer spelt as a float still reads as that integer
    pred.write_text("t,class,i,j\n0,1.0,2,3\n1,1,0.0,4.0\n")
    cmd_eval(pred, truth, "classification")
    cmd_eval(pred, truth, "tracking")


def test_occluded_generator_paints_its_bar_over_the_shifted_frames():
    man = Manifest.parse(SMALL).override({"generator": "occluded", "gen.bar": "1,3,0,4",
                                          "gen.bar_value": "0.7"})
    data = generate_data(man)
    plain = generate_data(Manifest.parse(SMALL))
    bar = np.zeros((5, 5), dtype=bool)
    bar[1:3, 0:4] = True
    bar = bar.reshape(-1)
    assert set(data) == {"frames", "truth", "shape"}
    assert np.all(data["frames"][:, bar] == 0.7)
    assert np.array_equal(data["frames"][:, ~bar], plain["frames"][:, ~bar])
    assert np.array_equal(data["truth"].clean, plain["truth"].clean)
    assert data["truth"].params["bar"] == (1, 3, 0, 4)


def test_train_reads_a_frames_directory_named_by_data(tmp_path):
    gen_dir = cmd_gen(Manifest.parse(SMALL), tmp_path / "gen")
    text = SMALL.replace("generator = shifted\n", f"data = {gen_dir / 'frames'}\n")
    man = Manifest.parse(text).override({"family": "tmg", "iterations": "2"})
    assert "generator" not in man
    path = cmd_train(man, tmp_path / "train")
    frames, shape = model_io.read_frames(gen_dir / "frames")
    want = tmg.fit(tmg.init_tmg(build_transforms(man, shape), 1, frames, seed=3),
                   frames, 2, EmOptions(seed=3), tol=0)[0]
    model_io.save_model(want, tmp_path / "want.txm")
    assert path.read_bytes() == (tmp_path / "want.txm").read_bytes()
    assert not (tmp_path / "train" / "truth.csv").exists()


def test_train_without_a_tmg_prefit_starts_from_init_thmm(tmp_path):
    man = Manifest.parse(SMALL).override({"init.from_tmg": "false"})
    path = cmd_train(man, tmp_path / "train")
    data = generate_data(man)
    motion = thmm.uniform_motion(1.5, "vector")
    start = thmm.init_thmm(build_transforms(man, data["shape"]), 1, data["frames"], seed=3,
                           motion=motion)
    want, reports = thmm.fit(start, data["frames"], 4, EmOptions(seed=3), tol=0)
    model_io.save_model(want, tmp_path / "want.txm")
    assert path.read_bytes() == (tmp_path / "want.txm").read_bytes()
    with open(tmp_path / "train" / "steps.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == len(reports) == 4


def test_shifted_generator_reads_a_pgm_template(tmp_path):
    template = np.zeros((4, 6))
    template[1:3, 2:5] = 1.0
    model_io.write_pgm(tmp_path / "t.pgm", template)
    man = Manifest.parse(SMALL).override({"gen.template": str(tmp_path / "t.pgm"),
                                          "gen.shift_range": "0"})
    data = generate_data(man)
    assert data["shape"] == ImageShape(4, 6)
    assert np.array_equal(data["truth"].clean, np.tile(template.reshape(-1), (24, 1)))


def _saved_tmg(tmp_path):
    """A small TMG model file and a frame directory of its size."""
    rng = np.random.default_rng(8)
    ts = build_translation_set(ImageShape(3, 4), 3, 3)
    model_io.save_model(tmg.init_tmg(ts, 1, rng.uniform(0, 1, (5, 12)), seed=1),
                        tmp_path / "tmg.txm")
    model_io.write_frames(rng.uniform(0, 1, (5, 12)), ImageShape(3, 4), tmp_path / "frames")
    return tmp_path / "tmg.txm", tmp_path / "frames"


def test_infer_refuses_an_unknown_task_one_classify_model_and_a_tmg_for_thmm_tasks(tmp_path):
    model, frames = _saved_tmg(tmp_path)
    with pytest.raises(ValueError, match="unknown task 'bogus'"):
        cmd_infer([model], frames, "bogus", tmp_path / "out")
    with pytest.raises(ValueError, match="classify needs two or more --model files"):
        cmd_infer([model], frames, "classify", tmp_path / "out")
    for task in ("denoise", "stabilize", "track", "score"):
        with pytest.raises(ValueError, match=f"task {task} needs a thmm model"):
            cmd_infer([model], frames, task, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("transform", "rotate", "unknown transform kind 'rotate'"),
    ("generator", "noise", "unknown generator 'noise'"),
    ("family", "gmm", "unknown family 'gmm'"),
    ("options.clamp_motion", "0.5,0.5", "options.clamp_motion needs 9 values for this "
                                        "motion mode, got 2"),
])
def test_train_refuses_an_unknown_kind_or_a_wrong_length_clamp(key, value, message, tmp_path):
    man = Manifest.parse(SMALL).override({key: value, "motion.threshold": "1.0"})
    with pytest.raises(ValueError, match=re.escape(message)):
        cmd_train(man, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_eval_refuses_an_unknown_mode(tmp_path):
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("t,class,i,j\n0,1,2,3\n")
    with pytest.raises(ValueError, match="unknown eval mode 'ranking'"):
        cmd_eval(csv_path, csv_path, "ranking")


def test_set_without_an_equals_sign_is_refused(tmp_path):
    man_path = tmp_path / "man.txt"
    man_path.write_text(SMALL)
    for command in ("gen", "train"):
        with pytest.raises(SystemExit, match="--set expects key=value, got 'seed'"):
            main([command, "--manifest", str(man_path), "--out", str(tmp_path / "out"),
                  "--set", "seed"])
    assert not (tmp_path / "out").exists()
