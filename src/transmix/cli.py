"""Command-line harness: gen, train, infer, eval.

Every experiment is described by a flat-text manifest (see `manifest.py`);
flags can override single keys.  Outputs are a model file, a step-report
CSV, PGM montages of the learned templates/variances, and task-specific
frame/CSV artifacts, all reproducible byte-for-byte from the manifest.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import classify as classify_mod
from . import model_io, mtca, synthgen, tca, thmm, tmg
from .common import EmOptions
from .manifest import Manifest
from .metrics import classification_error, clustering_purity_error, tracking_agreement
from .transforms import (ImageShape, build_shear_translation_set,
                         build_translation_set, identity_set)

def _block(h, w):
    img = np.zeros((h, w))
    img[h // 4: h - h // 4, w // 4: w - w // 4] = 1.0
    return img


def _cross(h, w):
    img = np.zeros((h, w))
    img[h // 2, :] = 1.0
    img[:, w // 2] = 1.0
    return img


_BUILTIN_TEMPLATES = {"block": _block, "cross": _cross}


def build_transforms(man: Manifest, shape: ImageShape):
    kind = man.get("transform", "translate")
    boundary = man.get("transform.boundary", "wrap")
    if kind == "identity":
        return identity_set(shape)
    if kind == "translate":
        return build_translation_set(shape, man.get_int("transform.shifts_v", 3),
                                     man.get_int("transform.shifts_h", 3), boundary)
    if kind == "shear":
        if "transform.shear_levels" in man:
            levels = [float(v) for v in man.get("transform.shear_levels").split(",")]
            return build_shear_translation_set(shape, levels,
                                               man.get_int("transform.shifts_h", 3),
                                               boundary=boundary)
        return build_shear_translation_set(shape, boundary=boundary)
    raise ValueError(f"unknown transform kind {kind!r}")


def _template_from(man: Manifest):
    name = man.get("gen.template", "block")
    if name in _BUILTIN_TEMPLATES:
        return _BUILTIN_TEMPLATES[name](man.get_int("gen.height", 8),
                                        man.get_int("gen.width", 8))
    img, _ = model_io.read_pgm(name)
    return img


def generate_data(man: Manifest):
    """Run the manifest's generator.  Returns a dict with its frames, their
    shape and the ground truth."""
    generator = man.get("generator")
    seed = man.get_int("seed", 0)
    if generator == "pacman":
        frames, truth = synthgen.gen_pacman(
            seed, T=man.get_int("gen.frames", 200),
            grid=man.get_int("gen.grid", 11),
            p_stay=man.get_float("gen.p_stay", 0.2),
            p_turn=man.get_float("gen.p_turn", 0.75),
            bg_noise=man.get_float("gen.bg_noise", 0.1),
            sensor_noise=man.get_float("gen.sensor_noise", 0.05))
        return {"frames": frames, "truth": truth, "shape": truth.params["shape"]}
    if generator in ("shifted", "occluded"):
        template = _template_from(man)
        frames, truth = synthgen.gen_shifted_template(
            seed, template, T=man.get_int("gen.frames", 100),
            shift_range=man.get_int("gen.shift_range", 2),
            sensor_noise=man.get_float("gen.sensor_noise", 0.05),
            walk=man.get_bool("gen.walk", True))
        shape = truth.params["shape"]
        if generator == "occluded":
            bar = tuple(int(v) for v in man.get("gen.bar").split(","))
            frames, _ = synthgen.gen_occluded(frames, bar, shape,
                                              value=man.get_float("gen.bar_value", 0.0))
            truth.params["bar"] = bar
        return {"frames": frames, "truth": truth, "shape": shape}
    if generator == "glyphs":
        shape = ImageShape(8, 8)
        ts = build_transforms(man, shape) if "transform" in man else None
        images, _, truth = synthgen.gen_sheared_glyphs(
            seed, per_class=man.get_int("gen.per_class", 200),
            transform_set=ts,
            noise=man.get_float("gen.noise", 0.05))
        return {"frames": images, "truth": truth, "shape": truth.params["shape"]}
    raise ValueError(f"unknown generator {generator!r}")


def _load_data(man: Manifest):
    if "generator" in man:
        return generate_data(man)
    frames, shape = model_io.read_frames(man.get("data"))
    return {"frames": frames, "truth": None, "shape": shape}


def write_truth_csv(truth: synthgen.GroundTruth, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "class", "i", "j"])
        for t in range(truth.classes.shape[0]):
            writer.writerow([t, truth.classes[t], truth.shifts[t, 0],
                             truth.shifts[t, 1]])


def read_csv_columns(path, *columns: str) -> np.ndarray:
    """The integer values of `columns` in a CSV with a header row, as a
    (rows, columns) array; an error names the file and the column or cell.
    A cell may spell its integer as a float ("3.0"); a fractional,
    non-finite or out-of-range value is refused, not truncated."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    missing = [c for c in columns if c not in rows[0]]
    if missing:
        raise ValueError(f"{path}: no {missing[0]!r} column")
    try:
        values = np.array([[float(r[c]) for c in columns] for r in rows])
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None
    bad = np.argwhere(~((values == np.round(values)) & (np.abs(values) < 2.0 ** 63)))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"{path}: column {columns[col]!r}, row {row + 1}: "
                         f"{rows[row][columns[col]]!r} is not a 64-bit integer")
    return values.astype(np.int64)


def _em_options(man: Manifest) -> EmOptions:
    return EmOptions(
        freeze_rho=man.get_bool("options.freeze_rho", False),
        tie_psi=man.get_bool("options.tie_psi", False),
        seed=man.get_int("seed", 0),
    )


def _init_gaussian(man: Manifest, family: str, transforms, frames, seed: int):
    """The manifest's starting TMG, TCA or MTCA model."""
    if family == "tmg":
        return tmg.init_tmg(transforms, man.get_int("clusters", 1), frames,
                            seed=seed, init=man.get("init", "sample"))
    if family == "tca":
        return tca.init_tca(transforms, man.get_int("factors", 1), frames, seed=seed,
                            fast_likelihood=man.get_bool("options.fast", False))
    return mtca.init_mtca(transforms, man.get_int("clusters", 1),
                          man.get_int("factors", 1), frames, seed=seed,
                          fast_likelihood=man.get_bool("options.fast", False))


_GAUSSIAN = {"tmg": tmg, "tca": tca, "mtca": mtca}


def _train_once(man: Manifest, data, transforms, seed: int, callback=None):
    family = man.get("family")
    frames = data["frames"]
    iterations = man.get_int("iterations", 30)
    tol = man.get_float("tolerance", 1e-7)
    options = _em_options(man)

    if family in _GAUSSIAN:
        module = _GAUSSIAN[family]
        model, reports = module.fit(_init_gaussian(man, family, transforms, frames, seed),
                                    frames, iterations, options, tol, callback=callback)
        return model, float(np.sum(module.loglik(model, frames))), reports
    if family != "thmm":
        raise ValueError(f"unknown family {family!r}")
    per_class = man.get_bool("motion.per_class", True)
    motion = thmm.uniform_motion(
        man.get_float("motion.threshold", 3.0),
        man.get("motion.mode", "vector"),
        n_classes=man.get_int("clusters", 1) if per_class else None)
    if "options.clamp_motion" in man:
        flat = np.array([float(v) for v in
                         man.get("options.clamp_motion").split(",")])
        if flat.size != motion.table.size:
            raise ValueError(
                f"options.clamp_motion needs {motion.table.size} values "
                f"for this motion mode, got {flat.size}")
        motion = replace(motion, table=flat.reshape(motion.table.shape))
        options = replace(options, clamp_motion=motion.table)
    reports = []
    if man.get_bool("init.from_tmg", True):
        pre = _init_gaussian(man, "tmg", transforms, frames, seed)
        pre, reports = tmg.fit(pre, frames, man.get_int("init.iterations", 20),
                               options, tol, callback=callback)
        model = thmm.from_tmg(pre, motion=motion)
    else:
        model = thmm.init_thmm(transforms, man.get_int("clusters", 1),
                               frames, seed=seed, motion=motion)
    model, fit_reports = thmm.fit(model, frames, iterations, options, tol,
                                  callback=callback)
    return model, thmm.score_sequence(model, frames), reports + fit_reports


def cmd_train(man: Manifest, out_dir, verbose: bool = False) -> Path:
    """Train per the manifest with restarts, keep the highest-likelihood
    model, write the model file, step reports, and parameter montages."""
    for key, default, least in (("restarts", 1, 1), ("iterations", 30, 0),
                                ("init.iterations", 20, 0), ("clusters", 1, 1),
                                ("factors", 1, 0)):
        if man.get_int(key, default) < least:
            raise ValueError(f"manifest key {key!r} must be >= {least}, got {man.get(key)}")
    data = _load_data(man)
    transforms = build_transforms(man, data["shape"])
    restarts = man.get_int("restarts", 1)
    base_seed = man.get_int("seed", 0)
    callback = (lambda rep: print(rep.to_line())) if verbose else None

    best = None
    for r in range(restarts):
        model, final, reports = _train_once(man, data, transforms,
                                            seed=base_seed + 101 * r,
                                            callback=callback)
        if best is None or final > best[1]:
            best = (model, final, reports)
    model, final, reports = best

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.txm"
    model_io.save_model(model, model_path)
    with open(out / "steps.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loglik", "cluster_mass", "rescued"])
        for rep in reports:
            writer.writerow([rep.iteration, f"{rep.loglik:.10g}",
                             " ".join(f"{m:.6g}" for m in rep.cluster_mass),
                             " ".join(str(i) for i in rep.rescued)])
    _write_montages(model, out)
    man.save(out / "manifest.txt")
    if data["truth"] is not None:
        write_truth_csv(data["truth"], out / "truth.csv")
    print(f"trained {man.get('family')} model: final loglik {final:.6g} "
          f"-> {model_path}")
    return model_path


def _write_montages(model, out: Path) -> None:
    shape = model.shape
    # TMG and TCA models tile as their MTCA view: per cluster, then per factor
    core = model if isinstance(model, thmm.ThmmModel) else model.as_mtca()
    model_io.write_pgm(out / "means.pgm", model_io.montage(core.mu, shape))
    model_io.write_pgm(out / "variances.pgm", model_io.montage(core.phi, shape))
    model_io.write_pgm(out / "psi.pgm", model_io.montage(model.psi[None, :], shape))
    if core.K:
        comps = core.loadings.transpose(0, 2, 1).reshape(-1, shape.n)
        model_io.write_pgm(out / "components.pgm", model_io.montage(comps, shape))
    if isinstance(model, thmm.ThmmModel) and model.motion.mode == "vector":
        # one tile per class's table, or one for a shared table
        side = model.motion.table.shape[-1]
        model_io.write_pgm(out / "motion.pgm",
                           model_io.montage(model.motion.table.reshape(-1, side * side),
                                            ImageShape(side, side)))


_TASKS = ("denoise", "stabilize", "track", "score", "classify")


def cmd_infer(model_paths, frames_dir, task: str, out_dir=None,
              use_viterbi: bool = False, denoise_mode: str = "soft") -> dict:
    """Run one inference task with a trained model over a frame directory."""
    frames, shape = model_io.read_frames(frames_dir)
    models = [model_io.load_model(p) for p in model_paths]
    for path, m in zip(model_paths, models):
        if m.shape != shape:
            raise ValueError(f"{frames_dir}: frames are {shape.height}x{shape.width} "
                             f"but model {path} is {m.shape.height}x{m.shape.width}")
    model = models[0]
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "classify" and len(models) < 2:
        raise ValueError("classify needs two or more --model files")
    if task != "classify" and not isinstance(model, thmm.ThmmModel):
        raise ValueError(f"task {task} needs a thmm model")
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    result: dict = {"task": task}

    if task == "denoise":
        cleaned = thmm.denoise(model, frames, mode=denoise_mode,
                               use_viterbi=use_viterbi or None)
        result["frames"] = cleaned
        if out:
            model_io.write_frames(cleaned, shape, out / "denoised")
    elif task == "stabilize":
        stab = thmm.stabilize(model, frames, use_viterbi=use_viterbi)
        result["frames"] = stab
        if out:
            model_io.write_frames(stab, shape, out / "stabilized")
    elif task == "track":
        rows = thmm.track(model, frames, use_viterbi=use_viterbi)
        result["track"] = rows
        if out:
            with open(out / "track.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "class", "i", "j", "log_margin"])
                for t, (c, i, j, margin) in enumerate(rows):
                    writer.writerow([t, int(c), int(i), int(j), f"{margin:.6g}"])
    elif task == "score":
        score = thmm.score_sequence(model, frames)
        result["score"] = score
        print(f"log-likelihood {score:.10g}")
        if out:
            (out / "score.txt").write_text(f"{score:.10g}\n")
    else:
        labels = classify_mod.classify_batch(models, frames)
        result["labels"] = labels
        if out:
            with open(out / "pred.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "class"])
                for t, lab in enumerate(labels):
                    writer.writerow([t, int(lab)])
    return result


def cmd_eval(pred_csv, truth_csv, mode: str, wrap: int | None = None,
             align_offset: bool = False) -> dict:
    """Compare a prediction CSV against a ground-truth CSV."""
    if mode not in ("classification", "clustering", "tracking"):
        raise ValueError(f"unknown eval mode {mode!r}")
    columns = ("i", "j") if mode == "tracking" else ("class",)
    pred, truth = (read_csv_columns(p, *columns) for p in (pred_csv, truth_csv))
    if mode == "tracking":
        metrics = {"agreement": tracking_agreement(pred, truth, wrap, align_offset)}
    else:
        score = classification_error if mode == "classification" else clustering_purity_error
        metrics = {"error": score(pred[:, 0], truth[:, 0])}
    for key, value in metrics.items():
        print(f"{key} {value:.6g}")
    return metrics


def cmd_gen(man: Manifest, out_dir) -> Path:
    """Generator passthrough: frames + ground-truth CSV + manifest copy."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate_data(man)
    model_io.write_frames(data["frames"], data["shape"], out / "frames",
                          maxval=65535)
    write_truth_csv(data["truth"], out / "truth.csv")
    man.save(out / "manifest.txt")
    print(f"generated {data['frames'].shape[0]} frames -> {out / 'frames'}")
    return out


def _manifest_from_args(args) -> Manifest:
    man = Manifest.load(args.manifest)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return man.override(overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="transmix",
        description="Transformation-invariant generative image/video models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--out", default=None, help="output directory "
                         "(default: manifest 'out' key)")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one manifest key")
    p_train.add_argument("--verbose", action="store_true",
                         help="stream per-iteration step reports")

    p_gen = sub.add_parser("gen", help="run a generator from a manifest")
    p_gen.add_argument("--manifest", required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--set", action="append", metavar="KEY=VALUE")

    p_infer = sub.add_parser("infer", help="run inference with a trained model")
    p_infer.add_argument("--model", action="append", required=True)
    p_infer.add_argument("--frames", required=True)
    p_infer.add_argument("--task", required=True,
                         choices=_TASKS)
    p_infer.add_argument("--out", default=None)
    p_infer.add_argument("--viterbi", action="store_true",
                         help="decode with the Viterbi path instead of the "
                         "smoothed per-frame MAP")
    p_infer.add_argument("--denoise-mode", choices=("soft", "hard"),
                         default="soft")

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--mode", required=True,
                        choices=("classification", "clustering", "tracking"))
    p_eval.add_argument("--wrap", type=int, default=None,
                        help="compare shifts modulo this grid size")
    p_eval.add_argument("--align-offset", action="store_true",
                        help="remove the registration gauge: one global "
                        "constant shift offset")

    args = parser.parse_args(argv)
    if args.command == "train":
        man = _manifest_from_args(args)
        cmd_train(man, args.out or man.get("out"), verbose=args.verbose)
    elif args.command == "gen":
        man = _manifest_from_args(args)
        cmd_gen(man, args.out or man.get("out"))
    elif args.command == "infer":
        cmd_infer(args.model, args.frames, args.task, args.out,
                  use_viterbi=args.viterbi, denoise_mode=args.denoise_mode)
    elif args.command == "eval":
        cmd_eval(args.pred, args.truth, args.mode, wrap=args.wrap,
                 align_offset=args.align_offset)
    return 0


if __name__ == "__main__":
    sys.exit(main())
