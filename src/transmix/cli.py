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
from pathlib import Path

import numpy as np

from . import classify as classify_mod
from . import model_io, mtca, synthgen, tca, thmm, tmg
from .common import EmOptions
from .manifest import Manifest
from .metrics import classification_error, clustering_purity_error, tracking_agreement
from .transforms import (ImageShape, build_shear_translation_set,
                         build_translation_set, identity_set)

_BUILTIN_TEMPLATES = {
    "block": lambda h, w: _block(h, w),
    "cross": lambda h, w: _cross(h, w),
}


def _block(h, w):
    img = np.zeros((h, w))
    img[h // 4: h - h // 4, w // 4: w - w // 4] = 1.0
    return img


def _cross(h, w):
    img = np.zeros((h, w))
    img[h // 2, :] = 1.0
    img[:, w // 2] = 1.0
    return img


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
        h = man.get_int("gen.height", 8)
        w = man.get_int("gen.width", 8)
        return _BUILTIN_TEMPLATES[name](h, w)
    img, _ = model_io.read_pgm(name)
    return img


def generate_data(man: Manifest):
    """Run the manifest's generator.  Returns a dict with frames, shape,
    truth, labels (when supervised) and whether frames form a sequence."""
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
        return {"frames": frames, "truth": truth, "labels": None,
                "shape": truth.params["shape"], "sequence": True}
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
            frames, occ = synthgen.gen_occluded(frames, bar, shape,
                                                value=man.get_float("gen.bar_value", 0.0))
            truth.params["bar"] = bar
        return {"frames": frames, "truth": truth, "labels": None,
                "shape": shape, "sequence": True}
    if generator == "glyphs":
        shape = ImageShape(8, 8)
        ts = build_transforms(man, shape) if "transform" in man else None
        images, labels, truth = synthgen.gen_sheared_glyphs(
            seed, per_class=man.get_int("gen.per_class", 200),
            transform_set=ts,
            noise=man.get_float("gen.noise", 0.05))
        return {"frames": images, "truth": truth, "labels": labels,
                "shape": truth.params["shape"], "sequence": False}
    raise ValueError(f"unknown generator {generator!r}")


def _load_data(man: Manifest):
    if "generator" in man:
        return generate_data(man)
    frames, shape = model_io.read_frames(man.get("data"))
    return {"frames": frames, "truth": None, "labels": None, "shape": shape,
            "sequence": True}


def write_truth_csv(truth: synthgen.GroundTruth, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "class", "i", "j"])
        for t in range(truth.classes.shape[0]):
            writer.writerow([t, truth.classes[t], truth.shifts[t, 0],
                             truth.shifts[t, 1]])


def read_label_csv(path, column: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return np.array([int(float(r[column])) for r in rows])


def read_shift_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return np.array([[int(float(r["i"])), int(float(r["j"]))] for r in rows])


def _em_options(man: Manifest) -> EmOptions:
    return EmOptions(
        freeze_rho=man.get_bool("options.freeze_rho", False),
        tie_psi=man.get_bool("options.tie_psi", False),
        seed=man.get_int("seed", 0),
        joint_pi=man.get_bool("options.joint_pi", False),
    )


def _train_once(man: Manifest, data, transforms, seed: int, callback=None):
    family = man.get("family")
    frames = data["frames"]
    iterations = man.get_int("iterations", 30)
    tol = man.get_float("tolerance", 1e-7)
    options = _em_options(man)
    reports = []

    if family == "tmg":
        model = tmg.init_tmg(transforms, man.get_int("clusters", 1), frames,
                             seed=seed, init=man.get("init", "sample"))
        model, reports = tmg.fit(model, frames, iterations, options, tol,
                                 callback=callback)
        final = float(np.sum(tmg.loglik(model, frames)))
    elif family == "tca":
        model = tca.init_tca(transforms, man.get_int("factors", 1), frames,
                             seed=seed,
                             fast_likelihood=man.get_bool("options.fast", False))
        model, reports = tca.fit(model, frames, iterations, options, tol,
                                 callback=callback)
        final = float(np.sum(tca.loglik(model, frames)))
    elif family == "mtca":
        model = mtca.init_mtca(transforms, man.get_int("clusters", 1),
                               man.get_int("factors", 1), frames, seed=seed,
                               fast_likelihood=man.get_bool("options.fast", False))
        model, reports = mtca.fit(model, frames, iterations, options, tol,
                                  callback=callback)
        final = float(np.sum(mtca.loglik(model, frames)))
    elif family == "thmm":
        motion = thmm.uniform_motion(
            man.get_float("motion.threshold", 3.0),
            man.get("motion.mode", "vector"),
            per_class=man.get_bool("motion.per_class", True),
            n_classes=man.get_int("clusters", 1))
        if "options.clamp_motion" in man:
            flat = np.array([float(v) for v in
                             man.get("options.clamp_motion").split(",")])
            if flat.size != motion.table.size:
                raise ValueError(
                    f"options.clamp_motion needs {motion.table.size} values "
                    f"for this motion mode, got {flat.size}")
            from dataclasses import replace as _replace
            motion = _replace(motion, table=flat.reshape(motion.table.shape))
            options = _replace(options, clamp_motion=motion.table)
        if man.get_bool("init.from_tmg", True):
            pre = tmg.init_tmg(transforms, man.get_int("clusters", 1), frames,
                               seed=seed, init=man.get("init", "sample"))
            pre, pre_reports = tmg.fit(pre, frames,
                                       man.get_int("init.iterations", 20),
                                       options, tol, callback=callback)
            reports.extend(pre_reports)
            model = thmm.from_tmg(pre, motion=motion)
        else:
            model = thmm.init_thmm(transforms, man.get_int("clusters", 1),
                                   frames, seed=seed, motion=motion)
        model, fit_reports = thmm.fit(model, frames, iterations, options, tol,
                                      callback=callback)
        reports.extend(fit_reports)
        final = thmm.score_sequence(model, frames)
    else:
        raise ValueError(f"unknown family {family!r}")
    return model, final, reports


def cmd_train(man: Manifest, out_dir, verbose: bool = False) -> Path:
    """Train per the manifest with restarts, keep the highest-likelihood
    model, write the model file, step reports, and parameter montages."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    if isinstance(model, tca.TcaModel):
        means, variances = model.mu[None, :], model.phi[None, :]
        comps = model.loadings.T
    elif isinstance(model, mtca.MtcaModel):
        means, variances = model.mu, model.phi
        comps = model.loadings.reshape(-1, shape.n)
    else:
        means, variances = model.mu, model.phi
        comps = None
    model_io.write_pgm(out / "means.pgm", model_io.montage(means, shape))
    model_io.write_pgm(out / "variances.pgm", model_io.montage(variances, shape))
    model_io.write_pgm(out / "psi.pgm", model_io.montage(model.psi[None, :], shape))
    if comps is not None and comps.shape[0]:
        model_io.write_pgm(out / "components.pgm", model_io.montage(comps, shape))
    if isinstance(model, thmm.ThmmModel) and model.motion.mode == "vector":
        tables = model.motion.table if model.motion.per_class \
            else model.motion.table[None]
        side = tables.shape[-1]
        model_io.write_pgm(out / "motion.pgm",
                           model_io.montage(tables.reshape(-1, side * side),
                                            ImageShape(side, side)))


def cmd_infer(model_paths, frames_dir, task: str, out_dir=None,
              use_viterbi: bool = False, denoise_mode: str = "soft") -> dict:
    """Run one inference task with a trained model over a frame directory."""
    frames, shape = model_io.read_frames(frames_dir)
    models = [model_io.load_model(p) for p in model_paths]
    model = models[0]
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    result: dict = {"task": task}

    if task in ("denoise", "stabilize", "track", "score"):
        if not isinstance(model, thmm.ThmmModel):
            raise ValueError(f"task {task} needs a thmm model")
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
    elif task == "classify":
        if len(models) < 2:
            raise ValueError("classify needs two or more --model files")
        labels = classify_mod.classify_batch(models, frames)
        result["labels"] = labels
        if out:
            with open(out / "pred.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "class"])
                for t, lab in enumerate(labels):
                    writer.writerow([t, int(lab)])
    else:
        raise ValueError(f"unknown task {task!r}")
    return result


def cmd_eval(pred_csv, truth_csv, mode: str, wrap: int | None = None,
             align_offset: bool = False) -> dict:
    """Compare a prediction CSV against a ground-truth CSV."""
    if mode == "classification":
        pred = read_label_csv(pred_csv, "class")
        truth = read_label_csv(truth_csv, "class")
        metrics = {"error": classification_error(pred, truth)}
    elif mode == "clustering":
        pred = read_label_csv(pred_csv, "class")
        truth = read_label_csv(truth_csv, "class")
        metrics = {"error": clustering_purity_error(pred, truth)}
    elif mode == "tracking":
        pred = read_shift_csv(pred_csv)
        truth = read_shift_csv(truth_csv)
        metrics = {"agreement": tracking_agreement(pred, truth, wrap=wrap,
                                                   align_offset=align_offset)}
    else:
        raise ValueError(f"unknown eval mode {mode!r}")
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
                         choices=("denoise", "stabilize", "track", "score",
                                  "classify"))
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
