"""Benchmark of the transmix library: one workload per process.

    python3 perfbench/run.py --workload pacman-video --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  After a warm-up round the run repeats whole cycles of
rounds (set-up, training, inference), one round per input draw, until about
`--seconds` have passed.  It checks the first round of each draw against
references computed outside the library and every later round against the
first of its draw, and prints one JSON object as the last line of standard
output.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics from spans around each library function.  See
perfbench/README.md.
"""

import os
import sys
import time

# Thread pools are fixed before numpy loads; see README ("Threads").
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

import opclock
from opclock import OpClock, median_sum

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("pacman-video", "glyph-classify", "large-frame")
# A run of a workload whose cost depends on its data (see README, "Noise")
# averages over `draws` input sets, made from seeds seed * MAX_DRAWS + 0,
# 1, ..., so that one draw's cost weighs a third, not all, of the result.
MAX_DRAWS = 3
# fresh-interpreter imports timed per run; setup_s takes their median
IMPORTS = 5
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import transmix, transmix.cli"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one draw, one round after the warm-up "
                        "(two when tracing)")
    return p.parse_args(argv)


def git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "transmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "commit": git_commit(ROOT), "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def timed_import() -> tuple[float, float]:
    """CPU time of a fresh interpreter that imports transmix (numpy and
    scipy included), and the mean reference time around it."""
    before = opclock.reference()
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], cwd=ROOT, check=True)
    now = resource.getrusage(resource.RUSAGE_CHILDREN)
    after = opclock.reference()
    cpu = now.ru_utime - used.ru_utime + now.ru_stime - used.ru_stime
    return cpu, (before + after) / 2


def run_round(workload, work: Path, tracer):
    """One round; returns (state, its OpClock, round wall time)."""
    clock = OpClock(calibrate=tracer is None)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        st = None
        for phase in ("setup", "train", "infer", "probe"):
            clock.phase = phase
            with span("bench." + phase):
                if phase == "setup":
                    st = workload.setup(work, clock)
                else:
                    getattr(workload, phase)(st, clock)
    return st, clock, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and the interpreters it starts, so that an
    # operation and the reference kernel next to it run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "transmix" / "__init__.py").is_file():
        print(f"perfbench: no transmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import transmix
    import transmix.cli  # noqa: F401  (loaded so the tracer can wrap it)
    if Path(transmix.__file__).resolve().parent != SRC / "transmix":
        print(f"perfbench: imported transmix from {transmix.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from glyphs import GlyphClassify
    from large_frame import LargeFrame
    from oracles import CheckFailed
    from pacman import PacmanVideo
    from tracing import LAYER_UNITS, Tracer, summarise

    kind = {"pacman-video": PacmanVideo, "glyph-classify": GlyphClassify,
            "large-frame": LargeFrame}[args.workload]
    draws = 1 if args.smoke else kind.draws
    workloads = [kind(ROOT, args.seed * MAX_DRAWS + d, args.smoke) for d in range(draws)]
    tracer = Tracer(transmix) if args.trace else None
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    # after the warm-up round, whole cycles: each draw once (plain), and with
    # --trace 1 each draw once more, traced
    cycle = draws * (2 if args.trace else 1)

    rounds, spans, quality, reference, error = [], [], {}, {}, None
    imports = []
    attempted = failed = 0
    measured = 0.0
    try:
        while True:
            k = len(rounds)
            d = 0 if k == 0 else (k - 1) % draws
            traced = bool(args.trace) and k > 0 and (k - 1) % cycle >= draws
            st, clock, wall = run_round(workloads[d], work / f"round{k}",
                                        tracer if traced else None)
            measured += wall
            a, f = workloads[d].ops(st)
            attempted, failed = attempted + a, failed + f
            rec = {"round": k, "draw": d, "traced": traced, "wall": wall,
                   "ops": clock.records,
                   **{p: clock.total(p) for p in ("setup", "train", "infer", "probe")}}
            if traced:
                round_spans = tracer.take()
                rec["layers"] = summarise(round_spans)
                spans.append(round_spans)
            if d not in reference:
                quality[d] = workloads[d].check(st)
                reference[d] = workloads[d].fingerprint(st)
            elif workloads[d].fingerprint(st) != reference[d]:
                raise CheckFailed(f"round {k} outputs differ from the first "
                                  f"round of draw {d}")
            rounds.append(rec)
            del st
            shutil.rmtree(work / f"round{k}", ignore_errors=True)
            if k == 0 and not args.trace:
                start = time.perf_counter()
                imports = [timed_import() for _ in range(1 if args.smoke else IMPORTS)]
                measured += time.perf_counter() - start
            if k == 0 or k % cycle:
                continue
            # stop at the cycle end nearest to --seconds
            per_cycle = cycle * statistics.median(r["wall"] for r in rounds[1:])
            if args.smoke or measured + per_cycle / 2 > args.seconds:
                break
    except CheckFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the warm-up round pays first-call costs (lazy imports, caches) once
    plain = [r for r in rounds[1:] if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if error is not None:
        metrics = {}
    elif args.trace == 0:
        def phase(name):
            """Mean over draws of the draw's per-operation median sum."""
            return statistics.fmean(
                median_sum([r["ops"] for r in plain if r["draw"] == d], name)
                for d in range(draws))
        import_cpu = statistics.median(opclock.calibrated(c, ref) for c, ref in imports)
        metrics = {
            "setup_s": (import_cpu + phase("setup"), "s"),
            "train_s": (phase("train"), "s"),
            "infer_s": (phase("infer"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(r["train"] + r["infer"] for r in traced)
            - statistics.median(r["train"] + r["infer"] for r in plain))
        metrics = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}

    info = stamp(args)
    result = {"correct": error is None and bool(metrics),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    with open(OUT / "results" / f"{tag}.json", "w") as fh:
        json.dump({"stamp": info, "imports": imports, "rounds": rounds,
                   "quality": quality, "error": error, **result}, fh, indent=1,
                  default=float)
    if spans:
        with open(OUT / "results" / f"{tag}-spans.json", "w") as fh:
            json.dump(spans, fh)
    if error is not None:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print("# stamp " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
