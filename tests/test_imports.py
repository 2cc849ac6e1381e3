"""The package needs numpy alone at import time, and its FFT kernels keep
it that way when they run."""

import os
import subprocess
import sys
from pathlib import Path

import transmix

# a tied-psi TMG on a full wrap grid above the FFT crossover, scored
FFT_RUN = """
import numpy as np
from transmix import ImageShape, build_translation_set, common, tmg
side = 15
while side * side < common.FFT_MIN_PIXELS:
    side += 2
ts = build_translation_set(ImageShape(side, side), side, side, "wrap")
X = np.random.default_rng(0).uniform(size=(3, side * side))
assert ts.wrap_rows is not None
tmg.loglik(tmg.init_tmg(ts, 2, X), X)
"""


def _modules_after(code):
    src = str(Path(transmix.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert _modules_after("import transmix") == "False"


def test_fft_path_leaves_scipy_unloaded():
    assert _modules_after(FFT_RUN) == "False"
