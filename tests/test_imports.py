"""The package needs numpy alone at import time."""

import os
import subprocess
import sys
from pathlib import Path

import transmix


def test_import_leaves_scipy_unloaded():
    src = str(Path(transmix.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, transmix; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
