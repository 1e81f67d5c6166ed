"""Every script under scripts/ runs to completion in a fresh interpreter.

All three read the moment and stationary laws of both models, so a change
to those laws that breaks a script shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catwalk

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args",
    [
        ("figure_data.py", ["--out-dir", "{tmp}"]),
        ("steady_comparison_grid.py", ["--out", "{tmp}/table1.csv"]),
        ("mc_validation.py", ["--reps", "2000"]),
    ],
)
def test_script_exits_cleanly(script, args, tmp_path):
    src = str(Path(catwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(SCRIPTS / script), *(arg.format(tmp=tmp_path) for arg in args)]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout or any(tmp_path.iterdir())
