"""Every script under scripts/ runs to completion in a fresh interpreter.

The scripts read the transient laws and moments of both models, so a change
to those laws that breaks a script shows here.  The cases come from the
scripts on disk, so a script without an entry in SCRIPT_ARGS fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catwalk

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: each script's smoke-case arguments; "{tmp}" is the test's own directory
SCRIPT_ARGS = {
    "figure_data.py": ["--out-dir", "{tmp}"],
}


@pytest.mark.parametrize(
    "script,args", [(path.name, SCRIPT_ARGS.get(path.name)) for path in sorted(SCRIPTS.glob("*.py"))]
)
def test_script_exits_cleanly(script, args, tmp_path):
    assert args is not None, f"scripts/{script} has no smoke case: add its arguments to SCRIPT_ARGS"
    src = str(Path(catwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(SCRIPTS / script), *(arg.format(tmp=tmp_path) for arg in args)]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout or any(tmp_path.iterdir())
