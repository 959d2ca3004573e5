"""Each demo runs to completion in a fresh interpreter.

The demos import the public names of the package (``classify_shape``,
``sample_requirement``, ``DatasetConfig``, ...), so a renamed or broken export
fails here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import lqrec

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))

# Output a demo must print, beyond exiting 0: demo 01's last section shows a
# nonempty hard joint answer set.
EXPECTED = {"01_graph_and_oracle.py": "hard joint answers: ['"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(pathlib.Path(lqrec.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED.get(demo.name, "") in proc.stdout


def test_all_demos_found():
    assert len(DEMOS) == 3
