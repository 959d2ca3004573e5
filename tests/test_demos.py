"""Each demo runs to completion in a fresh interpreter.

The demos import the public names of the package (``classify_shape``,
``hard_answers``, ``sample_requirement``, ...), so a renamed or broken export
fails here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import lqrec

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(pathlib.Path(lqrec.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_all_demos_found():
    assert len(DEMOS) == 3
