"""Every demo script runs to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import indelkit

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory: what a demo writes stays out of the tree
    src = os.path.dirname(os.path.dirname(indelkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, timeout=300, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
