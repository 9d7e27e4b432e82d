"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEMOS = os.path.join(ROOT, "demos")
SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def test_all_six_demos_found():
    assert len(SCRIPTS) == 6


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
