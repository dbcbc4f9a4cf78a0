"""Smoke test: every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")


def test_demos_exit_cleanly():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    scripts = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))
    assert scripts
    for name in scripts:
        run = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, "%s exited %d:\n%s" % (name, run.returncode, run.stderr)
