"""The benchmark under perfbench/ still finds every layer it times.

perfbench/tracer.py wraps package functions and methods by name from
outside the package, so renaming or removing one of them breaks the
benchmark's traced run without failing anything under src/. Installing
the tracer in a fresh interpreter catches that here. Only perfbench/ is
read; nothing under it is imported into this process.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
