"""The diagnostic probe scripts run end to end at a toy budget.

Each probe is a standalone script, so nothing else imports it; running
it here is what keeps a signature change from breaking it silently.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,flags,last_line",
    [
        ("probe_chain.py", ["--episodes", "30", "--seed", "1"], "  5 "),
        ("probe_keydoor.py", ["--pretrain-steps", "300", "--episodes", "3", "--seed", "1"], "total "),
    ],
    ids=["chain", "keydoor"],
)
def test_probe_runs_at_a_toy_budget(script, flags, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *flags],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line)


def test_probe_rejects_bad_budget_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "probe_chain.py"), "--episodes", "0"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: invalid config:")
