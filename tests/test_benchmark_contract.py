"""The benchmark under perfbench/ still runs on the current package.

perfbench/tracer.py wraps package functions and methods by name from
outside the package, and perfbench/child.py hooks harness and metrics
functions by name and signature, so renaming one of them or changing
its signature breaks the benchmark without failing anything under src/.
Installing the tracer, and running one toy repetition of a workload, in
fresh interpreters catches that here. Only perfbench/ is read; nothing
under it is imported into this process.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize(
    "config, overrides, trace, called",
    [
        # Past one 4096-row block, so that the child's checks on the
        # aggregate's length and means read output written in blocks.
        ("chain_flat.cfg", {"episodes": 5000, "seeds": [0, 1]}, 0, ()),
        # A flat episode record through the tracer, which counts the
        # options of every record it is handed.
        (
            "chain_flat.cfg",
            {"episodes": 300, "seeds": [0]},
            1,
            ("agents.eps_greedy.calls", "envs.step.calls", "agents.run_episode.calls"),
        ),
        # The hierarchical path under the tracer, with d2 past its warm-up
        # so that the meta level's replay and update layers are called.
        (
            "keydoor_hdqn.cfg",
            {"seeds": [0], "pretrain_steps": 3000, "episodes": 5, "d2_warmup": 10},
            1,
            ("values.train_on.q2.calls", "replay.sample.d2.calls"),
        ),
        # The network's train_on, target sync included, under the tracer.
        (
            "chain_hdqn.cfg",
            {"seeds": [0], "episodes": 300, "backend": "mlp"},
            1,
            ("values.train_on.q1.calls", "values.train_on.q2.calls"),
        ),
    ],
    ids=["chain_flat", "chain_flat_traced", "keydoor_hdqn", "chain_mlp"],
)
def test_child_runs_a_toy_repetition(config, overrides, trace, called, tmp_path):
    job = {
        "src": str(ROOT / "src"),
        "config": str(ROOT / "configs" / config),
        "overrides": dict(overrides, workers=1, out_dir=str(tmp_path)),
        "trace": trace,
        "setup_only": False,
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["attempted"] == len(overrides["seeds"])
    assert report["failed"] == 0, report["errors"]
    for name in called:
        assert report["layers"][name] > 0, name
    if trace:
        # Each level's update trains on exactly one replay sample.
        layers = report["layers"]
        assert layers["replay.sample.d1.calls"] == layers["values.train_on.q1.calls"]
        assert layers["replay.sample.d2.calls"] == layers["values.train_on.q2.calls"]
