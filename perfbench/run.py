"""Training-throughput benchmark for the hdqn experiment harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (it needs src/hdqn and configs/).
Each workload is a shipped config truncated only in budget, with
workers=1 and seeds derived from --seed. One repetition trains every seed
of the workload in a fresh process through harness.run_experiment, writes
its outputs, and checks them (child.py). Every repetition of a run trains
the same seeds, so they all do the same work, and repetitions repeat until
--seconds is spent.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: set-up time
(median of set-ups spread over the run), wall time and training steps per
second (each stretch of work at its fastest across the run's repetitions),
and peak resident memory (median). --trace 1 alternates untraced and traced
repetitions and prints the per-layer metrics (tracer.py) plus the tracing
overhead. The last stdout line is the result JSON; the line before it is a
record of the machine, the effective config and the output digest.

Output digests are kept per source tree in .perfbench_out/digests.json, so
any two runs of one commit with the same seed must produce identical bytes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1  # OpenBLAS would start one thread per CPU; only keydoor_mlp uses it
SETUP_WARMUP = 3  # set-up-only processes before the first repetition
MAX_REPS = 64  # repetitions per run at most
HARD_LIMIT_S = 170.0  # a run must end within 180 s

class Workload(NamedTuple):
    config: str  # shipped config under configs/
    n_seeds: int  # seeds trained per repetition
    budget: dict  # the only overrides besides seeds, workers and out_dir
    toy: dict  # budget for --self-test
    why: str


WORKLOADS = {
    # Runnable, but not in BENCHMARK.json: with three workloads a run could
    # last only 40 s, too short to ride out the host's drift (README.md).
    "chain_hdqn": Workload(
        "chain_hdqn.cfg",
        1,
        {"episodes": 20000},
        {"episodes": 300},
        "tabular two-level agent past the 50k-step anneal; replay sample and train_on on hot tables dominate",
    ),
    "keydoor_hdqn": Workload(
        "keydoor_hdqn.cfg",
        2,
        {"pretrain_steps": 50000, "episodes": 1},
        {"pretrain_steps": 1500, "episodes": 1},
        "two seeds, 50k pretrain steps fill d1 past L2 so replay and train_on are memory bound; ragged aggregate path",
    ),
    "chain_flat": Workload(
        "chain_flat.cfg",
        2,
        {"episodes": 50000},
        {"episodes": 500},
        "flat online Q, no replay: the bypass for replay and batch-update changes; writing CSVs is about half its wall time",
    ),
    # Runnable, but not in BENCHMARK.json: its run-to-run spread is too
    # wide for a bound (see perfbench/README.md).
    "keydoor_mlp": Workload(
        "keydoor_hdqn.cfg",
        1,
        {"pretrain_steps": 5000, "episodes": 1, "backend": "mlp"},
        {"pretrain_steps": 1200, "episodes": 1, "backend": "mlp"},
        "the only workload that runs the MLP backend, whose dense one-hot train_on dominates",
    ),
}


class ChildFailed(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(job: dict, timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "no output")
    return json.loads(proc.stdout.splitlines()[-1])


def source_digest() -> str:
    """Identity of the code and configs under test."""
    h = hashlib.sha256()
    for top in ("src", "configs"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def check_digest(tree: str, key: str, digest: str) -> bool:
    """Record the first digest seen for key; later ones must match it."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    seen = store.setdefault(tree, {}).setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return seen == digest


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(tree: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "source_digest": tree,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def median(values):
    return statistics.median(values) if values else None


def fastest(reps: list, part: str):
    """Sum over stretches of work of each one's least time across reps.

    The repetitions of a run do identical work, so their stretches line
    up one to one; None if they do not.
    """
    runs = [r["stretches"][part] for r in reps]
    if not runs or len({len(run) for run in runs}) != 1:
        return None
    return sum(map(min, zip(*runs)))


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, toy=False):
    """Returns (result line, record) for one benchmark run.

    Every repetition trains the seed set of this run, so each does the
    same work and only the machine's speed differs between them. On a
    shared host that speed drifts by tens of percent within seconds, so
    the wall and training times reported add up each stretch of work
    (child.py) at its fastest across the repetitions. After each
    untraced repetition one more process stops at set-up, so set-up
    times sample the whole run.

    With tracing, repetitions come in pairs, one untraced and one traced,
    so their difference is the overhead; the pairs alternate which side
    runs first.
    """
    wl = WORKLOADS[name]
    n_seeds = wl.n_seeds
    work_dir = OUT / "runs" / f"{name}-{os.getpid()}"
    tree = source_digest()
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()

    def job(traced=False, setup_only=False):
        first = seed * n_seeds
        overrides = dict(wl.toy if toy else wl.budget, workers=1, out_dir=str(work_dir))
        overrides["seeds"] = tuple(range(first, first + n_seeds))
        return {
            "src": str(ROOT / "src"),
            "config": str(ROOT / "configs" / wl.config),
            "overrides": overrides,
            "trace": traced,
            "setup_only": setup_only,
        }

    def time_left():
        return HARD_LIMIT_S - (time.perf_counter() - start)

    setups, errors = [], []

    def probe_setup():
        try:
            setups.append(spawn(job(setup_only=True), time_left())["setup_s"])
        except ChildFailed as exc:
            errors.append(f"set-up: {exc}")

    for _ in range(SETUP_WARMUP):  # also warms the file cache before timed runs
        probe_setup()

    per_kind = 2 if trace else 1
    reps = []
    took = [0.0, 0.0]  # longest untraced and traced repetition so far, with its set-up probe
    attempted = failed = 0
    for k in range(per_kind * MAX_REPS):
        traced = trace and k % 2 != (k // 2) % 2  # pairs alternate which side runs first
        if k >= per_kind and time.perf_counter() + took[traced] > start + seconds:
            break
        if time_left() < took[traced]:
            break
        t = time.perf_counter()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            rep = spawn(job(traced), time_left())
        except ChildFailed as exc:
            rep = {"attempted": n_seeds, "failed": n_seeds, "errors": [str(exc)]}
        if not trace:
            probe_setup()
        took[traced] = max(took[traced], time.perf_counter() - t)
        rep.update(pair=k // per_kind, traced=traced)
        if "digest" in rep:
            cfg_id = json.dumps(dict(rep["config"], out_dir=None), sort_keys=True)
            key = f"{name}/{hashlib.sha256(cfg_id.encode()).hexdigest()[:16]}"
            if not check_digest(tree, key, rep["digest"]):
                rep["failed"] = rep["attempted"]
                rep["errors"].append(f"output digest {rep['digest'][:12]} differs from an earlier run")
        attempted += rep["attempted"]
        failed += rep["failed"]
        errors += rep["errors"]
        if rep["failed"] == 0 and "wall_s" in rep:
            reps.append(rep)
    shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if trace:
        values = {m: median([r["layers"][m] for r in traced_reps]) for m in traced_reps[0]["layers"]} if traced_reps else {}
        walls = {(r["pair"], r["traced"]): r["wall_s"] for r in reps}
        values["trace.overhead_s"] = median(
            [walls[j, True] - walls[j, False] for j, traced in walls if traced and (j, False) in walls]
        )
        wanted = spec["per_layer"]
    else:
        setups += [r["setup_s"] for r in plain]
        train_s, other_s = fastest(plain, "train"), fastest(plain, "other")
        steps = {r["steps"] for r in plain}
        wall_s = steps_per_s = None
        if train_s and other_s is not None and len(steps) == 1:
            wall_s, steps_per_s = train_s + other_s, steps.pop() / train_s
        elif plain:
            errors.append("repetitions did different work; timed the fastest whole one")
            wall_s = min(r["wall_s"] for r in plain)
            steps_per_s = max(r["train_steps_per_s"] for r in plain)
        values = {
            "setup_s": median(setups),
            "wall_s": wall_s,
            "train_steps_per_s": steps_per_s,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if values.get(m["name"]) is not None
    }
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "trace": int(trace),
        "setup_s": setups,
        "environment": environment(tree),
        "config": reps[0]["config"] if reps else None,
        "repetitions": [
            {k: r.get(k) for k in ("traced", "wall_s", "cpu_s", "setup_s", "steps", "train_steps_per_s", "peak_rss_mb", "digest", "final")}
            | {"seeds": r["config"]["seeds"]}
            for r in reps
        ],
        "errors": errors,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def self_test() -> int:
    """Toy budgets: every workload emits every metric with its unit."""
    spec = load_spec()
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    ok = all(WORKLOADS[name].why == why for name, why in listed.items())
    if not ok:
        print("BENCHMARK.json workloads do not match run.py", file=sys.stderr)
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run_workload(name, 0, 1, trace, spec, toy=True)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = got == want and result["correct"] and result["attempted"] >= 1
            ok &= good
            missing = sorted(set(want) - set(got))
            print(f"{name} trace={int(trace)}: {'ok' if good else 'FAIL'}"
                  + (f" missing {missing}" if missing else ""), file=sys.stderr)
    print("self-test " + ("passed" if ok else "failed"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hdqn" / "__init__.py").is_file():
        print(f"error: no hdqn sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None or not 0 <= args.seed < 2**48:
        parser.error("--workload is required and --seed must be in [0, 2**48)")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), load_spec())
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
