"""Wall-clock benchmark of padicfft: exact transforms and products over Z/p^K.

Run one workload in this process:

    python3 perfbench/run.py --workload transform-large --seed 1 --seconds 10 --trace 0

or every workload, each in a fresh process, by leaving out --workload.
With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json
untraced, with times rescaled to the reference speed of reference.py; it
also times set-up in fresh processes started with --setup-only. With
--trace 1 it runs the workload untraced and then again with spans on the
same seed, and prints the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
The package is imported from src/ of the checkout holding this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One closed-loop caller and no extra threads: BLAS and OpenMP pools are pinned
# to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOOP_SHAPE = "closed loop, 1 caller, 1 process, no extra threads"
# Set-ups timed per end-to-end run, each the first of a fresh process.
SETUP_PROCESSES = 3
# Ops an end-to-end run measures at the least, whatever its seconds: a
# transform-large op takes 12-15 s, and one dft/idft pair samples too short a
# stretch of the host's speed drift.
MIN_OPS = 4


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_library() -> float:
    """Import padicfft from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import padicfft
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import padicfft from {SRC}: {exc}") from exc
    seconds = time.perf_counter() - t0
    if Path(padicfft.__file__).resolve().parent != SRC / "padicfft":
        raise SystemExit(f"perfbench: padicfft came from {padicfft.__file__}, not from {SRC}")
    return seconds


def git_commit(root: Path) -> str | None:
    """HEAD's commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:  # no git on PATH
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_context(args, why: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": LOOP_SHAPE,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def fresh_setup(workload_name: str, seed: int) -> dict:
    """Import and first set-up timed in a new process: {"setup_s", "setup_wall_s", "ok", "model"}."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--seed", str(seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"perfbench: set-up of {workload_name} failed in a fresh process (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def first_setup(workload, seed: int, import_s: float):
    """This process's first set-up and its record as fresh_setup reports it.

    The record's `setup_s` is the import and set-up time rescaled, like an op,
    by the mean of the reference slowdowns read just before and after the
    set-up; `setup_wall_s` is the same time unscaled. Every workload's set-up
    is mostly the tower's interpreted arithmetic, so it reads both parts.
    """
    import reference

    before = reference.slowdown(reference.BOTH)
    setup = workload.setup(seed)
    after = reference.slowdown(reference.BOTH)
    wall = import_s + setup.seconds
    # Through JSON, so the model counts compare equal to a fresh_setup's.
    record = json.loads(json.dumps({"setup_s": wall * 2 / (before + after), "setup_wall_s": wall, "ok": setup.ok,
                                    "model": setup.model}))
    return setup, record


def end_to_end(workload, seed: int, seconds: float, import_s: float, setup_processes: int = SETUP_PROCESSES):
    """Untraced: this process's set-up and the timed loop on it, then more fresh-process set-ups.

    `setup_s` is the median over `setup_processes` processes of the time from
    importing padicfft to the end of that process's first set-up, rescaled to
    the reference speed. Only first set-ups are timed, so a cache kept inside
    a process cannot make set-up look cheaper than it is for a new `padicfft`
    process.
    """
    setup, record = first_setup(workload, seed, import_s)
    loop = workload.run(setup.state, seed, seconds=seconds, count=MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del setup  # free the plan before the fresh processes build theirs
    setups = [record] + [fresh_setup(workload.name, seed) for _ in range(setup_processes - 1)]
    ref = loop.ref_seconds()
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_ref_s": len(ref) / sum(ref),
        "op_p50_ref_s": statistics.median(ref),
        "peak_rss_mb": peak_rss_mb,
    }
    # The raw wall-clock figures are printed beside them: on a shared host
    # they follow the machine's speed drift (see reference.py and README).
    notes = {"ops": len(loop.ops), "ops_per_s": len(loop.ops) / loop.busy,
             "op_p50_s": statistics.median(op.seconds for op in loop.ops),
             "slowdown_p50": statistics.median(s for _, s in loop.probes), "probes": len(loop.probes),
             "import_s": import_s, "setup_runs_s": [s["setup_s"] for s in setups],
             "setup_wall_runs_s": [s["setup_wall_s"] for s in setups], "setup_model": record["model"]}
    repeat = all(s["model"] == record["model"] for s in setups)
    return metrics, loop.ops, all(s["ok"] for s in setups), repeat, notes


def per_layer(workload, seed: int, seconds: float, import_s: float):
    """An untraced pass, then a traced pass of the same set-up and the same ops."""
    import spans

    ref_setup = workload.setup(seed)
    ref = workload.run(ref_setup.state, seed, seconds=seconds)
    untraced_s = ref_setup.seconds + ref.busy
    ref_models = (ref_setup.model, ref.models)
    setup_ok = ref_setup.ok
    del ref_setup  # free the untraced plan before the traced set-up builds another

    tracer = spans.Tracer()
    setup = workload.setup(seed, record=tracer.recording)
    loop = workload.run(setup.state, seed, count=len(ref.ops), record=tracer.recording)
    traced_s = setup.seconds + loop.busy
    repeat = (setup.model, loop.models) == ref_models
    metrics = tracer.metrics()
    metrics.update({
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unattributed_s": traced_s - tracer.root_seconds(),
        "trace.model_counts_repeat": int(repeat),
    })
    notes = {"ops": len(ref.ops), "import_s": import_s}
    return metrics, ref.ops + loop.ops, setup_ok and setup.ok, repeat, notes


def report(name: str, declared: list, metrics: dict, ops: list, setup_ok: bool, repeat: bool, notes: dict):
    missing = {m["name"] for m in declared} - metrics.keys()
    if missing:
        raise SystemExit(f"perfbench: no value for declared metrics {sorted(missing)}")
    failed = sum(not op.ok for op in ops)
    for key, value in notes.items():
        print(f"{name} {key} {value}")
    print(f"{name} error_rate {failed / len(ops)} ratio")
    if not repeat:
        print(f"{name} WARNING model counts differ between two runs on the same seed")
    for m in declared:
        print(f"{name} {m['name']} {metrics[m['name']]} {m['unit']}")
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result), flush=True)
    return result


def run_one(args, spec: dict) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(json.dumps(first_setup(workload, args.seed, import_s)[1]), flush=True)
        return 0
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print("context " + json.dumps(run_context(args, why[args.workload]), sort_keys=True), flush=True)
    if args.trace:
        measured = per_layer(workload, args.seed, args.seconds, import_s)
        declared = spec["per_layer"]
    else:
        measured = end_to_end(workload, args.seed, args.seconds, import_s)
        declared = spec["end_to_end"]
    return 0 if report(args.workload, declared, *measured)["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process; nonzero when one fails or is incorrect."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            print(f"{w['name']} FAILED (exit {proc.returncode})", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="one workload; every workload when left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="op time the timed loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the import and one set-up of --workload, print them as JSON and exit")
    args = parser.parse_args(argv)
    if args.setup_only and not args.workload:
        parser.error("--setup-only needs --workload")
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
