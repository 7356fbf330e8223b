"""Tests of the benchmark itself, on workloads small enough to run in a second.

Run with `python -m pytest perfbench`.
"""

import functools
import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from padicfft import fft

TINY_TRANSFORM = workloads.TransformWorkload("tiny-transform", p=3, K=4, N=10)  # s=104, d=6
TINY_PRODUCT = workloads.ProductWorkload("tiny-product", p=3, K=4, max_len=12, pairs_per_set=4)
SPEC = run.load_spec()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [TINY_TRANSFORM, TINY_PRODUCT], ids=lambda w: w.name)
def test_output_has_every_declared_metric_and_unit(workload, trace, key, capsys):
    # One set-up process: fresh processes only know the workloads of BENCHMARK.json.
    measure = run.per_layer if trace else functools.partial(run.end_to_end, setup_processes=1)
    result = run.report(workload.name, SPEC[key], *measure(workload, seed=3, seconds=0.01, import_s=0.0))
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert f"{workload.name} {name} {result['metrics'][name]['value']} {unit}" in lines


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in SPEC["end_to_end"])}]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_one_seed_gives_the_same_inputs():
    plan = TINY_TRANSFORM.setup(seed=0).state

    def vectors(seed):
        at, stream = TINY_TRANSFORM.inputs(plan, seed)
        return at, [[v.coeffs for v in x] for x in itertools.islice(stream, 3)]

    assert vectors(5) == vectors(5)
    assert vectors(5) != vectors(6)

    def products(seed):
        pairs = TINY_PRODUCT.pairs(seed)
        return pairs, list(itertools.islice(TINY_PRODUCT.inputs(pairs, seed), 6))

    assert products(5) == products(5)
    assert products(5) != products(6)


def test_product_pairs_cover_every_stratum_once():
    edges = TINY_PRODUCT._strata_edges()
    for seed in range(5):
        pairs = TINY_PRODUCT.pairs(seed)
        assert len(pairs) == TINY_PRODUCT.pairs_per_set
        assert all(1 <= n <= TINY_PRODUCT.max_len for pair in pairs for n in pair)
    assert edges == sorted(edges)


def _corrupt_one(X, i):
    out = list(X)
    out[i] = out[i] + 1
    return out


@pytest.mark.parametrize("index", [0, 1, 52])
def test_corrupted_transform_output_fails(monkeypatch, index):
    plan = TINY_TRANSFORM.setup(seed=0).state
    good = fft.dft
    monkeypatch.setattr(fft, "dft", lambda x, plan: _corrupt_one(good(x, plan), index))
    result = TINY_TRANSFORM.run(plan, seed=1, count=4)
    assert sum(not op.ok for op in result.ops) >= 2  # each pair's dft check or round trip catches it


def test_raising_transform_fails(monkeypatch):
    plan = TINY_TRANSFORM.setup(seed=0).state

    def broken(values, plan):
        raise ArithmeticError("broken idft")

    monkeypatch.setattr(fft, "idft", broken)
    result = TINY_TRANSFORM.run(plan, seed=1, count=4)
    assert [op.ok for op in result.ops] == [True, False, True, False]


def test_corrupted_product_fails(monkeypatch):
    pairs = TINY_PRODUCT.setup(seed=0).state
    good = fft.poly_multiply

    def wrong(f, g, *args, **kwargs):
        h = good(f, g, *args, **kwargs)
        return [h[0] + 1] + h[1:]

    monkeypatch.setattr(fft, "poly_multiply", wrong)
    result = TINY_PRODUCT.run(pairs, seed=1, count=len(pairs))
    assert [op.ok for op in result.ops] == [False] * len(pairs)


def test_reference_rescales_each_op_by_the_readings_around_it(monkeypatch):
    readings = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(workloads.reference, "slowdown", lambda parts: next(readings))
    loop = workloads.LoopResult(workloads.reference.BOTH)
    loop.probe(0.5)  # the first reading is always taken
    loop.add(workloads.OpRecord(0.2, True, ()))
    loop.probe(0.5)  # 0.2 s since the last reading: none taken
    loop.add(workloads.OpRecord(0.4, True, ()))
    loop.probe(0.5)
    loop.add(workloads.OpRecord(1.0, True, ()))
    loop.probe()
    assert [i for i, _ in loop.probes] == [0, 2, 3]
    assert loop.ref_seconds() == pytest.approx([0.1, 0.2, 0.4])


def test_no_reference_parts_leave_wall_time():
    loop = workloads.LoopResult(())
    loop.probe()
    loop.add(workloads.OpRecord(0.3, True, ()))
    loop.probe()
    assert loop.ref_seconds() == [0.3]


def test_reference_runs_no_library_code():
    code = "import sys, reference; assert reference.slowdown(reference.BOTH) > 0; " \
           "assert not [m for m in sys.modules if m.startswith('padicfft')]"
    subprocess.run([sys.executable, "-c", code], cwd=run.HERE, check=True, timeout=60)


def test_tracer_accounts_for_traced_time_and_restores_functions():
    originals = (fft.dft, fft.ring_mul, workloads.planner.choose_parameters)
    tracer = spans.Tracer()
    pairs = TINY_PRODUCT.setup(seed=0).state
    TINY_PRODUCT.run(pairs, seed=0, count=len(pairs), record=tracer.recording)
    assert (fft.dft, fft.ring_mul, workloads.planner.choose_parameters) == originals
    metrics = tracer.metrics()
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert metrics["fft.poly_multiply.calls"] == len(pairs)
    assert metrics["planner.choose_parameters.calls"] == len(pairs)
    assert metrics["fft.dft.calls"] == 2 * metrics["fft.idft.calls"] == 2 * len(pairs)
    assert 0.0 <= metrics["pipeline.plan_repeat_share"] < 1.0


def test_model_counts_repeat_on_the_same_seed():
    metrics = run.per_layer(TINY_TRANSFORM, seed=2, seconds=0.01, import_s=0.0)[0]
    assert metrics["trace.model_counts_repeat"] == 1
    assert metrics["fft.dft.model_mults"] > 0



def test_fresh_process_setups_repeat_their_model_counts():
    first, second = (run.fresh_setup("transform-bigmod", seed=1) for _ in range(2))
    assert first["ok"] and second["ok"]
    assert first["setup_s"] > 0 and second["setup_s"] > 0
    assert first["model"] == second["model"]

def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "polymul-mixed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wrong_result_makes_the_run_exit_nonzero(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(workloads.WORKLOADS, "polymul-mixed", TINY_PRODUCT)
    good = fft.poly_multiply
    monkeypatch.setattr(fft, "poly_multiply", lambda f, g, *a, **k: [c + 1 for c in good(f, g, *a, **k)])
    # --trace 1 starts no fresh set-up processes, which would not know the tiny workload.
    argv = ["--workload", "polymul-mixed", "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    assert run.main(argv) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False
    monkeypatch.setattr(fft, "poly_multiply", good)
    assert run.main(argv) == 0
