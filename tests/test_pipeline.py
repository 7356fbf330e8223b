import dataclasses
import math

import pytest

from padicfft.errors import BadInput, PreconditionError
from padicfft.fft import FFTPlan
from padicfft.lifting import LiftResult
from padicfft.orders import multiplicative_order
from padicfft.pipeline import PipelineResult, build_pipeline, precision_steps
from padicfft.planner import PlannerResult
from padicfft.tower import UnityRoot


def test_precision_steps():
    assert precision_steps(1) == 0
    assert precision_steps(2) == 1
    assert precision_steps(3) == 2
    assert precision_steps(4) == 2
    assert precision_steps(32) == 5
    assert precision_steps(33) == 6
    with pytest.raises(BadInput):
        precision_steps(0)


def test_precision_checked_before_the_tower(monkeypatch):
    from padicfft import pipeline

    def tripwire(*args):
        raise AssertionError("tower built")

    monkeypatch.setattr(pipeline, "build_root_of_unity", tripwire)
    for K in (0, -3):
        with pytest.raises(BadInput):
            build_pipeline(3, K, N=10**4)
    for p in (0, 1, 4, 2, -3):  # a p that is no odd prime, on both size arguments
        for size in ({"s": 4}, {"N": 10}):
            with pytest.raises(PreconditionError):
                build_pipeline(p, 2, **size)


def test_exactly_one_size_argument():
    with pytest.raises(BadInput):
        build_pipeline(3, 4)
    with pytest.raises(BadInput):
        build_pipeline(3, 4, N=100, s=104)


def test_planner_path_and_direct_path():
    via_n = build_pipeline(3, 4, N=100)
    assert via_n.planner_result is not None
    assert via_n.s == 104 and via_n.d == 6
    direct = build_pipeline(3, 4, s=104)
    assert direct.planner_result is None
    assert direct.s == 104
    assert direct.tower.modulus == via_n.tower.modulus


def test_precision_reaches_k():
    pipe = build_pipeline(3, 5, s=8)
    assert pipe.lift.precision >= 5
    assert pipe.plan.K == 5
    assert pipe.plan.ring.ctx.pK == 3**5


def test_seed_determinism():
    a = build_pipeline(19, 2, s=5, seed=1)
    b = build_pipeline(19, 2, s=5, seed=1)
    assert a.tower.modulus == b.tower.modulus
    assert a.plan.root.coeffs == b.plan.root.coeffs
    # the two known factors of the degree-2 case show up under other seeds
    c = build_pipeline(19, 2, s=5)  # default seed
    assert c.tower.modulus != a.tower.modulus


def test_one_irreducibility_test_per_pipeline(monkeypatch):
    # the tower's moduli are irreducible by construction; only the one that leaves it is proved, as
    # newton_lift_root's input
    from padicfft import ffield, lifting, padic

    real, degrees = ffield.is_irreducible, []

    def spy(F, modulus):
        degrees.append(len(modulus) - 1)
        return real(F, modulus)

    for module in (ffield, lifting, padic):
        monkeypatch.setattr(module, "is_irreducible", spy)
    for (p, K), size, d in (((3, 32), {"N": 10**4}, 30), ((7, 16), {"s": 2736}, 6)):
        degrees.clear()
        assert build_pipeline(p, K, **size).d == d
        assert degrees == [d]


@pytest.mark.parametrize("p, K, size", [(3, 32, {"N": 100}), (7, 32, {"s": 48})])  # int64 and object backends
def test_results_store_each_fact_once(p, K, size):
    pipe = build_pipeline(p, K, **size)
    s = size.get("s", 104)
    assert (pipe.p, pipe.K, pipe.s, pipe.d) == (p, K, s, multiplicative_order(p, s))
    assert pipe.s_factored is pipe.plan.s_factored
    planned = pipe.planner_result
    if planned is not None:
        assert (planned.p, planned.N, planned.s) == (p, size["N"], s)
        assert planned.predicted_mults == planned.d**2 * s * sum(v * q for q, v in planned.s_factored.factors)
        assert planned.d_matches_prime_product and planned.d == math.prod([2, 3][: planned.r])
    tower, lift, plan = pipe.tower, pipe.lift, pipe.plan
    assert (tower.p, tower.s, tower.degree) == (p, s, pipe.d)
    assert tower.modulus == lift.ring.modulus  # the lift runs on fbar itself read as integers
    assert tower.zeta == tower.field.gen() and tower.base_counter is tower.field.base.counter
    assert lift.precision == 2**lift.steps == lift.ring.ctx.K
    assert plan.radices == tuple(plan.s_factored.radix_schedule()) and plan.s == s
    stored = {
        PlannerResult: ("p", "N", "r", "s_factored", "d"),
        UnityRoot: ("s", "field"),
        LiftResult: ("ring", "root", "steps", "base_mults"),
        PipelineResult: ("planner_result", "tower", "lift", "plan"),
        FFTPlan: ("s_factored", "ring", "root", "dtype", "factors", "basis", "basis_inv", "stages", "inverse_stages",
                  "index_maps"),
    }
    for cls, names in stored.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
    # a derived attribute is no argument: it cannot be passed out of step with the fields it is read from
    with pytest.raises(TypeError):
        PlannerResult(p=3, N=100, r=2, s_factored=pipe.s_factored, d=6, s=105)
    with pytest.raises(TypeError):
        UnityRoot(s=s, field=tower.field, modulus=tower.modulus)
    with pytest.raises(TypeError):
        LiftResult(lift.ring, lift.root, steps=lift.steps, base_mults=0, precision=lift.precision)
    with pytest.raises(TypeError):
        PipelineResult(planned, tower, lift, plan, p=p)
    with pytest.raises(TypeError):
        dataclasses.replace(plan, s=s)
