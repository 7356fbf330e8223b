"""End-to-end assembly: parameters, tower, lift, transform plan.

Each stage keeps its own multiplication bill (tower work on the F_p
counter, lift work in LiftResult.base_mults, transform work on the plan
ring's counter) so callers can check budgets independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadInput
from .fft import FFTPlan, make_plan
from .lifting import LiftResult, newton_lift_root
from .orders import FactoredOrder
from .padic import PadicContext
from .planner import PlannerResult, choose_parameters
from .tower import UnityRoot, build_root_of_unity

DEFAULT_SEED = 0x5EED


@dataclass
class PipelineResult:
    """The four stages' results.

    Stored: planner_result (None when s was given), tower, lift and plan. p, K, s_factored, s and d are read off plan.
    """

    planner_result: PlannerResult | None
    tower: UnityRoot
    lift: LiftResult
    plan: FFTPlan

    p = property(lambda self: self.plan.p)
    K = property(lambda self: self.plan.K)
    s_factored = property(lambda self: self.plan.s_factored)
    s = property(lambda self: self.plan.s)
    d = property(lambda self: self.plan.ring.degree)


def precision_steps(K: int) -> int:
    """Newton steps so the doubled precision 2^n reaches K."""
    if K < 1:
        raise BadInput("need K >= 1")
    return (K - 1).bit_length()


def build_pipeline(p: int, K: int, N: int | None = None, s=None, seed: int | None = None) -> PipelineResult:
    """Build everything needed to transform length-s vectors over Z/p^K.

    Exactly one of N (planner picks s above it) and s must be given. The
    randomness only steers the tower's factor splitting; the returned root
    and plan are determined by (p, K, s, seed).
    """
    if (N is None) == (s is None):
        raise BadInput("give exactly one of N and s")
    # p must be an odd prime, and past kernels.MODULUS_BITS no product runs: refuse before the tower or the lift
    PadicContext(p, K)
    steps = precision_steps(K)
    planner_result = None
    if N is not None:
        planner_result = choose_parameters(p, N)
        s_factored = planner_result.s_factored
    else:
        s_factored = FactoredOrder.of(s)
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    tower = build_root_of_unity(p, s_factored, rng)
    lift = newton_lift_root(tower.modulus, s_factored, steps, p)
    plan = make_plan(s_factored, lift, K)
    return PipelineResult(planner_result=planner_result, tower=tower, lift=lift, plan=plan)
