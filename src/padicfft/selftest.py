"""The acceptance suite: ten numbered checks, each with a wall-time budget.

Every check rebuilds what it measures from scratch, so one run of
run_selftest is a complete health report for the installed package. A
criterion passes only if its assertions hold and it finishes inside its
budget.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .errors import BadInput, PadicFFTError
from .fft import dft, idft, naive_dft, poly_multiply
from .ffield import PrimeField, poly_divmod
from .lifting import expand_lifted_factor, hensel_factor_oracle, newton_lift_root
from .orders import cyclotomic_degree, factorize, tower_step_degree
from .pipeline import build_pipeline, precision_steps
from .planner import _first_primes, choose_parameters
from .tower import build_root_of_unity, cz_split

PHI5 = [1, 1, 1, 1, 1]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    budget: float
    detail: str

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} {word} ({self.seconds:6.2f}s"
                f" / {self.budget:3.0f}s) {self.name}: {self.detail}")


def _random_vector(ring, s, rng):
    return [ring.element([rng.randrange(ring.ctx.pK) for _ in range(ring.degree)])
            for _ in range(s)]


def _brute_order(p: int, s: int) -> int:
    t = p % s
    k = 1
    while t != 1 % s:
        t = t * p % s
        k += 1
    return k


def _splitting_distribution() -> str:
    seen = set()
    for seed in range(100):
        seen.add(tuple(cz_split(PrimeField(19), PHI5, 2, random.Random(seed))))
    assert seen == {(1, 5, 1), (1, 15, 1)}, f"unexpected factor set {seen}"
    return "100 seeds produced exactly the two known quadratic factors"


def _lift_exactness() -> str:
    lift = newton_lift_root([1, 5, 1], 5, 1, 19)
    got = expand_lifted_factor(lift.ring, lift.root)
    assert got == (1, 43, 1), f"lifted factor {got}"
    oracle_f, _ = hensel_factor_oracle(PHI5, [1, 5, 1], [1, 15, 1], 19, 2)
    assert oracle_f == got, f"oracle disagrees: {oracle_f} vs {got}"
    return "factor is 1 + 43*X + X^2 and matches the linear Hensel oracle"


def _newton_convergence() -> str:
    cases = [(3, 8), (3, 104), (19, 5), (5, 24)]
    for p, s in cases:
        tower = build_root_of_unity(p, s, random.Random(11))
        trace = []
        newton_lift_root(tower.modulus, s, 5, p, trace=trace)
        assert len(trace) == 5
        for i, prec, val in trace:
            assert prec == 2**i, f"(p={p}, s={s}) step {i} ran at precision {prec}"
            assert val >= 2**i, (
                f"(p={p}, s={s}) step {i}: root^s != 1 mod {p}^{2**i} (valuation {val})")
    return f"residual valuation reached 2^i at every step i <= 5 for {cases}"


def _oracle_equivalence() -> str:
    cases = [(19, 5, n) for n in range(1, 6)]
    cases += [(3, 8, n) for n in range(1, 6)]
    cases += [(3, 104, 4)]
    for p, s, n in cases:
        tower = build_root_of_unity(p, s, random.Random(3))
        fbar = list(tower.modulus)
        lift = newton_lift_root(fbar, s, n, p)
        got = expand_lifted_factor(lift.ring, lift.root)
        K = 2**n
        h = [p**K - 1] + [0] * (s - 1) + [1]
        quo, rem = poly_divmod(PrimeField(p), [p - 1] + [0] * (s - 1) + [1], fbar)
        assert not any(rem), "tower modulus must divide Y^s - 1 over F_p"
        oracle_f, _ = hensel_factor_oracle(h, fbar, quo, p, K)
        assert oracle_f == got, f"(p={p}, s={s}, n={n}): {oracle_f} vs {got}"
    return f"sparse lift equals the linear Hensel oracle on {len(cases)} cases"


def _degree_formulas() -> str:
    checked = 0
    for p in (3, 5, 7, 19):
        for s in range(1, 301):
            if s % p == 0:
                continue
            brute = _brute_order(p, s)
            assert cyclotomic_degree(p, s, 0) == brute, f"degree formula at (p={p}, s={s})"
            telescope = 1
            a = 1
            for q, v in factorize(s):
                for j in range(1, v + 1):
                    telescope *= tower_step_degree(p, a, q, j)
                a *= q**v
            assert telescope == brute, f"telescoping at (p={p}, s={s})"
            checked += 1
    anomaly = tower_step_degree(19, 1, 2, 2)
    assert anomaly == 2, f"(19, 2, v=2) step degree {anomaly}"
    return f"order oracle and telescoping agree on {checked} (p, s) pairs"


def _planner_selection() -> str:
    first = choose_parameters(3, 100)
    assert (first.s, first.d) == (104, 6), f"(3, 100) gave {(first.s, first.d)}"
    second = choose_parameters(3, 10**4)
    assert (second.s, second.d) == (12584, 30), f"(3, 10^4) gave {(second.s, second.d)}"
    grid = sorted({int(round(10 ** (e / 3))) for e in range(0, 16)})
    for p in (3, 5, 7):
        for N in grid:
            res = choose_parameters(p, N)
            assert res.s > N and math.gcd(res.s, p) == 1
            if res.r > 1:
                q = _first_primes(res.r)[-1]
                assert res.s // ((p**q - 1) // (p - 1)) <= N, f"r not minimal at (p={p}, N={N})"
            assert res.d == _brute_order(p, res.s), f"order mismatch at (p={p}, N={N})"
    return f"frozen examples and invariants hold over {len(grid)} sizes, p in (3, 5, 7)"


def _transform_correctness() -> str:
    rng = random.Random(77)
    for s in (2, 4, 8, 104):
        for K in (1, 8, 32):
            plan = build_pipeline(3, K, s=s, seed=5).plan
            for _ in range(50):
                x = _random_vector(plan.ring, s, rng)
                f = dft(x, plan)
                assert idft(f, plan) == x, f"round trip failed at (s={s}, K={K})"
                assert f == naive_dft(x, plan.root, s), f"naive mismatch at (s={s}, K={K})"
    plan = build_pipeline(3, 8, s=104, seed=5).plan
    m = 3**8
    for _ in range(100):
        fc = [rng.randrange(m) for _ in range(rng.randrange(1, 53))]
        gc = [rng.randrange(m) for _ in range(rng.randrange(1, 53))]
        school = [0] * (len(fc) + len(gc) - 1)
        for i, a in enumerate(fc):
            for j, b in enumerate(gc):
                school[i + j] = (school[i + j] + a * b) % m
        while school and school[-1] == 0:
            school.pop()
        assert poly_multiply(fc, gc, 3, 8, plan=plan) == school
    return "600 round trips, 600 naive comparisons, 100 products match schoolbook"


def _cost_model() -> str:
    details = []
    for N in (100, 1000, 10**4):
        pipe = build_pipeline(3, 8, N=N, seed=5)
        plan = pipe.plan
        d, s = plan.ring.degree, plan.s
        weight = sum(plan.radices)
        plan.ring.counter.reset()
        dft([plan.ring.zero()] * s, plan)
        count = plan.ring.counter.count
        dft_budget = 8 * d * d * s * weight
        assert count <= dft_budget, f"N={N}: dft used {count} > {dft_budget}"

        cz = pipe.tower.base_counter.count
        split_work = sum(v * q * q * math.log2(q) for q, v in pipe.s_factored.factors)
        per_prime = d**3 * (math.log2(3) + math.log2(max(2, d)))
        cz_budget = 32 * (d * d * split_work + len(pipe.s_factored.factors) * per_prime)
        assert cz <= cz_budget, f"N={N}: tower used {cz} > {cz_budget:.0f}"

        n = max(1, precision_steps(8))
        lift_budget = 32 * d * d * n * math.log2(s)
        assert pipe.lift.base_mults <= lift_budget, (
            f"N={N}: lift used {pipe.lift.base_mults} > {lift_budget:.0f}")
        details.append(f"N={N}: dft {count}/{dft_budget}")
    return "; ".join(details)


def _end_to_end() -> str:
    start = time.perf_counter()
    pipe = build_pipeline(3, 32, N=10**4)
    plan = pipe.plan
    x = _random_vector(plan.ring, plan.s, random.Random(99))
    ok = idft(dft(x, plan), plan) == x
    elapsed = time.perf_counter() - start
    assert ok, "round trip at s=12584 is not exact"
    return f"exact round trip at s={plan.s}, d={plan.ring.degree}, K=32 in {elapsed:.1f}s"


def _lift_choice_independence() -> str:
    rng = random.Random(123)
    for p, s in ((19, 5), (3, 8)):
        fbar = build_root_of_unity(p, s, random.Random(7)).modulus
        base = newton_lift_root(fbar, s, 3, p)
        want = expand_lifted_factor(base.ring, base.root)
        for _ in range(2):
            other_modulus = [c + p * rng.randrange(p**6) for c in fbar[:-1]] + [1]
            other = newton_lift_root(fbar, s, 3, p, lift_coeffs=other_modulus)
            got = expand_lifted_factor(other.ring, other.root)
            assert got == want, f"(p={p}, s={s}): {got} vs {want}"
    return "three moduli per case, identical expanded factors"


CRITERIA = (
    (1, "splitting distribution", _splitting_distribution, 1.0),
    (2, "lift exactness", _lift_exactness, 1.0),
    (3, "newton convergence", _newton_convergence, 5.0),
    (4, "oracle equivalence", _oracle_equivalence, 30.0),
    (5, "degree formulas", _degree_formulas, 10.0),
    (6, "planner selection", _planner_selection, 10.0),
    (7, "transform correctness", _transform_correctness, 60.0),
    (8, "cost model", _cost_model, 120.0),
    (9, "end to end", _end_to_end, 60.0),
    (10, "lift choice independence", _lift_choice_independence, 5.0),
)


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn, budget in CRITERIA:
        if num == number:
            break
    else:
        raise BadInput(f"no criterion {number}")
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except (AssertionError, PadicFFTError) as exc:
        detail = str(exc) or type(exc).__name__
        passed = False
    elapsed = time.perf_counter() - start
    if passed and elapsed >= budget:
        passed = False
        detail = f"took {elapsed:.1f}s, budget {budget:.0f}s"
    return CriterionResult(num, name, passed, elapsed, budget, detail)


def run_selftest(numbers=None) -> list:
    results = []
    for num, _, _, _ in CRITERIA:
        if numbers and num not in numbers:
            continue
        res = run_criterion(num)
        print(res.line())
        results.append(res)
    return results
