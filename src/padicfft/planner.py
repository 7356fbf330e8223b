"""Choosing the transform length for a target size N over Z/p^K.

s is a product of cyclotomic values at p: (p - 1) times Phi_q(p) for the
first r primes q, with r minimal so that s exceeds N. Each factor is
cheap to factor on its own, the extension degree d comes out as the product
of the first r primes, and s/N tends to 1 as N grows, which is what makes
the transform cost nearly linear.

A PlannerResult stores what choose_parameters decided (r, s factored, d)
with p and N; the cost model, the ratios to N and the check of d against
the prime product are read off them, and asymptotic_report is one per N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import BadInput, FactoringFailure, OutOfRange
from .orders import FactoredOrder, is_prime, multiplicative_order


@dataclass(frozen=True)
class PlannerResult:
    """The planner's choice for (p, N). Stored: p, N, r, s_factored, d; every other attribute is derived from them."""

    p: int
    N: int
    r: int
    s_factored: FactoredOrder
    d: int

    s = property(lambda self: self.s_factored.value)
    predicted_mults = property(lambda self: predicted_mults(self.s_factored, self.d))
    d_matches_prime_product = property(lambda self: self.d == math.prod(_first_primes(self.r)))
    small_d_regime = property(lambda self: self.predicted_mults < self.s * self.s)
    s_over_N = property(lambda self: self.s / self.N)
    cost_over_N = property(lambda self: self.predicted_mults / self.N)


def _first_primes(r: int):
    out = []
    q = 2
    while len(out) < r:
        if is_prime(q):
            out.append(q)
        q += 1
    return out


def choose_parameters(p: int, N: int) -> PlannerResult:
    """Smallest r >= 1 with (p-1)*Phi_2(p)*...*Phi_{q_r}(p) > N, and the data for it.

    d is computed as an exact multiplicative order, then cross-checked
    against the product of the first r primes; a mismatch is surfaced as a
    warning and flagged on the result, never silently accepted.
    """
    if not is_prime(p) or p < 3:
        raise BadInput("p must be an odd prime")
    if N < 1:
        raise BadInput("need N >= 1")
    s = p - 1
    primes = []
    q = 2
    while not (primes and s > N):
        if is_prime(q):
            primes.append(q)
            s *= (p**q - 1) // (p - 1)
        q += 1
    try:
        s_factored = FactoredOrder.of(s)
    except OutOfRange as exc:
        raise FactoringFailure(f"s = {s} is beyond the supported factoring range") from exc
    d = multiplicative_order(p, s)
    claim = math.prod(primes)
    if d != claim:
        warnings.warn(f"exact order {d} differs from the prime product {claim} at p={p}, N={N}", stacklevel=2)
    return PlannerResult(p=p, N=N, r=len(primes), s_factored=s_factored, d=d)


def predicted_mults(s: FactoredOrder, d: int) -> int:
    """Modelled multiplications of one length-s transform over a degree-d ring: d^2 s sum v q over q^v in s."""
    return d * d * s.value * sum(v * q for q, v in s.factors)


def asymptotic_report(p: int, N_list) -> list:
    """One PlannerResult per N: how s/N and cost/N move as N grows. Report only."""
    return [choose_parameters(p, N) for N in N_list]


REPORT_COLUMNS = ("N", "r", "s", "d", "s_over_N", "predicted_mults", "cost_over_N", "small_d_regime")


def report_csv(rows) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        lines.append(
            f"{row.N},{row.r},{row.s},{row.d},{row.s_over_N:.6f},{row.predicted_mults},{row.cost_over_N:.3f},{int(row.small_d_regime)}"
        )
    return "\n".join(lines) + "\n"


def report_table(rows) -> str:
    cells = [REPORT_COLUMNS]
    for row in rows:
        cells.append(
            (str(row.N), str(row.r), str(row.s), str(row.d), f"{row.s_over_N:.4f}",
             str(row.predicted_mults), f"{row.cost_over_N:.1f}", "yes" if row.small_d_regime else "no")
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(REPORT_COLUMNS))]
    out = []
    for line in cells:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return "\n".join(out) + "\n"
