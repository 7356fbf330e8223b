"""Lifting a root of unity from F_p[Y]/fbar to precision p^(2^n).

The working modulus F is any monic lift of fbar (by default fbar itself read
as integers); it never changes. Only the root is corrected, one Newton step
per precision doubling:

    alpha <- alpha - s^(-1) * (alpha^s - 1) * alpha * (2 - alpha^s)

where (2 - alpha^s) stands in for alpha^(-s): when u = 1 + eps with eps = 0
mod p^k, u*(2 - u) = 1 - eps^2 = 1 mod p^2k, so the inverse comes for free at
exactly the precision the step needs: the correction costs two ring
products beyond alpha^s and no separate inversion. The lifted factor of
Y^s - 1 is then the product of (Y - alpha^(p^j)) over the Frobenius orbit,
and a classical linear Hensel factor lift is kept alongside as an
independent cross-check; it runs on ffield's polynomial functions with
PadicContext(p, k+1), the ResidueRing Z/p^(k+1), as the coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadInput,
    BezoutFailure,
    CoefficientNotRational,
    InternalError,
    NotAFactor,
    NotCoprime,
    NotCoprimeFactors,
    OrbitNotClosed,
    PreconditionFailed,
)
from .ffield import (
    PrimeField,
    ff_poly_modpow,
    is_irreducible,
    packed,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_from_ints,
    poly_mul,
    poly_scale,
    poly_sub,
)
from .orders import FactoredOrder, padic_valuation
from .padic import PadicContext, RingExtension, ring_mul, ring_pow, scalar_mul


@dataclass
class LiftResult:
    """Outcome of the Newton lift.

    ring.counter is reset before return, so downstream transform work is
    counted separately from base_mults, the lift's own multiplication bill.
    """

    ring: RingExtension
    root: object
    precision: int
    steps: int
    base_mults: int


def newton_lift_root(fbar, s, n: int, p: int, lift_coeffs=None, trace=None) -> LiftResult:
    """Lift the root Y of F_p[Y]/fbar to an exact s-th root mod p^(2^n).

    fbar must be monic irreducible over F_p and divide Y^s - 1 there. The
    ring modulus is lift_coeffs when given (any monic lift of fbar), else
    fbar itself. When trace is a list, one (step, precision, residual
    valuation) triple is appended per Newton step; tracing leaves
    base_mults unchanged.
    """
    if not isinstance(s, FactoredOrder):
        s = FactoredOrder.of(s)
    if n < 0:
        raise BadInput("need n >= 0")
    PadicContext(p, 1)  # validates p
    if s.value % p == 0:
        raise NotCoprime("s must be coprime to p")
    fbar = tuple(c % p for c in fbar)
    d = len(fbar) - 1
    if d < 1 or fbar[-1] != 1:
        raise BadInput("fbar must be monic of degree >= 1")
    base = PrimeField(p)
    fbar_p = poly_from_ints(base, fbar)
    if not is_irreducible(base, fbar_p):
        raise BadInput("fbar must be irreducible")
    if ff_poly_modpow(base, packed(base, [0, 1]), s.value, packed(base, fbar_p)).tolist() != [[1]]:
        raise NotAFactor(f"fbar does not divide Y^{s.value} - 1 mod {p}")

    K = 2**n
    if lift_coeffs is None:
        modulus = list(fbar)
    else:
        modulus = [c % p**K for c in lift_coeffs]
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise BadInput("lift must be monic of the same degree as fbar")
        if any((mc - fc) % p for mc, fc in zip(modulus, fbar)):
            raise BadInput("lift does not reduce to fbar mod p")

    ring = RingExtension(PadicContext(p, 1), [c % p for c in modulus], check=False)
    root = ring.gen()
    work = 0
    for i in range(1, n + 1):
        ki = 2**i
        ring = RingExtension(PadicContext(p, ki), [c % p**ki for c in modulus], check=False)
        alpha = ring.element(root.coeffs)
        power = ring_pow(alpha, s.value)
        correction = (power - 1) * alpha * (2 - power)
        sinv = ring.ctx.inv(s.value)
        root = alpha - scalar_mul(sinv, correction)
        if trace is not None:
            trace.append((i, ki, _residual_valuation(ring, root, s.value)))
        if i < n:
            work += ring.counter.count

    if ring_pow(root, s.value) != ring.one():
        raise InternalError("newton iteration did not converge")
    work += ring.counter.count
    ring.counter.reset()
    return LiftResult(ring=ring, root=root, precision=K, steps=n, base_mults=work)


def _residual_valuation(ring, alpha, s: int) -> int:
    """Valuation of alpha^s - 1, evaluated on an unbilled copy of ring."""
    copy = ring.truncate(ring.ctx.K)
    res = ring_pow(copy.element(alpha.coeffs), s) - copy.one()
    vals = [padic_valuation(c, ring.ctx.p) for c in res.coeffs if c]
    return min(vals) if vals else ring.ctx.K


def expand_lifted_factor(ring: RingExtension, alpha) -> tuple:
    """The factor of Y^s - 1 over Z/p^K with root alpha: prod of (Y - alpha^(p^j)).

    Conjugates are Frobenius powers; the product must land in Z/p^K, so any
    surviving non-constant coefficient part raises CoefficientNotRational.
    """
    p = ring.ctx.p
    d = ring.degree
    poly = [ring.one()]
    conj = alpha
    for _ in range(d):
        neg = -conj
        nxt = [ring.zero()] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] + ring_mul(c, neg)
        poly = nxt
        conj = ring_pow(conj, p)
    if conj != alpha:
        raise OrbitNotClosed("Frobenius orbit of the root did not close")
    out = []
    for c in poly:
        if any(c.coeffs[1:]):
            raise CoefficientNotRational("factor coefficient is not in Z/p^K")
        out.append(c.coeffs[0])
    return tuple(out)


def linear_hensel_step(p: int, k: int, h, f, g, a, b):
    """One precision step of factor lifting: from h = f*g mod p^k to mod p^(k+1).

    a, b is a Bezout pair with a*f + b*g = 1 mod p. The updates are
    df = b*(h - f*g) mod f and dg = a*(h - f*g) mod g, both at precision k+1.
    """
    if k < 1:
        raise BadInput("need k >= 1")
    ring = PadicContext(p, k + 1)
    h, f, g, a, b = [[c % ring.pK for c in u] for u in (h, f, g, a, b)]
    if not (h and f and g and h[-1] == 1 and f[-1] == 1 and g[-1] == 1):
        raise BadInput("h, f, g must be monic")
    base = PrimeField(p)
    lhs = poly_add(base, poly_mul(base, poly_from_ints(base, a), poly_from_ints(base, f)),
                   poly_mul(base, poly_from_ints(base, b), poly_from_ints(base, g)))
    if lhs != [base.one()]:
        raise BezoutFailure("a*f + b*g is not 1 mod p")
    err = poly_sub(ring, h, poly_mul(ring, f, g))
    if any(c % p**k for c in err):
        raise PreconditionFailed(f"h - f*g is not 0 mod p^{k}")
    df = poly_divmod(ring, poly_mul(ring, b, err), f)[1]
    dg = poly_divmod(ring, poly_mul(ring, a, err), g)[1]
    return poly_add(ring, f, df), poly_add(ring, g, dg)


def hensel_factor_oracle(h, f0, g0, p: int, K: int):
    """Lift h = f0*g0 from mod p to mod p^K by K-1 linear steps.

    Independent of the Newton path: dense classical lifting, used to
    cross-check expand_lifted_factor. Returns (f, g) mod p^K.
    """
    PadicContext(p, 1)
    if K < 1:
        raise BadInput("need K >= 1")
    base = PrimeField(p)
    f_p = poly_from_ints(base, f0)
    g_p = poly_from_ints(base, g0)
    h_p = poly_from_ints(base, h)
    if poly_sub(base, h_p, poly_mul(base, f_p, g_p)):
        raise PreconditionFailed("h is not f0*g0 mod p")
    a, b = _bezout_fp(base, f_p, g_p)
    f = [c % p for c in f0]
    g = [c % p for c in g0]
    hh = list(h)
    for k in range(1, K):
        f, g = linear_hensel_step(p, k, [c % p ** (k + 1) for c in hh], f, g, a, b)
    return tuple(f), tuple(g)


def _bezout_fp(F, f, g):
    """a, b over F_p with a*f + b*g = 1; NotCoprimeFactors when impossible."""
    r0, r1 = list(f), list(g)
    a0, a1 = [F.one()], []
    b0, b1 = [], [F.one()]
    while r1:
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        a0, a1 = a1, poly_sub(F, a0, poly_mul(F, q, a1))
        b0, b1 = b1, poly_sub(F, b0, poly_mul(F, q, b1))
    if poly_deg(r0) != 0:
        raise NotCoprimeFactors("f0 and g0 share a factor mod p")
    inv = F.inv(r0[0])
    return [c for c in poly_scale(F, inv, a0)], [c for c in poly_scale(F, inv, b0)]

