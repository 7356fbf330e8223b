"""Finding a primitive s-th root of unity over F_p by a tower of extensions.

One prime power p0^v of s at a time, level by level, with one step per level:
take the level's polynomial (the cyclotomic Phi_p0 first, then the binomial
X^p0 - cur over the root cur found so far, or X^(p0^n) - cur for all n
remaining levels when the exact orders show it is irreducible), split off a
factor of the degree e the exact orders predict, and take its root: -fac[0]
in the same field when e = 1, else the generator of the extension by fac.
After the last level, zeta_a * cur (zeta_a the root for the primes before
p0) is flattened back to a single extension F_p[Y]/f(Y) by its minimal
polynomial, and its class Y is the root carried on to the next prime. Splitting
is randomized equal-degree (gcd of a random g, else gcd of g^((q^e-1)/2) - 1)
and every target degree is derived from exact multiplicative orders, never
from closed-form level thresholds, which misjudge some power-of-two boundary
cases.

Splitting runs on ffield's packed polynomials over flat F_p coordinates, and
the prime field's counter (base_counter) models the work from operand sizes.
No modulus is proved irreducible again: a nested field's is an irreducible
factor from cz_split, and a flattened field's is a minimal polynomial over
F_p, its degree checked against the exact order. newton_lift_root proves the
one modulus that leaves the tower, as its input; _verify_primitive checks
the root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BadInput,
    DegreeTooSmall,
    EvenCharacteristic,
    NotCoprime,
    OrbitNotClosed,
    RandomnessFailure,
)
from .ffield import (
    ExtensionField,
    PrimeField,
    ff_poly_divmod,
    ff_poly_gcd,
    ff_poly_modpow,
    ff_poly_monic,
    ff_poly_sub,
    ff_random_monic,
    ff_trim,
    minimal_poly_from_orbit,
    packed,
    poly_deg,
    unpacked,
)
from .orders import FactoredOrder, multiplicative_order, tower_step_degree


def cz_split(field, f, e: int, rng: random.Random):
    """One monic irreducible factor of degree e from an equal-degree product.

    f must be monic, squarefree, and a product of irreducibles all of degree
    e over `field`, whose order must be odd. Each round draws a random monic
    g of degree below deg f and keeps the smaller piece of whichever gcd
    split succeeds: gcd(g, f) first, else gcd(g^((q^e-1)/2) - 1, f).
    """
    q = field.order
    if q % 2 == 0:
        raise EvenCharacteristic("splitting needs an odd field order")
    f = ff_trim(packed(field, f))
    deg = poly_deg(f)
    if deg < 1:
        raise DegreeTooSmall("cannot split a constant")
    if e < 1 or deg % e:
        raise BadInput(f"target degree {e} does not divide {deg}")
    f = ff_poly_monic(field, f)
    half = (q**e - 1) // 2
    cap = 64 * max(1, (deg - 1).bit_length())
    rounds = 0
    while poly_deg(f) > e:
        if rounds >= cap:
            raise RandomnessFailure(f"no split of degree {poly_deg(f)} after {rounds} tries")
        rounds += 1
        g = ff_random_monic(field, poly_deg(f), rng)
        piece = _smaller_factor(field, f, ff_poly_gcd(field, g, f))
        if piece is None:
            w = ff_poly_sub(field, ff_poly_modpow(field, g, half, f), packed(field, [field.one()]))
            if len(w):
                piece = _smaller_factor(field, f, ff_poly_gcd(field, w, f))
        if piece is not None:
            f = piece
    return unpacked(field, f)


def _smaller_factor(field, f, h):
    dh = poly_deg(h)
    if 0 < dh < poly_deg(f):
        other = ff_poly_divmod(field, f, h)[0]
        return h if dh <= poly_deg(other) else other
    return None


@dataclass
class UnityRoot:
    """A primitive s-th root of unity presented as the generator of F_p[Y]/f."""

    p: int
    s: int
    modulus: tuple  # f as ints over F_p, constant first, monic
    field: ExtensionField
    zeta: tuple

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def base_counter(self):
        return self.field.base.counter


def build_root_of_unity(p: int, s_factored, rng: random.Random) -> UnityRoot:
    """Construct F_p[Y]/f containing a primitive s-th root of unity as Y."""
    s = s_factored if isinstance(s_factored, FactoredOrder) else FactoredOrder.of(s_factored)
    if s.value < 2:
        raise BadInput("need s >= 2")
    if s.value % p == 0:
        raise NotCoprime("s must be coprime to p")
    if p == 2:
        raise EvenCharacteristic("p must be odd")
    prime = PrimeField(p)
    field, zeta, a = prime, prime.one(), 1  # zeta: primitive a-th root generating field

    for p0, v in s.factors:
        work, zeta_a = field, zeta
        poly = [work.one()] * p0  # Phi_p0 = 1 + X + ... + X^(p0-1), p0 prime
        j = 0  # cur, once set, is a primitive p0^j-th root in work
        while j < v:
            n, e = 1, tower_step_degree(p, a, p0, j + 1)
            if j:
                rest = multiplicative_order(p, a * p0**v) // multiplicative_order(p, a * p0**j)
                if e > 1 and rest == p0 ** (v - j):  # the remaining levels are one irreducible binomial
                    n, e = v - j, rest
                poly = [work.neg(cur)] + [work.zero()] * (p0**n - 1) + [work.one()]
            fac = cz_split(work, poly, e, rng)
            if e == 1:
                cur = work.neg(fac[0])
            else:
                work = ExtensionField(work, fac)
                zeta_a, cur = work.embed(zeta_a), work.gen()
            j += n
        a *= p0**v
        mp = minimal_poly_from_orbit(work, work.mul(zeta_a, cur))
        if len(mp) - 1 != multiplicative_order(p, a):
            raise OrbitNotClosed("flattened degree does not match the exact order")
        field = ExtensionField(prime, list(mp))
        zeta = field.gen()

    _verify_primitive(field, zeta, s)
    return UnityRoot(p=p, s=s.value, modulus=tuple(field.modulus), field=field, zeta=zeta)


def _verify_primitive(field, zeta, s: FactoredOrder):
    if field.pow(zeta, s.value) != field.one():
        raise OrbitNotClosed("constructed element is not an s-th root of unity")
    for q, _ in s.factors:
        if field.pow(zeta, s.value // q) == field.one():
            raise OrbitNotClosed(f"constructed root has order dividing s/{q}")
