"""Multiplicative orders, valuations and cyclotomic data.

Everything here is exact integer arithmetic at desk scale: factoring uses
trial division plus Brent's variant of Pollard rho, primality is
Miller-Rabin with the prime bases 2..41, deterministic below
psi_13 = 3317044064679887385961981 (about 3.3e24).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadInput, FactoringFailure, NotCoprime, OutOfRange, ZeroInput

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIME_BOUND = 10_000
_DESK_BOUND = 10**24


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, exact for n below psi_13 (about 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, seed: int) -> int:
    # Brent's cycle-finding variant; returns a nontrivial factor of composite odd n.
    if n % 2 == 0:
        return 2
    y, c, m = seed % n or 1, (seed * 31 + 7) % n or 1, 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as [(prime, exponent), ...] sorted by prime."""
    if n <= 0:
        raise BadInput("factorize needs a positive integer")
    if n > _DESK_BOUND:
        raise OutOfRange(f"{n} exceeds the desk-scale factoring bound")
    counts: dict[int, int] = {}
    for q in range(2, _SMALL_PRIME_BOUND):
        if q * q > n:
            break
        while n % q == 0:
            counts[q] = counts.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    tries = 0
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        g = m
        seed = 2
        while g == m:
            g = _pollard_brent(m, seed)
            seed += 1
            tries += 1
            if tries > 64:
                raise FactoringFailure(f"could not split {m}")
        stack.append(g)
        stack.append(m // g)
    return sorted(counts.items())


@dataclass(frozen=True)
class FactoredOrder:
    """A positive integer together with its prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 0
        for q, v in self.factors:
            if v < 1 or not is_prime(q) or q <= prev:
                raise BadInput("factors must be (prime, exponent>=1) with primes ascending")
            prev = q
            prod *= q**v
        if prod != self.value:
            raise BadInput(f"factorization does not multiply back to {self.value}")

    @classmethod
    def of(cls, n: int) -> "FactoredOrder":
        return cls(n, tuple(factorize(n)))

    def radix_schedule(self) -> list[int]:
        """All prime factors with multiplicity, ascending."""
        out: list[int] = []
        for q, v in self.factors:
            out.extend([q] * v)
        return out


def padic_valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n; n must be nonzero."""
    if n == 0:
        raise ZeroInput("valuation of zero is infinite")
    if p < 2 or not is_prime(p):
        raise BadInput("valuation base must be prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def multiplicative_order(x: int, m: int) -> int:
    """Order of x in (Z/m)^*. Factors the group exponent and strips primes."""
    if m < 1:
        raise BadInput("modulus must be positive")
    if m == 1:
        return 1
    x %= m
    if math.gcd(x, m) != 1:
        raise NotCoprime(f"{x} is not a unit mod {m}")
    order = 1
    for q, v in factorize(m):
        order = math.lcm(order, _order_mod_prime_power(x, q, v))
    return order


def _order_mod_prime_power(x: int, q: int, v: int) -> int:
    qv = q**v
    x %= qv
    if x == 1:
        return 1
    group_exp = (q - 1) * q ** (v - 1)
    t = group_exp
    for ell, _ in factorize(group_exp):
        while t % ell == 0 and pow(x, t // ell, qv) == 1:
            t //= ell
    return t


def cyclotomic_degree(p: int, s: int, n: int) -> int:
    """Degree over Q_p of the field generated by a primitive s*p^n-th root of unity.

    Equals ord_s(p) * phi(p^n); the s-part is unramified, the p-part totally
    ramified.
    """
    if not is_prime(p):
        raise BadInput("p must be prime")
    if s < 1 or n < 0:
        raise BadInput("need s >= 1 and n >= 0")
    if math.gcd(s, p) != 1:
        raise NotCoprime("s must be coprime to p")
    unram = multiplicative_order(p, s)
    ram = 1 if n == 0 else (p - 1) * p ** (n - 1)
    return unram * ram


def tower_step_degree(p: int, a: int, p0: int, v: int) -> int:
    """Relative degree [F_p(zeta_{a*p0^v}) : F_p(zeta_{a*p0^(v-1)})].

    Computed from exact multiplicative orders; closed-form shortcuts are only
    used as cross-checks in the test suite because they misfire near p0 = 2
    boundary cases.
    """
    if not is_prime(p) or not is_prime(p0) or p == p0:
        raise BadInput("p and p0 must be distinct primes")
    if a < 1 or v < 1:
        raise BadInput("need a >= 1 and v >= 1")
    if math.gcd(a * p0, p) != 1 or math.gcd(a, p0) != 1:
        raise NotCoprime("a must be coprime to both p and p0")
    lo = multiplicative_order(p, a * p0 ** (v - 1))
    hi = multiplicative_order(p, a * p0**v)
    return hi // lo
