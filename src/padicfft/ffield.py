"""Finite fields presented as quotient towers, and polynomials over them.

A field is either PrimeField(p) with int elements, or ExtensionField(base, f)
whose elements are tuples of base elements (coefficients of degree < deg f,
constant first). Towers nest: ExtensionField over ExtensionField is how a
transient two-level extension is represented before it gets flattened back to
a single step over F_p.

Polynomials over a field F are plain Python lists of F elements, constant
term first, with no trailing zeros; the empty list is the zero polynomial.
All base multiplications in F_p are tallied on the prime field's counter so
tests can assert cost-model bounds.
"""

from __future__ import annotations

from .errors import (
    BadInput,
    DegreeTooSmall,
    NonUnit,
    OrbitNotClosed,
    ZeroInput,
)
from .orders import is_prime


def power(mul, one, a, e: int):
    """a^e by square and multiply with the product mul, starting from one.

    Every pow in the package runs this loop, so the sequence of products (and
    each counter's tally) is the same wherever a power is taken.
    """
    if e < 0:
        raise BadInput("exponent must be nonnegative")
    out, acc = one, a
    while e:
        if e & 1:
            out = mul(out, acc)
        acc = mul(acc, acc)
        e >>= 1
    return out


class MulCounter:
    """Mutable tally of base-ring multiplications."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n=1):
        self.count += n

    def reset(self):
        self.count = 0


class PrimeField:
    """F_p with canonical int representatives in [0, p)."""

    __slots__ = ("p", "counter")

    def __init__(self, p: int):
        if not is_prime(p):
            raise BadInput(f"{p} is not prime")
        self.p = p
        self.counter = MulCounter()

    order = property(lambda self: self.p)
    char = property(lambda self: self.p)
    degree_over_prime = property(lambda self: 1)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        self.counter.add()
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise NonUnit("zero has no inverse")
        return pow(a, -1, self.p)

    def pow(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def is_zero(self, a):
        return a == 0

    def rand(self, rng):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtensionField:
    """base[Y]/(modulus) for monic irreducible modulus over base."""

    __slots__ = ("base", "modulus", "degree")

    def __init__(self, base, modulus, check: bool = True):
        modulus = list(modulus)
        if len(modulus) < 2:
            raise DegreeTooSmall("modulus must have degree >= 1")
        if modulus[-1] != base.one():
            raise BadInput("modulus must be monic")
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        if check and not is_irreducible(base, modulus):
            raise BadInput("modulus is not irreducible over the base field")

    order = property(lambda self: self.base.order**self.degree)
    char = property(lambda self: self.base.char)
    degree_over_prime = property(lambda self: self.base.degree_over_prime * self.degree)

    def zero(self):
        return (self.base.zero(),) * self.degree

    def one(self):
        return self.embed(self.base.one())

    def embed(self, c):
        """Base element as a constant of this field."""
        return (c,) + (self.base.zero(),) * (self.degree - 1)

    def from_int(self, n: int):
        return self.embed(self.base.from_int(n))

    def gen(self):
        """Image of the adjoined variable Y."""
        if self.degree == 1:
            return (self.base.neg(self.modulus[0]),)
        b = self.base
        return (b.zero(), b.one()) + (b.zero(),) * (self.degree - 2)

    def add(self, a, b):
        bb = self.base
        return tuple(bb.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        bb = self.base
        return tuple(bb.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bb = self.base
        return tuple(bb.neg(x) for x in a)

    def mul(self, a, b):
        bb = self.base
        d = self.degree
        prod = [bb.zero()] * (2 * d - 1)
        for i, x in enumerate(a):
            if bb.is_zero(x):
                continue
            for j, y in enumerate(b):
                prod[i + j] = bb.add(prod[i + j], bb.mul(x, y))
        return self._reduce(prod)

    def _reduce(self, prod):
        bb = self.base
        d = self.degree
        for i in range(len(prod) - 1, d - 1, -1):
            c = prod[i]
            if bb.is_zero(c):
                continue
            for j in range(d):
                fj = self.modulus[j]
                if not bb.is_zero(fj):
                    prod[i - d + j] = bb.sub(prod[i - d + j], bb.mul(c, fj))
        return tuple(prod[:d])

    def pow(self, a, e: int):
        return power(self.mul, self.one(), a, e)

    def inv(self, a):
        if self.is_zero(a):
            raise NonUnit("zero has no inverse")
        num = poly_trim(self.base, list(a))
        r0, r1 = list(self.modulus), num
        s0, s1 = [], [self.base.one()]
        while poly_deg(r1) > 0:
            q, r = poly_divmod(self.base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(self.base, s0, poly_mul(self.base, q, s1))
        if not r1:
            raise NonUnit("element shares a factor with the modulus")
        c = self.base.inv(r1[0])
        out = [self.base.mul(c, x) for x in s1]
        out += [self.base.zero()] * (self.degree - len(out))
        return tuple(out[: self.degree])

    def is_zero(self, a):
        bb = self.base
        return all(bb.is_zero(x) for x in a)

    def rand(self, rng):
        bb = self.base
        return tuple(bb.rand(rng) for _ in range(self.degree))

    def __repr__(self):
        return f"ExtensionField(deg {self.degree} over {self.base!r})"


def as_prime_int(field, x) -> int:
    """Extract a tower element that is actually a prime-field constant."""
    if isinstance(field, PrimeField):
        return x
    bb = field.base
    for c in x[1:]:
        if not bb.is_zero(c):
            raise OrbitNotClosed("coefficient is not a prime-field constant")
    return as_prime_int(bb, x[0])


# ---------------------------------------------------------------------------
# polynomials over a field


def poly_trim(F, cs):
    cs = list(cs)
    while cs and F.is_zero(cs[-1]):
        cs.pop()
    return cs


def poly_deg(cs) -> int:
    return len(cs) - 1


def poly_add(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero()
        y = b[i] if i < len(b) else F.zero()
        out.append(F.add(x, y))
    return poly_trim(F, out)


def poly_sub(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero()
        y = b[i] if i < len(b) else F.zero()
        out.append(F.sub(x, y))
    return poly_trim(F, out)


def poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(F, out)


def poly_scale(F, c, a):
    return poly_trim(F, [F.mul(c, x) for x in a])


def poly_divmod(F, num, den):
    if not den:
        raise ZeroInput("division by the zero polynomial")
    num = list(num)
    dd = poly_deg(den)
    if poly_deg(num) < dd:
        return [], poly_trim(F, num)
    lead_inv = F.inv(den[-1])
    q = [F.zero()] * (poly_deg(num) - dd + 1)
    for i in range(len(q) - 1, -1, -1):
        c = F.mul(num[i + dd], lead_inv)
        q[i] = c
        if F.is_zero(c):
            continue
        for j in range(dd + 1):
            num[i + j] = F.sub(num[i + j], F.mul(c, den[j]))
    return poly_trim(F, q), poly_trim(F, num[:dd])


def poly_mod(F, num, den):
    return poly_divmod(F, num, den)[1]


def poly_monic(F, a):
    if not a:
        raise ZeroInput("cannot normalize the zero polynomial")
    if F.is_zero(F.sub(a[-1], F.one())):
        return list(a)
    return poly_scale(F, F.inv(a[-1]), a)


def ff_poly_gcd(F, a, b):
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) is an error."""
    a, b = poly_trim(F, a), poly_trim(F, b)
    if not a and not b:
        raise ZeroInput("gcd of two zero polynomials")
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def ff_poly_modpow(F, g, e: int, f):
    """g^e mod f by square and multiply."""
    if poly_deg(f) < 1:
        raise DegreeTooSmall("modulus must have degree >= 1")
    return power(lambda u, v: poly_mod(F, poly_mul(F, u, v), f), [F.one()], poly_mod(F, g, f), e)


def poly_from_ints(F, ints):
    return [F.from_int(n) for n in ints]


def is_irreducible(F, modulus) -> bool:
    """Rabin's test for a monic polynomial over F.

    Requires Y^(q^d) = Y mod f, and gcd(Y^(q^(d/ell)) - Y, f) = 1 for every
    prime ell dividing d; in particular the Frobenius orbit of Y has full
    length d.
    """
    from .orders import factorize

    f = poly_trim(F, modulus)
    d = poly_deg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.order
    proper = {d // ell for ell, _ in factorize(d)}
    y = [F.zero(), F.one()]
    power = y
    for j in range(1, d + 1):
        power = ff_poly_modpow(F, power, q, f)
        if j in proper:
            diff = poly_sub(F, power, y)
            if not diff or poly_deg(ff_poly_gcd(F, diff, f)) > 0:
                return False
    return poly_sub(F, power, y) == []


def frobenius_orbit(field, beta):
    """[beta, beta^p, beta^(p^2), ...] stopping when the power returns to beta."""
    p = field.char
    cap = field.degree_over_prime
    orbit = [beta]
    cur = field.pow(beta, p)
    while cur != beta:
        orbit.append(cur)
        cur = field.pow(cur, p)
        if len(orbit) > cap:
            raise OrbitNotClosed("Frobenius orbit exceeded the field degree")
    return orbit


def minimal_poly_from_orbit(field, beta):
    """Minimal polynomial of beta over F_p, as an int tuple (constant first).

    Expands the product of (Y - conjugate) over the Frobenius orbit and checks
    that every coefficient lands in the prime field.
    """
    orbit = frobenius_orbit(field, beta)
    poly = [field.one()]
    for c in orbit:
        poly = poly_mul(field, poly, [field.neg(c), field.one()])
    return tuple(as_prime_int(field, c) for c in poly)


def ff_random_monic(field, deg_bound: int, rng):
    """Uniform monic polynomial of degree in [1, deg_bound).

    Uniform over the whole set, so degree k is drawn with weight q^k (there
    are q^k monic polynomials of degree k).
    """
    if deg_bound < 2:
        raise DegreeTooSmall("need room for degree >= 1")
    q = field.order
    total = sum(q**k for k in range(1, deg_bound))
    u = rng.randrange(total)
    k = 1
    bucket = q
    while u >= bucket:
        u -= bucket
        k += 1
        bucket = q**k
    return [field.rand(rng) for _ in range(k)] + [field.one()]
