"""Finite fields presented as quotient towers, and polynomials over them.

A field is PrimeField(p) with int elements, or ExtensionField(base, f), also
nested, with elements as flat tuples of D ints mod p (D its degree over F_p):
coordinate k*D_base + i is coordinate i of the Z^k coefficient over base.
ExtensionField takes f irreducible on trust: proving it (is_irreducible) is
the caller's job, done once where a modulus comes from outside. PrimeField
shares its arithmetic with padic.PadicContext (Z/p^K) through ResidueRing.

The poly_* functions take lists over any coefficient ring with the small
protocol below (a field, or a ResidueRing), constant first, no trailing
zeros. The ff_* functions, which the tower runs on, take packed polynomials
over a field: (n, D) int arrays, row i the X^i coefficient. ff_poly_mul is
the one product of field elements: X and every tower variable go to one
Python int on fixed-width byte slots (Kronecker substitution, multiplied by
CPython's Karatsuba), and each coefficient's slots are reduced by the field's
F_p-linear map R (U x D, U the product of 2e - 1 over the tower's variables
of degree e). Division is by monic polynomials, through a Newton inverse, and
gcds use pseudo-remainders, so neither takes a field inverse.

Coordinates are int64 for p < 2^16, where no Kronecker slot (at most
min(n1, n2)*D*(p-1)^2) or R contraction (U*(p-1)^2) reaches 2^63 before an
array outgrows memory, else object arrays of Python ints, as in kernels;
ff_poly_mul raises OutOfRange past either bound on int64 operands. Each call
charges the prime field's counter n1*n2*(D^2 + D(D-1)), the schoolbook model
for n1 by n2 coefficients; PrimeField.mul is not charged."""

from __future__ import annotations

import numpy as np

from .errors import (
    BadInput,
    DegreeTooSmall,
    NonUnit,
    OrbitNotClosed,
    OutOfRange,
    ZeroInput,
)
from .orders import factorize, is_prime


def power(mul, one, a, e: int):
    """a^e by left-to-right square and multiply with the product mul.

    bit_length(e) - 1 squarings and popcount(e) - 1 products with a; one is
    returned for e = 0 and never multiplied. Every pow in the package runs
    this loop, so the sequence of products (and each counter's tally) is the
    same wherever a power is taken.
    """
    if e < 0:
        raise BadInput("exponent must be nonnegative")
    if e == 0:
        return one
    out = a
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
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


class ResidueRing:
    """Z/order, order a power of the prime p, with int representatives in [0, order).

    The coefficient-ring methods of PrimeField (order p) and padic.PadicContext (order p^K);
    inv takes units only, the elements p does not divide."""

    __slots__ = ()

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def neg(self, a):
        return -a % self.order

    def mul(self, a, b):
        return a * b % self.order

    def inv(self, a):
        if a % self.p == 0:
            raise NonUnit(f"{a} is divisible by {self.p}")
        return pow(a, -1, self.order)

    def is_zero(self, a):
        return a == 0


class PrimeField(ResidueRing):
    """F_p with canonical int representatives in [0, p); counter is the tower's cost model."""

    __slots__ = ("p", "counter", "dtype", "reduce_map")
    span = 1
    slots = np.zeros(1, dtype=np.intp)

    def __init__(self, p: int):
        if not is_prime(p):
            raise BadInput(f"{p} is not prime")
        self.p = p
        self.counter = MulCounter()
        self.dtype = np.int64 if p < 1 << 16 else object
        self.reduce_map = np.ones((1, 1), dtype=self.dtype)

    order = property(lambda self: self.p)
    char = property(lambda self: self.p)
    degree_over_prime = property(lambda self: 1)
    prime = property(lambda self: self)

    def from_int(self, n: int):
        return n % self.p

    def element(self, row):
        return row[0]

    def pow(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def rand(self, rng):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtensionField:
    """base[Z]/(modulus) for monic irreducible modulus over base, on flat coordinates.

    Only monic and degree >= 1 are checked: proving the modulus irreducible is the caller's job.
    Coordinate k*D_base + i goes to Kronecker slot k*base.span + base.slots[i] (span and slots),
    and reduce_map is the R that takes slots back to coordinates."""

    __slots__ = ("base", "modulus", "degree", "degree_over_prime", "prime", "dtype", "span", "slots", "reduce_map")

    def __init__(self, base, modulus):
        modulus = list(modulus)
        if len(modulus) < 2:
            raise DegreeTooSmall("modulus must have degree >= 1")
        if modulus[-1] != base.one():
            raise BadInput("modulus must be monic")
        e = len(modulus) - 1
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = e
        self.degree_over_prime = base.degree_over_prime * e
        self.prime = base.prime
        self.dtype = base.dtype
        self.span = base.span * (2 * e - 1)
        self.slots = (np.arange(e)[:, None] * base.span + base.slots).ravel()
        self.reduce_map = _reduce_map(base, packed(base, modulus))

    order = property(lambda self: self.base.order**self.degree)
    char = property(lambda self: self.prime.p)

    def zero(self):
        return (0,) * self.degree_over_prime

    def one(self):
        return self.embed(self.base.one())

    def embed(self, c):
        """Base element as a constant of this field."""
        return tuple(packed(self.base, [c])[0].tolist()) + (0,) * (self.degree_over_prime - self.base.degree_over_prime)

    def from_int(self, n: int):
        return self.embed(self.base.from_int(n))

    def element(self, row):
        return tuple(row)

    def gen(self):
        """Image of the adjoined variable Z."""
        if self.degree == 1:
            return self.embed(self.base.neg(self.modulus[0]))
        at = self.base.degree_over_prime
        return tuple(int(i == at) for i in range(self.degree_over_prime))

    def add(self, a, b):
        p = self.char
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.char
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.char
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        return self.element(ff_poly_mul(self, packed(self, [a]), packed(self, [b]))[0].tolist())

    def pow(self, a, e: int):
        out = power(lambda u, v: ff_poly_mul(self, u, v), packed(self, [self.one()]), packed(self, [a]), e)
        return self.element(out[0].tolist())

    def inv(self, a):
        if self.is_zero(a):
            raise NonUnit("zero has no inverse")
        return self.pow(a, self.order - 2)

    def is_zero(self, a):
        return not any(a)

    def rand(self, rng):
        p = self.char
        return tuple(rng.randrange(p) for _ in range(self.degree_over_prime))

    def __repr__(self):
        return f"ExtensionField(deg {self.degree} over {self.base!r})"


def _reduce_map(base, g):
    """R of base[Z]/g: row k*base.span + u holds the coordinates of Z^k times row u of base's R."""
    e, db, ub = len(g) - 1, base.degree_over_prime, base.span
    z = np.zeros((2 * e - 1, e, db), dtype=base.dtype)  # z[k] = Z^k mod g, a polynomial over base
    z[np.arange(e), np.arange(e), 0] = 1
    for k in range(e, 2 * e - 1):
        z[k, 1:] = z[k - 1, :-1]
        z[k] = (z[k] - ff_poly_mul(base, z[k - 1, -1:], g[:-1])) % base.char
    # one product gives every z[k, t] times every row u of base's R, at row (k*e + t)*ub + u
    spread = np.zeros((len(z) * e * ub, db), dtype=base.dtype)
    spread[::ub] = z.reshape(-1, db)
    prod = ff_poly_mul(base, spread, base.reduce_map)[: len(spread)]
    return prod.reshape(2 * e - 1, e, ub, db).transpose(0, 2, 1, 3).reshape(-1, e * db)


# ---------------------------------------------------------------------------
# polynomials over a coefficient ring, as lists


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


def poly_from_ints(F, ints):
    return [F.from_int(n) for n in ints]


# ---------------------------------------------------------------------------
# packed polynomials over a field


def packed(F, poly):
    """(n, D) canonical coordinate array of a list of F elements."""
    return np.array(poly, dtype=F.dtype).reshape(len(poly), F.degree_over_prime) % F.char


def unpacked(F, a):
    """List of F elements of a packed polynomial."""
    return [F.element(row) for row in a.tolist()]


def ff_trim(a):
    """a without its zero top rows."""
    n = len(a)
    while n and not a[n - 1].any():
        n -= 1
    return a[:n]


def ff_poly_sub(F, a, b, shift: int = 0):
    """a - X^shift * b, trimmed."""
    out = np.zeros((max(len(a), len(b) + shift), F.degree_over_prime), dtype=np.result_type(a, b))
    out[: len(a)] += a
    out[shift : shift + len(b)] -= b
    return ff_trim(out % F.char)


_UINT = {k: np.dtype(f"<u{k}") for k in (1, 2, 4, 8)}


def _kronecker(F, a, width: int) -> int:
    """a on byte slots of the given width: a[n, i] fills slot n*F.span + F.slots[i]."""
    if a.dtype == object:
        buf = np.zeros((len(a), F.span), dtype=object)
        buf[:, F.slots] = a
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in buf.flat), "little")
    native = 1 << (width - 1).bit_length()  # the narrowest numpy uint that holds a slot: 1, 2, 4 or 8 bytes
    buf = np.zeros((len(a), F.span), dtype=_UINT[native])
    buf[:, F.slots] = a
    if native > width:
        buf = buf.view(np.uint8).reshape(-1, native)[:, :width]
    return int.from_bytes(buf.tobytes(), "little")


def _slots(product: int, shape, width: int, dtype):
    """The byte slots of product, of the given width, as a dtype array of the given shape."""
    raw = product.to_bytes(shape[0] * shape[1] * width, "little")
    if dtype == object:
        return np.array([int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)],
                        dtype=object).reshape(shape)
    native = 1 << (width - 1).bit_length()
    if native == width:
        return np.frombuffer(raw, dtype=_UINT[width]).reshape(shape).astype(dtype)
    buf = np.zeros((len(raw) // width, native), dtype=np.uint8)  # high bytes zero
    buf[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
    return buf.view(_UINT[native]).reshape(shape).astype(dtype)


def ff_poly_mul(F, a, b):
    """Product of canonical packed polynomials over F, all n1 + n2 - 1 rows.

    One Python-int product of the Kronecker images, then F's R on each row's slots.
    """
    n1, n2, D = len(a), len(b), F.degree_over_prime
    dtype = np.result_type(a, b)
    if not n1 or not n2:
        return np.zeros((0, D), dtype=dtype)
    p, span = F.char, F.span
    F.prime.counter.add(n1 * n2 * (2 * D * D - D))
    bound = min(n1, n2) * D * (p - 1) ** 2  # the largest value one product slot can hold
    if dtype != object and bound >> 63:
        raise OutOfRange(f"Kronecker slots of {bound} overflow int64")
    width = -(-bound.bit_length() // 8)
    slots = _slots(_kronecker(F, a, width) * _kronecker(F, b, width), (n1 + n2 - 1, span), width, dtype)
    if bound * span * (p - 1) >> 63:  # the R contraction of unreduced slots could pass int64: reduce them first
        if dtype != object and span * (p - 1) ** 2 >> 63:
            raise OutOfRange(f"R contraction over {span} slots overflows int64 mod {p}")
        slots %= p
    return slots @ F.reduce_map % p


def _reversed_inverse(F, f, k: int):
    """The first k coefficients of 1 / rev(f), by Newton iteration; f must be monic."""
    if not len(f) or f[-1, 0] != 1 or f[-1, 1:].any():
        raise BadInput("divisor must be monic")
    rev, inv, prec = f[::-1], f[-1:].copy(), 1
    while prec < k:
        prec = min(2 * prec, k)
        err = ff_poly_mul(F, rev[:prec], inv)[:prec]  # 1 + O(X^(old prec))
        err[0, 0] = (err[0, 0] - 1) % F.char
        step = ff_poly_mul(F, inv, err)[:prec]  # all prec rows: len(inv) + len(err) - 1 >= prec
        step[: len(inv)] -= inv
        inv = -step % F.char
    return inv


def ff_poly_divmod(F, a, f, inv=None):
    """(q, r) with a = q*f + r and deg r < deg f, for a trimmed a and a monic f; inv, when
    given, is _reversed_inverse(F, f, k) for some k >= len(a) - deg f."""
    m = len(f) - 1
    k = len(a) - m
    if k <= 0:
        return a[:0], a
    if inv is None:
        inv = _reversed_inverse(F, f, k)
    q = ff_poly_mul(F, a[::-1][:k], inv[:k])[:k][::-1]
    return q, ff_poly_sub(F, a[:m], ff_poly_mul(F, q[:m], f[:m])[:m])


def ff_poly_monic(F, a):
    """a scaled to leading coefficient 1; a must be trimmed and nonzero."""
    if len(a) == 1:
        return packed(F, [F.one()])
    return ff_poly_mul(F, a, packed(F, [F.inv(F.element(a[-1].tolist()))]))


def ff_poly_gcd(F, a, b):
    """Monic gcd by Euclid on pseudo-remainders; gcd(0, 0) is an error."""
    a, b = ff_trim(a), ff_trim(b)
    if not len(a) and not len(b):
        raise ZeroInput("gcd of two zero polynomials")
    while len(b):
        lead = b[-1:]
        while len(a) >= len(b):  # lc(b)*a - lc(a)*X^k*b cancels the top of a
            top = ff_poly_mul(F, a[-1:], b[:-1])
            a = ff_poly_sub(F, ff_poly_mul(F, lead, a[:-1]), top, len(a) - len(b))
        a, b = b, a
    return ff_poly_monic(F, a)


def ff_poly_modpow(F, g, e: int, f, inv=None):
    """g^e mod f by square and multiply, for a monic f; inv, when given, is _reversed_inverse(F, f, len(f) - 2)."""
    if len(f) < 2:
        raise DegreeTooSmall("modulus must have degree >= 1")
    if inv is None:
        inv = _reversed_inverse(F, f, len(f) - 2)  # enough for any product of two remainders
    return power(lambda u, v: ff_poly_divmod(F, ff_poly_mul(F, u, v), f, inv)[1],
                 packed(F, [F.one()]), ff_poly_divmod(F, ff_trim(g), f)[1], e)


def is_irreducible(F, modulus) -> bool:
    """Rabin's test for a monic polynomial over F.

    Requires Y^(q^d) = Y mod f, and gcd(Y^(q^(d/ell)) - Y, f) = 1 for every
    prime ell dividing d; in particular the Frobenius orbit of Y has full
    length d.
    """
    f = ff_trim(packed(F, modulus))
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.order
    proper = {d // ell for ell, _ in factorize(d)}
    y = packed(F, [F.zero(), F.one()])
    frob = y
    inv = _reversed_inverse(F, f, d - 1)  # one division by f for all d powers
    for j in range(1, d + 1):
        frob = ff_poly_modpow(F, frob, q, f, inv)
        if j in proper:
            diff = ff_poly_sub(F, frob, y)
            if not len(diff) or len(ff_poly_gcd(F, diff, f)) > 1:
                return False
    return not len(ff_poly_sub(F, frob, y))


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
    poly = packed(field, [field.one()])
    for c in frobenius_orbit(field, beta):
        poly = ff_poly_mul(field, poly, packed(field, [field.neg(c), field.one()]))
    if poly[:, 1:].any():
        raise OrbitNotClosed("coefficient is not a prime-field constant")
    return tuple(poly[:, 0].tolist())


def ff_random_monic(field, deg_bound: int, rng):
    """Uniform monic packed polynomial of degree in [1, deg_bound).

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
    return packed(field, [field.rand(rng) for _ in range(k)] + [field.one()])
