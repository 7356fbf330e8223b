"""Truncated p-adic arithmetic: Z/p^K and its unramified extensions.

A context fixes the prime p >= 3 and the digit count K, so base elements are
plain ints kept canonical in [0, p^K). The context is an ffield.ResidueRing of
order p^K, the one residue arithmetic it shares with PrimeField, so ffield's
poly_* functions work over Z/p^K unchanged; inv takes units only.
RingExtension is (Z/p^K)[X]/(F) for a monic F whose reduction mod p is
irreducible; its elements carry coefficient tuples of length deg F,
constant first.

Every ring multiplication adds the schoolbook cost d^2 + d*(d-1) to the
extension's counter, however it is computed. The count deliberately depends
only on the degree, not on the operand values, so instrumented totals are
reproducible.
"""

from __future__ import annotations

import operator

from .errors import (
    BadInput,
    DegreeTooSmall,
    EvenPrime,
    OutOfRange,
    ParentMismatch,
)
from .ffield import MulCounter, PrimeField, ResidueRing, is_irreducible, power
from .kernels import MODULUS_BITS, precision_fits
from .orders import is_prime

# ring_mul forms its product as one Python-int Kronecker product (see RingExtension._kronecker_table) from degree
# KRONECKER_DEGREE on, for moduli of at most KRONECKER_BITS bits, where it beats the interpreted schoolbook (min of 7
# on one core: 217 -> 47 us a product at d = 30 mod 3^32, but 3.5 -> 4.8 us at d = 2 mod 7^16, and 176 -> 197 us at
# d = 8 mod 3^512, whose table products, twice as wide as the schoolbook's, cost more than the interpreter work saved).
KRONECKER_DEGREE = 8
KRONECKER_BITS = 256


class PadicContext(ResidueRing):
    """The base ring Z/p^K: a ResidueRing of order p^K, so also a coefficient ring for ffield's poly_* functions."""

    __slots__ = ("p", "K", "pK")

    def __init__(self, p: int, K: int):
        if not is_prime(p):
            raise BadInput(f"{p} is not prime")
        if p == 2:
            raise EvenPrime("p must be odd")
        if K < 1:
            raise BadInput("precision K must be >= 1")
        check_precision(p, K)
        self.p = p
        self.K = K
        self.pK = p**K

    order = property(lambda self: self.pK)

    def same(self, other: "PadicContext") -> bool:
        return self.p == other.p and self.K == other.K

    def __repr__(self):
        return f"PadicContext(p={self.p}, K={self.K})"


def check_precision(p: int, K: int):
    """Refuse, before computing it, a p^K wider than kernels.MODULUS_BITS, past which no exact product runs."""
    if not precision_fits(p, K):
        raise OutOfRange(f"{p}^{K} is wider than the {MODULUS_BITS} bits of any exact product")


class RingExtension:
    """(Z/p^K)[X]/(F) with F monic and irreducible mod p."""

    __slots__ = ("ctx", "modulus", "degree", "counter", "_kronecker")

    def __init__(self, ctx: PadicContext, modulus, check: bool = True):
        modulus = [c % ctx.pK for c in modulus]
        if len(modulus) < 2:
            raise DegreeTooSmall("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise BadInput("modulus must be monic")
        self.ctx = ctx
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.counter = MulCounter()
        self._kronecker = None
        if check and not is_irreducible(PrimeField(ctx.p), [c % ctx.p for c in modulus]):
            raise BadInput("modulus is not irreducible mod p")

    def same(self, other: "RingExtension") -> bool:
        return self.ctx.same(other.ctx) and self.modulus == other.modulus

    def element(self, coeffs) -> "RingElement":
        pK = self.ctx.pK
        cs = [c % pK for c in coeffs]
        if len(cs) > self.degree:
            raise BadInput("too many coefficients")
        cs += [0] * (self.degree - len(cs))
        return RingElement(self, tuple(cs))

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.degree)

    def one(self) -> "RingElement":
        return self.element([1])

    def from_int(self, n: int) -> "RingElement":
        return self.element([n])

    def gen(self) -> "RingElement":
        """Image of X."""
        if self.degree == 1:
            return self.element([-self.modulus[0]])
        return self.element([0, 1])

    def truncate(self, K: int) -> "RingExtension":
        """The same presentation at a lower precision."""
        if K > self.ctx.K:
            raise BadInput("can only truncate to lower precision")
        out = RingExtension(PadicContext(self.ctx.p, K), self.modulus, check=False)
        return out

    def _kronecker_table(self):
        """(width, rows) for ring_mul's Kronecker form, built on first use.

        Coefficients go on byte slots of the width, wide enough for (2d - 1)(p^K - 1)^2; rows[k] is
        X^(d+k) mod F on those slots, k < d - 1.
        """
        if self._kronecker is None:
            d, m, F = self.degree, self.ctx.pK, self.modulus
            width = -(-((2 * d - 1) * (m - 1) ** 2).bit_length() // 8)
            row, rows = [-c % m for c in F[:-1]], []  # X^d mod F
            for _ in range(d - 1):
                rows.append(_pack(row, width))
                top = row[-1]
                row = [-top * F[0] % m] + [(row[j - 1] - top * F[j]) % m for j in range(1, d)]
            self._kronecker = width, rows
        return self._kronecker

    def mul_cost(self) -> int:
        d = self.degree
        return d * d + d * (d - 1)

    def __repr__(self):
        return f"RingExtension(p={self.ctx.p}, K={self.ctx.K}, deg={self.degree})"


class RingElement:
    """Element of a RingExtension, canonical coefficients, constant first."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: RingExtension, coeffs: tuple):
        self.parent = parent
        self.coeffs = coeffs

    def _join(self, other) -> "RingElement":
        if isinstance(other, int):
            return self.parent.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.parent is not self.parent and not self.parent.same(other.parent):
            raise ParentMismatch("elements live in different rings")
        return other

    def __add__(self, other):
        other = self._join(other)
        if other is NotImplemented:
            return other
        pK = self.parent.ctx.pK
        return RingElement(self.parent, tuple((x + y) % pK for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._join(other)
        if other is NotImplemented:
            return other
        pK = self.parent.ctx.pK
        return RingElement(self.parent, tuple((x - y) % pK for x, y in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        pK = self.parent.ctx.pK
        return RingElement(self.parent, tuple(-x % pK for x in self.coeffs))

    def __mul__(self, other):
        other = self._join(other)
        if other is NotImplemented:
            return other
        return ring_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return ring_pow(self, e)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.parent.same(other.parent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.parent.ctx.p, self.parent.ctx.K, self.parent.modulus, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self):
        A = self.parent
        body = poly_text(self.coeffs, monic_top=False)
        mod = poly_text(A.modulus[:-1], monic_top=True, top_degree=A.degree)
        return f"{body} (mod {A.ctx.p}^{A.ctx.K}, {mod})"

    def __repr__(self):
        return f"RingElement({list(self.coeffs)})"


def poly_text(coeffs, monic_top: bool, top_degree: int | None = None) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*X")
        else:
            terms.append(f"{c}*X^{i}")
    if monic_top:
        terms.append("X" if top_degree == 1 else f"X^{top_degree}")
    return " + ".join(terms)


def _pack(coeffs, width: int) -> int:
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def _kronecker_mul(A: RingExtension, x, y) -> RingElement:
    """x*y in A by one Python-int product: the 2d - 1 slots each hold < d (p^K - 1)^2, and the top d - 1 go back,
    reduced, as multiples of X^(d+k) mod F, which add < (d - 1)(p^K - 1)^2 to each of the low d."""
    d, pK = A.degree, A.ctx.pK
    width, rows = A._kronecker_table()
    bits = 8 * width
    mask, size = (1 << bits) - 1, d * bits
    prod = _pack(x, width) * _pack(y, width)
    high = [(prod >> i & mask) % pK for i in range(size, size + size - bits, bits)]
    low = (prod & (1 << size) - 1) + sum(map(operator.mul, high, rows))
    return RingElement(A, tuple([(low >> i & mask) % pK for i in range(0, size, bits)]))


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product mod (F, p^K): one Kronecker product reduced by the ring's _kronecker_table from KRONECKER_DEGREE
    on and up to KRONECKER_BITS, else schoolbook then synthetic reduction by the monic modulus.

    The counter charge is the full d^2 + d*(d-1) regardless of sparsity or form, so
    instrumented totals depend only on the degree and the call pattern.
    """
    A = a.parent
    d = A.degree
    A.counter.add(d * d + d * (d - 1))
    if d >= KRONECKER_DEGREE and A.ctx.pK.bit_length() <= KRONECKER_BITS:
        return _kronecker_mul(A, a.coeffs, b.coeffs)
    pK = A.ctx.pK
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    F = A.modulus
    for i in range(2 * d - 2, d - 1, -1):
        c = prod[i] % pK
        if c == 0:
            continue
        for j in range(d):
            if F[j]:
                prod[i - d + j] -= c * F[j]
    return RingElement(A, tuple(c % pK for c in prod[:d]))


def ring_pow(a: RingElement, e: int) -> RingElement:
    return power(ring_mul, a.parent.one(), a, e)


def scalar_mul(c: int, a: RingElement) -> RingElement:
    """Multiply by a base-ring constant; costs d base multiplications."""
    A = a.parent
    A.counter.add(A.degree)
    pK = A.ctx.pK
    c %= pK
    return RingElement(A, tuple(c * x % pK for x in a.coeffs))

