"""Differential tests of the packed field kernels against the list polynomials.

The reference multiplies field elements the way the nested tuples did before
the packed form: a schoolbook product over the base field and synthetic
division by the modulus, recursively down to F_p. The list functions
poly_mul and poly_divmod then run on top of it, so no packed code is on the
reference side.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfft.errors import OutOfRange
from padicfft.ffield import (
    ExtensionField,
    PrimeField,
    ff_poly_divmod,
    ff_poly_gcd,
    ff_poly_modpow,
    ff_poly_mul,
    ff_trim,
    packed,
    poly_divmod,
    poly_mul,
    poly_scale,
    unpacked,
)
from padicfft.tower import cz_split

F3 = PrimeField(3)
F3_10 = ExtensionField(F3, [2, 1, 1, 2, 2, 0, 0, 1, 0, 0, 1])  # flat, from the s=88 tower
F9 = ExtensionField(F3, [2, 1, 1])  # the s=12584 tower's F_9
F9_5 = ExtensionField(F9, cz_split(F9, [F9.one()] * 11, 5, random.Random(1)))  # nested, D=10
M61 = 2**61 - 1  # coordinates beyond int64: object arrays
F61_2 = ExtensionField(PrimeField(M61), [1, 0, 1])  # p = 3 mod 4, so -1 is not a square
# prime fields run the lift's irreducibility test (F_3) and put slots of 1 to 5 bytes through ff_poly_mul: one slot
# holds up to min(n1, n2) D (p-1)^2, so 1 byte at p = 3, 2 and 3 at p = 251, 4 and 5 at p = 65521
FIELDS = [F3, PrimeField(251), PrimeField(65521), F3_10, F9_5, F61_2]
IDS = ["F3", "F251", "F65521", "F3^10", "F9[Z]/5", "F(2^61-1)^2"]


def ref_mul(F, a, b):
    if isinstance(F, PrimeField):
        return a * b % F.p
    B, e, db = F.base, F.degree, F.base.degree_over_prime
    xs = [B.element(list(a[k * db : (k + 1) * db])) for k in range(e)]
    ys = [B.element(list(b[k * db : (k + 1) * db])) for k in range(e)]
    prod = [B.zero()] * (2 * e - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            prod[i + j] = B.add(prod[i + j], ref_mul(B, x, y))
    for i in range(2 * e - 2, e - 1, -1):
        for j in range(e):
            prod[i - e + j] = B.sub(prod[i - e + j], ref_mul(B, prod[i], F.modulus[j]))
    return tuple(packed(B, prod[:e]).ravel().tolist())


class Reference:
    """F's coefficient-ring protocol with ref_mul as the product."""

    def __init__(self, F):
        self.F = F
        for name in ("zero", "one", "add", "sub", "neg", "is_zero"):
            setattr(self, name, getattr(F, name))

    def mul(self, a, b):
        return ref_mul(self.F, a, b)

    def pow(self, a, e):
        out = self.one()
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inv(self, a):
        return self.pow(a, self.F.order - 2)


def elements(F):
    p = F.char
    coord = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    return st.tuples(*[coord] * F.degree_over_prime).map(F.element)


def polys(F, min_size=0, max_size=6):
    """Lists of elements with no zero top, so the zero and constant polynomials come up often."""
    return st.lists(elements(F), min_size=min_size, max_size=max_size).map(
        lambda cs: unpacked(F, ff_trim(packed(F, cs))))


def monics(F, max_degree=4):
    return st.lists(elements(F), min_size=1, max_size=max_degree).map(lambda cs: cs + [F.one()])


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_element_product_matches_reference(F, data):
    a, b = data.draw(elements(F)), data.draw(elements(F))
    assert F.mul(a, b) == ref_mul(F, a, b)


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_matches_list_product(F, data):
    a, b = data.draw(polys(F)), data.draw(polys(F, max_size=3))
    got = ff_trim(ff_poly_mul(F, packed(F, a), packed(F, b)))
    assert unpacked(F, got) == poly_mul(Reference(F), a, b)


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_divmod_matches_list_divmod(F, data):
    a, f = data.draw(polys(F, max_size=9)), data.draw(monics(F))
    q, r = ff_poly_divmod(F, packed(F, a), packed(F, f))
    assert (unpacked(F, q), unpacked(F, r)) == poly_divmod(Reference(F), a, f)


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_gcd_matches_euclid(F, data):
    a, b = data.draw(polys(F)), data.draw(polys(F))
    common = data.draw(monics(F, max_degree=2))
    ref = Reference(F)
    a, b = poly_mul(ref, a, common), poly_mul(ref, b, common)  # a nontrivial gcd most of the time
    if not a and not b:
        return
    want_a, want_b = a, b
    while want_b:
        want_a, want_b = want_b, poly_divmod(ref, want_a, want_b)[1]
    want = poly_scale(ref, ref.inv(want_a[-1]), want_a)
    assert unpacked(F, ff_poly_gcd(F, packed(F, a), packed(F, b))) == want


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_modpow_matches_repeated_products(F, data):
    g, f = data.draw(polys(F)), data.draw(monics(F))
    e = data.draw(st.integers(0, 24))
    ref = Reference(F)
    want = [F.one()]
    for _ in range(e):
        want = poly_divmod(ref, poly_mul(ref, want, g), f)[1]
    got = ff_poly_modpow(F, packed(F, g), e, packed(F, f))
    assert unpacked(F, ff_trim(got)) == want


def test_int64_bounds_raise_out_of_range():
    # p = 2^31 - 1: one product slot holds up to min(n1, n2)*D*(p-1)^2, and 2*(p-1)^2 < 2^63 <= 3*(p-1)^2
    m31 = 2**31 - 1
    F = PrimeField(m31)
    two = np.full((2, 1), m31 - 1, dtype=np.int64)
    assert ff_poly_mul(F, two, two).tolist() == [[1], [2], [1]]  # (p-1)^2 (1 + X)^2
    three = np.full((3, 1), m31 - 1, dtype=np.int64)
    with pytest.raises(OutOfRange, match="Kronecker"):
        ff_poly_mul(F, three, three)
    # over F_(p^2) one slot still holds at most 2*(p-1)^2, but the R contraction sums U*(p-1)^2 = 3*(p-1)^2
    F2 = ExtensionField(F, [1, 0, 1])
    y = np.array([[m31 - 1, m31 - 2]], dtype=np.int64)  # -1 - 2i
    with pytest.raises(OutOfRange, match="R contraction"):
        ff_poly_mul(F2, y, y)
    # object arrays, which fields over p >= 2^16 make, have no bound
    assert F2.dtype is object and ff_poly_mul(F2, y.astype(object), y.astype(object)).tolist() == [[m31 - 3, 4]]
