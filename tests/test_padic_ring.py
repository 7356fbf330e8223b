import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfft.errors import BadInput, EvenPrime, NonUnit, ParentMismatch
from padicfft.ffield import PrimeField, ResidueRing, poly_divmod, poly_mul, poly_sub, poly_trim
from padicfft.padic import (
    PadicContext,
    RingExtension,
    ring_mul,
    ring_pow,
    scalar_mul,
)

CTX81 = PadicContext(3, 4)
CTX361 = PadicContext(19, 2)
A81 = RingExtension(CTX81, [1, 0, 1])  # (Z/81)[X]/(X^2+1)
A361 = RingExtension(CTX361, [1, 5, 1])  # (Z/361)[X]/(X^2+5X+1)


def test_context_validation():
    with pytest.raises(EvenPrime):
        PadicContext(2, 4)
    with pytest.raises(BadInput):
        PadicContext(9, 4)
    with pytest.raises(BadInput):
        PadicContext(3, 0)
    assert CTX81.pK == 81 and CTX361.pK == 361


def test_residue_inverse_examples():
    # frozen from the extended-Euclid oracle below
    assert CTX81.inv(2) == 41
    assert CTX361.inv(5) == 289
    assert pow(2, -1, 81) == 41
    assert pow(5, -1, 361) == 289
    with pytest.raises(NonUnit):
        CTX81.inv(6)
    with pytest.raises(NonUnit):
        CTX81.inv(0)


def test_residue_inverse_matches_euclid_oracle():
    for p, K in [(3, 1), (3, 4), (3, 32), (19, 2), (19, 11), (5, 22)]:
        ctx = PadicContext(p, K)
        rng = random.Random(p * 1000 + K)
        for _ in range(50):
            u = rng.randrange(1, ctx.pK)
            if u % p == 0:
                continue
            assert ctx.inv(u) == pow(u, -1, ctx.pK)


def test_context_is_a_coefficient_ring():
    # (X + 80)(X + 1) = X^2 - 1 and (X^2 - 1) mod (X - 1) = 0 over Z/81
    assert poly_mul(CTX81, [80, 1], [1, 1]) == [80, 0, 1]
    assert poly_divmod(CTX81, [80, 0, 1], [80, 1]) == ([1, 1], [])
    assert poly_sub(CTX81, [1, 2], [1, 2]) == []
    assert CTX81.inv(2) == 41 and CTX81.neg(1) == 80 and CTX81.is_zero(CTX81.zero())
    with pytest.raises(NonUnit):
        poly_divmod(CTX81, [1, 1], [0, 3])


def _int_divmod(num, den):
    """Quotient and remainder over Z of num by the monic den."""
    num, q = list(num), [0] * max(0, len(num) - len(den) + 1)
    for i in reversed(range(len(q))):
        q[i] = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= q[i] * c
    return q, num[: len(den) - 1]


def _results(ring, a, b, den, u):
    """poly_mul, poly_divmod by the monic den, and inv of u and of p*u over ring (NonUnit where it raises)."""
    a, b, den = ([c % ring.order for c in x] for x in (a, b, den))
    out = [poly_mul(ring, poly_trim(ring, a), poly_trim(ring, b)), poly_divmod(ring, poly_trim(ring, a), den)]
    for x in (u % ring.order, ring.p * u % ring.order):
        try:
            out.append(ring.inv(x))
        except NonUnit:
            out.append(NonUnit)
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7, 19]), st.integers(1, 4), st.data())
def test_prime_field_and_context_share_one_residue_ring(p, k, data):
    # the list polynomials and inv over F_p and Z/p^k run on one ResidueRing: both match integer arithmetic mod
    # the ring's order, and PrimeField(p) agrees with PadicContext(p, 1) on every result
    coeffs = st.lists(st.integers(0, p**k - 1), max_size=6)
    a, b, low = data.draw(coeffs), data.draw(coeffs), data.draw(st.lists(st.integers(0, p**k - 1), max_size=3))
    den, u = low + [1], data.draw(st.integers(0, p**k - 1))
    for ring in (PadicContext(p, k), PrimeField(p)):
        assert isinstance(ring, ResidueRing)
        m = ring.order
        mul, (quo, rem), inv_u, inv_pu = _results(ring, a, b, den, u)
        product = [0] * max(0, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                product[i + j] += x * y
        assert mul == poly_trim(ring, [c % m for c in product])
        assert (quo, rem) == tuple(poly_trim(ring, [c % m for c in x]) for x in _int_divmod(a, den))
        if u % p:
            assert inv_u * u % m == 1
        else:
            assert inv_u is NonUnit
        assert inv_pu is NonUnit
    assert _results(PrimeField(p), a, b, den, u) == _results(PadicContext(p, 1), a, b, den, u)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(7, 16), (3, 32), (7, 32), (3, 512)]), st.integers(1, 30), st.data())
def test_ring_mul_matches_schoolbook(pk, d, data):
    # moduli below 2^51 (7^16, 3^32), past 2^64 (7^32) and past KRONECKER_BITS (3^512); degrees on both sides of
    # KRONECKER_DEGREE, where ring_mul changes form; each product charged d^2 + d(d - 1) whatever its form
    p, K = pk
    m = p**K
    coeff = st.sampled_from([0, m - 1]) | st.integers(0, m - 1)
    modulus, a, b = (data.draw(st.lists(coeff, min_size=d, max_size=d)) for _ in range(3))
    A = RingExtension(PadicContext(p, K), modulus + [1], check=False)
    for x, y in ((a, b), ([m - 1] * d, [m - 1] * d)):  # the drawn pair, then the largest slots
        product = [0] * (2 * d - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                product[i + j] += u * v
        A.counter.reset()
        got = ring_mul(A.element(x), A.element(y))
        assert got.coeffs == tuple(c % m for c in _int_divmod(product, modulus + [1])[1])
        assert A.counter.count == d * d + d * (d - 1)


def test_ring_mul_examples():
    x = A81.gen()
    assert (x * x).coeffs == (80, 0)
    y = A361.gen()
    assert (y * y).coeffs == (360, 356)
    assert (y**2).coeffs == (360, 356)


def test_ring_modulus_validation():
    with pytest.raises(BadInput):
        RingExtension(PadicContext(5, 3), [1, 0, 1])  # X^2+1 splits mod 5
    with pytest.raises(BadInput):
        RingExtension(CTX81, [1, 0, 2])
    ring = RingExtension(CTX81, [1 + 81, 0, 1])  # coefficients canonicalized
    assert ring.modulus == (1, 0, 1)


def test_pow_additivity():
    rng = random.Random(5)
    for _ in range(10):
        a = A361.element([rng.randrange(361), rng.randrange(361)])
        for i in range(4):
            for j in range(4):
                assert ring_mul(ring_pow(a, i), ring_pow(a, j)) == ring_pow(a, i + j)
    with pytest.raises(BadInput):
        ring_pow(A361.gen(), -1)
    with pytest.raises(BadInput):
        A361.gen() ** -2


@settings(max_examples=60)
@given(
    st.tuples(st.integers(0, 360), st.integers(0, 360)),
    st.tuples(st.integers(0, 360), st.integers(0, 360)),
    st.tuples(st.integers(0, 360), st.integers(0, 360)),
)
def test_ring_axioms(ca, cb, cc):
    a, b, c = A361.element(ca), A361.element(cb), A361.element(cc)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a * A361.one() == a
    assert (a - a).is_zero()


def test_parent_mismatch():
    other = RingExtension(PadicContext(3, 2), [1, 0, 1])
    with pytest.raises(ParentMismatch):
        A81.gen() * other.gen()
    with pytest.raises(ParentMismatch):
        A81.gen() + other.one()


def test_int_coercion_and_scalar_mul():
    x = A361.gen()
    assert (x + 1) - 1 == x
    assert 2 * x == x + x
    assert scalar_mul(3, x) == x + x + x


def test_counter_is_deterministic_and_structural():
    A = RingExtension(PadicContext(3, 8), [1, 0, 1])
    d = A.degree
    a, b = A.gen(), A.one()
    A.counter.reset()
    ring_mul(a, b)
    assert A.counter.count == d * d + d * (d - 1) == A.mul_cost()
    A.counter.reset()
    ring_mul(A.zero(), A.zero())  # sparsity must not change the charge
    assert A.counter.count == A.mul_cost()
    A.counter.reset()
    for _ in range(7):
        ring_mul(a, a)
    first = A.counter.count
    A.counter.reset()
    for _ in range(7):
        ring_mul(a, a)
    assert A.counter.count == first


def test_truncate():
    low = A361.truncate(1)
    assert low.ctx.pK == 19
    assert low.modulus == (1, 5, 1)
    y = A361.gen()
    assert tuple(c % 19 for c in (y * y).coeffs) == (360 % 19, 356 % 19)
    with pytest.raises(BadInput):
        A361.truncate(3)


def test_rendering():
    y = A361.gen()
    assert str(y * y) == "360 + 356*X (mod 19^2, 1 + 5*X + X^2)"
    lin = RingExtension(PadicContext(3, 2), [8, 1])
    assert str(lin.gen()) == "1 (mod 3^2, 8 + X)"
