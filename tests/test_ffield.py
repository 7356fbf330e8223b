import random

import pytest

from padicfft.errors import BadInput, DegreeTooSmall, NonUnit, ZeroInput
from padicfft.ffield import (
    ExtensionField,
    PrimeField,
    ff_poly_gcd,
    ff_poly_modpow,
    ff_random_monic,
    frobenius_orbit,
    is_irreducible,
    minimal_poly_from_orbit,
    packed,
    poly_divmod,
    poly_from_ints,
    poly_mul,
    poly_sub,
    poly_trim,
    power,
    unpacked,
)

PHI5 = [1, 1, 1, 1, 1]


def test_prime_field_basics():
    F = PrimeField(19)
    assert F.add(15, 7) == 3
    assert F.mul(5, 4) == 1
    assert F.inv(5) == 4
    assert F.pow(2, -1) == 10
    with pytest.raises(NonUnit):
        F.inv(0)
    with pytest.raises(BadInput):
        PrimeField(4)


def test_extension_field_f9():
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, [1, 0, 1])  # F_3[i], i^2 = -1
    i = F9.gen()
    assert F9.mul(i, i) == F9.from_int(-1)
    one_plus_i = F9.add(F9.one(), i)
    assert F9.mul(one_plus_i, one_plus_i) == F9.mul(F9.from_int(2), i)
    # every nonzero element inverts
    for a in range(3):
        for b in range(3):
            x = (a, b)
            if x == (0, 0):
                continue
            assert F9.mul(x, F9.inv(x)) == F9.one()
    assert F9.order == 9 and F9.char == 3 and F9.degree_over_prime == 2
    with pytest.raises(NonUnit):
        F9.inv(F9.zero())


def test_extension_field_rejects_reducible_modulus():
    # ExtensionField takes an irreducible modulus on trust; its callers prove it with is_irreducible
    assert is_irreducible(PrimeField(19), PHI5) is False
    assert is_irreducible(PrimeField(5), [1, 0, 1]) is False  # 2^2 = -1 mod 5
    with pytest.raises(BadInput):
        ExtensionField(PrimeField(3), [1, 0, 2])  # not monic
    with pytest.raises(DegreeTooSmall):
        ExtensionField(PrimeField(3), [1])


def test_degree_one_extension():
    F = ExtensionField(PrimeField(5), [3, 1])  # Y + 3, so Y = 2
    assert F.gen() == (2,)
    assert F.mul((2,), (2,)) == (4,)
    assert F.from_int(7) == (2,)


def test_pow_matches_repeated_mul():
    F = ExtensionField(PrimeField(19), [1, 5, 1])
    rng = random.Random(7)
    for _ in range(25):
        x = F.rand(rng)
        if F.is_zero(x):
            continue
        acc = F.one()
        for e in range(8):
            assert F.pow(x, e) == acc
            acc = F.mul(acc, x)
        assert F.mul(F.inv(x), x) == F.one()
        with pytest.raises(BadInput):
            F.pow(x, -3)


def test_poly_divmod_property():
    F = PrimeField(7)
    rng = random.Random(13)
    for _ in range(100):
        a = [F.rand(rng) for _ in range(rng.randrange(1, 9))]
        b = [F.rand(rng) for _ in range(rng.randrange(1, 6))]
        a, b = poly_trim(F, a), poly_trim(F, b)
        if not b:
            continue
        q, r = poly_divmod(F, a, b)
        assert len(r) < len(b)
        back = poly_sub(F, poly_mul(F, q, b), [F.neg(c) for c in r])
        assert back == a


def _gcd(F, a, b):
    return unpacked(F, ff_poly_gcd(F, packed(F, a), packed(F, b)))


def test_gcd_examples():
    F3 = PrimeField(3)
    assert _gcd(F3, [2, 0, 1], [1, 1]) == [1, 1]  # gcd(X^2-1, X+1) = X+1
    F19 = PrimeField(19)
    # (X-4)(X-5) = X^2 - 9X + 20
    g = poly_from_ints(F19, [20, -9, 1])
    # neither 4 nor 5 is a root of X^4+X^3+X^2+X+1 mod 19, so the gcd is 1
    assert all(sum(x**k for k in range(5)) % 19 != 0 for x in (4, 5))
    assert _gcd(F19, poly_from_ints(F19, PHI5), g) == [1]
    with pytest.raises(ZeroInput):
        _gcd(F19, [], [])


def test_gcd_divides_both():
    F = PrimeField(5)
    rng = random.Random(99)
    for _ in range(60):
        a = poly_trim(F, [F.rand(rng) for _ in range(rng.randrange(1, 8))])
        b = poly_trim(F, [F.rand(rng) for _ in range(rng.randrange(1, 8))])
        if not a or not b:
            continue
        g = _gcd(F, a, b)
        assert poly_divmod(F, a, g)[1] == []
        assert poly_divmod(F, b, g)[1] == []


def test_modpow_example():
    F19 = PrimeField(19)
    f = packed(F19, [1, 5, 1])
    x = packed(F19, [0, 1])
    # X represents a primitive 5th root of unity, so X^180 = (X^5)^36 = 1
    assert ff_poly_modpow(F19, x, (19**2 - 1) // 2, f).tolist() == [[1]]
    assert ff_poly_modpow(F19, x, 5, f).tolist() == [[1]]
    assert ff_poly_modpow(F19, x, 0, f).tolist() == [[1]]
    with pytest.raises(BadInput):
        ff_poly_modpow(F19, x, -1, f)
    with pytest.raises(BadInput):
        ff_poly_modpow(F19, x, 5, packed(F19, [1, 5, 2]))  # division needs a monic modulus


@pytest.mark.parametrize("e", [0, 1, 2, 3, 104, (3**10 - 1) // 2, 2**64 + 1])
def test_power_squares_once_per_bit_below_the_top(e):
    calls = []

    def mul(u, v):
        calls.append("square" if u is v else "multiply")
        return [u[0] * v[0] % 1000003]

    assert power(mul, [1], [3], e) == [pow(3, e, 1000003)]
    assert calls.count("square") == max(0, e.bit_length() - 1)
    assert calls.count("multiply") == max(0, bin(e).count("1") - 1)


def test_frobenius_orbit_quadratic():
    F19 = PrimeField(19)
    K = ExtensionField(F19, [1, 5, 1])
    y = K.gen()
    orbit = frobenius_orbit(K, y)
    assert len(orbit) == 2
    assert orbit[0] == y
    # the conjugate is -5 - Y since the trace of Y is -5
    assert orbit[1] == (14, 18)
    assert minimal_poly_from_orbit(K, y) == (1, 5, 1)


def test_minimal_poly_of_embedded_constant():
    F19 = PrimeField(19)
    K = ExtensionField(F19, [1, 5, 1])
    assert minimal_poly_from_orbit(K, K.from_int(7)) == (12, 1)  # Y - 7


def test_frobenius_orbit_in_tower():
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, [1, 0, 1])
    # find an irreducible quadratic over F_9 and climb the tower
    mod = None
    for a0 in range(3):
        for a1 in range(3):
            cand = [(a0, a1), F9.zero(), F9.one()]
            if is_irreducible(F9, cand):
                mod = cand
                break
        if mod:
            break
    assert mod is not None
    T = ExtensionField(F9, mod)
    assert T.degree_over_prime == 4
    beta = T.gen()
    orbit = frobenius_orbit(T, beta)
    assert len(orbit) in (1, 2, 4)
    mp = minimal_poly_from_orbit(T, beta)
    assert len(mp) == len(orbit) + 1
    # the minimal polynomial must vanish on beta
    acc = T.zero()
    for c in reversed(mp):
        acc = T.add(T.mul(acc, beta), T.from_int(c))
    assert T.is_zero(acc)


def test_is_irreducible_rejects_composite_with_full_orbit():
    # degrees 1+2+3 have lcm 6 = total degree, which fools a pure orbit-length
    # check; the gcd strengthening must catch it
    F5 = PrimeField(5)
    f = poly_mul(F5, poly_mul(F5, [4, 1], [2, 0, 1]), [1, 1, 0, 1])
    assert len(f) - 1 == 6
    assert not is_irreducible(F5, f)
    assert is_irreducible(F5, [2, 0, 1])
    assert is_irreducible(F5, [1, 1, 0, 1])


def test_random_monic_distribution():
    F3 = PrimeField(3)
    rng = random.Random(0x5EED)
    counts = {1: 0, 2: 0, 3: 0}
    n = 4000
    for _ in range(n):
        g = unpacked(F3, ff_random_monic(F3, 4, rng))
        assert g[-1] == 1
        counts[len(g) - 1] += 1
    total = 3 + 9 + 27
    for k, weight in [(1, 3), (2, 9), (3, 27)]:
        expected = n * weight / total
        assert abs(counts[k] - expected) < 4 * (expected**0.5) + 10
    with pytest.raises(DegreeTooSmall):
        ff_random_monic(F3, 1, rng)


def test_counter_tallies_base_mults():
    # each product of n1 by n2 coefficients over a degree-D field charges n1*n2*(D^2 + D(D-1))
    F3 = PrimeField(3)
    c = F3.counter
    F9 = ExtensionField(F3, [1, 0, 1])
    c.reset()
    F3.mul(2, 2)
    assert c.count == 0
    F9.mul(F9.gen(), F9.gen())
    assert c.count == 6
    F9.mul(F9.zero(), F9.zero())  # the model ignores operand values
    assert c.count == 12
    c.reset()
    assert c.count == 0
