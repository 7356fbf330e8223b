import math

import pytest

from padicfft.errors import BadInput, NotCoprime, OutOfRange, ZeroInput
from padicfft.orders import (
    FactoredOrder,
    cyclotomic_degree,
    factorize,
    is_prime,
    multiplicative_order,
    padic_valuation,
    tower_step_degree,
)


def order_oracle(x, m):
    # brute force: walk powers of x until hitting 1
    x %= m
    acc, k = x % m, 1
    while acc != 1:
        acc = acc * x % m
        k += 1
        assert k <= m
    return k


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 19, 101, 1093, 2801, 1_000_003]
    for q in primes:
        assert is_prime(q)
    for n in [0, 1, 4, 9, 91, 561, 1105, 1_000_001, 121 * 169]:
        assert not is_prime(n)


def test_is_prime_past_the_twelve_prime_bases():
    # psi_12 is the least strong pseudoprime to every prime base up to 37; base 41 exposes it
    psi12 = 318665857834031151167461
    assert not is_prime(psi12)
    assert factorize(psi12) == [(399165290221, 1), (798330580441, 1)]
    for q in (41, 2**61 - 1, 10**24 + 7):
        assert is_prime(q)
    sieve = [True] * 20000
    for n in range(2, 20000):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(range(n * n, 20000, n))
    assert [n for n in range(20000) if is_prime(n)] == [n for n in range(2, 20000) if sieve[n]]


def test_factorize_roundtrip():
    for n in [2, 8, 104, 12584, 360, 2**10 * 3**5, 1093 * 12584, 7663536]:
        fac = factorize(n)
        prod = 1
        for q, v in fac:
            assert is_prime(q)
            prod *= q**v
        assert prod == n
    assert factorize(104) == [(2, 3), (13, 1)]
    assert factorize(12584) == [(2, 3), (11, 2), (13, 1)]
    with pytest.raises(BadInput):
        factorize(0)
    with pytest.raises(OutOfRange):
        factorize(10**25)


def test_factored_order_validation():
    fo = FactoredOrder.of(104)
    assert fo.value == 104 and fo.factors == ((2, 3), (13, 1))
    assert fo.radix_schedule() == [2, 2, 2, 13]
    assert FactoredOrder.of(1) == FactoredOrder(1, ())
    for n in (0, -5):
        with pytest.raises(BadInput, match="factorize needs a positive integer"):
            FactoredOrder.of(n)
    with pytest.raises(BadInput):
        FactoredOrder(12, ((2, 1), (3, 1)))
    with pytest.raises(BadInput):
        FactoredOrder(12, ((3, 1), (2, 2)))
    with pytest.raises(BadInput):
        FactoredOrder(8, ((4, 1), (2, 1)))


def test_padic_valuation_examples():
    assert padic_valuation(360, 2) == 3
    assert padic_valuation(242, 11) == 2
    assert padic_valuation(-24, 2) == 3
    assert padic_valuation(7, 3) == 0
    with pytest.raises(ZeroInput):
        padic_valuation(0, 3)
    with pytest.raises(BadInput):
        padic_valuation(12, 4)


def test_multiplicative_order_examples():
    assert multiplicative_order(19, 5) == 2
    assert multiplicative_order(3, 104) == 6
    assert multiplicative_order(3, 121) == 5  # 3^5 = 243 = 2*121 + 1
    assert multiplicative_order(7, 1) == 1
    with pytest.raises(NotCoprime):
        multiplicative_order(6, 104)


def test_multiplicative_order_against_oracle():
    for m in range(2, 200):
        for x in range(1, m):
            if math.gcd(x, m) == 1:
                assert multiplicative_order(x, m) == order_oracle(x, m)
    # a few larger spot checks
    for x, m in [(3, 12584), (19, 12584), (5, 9973), (7, 7663536)]:
        want = order_oracle(x, m)
        assert multiplicative_order(x, m) == want


def test_cyclotomic_degree_examples():
    assert cyclotomic_degree(19, 5, 0) == 2
    assert cyclotomic_degree(3, 104, 0) == 6
    assert cyclotomic_degree(3, 1, 2) == 6  # ramified part only: phi(9)
    with pytest.raises(NotCoprime):
        cyclotomic_degree(3, 6, 0)
    with pytest.raises(BadInput):
        cyclotomic_degree(4, 5, 0)


def test_cyclotomic_degree_formula_and_lower_bound():
    # unramified degree must agree with a brute-force order oracle, and the
    # residue field must be large enough to contain s distinct roots of unity
    for p in [3, 5, 7, 19]:
        for s in range(1, 301):
            if math.gcd(s, p) != 1:
                continue
            d = cyclotomic_degree(p, s, 0)
            assert d == (order_oracle(p, s) if s > 1 else 1)
            assert p**d >= s + 1


def test_tower_step_degree_examples():
    assert tower_step_degree(3, 1, 13, 1) == 3
    assert tower_step_degree(19, 1, 5, 1) == 2
    # 2-power boundary case: the naive closed form predicts 1, exact orders say 2
    assert tower_step_degree(19, 1, 2, 2) == 2
    with pytest.raises(BadInput):
        tower_step_degree(3, 1, 3, 1)
    with pytest.raises(NotCoprime):
        tower_step_degree(3, 5, 5, 1)


def test_tower_step_degree_telescopes():
    for p, a, p0, vmax in [(3, 1, 2, 5), (3, 8, 11, 3), (19, 1, 2, 5), (5, 4, 3, 4), (7, 1, 5, 3)]:
        prod = 1
        for v in range(1, vmax + 1):
            prod *= tower_step_degree(p, a, p0, v)
        assert prod == multiplicative_order(p, a * p0**vmax) // multiplicative_order(p, a)


def test_tower_step_degree_closed_form_odd_p0():
    # for odd p0 and climbing steps v >= 2 the lifting-the-exponent shortcut is
    # trustworthy: degree is 1 up to a threshold level and exactly p0 beyond it
    # (v = 1 adjoins zeta_p0 itself and can have any degree dividing p0 - 1)
    for p in [3, 5, 7, 19]:
        for p0 in [3, 5, 7, 11, 13]:
            if p0 == p:
                continue
            for a in [1, 2, 4, 8]:
                if math.gcd(a, p * p0) != 1:
                    continue
                after_first = multiplicative_order(p, a * p0)
                ell = padic_valuation(p ** multiplicative_order(p, p0) - 1, p0) + padic_valuation(after_first, p0)
                for v in range(2, ell + 3):
                    want = 1 if v <= ell else p0
                    assert tower_step_degree(p, a, p0, v) == want


def test_factored_order_of_a_factored_order_is_itself():
    fo = FactoredOrder.of(12584)
    assert FactoredOrder.of(fo) is fo
    assert FactoredOrder.of(12584) == fo
