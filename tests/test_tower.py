"""Tests for equal-degree splitting and the root-of-unity tower."""

import hashlib
import random

import pytest

from padicfft.errors import (
    BadInput,
    DegreeTooSmall,
    EvenCharacteristic,
    NotCoprime,
    RandomnessFailure,
)
from padicfft.ffield import (
    PrimeField,
    is_irreducible,
    poly_divmod,
    poly_from_ints,
    poly_mul,
)
from padicfft.orders import factorize, multiplicative_order
from padicfft.pipeline import DEFAULT_SEED
from padicfft.planner import choose_parameters
from padicfft.tower import _verify_primitive, build_root_of_unity, cz_split

F19 = PrimeField(19)
F3 = PrimeField(3)
PHI5_19 = [1] * 5  # 1 + X + X^2 + X^3 + X^4 over F_19


def test_phi5_splits_into_the_two_known_quadratics():
    # oracle: the two candidates multiply back to Phi_5 mod 19
    a = poly_from_ints(F19, (1, 5, 1))
    b = poly_from_ints(F19, (1, 15, 1))
    assert poly_mul(F19, a, b) == PHI5_19

    seen = set()
    for seed in range(100):
        fac = cz_split(F19, PHI5_19, 2, random.Random(seed))
        seen.add(tuple(fac))
    assert seen == {(1, 5, 1), (1, 15, 1)}


def test_cz_split_factor_divides_input():
    for seed in range(10):
        fac = cz_split(F19, PHI5_19, 2, random.Random(seed))
        _, rem = poly_divmod(F19, PHI5_19, fac)
        assert rem == []
        assert is_irreducible(F19, fac)
        # coefficients outside [0, p) name the same polynomial
        assert cz_split(F19, [20, -18, 1, 39, 1], 2, random.Random(seed)) == fac


def test_cz_split_returns_input_when_degree_matches():
    class Tripwire(random.Random):
        def random(self):
            raise AssertionError("randomness must not be consumed")

        def getrandbits(self, k):
            raise AssertionError("randomness must not be consumed")

    assert cz_split(F3, [1, 0, 1], 2, Tripwire()) == [1, 0, 1]
    # non-monic input comes back monic
    assert cz_split(F3, [2, 0, 2], 2, Tripwire()) == [1, 0, 1]


def test_cz_split_input_validation():
    rng = random.Random(0)
    with pytest.raises(EvenCharacteristic):
        cz_split(PrimeField(2), [1, 1, 1], 1, rng)
    with pytest.raises(BadInput):
        cz_split(F19, PHI5_19, 3, rng)  # 3 does not divide 4
    with pytest.raises(DegreeTooSmall):
        cz_split(F19, [5], 1, rng)


def test_cz_split_gives_up_on_wrong_degree_promise():
    # X^2 + 1 is irreducible over F_3, so no linear factor ever appears
    with pytest.raises(RandomnessFailure):
        cz_split(F3, [1, 0, 1], 1, random.Random(7))


def test_build_root_validation():
    rng = random.Random(0)
    with pytest.raises(NotCoprime):
        build_root_of_unity(3, 9, rng)
    with pytest.raises(EvenCharacteristic):
        build_root_of_unity(2, 5, rng)
    with pytest.raises(BadInput):
        build_root_of_unity(3, 1, rng)


def test_build_root_s2():
    root = build_root_of_unity(3, 2, random.Random(0))
    assert root.modulus == (1, 1)
    assert root.zeta == (2,)
    assert root.degree == 1


def test_build_root_p3_s4_is_quadratic_i():
    root = build_root_of_unity(3, 4, random.Random(0))
    assert root.modulus == (1, 0, 1)
    assert root.zeta == (0, 1)
    f = root.field
    assert f.pow(root.zeta, 2) == f.neg(f.one())


def test_build_root_p19_s5_hits_both_factors():
    seen = set()
    for seed in range(40):
        root = build_root_of_unity(19, 5, random.Random(seed))
        assert root.degree == 2
        seen.add(root.modulus)
        f = root.field
        assert f.pow(root.zeta, 5) == f.one()
        assert f.pow(root.zeta, 1) != f.one()
    assert seen == {(1, 5, 1), (1, 15, 1)}


def _check_primitive(root):
    f = root.field
    assert f.pow(root.zeta, root.s) == f.one()
    for q, _ in factorize(root.s):
        assert f.pow(root.zeta, root.s // q) != f.one()


def test_build_root_p3_s104():
    root = build_root_of_unity(3, 104, random.Random(1))
    assert root.degree == multiplicative_order(3, 104) == 6
    assert is_irreducible(F3, list(root.modulus))
    _check_primitive(root)
    # the modulus divides Y^s - 1 over F_p
    ys1 = [F3.neg(F3.one())] + [F3.zero()] * 103 + [F3.one()]
    _, rem = poly_divmod(F3, ys1, poly_from_ints(F3, root.modulus))
    assert rem == []


def test_build_root_multi_prime_rebase():
    root = build_root_of_unity(3, 40, random.Random(5))
    assert root.degree == multiplicative_order(3, 40) == 4
    _check_primitive(root)

    root = build_root_of_unity(19, 40, random.Random(5))
    assert root.degree == multiplicative_order(19, 40) == 2
    _check_primitive(root)


def test_build_root_anomalous_two_power():
    # ord_8(19) = ord_4(19), so the 2-power ladder cannot use one binomial
    root = build_root_of_unity(19, 8, random.Random(3))
    assert root.degree == 2
    f = root.field
    assert f.pow(root.zeta, 4) == f.neg(f.one())
    _check_primitive(root)


def test_build_root_deterministic_per_seed():
    a = build_root_of_unity(3, 104, random.Random(42))
    b = build_root_of_unity(3, 104, random.Random(42))
    assert a.modulus == b.modulus
    assert a.zeta == b.zeta


def test_build_root_counts_base_multiplications():
    root = build_root_of_unity(3, 104, random.Random(0))
    assert 0 < root.base_counter.count < 10**7


def test_build_root_zeta_conjugates_are_roots_of_modulus():
    root = build_root_of_unity(19, 5, random.Random(2))
    f = root.field
    mod = poly_from_ints(f, root.modulus)
    conj = root.zeta
    for _ in range(root.degree):
        value = f.zero()
        for c in reversed(mod):
            value = f.add(f.mul(value, conj), c)
        assert value == f.zero()
        conj = f.pow(conj, 19)


def test_build_root_outputs_pinned():
    # modulus and zeta over 2-power ladders, the case ord_8(19) = ord_4(19), several primes in
    # one s, binomial shortcuts of degree 2, 3, 4, 9, the towers of the three benchmark workloads
    # and a degree-2 level over a prime beyond the int64 coordinates; the digest is the one the
    # nested-tuple arithmetic gave before the packed form replaced it
    rows, counts = [], []
    cases = [(p, s, seed) for p, s in [(3, 2), (3, 4), (3, 8), (3, 16), (3, 40), (3, 104), (5, 8), (5, 16),
                                       (5, 24), (7, 9), (7, 16), (7, 27), (19, 5), (19, 8), (19, 40)]
             for seed in (0, 1, 0x5EED)]
    cases += [(3, 12584, DEFAULT_SEED), (7, 2736, DEFAULT_SEED), (7, 48, DEFAULT_SEED), (2**61 - 1, 40, DEFAULT_SEED)]
    for p, s, seed in cases:
        r = build_root_of_unity(p, s, random.Random(seed))
        rows.append((p, s, seed, r.modulus, r.zeta))
        counts.append(r.base_counter.count)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "7db77dacbf8a5848a279cd11b0d34a18790232a9571b537440a240d65e972057"
    # the modelled base multiplications of the same builds, which prove no flattened modulus irreducible
    assert (sum(counts[:-4]), counts[-4:]) == (243211, [11382985, 1656357, 1931, 56747])


def test_build_root_next_planner_rung():
    # p=5, N=1000 plans s=581064 = 2^3*3*11*31*71, d=30, which the nested-tuple tower did not
    # finish in minutes
    res = choose_parameters(5, 1000)
    assert (res.s, res.d) == (581064, 30)
    root = build_root_of_unity(5, res.s_factored, random.Random(DEFAULT_SEED))
    assert root.degree == 30
    assert is_irreducible(PrimeField(5), list(root.modulus))
    _verify_primitive(root.field, root.zeta, res.s_factored)
