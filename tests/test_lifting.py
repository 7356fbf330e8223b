"""Tests for the Newton root lift and the classical Hensel cross-check."""

import hashlib
import random

import pytest

from padicfft.errors import (
    BadInput,
    BezoutFailure,
    NotAFactor,
    NotCoprime,
    NotCoprimeFactors,
    PreconditionFailed,
)
from padicfft.ffield import PrimeField, poly_divmod, poly_from_ints
from padicfft.lifting import (
    _bezout_fp,
    expand_lifted_factor,
    hensel_factor_oracle,
    linear_hensel_step,
    newton_lift_root,
)
from padicfft.orders import padic_valuation
from padicfft.padic import PadicContext, RingExtension, ring_mul, ring_pow
from padicfft.tower import build_root_of_unity

PHI5 = (1, 1, 1, 1, 1)


def zpoly_mod(u, f, m):
    """u mod f for monic f, coefficients mod m. Test-local synthetic division."""
    r = [c % m for c in u]
    top = len(f) - 1
    for i in range(len(r) - 1, top - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            for j in range(top):
                r[i - top + j] = (r[i - top + j] - c * f[j]) % m
    r = r[:top]
    while r and r[-1] == 0:
        r.pop()
    return r


def zpoly_mul(u, v, m):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] = (out[i + j] + ui * vj) % m
    return out


def test_lifted_quadratic_found_by_congruence_search():
    # all monic quadratics mod 361 that reduce to X^2+5X+1 and divide Phi_5
    hits = []
    for t in range(19):
        for u in range(19):
            cand = [1 + 19 * u, 5 + 19 * t, 1]
            if zpoly_mod(list(PHI5), cand, 361) == []:
                hits.append(tuple(cand))
    assert hits == [(1, 43, 1)]


def test_newton_lift_matches_congruence_search():
    out = newton_lift_root((1, 5, 1), 5, 1, 19)
    assert out.precision == 2
    assert expand_lifted_factor(out.ring, out.root) == (1, 43, 1)

    other = newton_lift_root((1, 15, 1), 5, 1, 19)
    fac = expand_lifted_factor(other.ring, other.root)
    assert fac == (1, 319, 1)
    # complementary factors multiply back to Phi_5 mod 361
    assert zpoly_mul([1, 43, 1], [1, 319, 1], 361) == [1, 1, 1, 1, 1]


def test_lifted_root_satisfies_the_lifted_factor():
    out = newton_lift_root((1, 5, 1), 5, 1, 19)
    al = out.root
    assert ring_mul(al, al) + 43 * al + out.ring.one() == out.ring.zero()


def test_fixed_point_when_modulus_already_divides():
    # X^2+1 divides Y^4-1 exactly over the integers, so nothing moves
    out = newton_lift_root((1, 0, 1), 4, 3, 3)
    assert out.precision == 8
    assert tuple(out.root.coeffs) == (0, 1)
    assert expand_lifted_factor(out.ring, out.root) == (1, 0, 1)


def test_newton_lift_n0_returns_residue_data():
    out = newton_lift_root((1, 5, 1), 5, 0, 19)
    assert out.precision == 1
    assert tuple(out.root.coeffs) == (0, 1)
    assert expand_lifted_factor(out.ring, out.root) == (1, 5, 1)


FBAR104 = build_root_of_unity(3, 104, random.Random(1)).modulus


def test_successive_precisions_agree_and_converge():
    roots = [newton_lift_root(FBAR104, 104, n, 3) for n in range(6)]
    full = roots[-1]
    assert full.precision == 32
    assert ring_pow(full.root, 104) == full.ring.one()
    for n in range(5):
        lo, hi = roots[n], roots[n + 1]
        k = 2**n
        assert [c % 3**k for c in hi.root.coeffs] == list(lo.root.coeffs)
        # residual of the coarse root, measured in the finer ring
        res = ring_pow(hi.ring.element(lo.root.coeffs), 104) - hi.ring.one()
        vals = [padic_valuation(c, 3) for c in res.coeffs if c]
        assert min(vals, default=2 * k) >= k


def test_trace_records_one_entry_per_doubling():
    tr = []
    traced = newton_lift_root(FBAR104, 104, 5, 3, trace=tr)
    assert tr == [(1, 2, 2), (2, 4, 4), (3, 8, 8), (4, 16, 16), (5, 32, 32)]
    # tracing must not change the lift or its bill
    plain = newton_lift_root(FBAR104, 104, 5, 3)
    assert traced.root == plain.root
    assert traced.base_mults == plain.base_mults == 3858


def test_lift_choice_does_not_change_the_factor():
    base = newton_lift_root(FBAR104, 104, 3, 3)
    expect = expand_lifted_factor(base.ring, base.root)
    rng = random.Random(9)
    for _ in range(3):
        lift = [c + 3 * rng.randrange(3**5) for c in FBAR104[:-1]] + [1]
        out = newton_lift_root(FBAR104, 104, 3, 3, lift_coeffs=lift)
        assert expand_lifted_factor(out.ring, out.root) == expect


def test_newton_agrees_with_hensel_oracle_s104():
    out = newton_lift_root(FBAR104, 104, 4, 3)
    fac = expand_lifted_factor(out.ring, out.root)
    m = 3**16
    h = [m - 1] + [0] * 103 + [1]
    base = PrimeField(3)
    fbar_p = poly_from_ints(base, FBAR104)
    g0, rem = poly_divmod(base, poly_from_ints(base, h), fbar_p)
    assert rem == []
    f16, g16 = hensel_factor_oracle(h, list(FBAR104), g0, 3, 16)
    assert fac == f16
    assert zpoly_mod(h, list(f16), m) == []
    assert zpoly_mul(list(f16), list(g16), m) == [c % m for c in h]


def test_hensel_oracle_on_phi5():
    base = PrimeField(19)
    f2, g2 = hensel_factor_oracle(list(PHI5), [1, 5, 1], [1, 15, 1], 19, 2)
    assert (f2, g2) == ((1, 43, 1), (1, 319, 1))


def test_hensel_oracle_validation():
    with pytest.raises(NotCoprimeFactors):
        hensel_factor_oracle([1, 2, 1], [1, 1], [1, 1], 19, 2)
    with pytest.raises(PreconditionFailed):
        hensel_factor_oracle([2, 1, 1], [1, 1], [2, 1], 19, 2)


def test_linear_hensel_step_and_its_errors():
    base = PrimeField(19)
    a, b = _bezout_fp(base, [1, 5, 1], [1, 15, 1])
    f2, g2 = linear_hensel_step(19, 1, list(PHI5), [1, 5, 1], [1, 15, 1], a, b)
    assert (f2, g2) == ([1, 43, 1], [1, 319, 1])
    with pytest.raises(BezoutFailure):
        linear_hensel_step(19, 1, list(PHI5), [1, 5, 1], [1, 15, 1], [1], [1])
    bad_h = [2, 1, 1, 1, 1]
    with pytest.raises(PreconditionFailed):
        linear_hensel_step(19, 1, bad_h, [1, 5, 1], [1, 15, 1], a, b)


def test_two_minus_power_inverts_power():
    # u = 1 + eps with eps = 0 mod p^k gives u*(2 - u) = 1 - eps^2 = 1 mod p^2k
    ring = RingExtension(PadicContext(19, 2), [1, 5, 1])
    u = ring.element([1 + 19, 19 * 4])
    assert ring_mul(u, 2 - u) == ring.one()
    assert ring_mul(ring.gen(), 2 - ring.gen()) != ring.one()


def test_newton_lift_validation():
    with pytest.raises(NotAFactor):
        newton_lift_root((1, 0, 1), 5, 1, 19)
    with pytest.raises(NotCoprime):
        newton_lift_root((1, 1), 6, 1, 3)
    with pytest.raises(BadInput):
        newton_lift_root((4, 0, 1), 2, 1, 5)  # reducible
    with pytest.raises(BadInput):
        newton_lift_root((1, 5, 1), 5, -1, 19)
    with pytest.raises(BadInput):
        newton_lift_root((1, 5, 1), 5, 1, 19, lift_coeffs=(2, 5, 1))
    with pytest.raises(BadInput):
        newton_lift_root((1, 5, 1), 5, 1, 19, lift_coeffs=(1, 5, 20))


def test_lift_work_is_counted_and_ring_counter_starts_clean():
    out = newton_lift_root(FBAR104, 104, 5, 3)
    assert out.ring.counter.count == 0
    d, n, log2s = 6, 5, 7
    assert 0 < out.base_mults <= 32 * d * d * n * log2s


def test_lift_outputs_pinned():
    # root, modulus and bill of newton_lift_root, plus the Hensel oracle on criterion 4's cases
    rows = []
    for p, s in [(3, 8), (3, 104), (5, 24), (7, 9), (19, 5), (19, 40)]:
        fbar = build_root_of_unity(p, s, random.Random(0)).modulus
        for n in (0, 1, 3):
            lift = newton_lift_root(fbar, s, n, p)
            rows.append((p, s, n, lift.root.coeffs, lift.ring.modulus, lift.base_mults))
    cases = [(19, 5, n) for n in range(1, 6)] + [(3, 8, n) for n in range(1, 6)] + [(3, 104, 4)]
    for p, s, n in cases:
        fbar = list(build_root_of_unity(p, s, random.Random(3)).modulus)
        K = 2**n
        h = [p**K - 1] + [0] * (s - 1) + [1]
        quo = poly_divmod(PrimeField(p), [p - 1] + [0] * (s - 1) + [1], fbar)[0]
        rows.append((p, s, n, hensel_factor_oracle(h, fbar, quo, p, K)))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "ec2f873c764618fd7292b28cc7cbb52d8746851ebf881184fcc14d1f2f03b59c"
