"""Tests for transform-length selection."""

import math

import pytest

from padicfft import orders, planner
from padicfft.errors import BadInput
from padicfft.orders import multiplicative_order
from padicfft.planner import (
    asymptotic_report,
    choose_parameters,
    report_csv,
    report_table,
)


def phi_product(p, r):
    """Independent oracle: (p-1) * Phi_q(p) over the first r primes q."""
    primes = []
    q = 2
    while len(primes) < r:
        if all(q % t for t in range(2, q)):
            primes.append(q)
        q += 1
    out = p - 1
    for q in primes:
        out *= (p**q - 1) // (p - 1)
    return out, primes


def test_frozen_small_cases():
    res = choose_parameters(3, 1)
    assert (res.r, res.s, res.d) == (1, 8, 2)
    res = choose_parameters(3, 100)
    assert (res.r, res.s, res.d) == (2, 104, 6)
    assert res.s_factored.factors == ((2, 3), (13, 1))
    res = choose_parameters(3, 10**4)
    assert (res.r, res.s, res.d) == (3, 12584, 30)
    res = choose_parameters(5, 1)
    assert (res.r, res.s, res.d) == (1, 24, 2)
    res = choose_parameters(7, 10**5)
    assert (res.r, res.s, res.d) == (3, 7663536, 30)


def test_validation():
    with pytest.raises(BadInput):
        choose_parameters(4, 10)
    with pytest.raises(BadInput):
        choose_parameters(2, 10)
    with pytest.raises(BadInput):
        choose_parameters(3, 0)


def test_repeated_calls_factor_s_once(monkeypatch):
    # s is factored and ord_s(p) computed once per (p, s): lengths N of one s give equal results and factor nothing
    # after the first call, while p and N are still checked, and an order other than the prime product warned of,
    # on every call
    planner._factored_order.cache_clear()
    seen = []
    real = orders.factorize
    monkeypatch.setattr(orders, "factorize", lambda n: seen.append(n) or real(n))
    first = choose_parameters(7, 500)
    assert first.s == 2736 and 2736 in seen
    before = len(seen)
    assert [choose_parameters(7, N) for N in (500, 500)] == [first] * 2
    assert choose_parameters(7, 1000).s_factored == first.s_factored and len(seen) == before
    with pytest.raises(BadInput):
        choose_parameters(7, 0)
    planner._factored_order.cache_clear()
    monkeypatch.setattr(planner, "multiplicative_order", lambda p, s: 7)
    try:
        for _ in range(2):
            with pytest.warns(UserWarning, match="differs from the prime product"):
                assert not choose_parameters(5, 30).d_matches_prime_product
    finally:
        planner._factored_order.cache_clear()  # drop the patched order


def test_minimality_and_coprimality_sweep():
    Ns = sorted({int(round(10 ** (e / 4))) for e in range(0, 21)})
    for p in (3, 5, 7):
        for N in Ns:
            res = choose_parameters(p, N)
            assert res.s > N
            assert res.s % p != 0
            assert res.s == phi_product(p, res.r)[0]
            if res.r > 1:
                assert phi_product(p, res.r - 1)[0] <= N
            assert res.d == multiplicative_order(p, res.s)
            assert res.d_matches_prime_product
            assert res.d == math.prod(phi_product(p, res.r)[1])


def test_predicted_cost_frozen():
    assert choose_parameters(3, 1).predicted_mults == 192
    assert choose_parameters(3, 100).predicted_mults == 71136


def test_predicted_matches_result_field():
    # d^2 * s * sum(v_i p_i) over s = prod p_i^v_i
    for p, N in ((3, 50), (5, 300), (7, 1000)):
        res = choose_parameters(p, N)
        weight = sum(v * q for q, v in res.s_factored.factors)
        assert res.predicted_mults == res.d * res.d * res.s * weight


def test_asymptotic_report_rows():
    rows = asymptotic_report(3, [100, 10**4])
    assert rows[0].s_over_N == pytest.approx(1.04)
    assert rows[1].s_over_N == pytest.approx(1.2584)
    assert rows[1].cost_over_N > 0
    # the smallness marker d^2 * sum(v_i p_i) < s is reported, not enforced,
    # and desk-scale N does not reach it
    assert not rows[0].small_d_regime
    assert not rows[1].small_d_regime


def test_report_renderings():
    rows = asymptotic_report(3, [100, 10**4])
    csv = report_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("N,r,s,d,")
    assert lines[1].split(",")[:4] == ["100", "2", "104", "6"]
    table = report_table(rows)
    assert "12584" in table and "104" in table
