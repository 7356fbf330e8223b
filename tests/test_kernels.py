"""Differential tests for the vectorized mod-m kernels against int arithmetic."""

import random

import numpy as np
import pytest

from padicfft.errors import OutOfRange
from padicfft.kernels import (
    MODULUS_LIMIT,
    contraction_limit,
    limb_count,
    matmul_mod,
    mul_mod,
    power_table,
    ring_mul_batch,
    split_limbs,
    supports_modulus,
)
from padicfft.padic import PadicContext, RingExtension, ring_mul, ring_pow

MODULI = [3, 19, 2**51, 2**51 - 1, 3**32, 5**21, 7**18, 2**51 - 33]


def test_mul_mod_random_differential():
    rng = random.Random(0)
    for m in MODULI:
        a = np.array([rng.randrange(m) for _ in range(4000)], dtype=np.int64)
        b = np.array([rng.randrange(m) for _ in range(4000)], dtype=np.int64)
        got = mul_mod(a, b, m)
        expect = [(int(x) * int(y)) % m for x, y in zip(a, b)]
        assert got.tolist() == expect


def test_mul_mod_corners():
    for m in MODULI:
        top = np.array([m - 1, m - 1, 0, 1, m // 2], dtype=np.int64)
        other = np.array([m - 1, 1, m - 1, m - 1, m - 1], dtype=np.int64)
        got = mul_mod(top, other, m)
        expect = [(int(x) * int(y)) % m for x, y in zip(top, other)]
        assert got.tolist() == expect
    full = np.full(1000, MODULUS_LIMIT - 1, dtype=np.int64)
    assert mul_mod(full, full, MODULUS_LIMIT).tolist() == [(MODULUS_LIMIT - 1) ** 2 % MODULUS_LIMIT] * 1000


def test_mul_mod_broadcast_and_range_guard():
    a = np.arange(10, dtype=np.int64).reshape(10, 1)
    b = np.arange(5, dtype=np.int64)
    got = mul_mod(a, b, 19)
    assert got.shape == (10, 5)
    assert got[7, 4] == 28 % 19
    assert not supports_modulus(2**51 + 1)
    with pytest.raises(OutOfRange):
        mul_mod(a, b, 2**51 + 1)
    with pytest.raises(OutOfRange):
        mul_mod(a, b, 1)


def _random_ring(rng, p, K, d):
    ctx = PadicContext(p, K)
    modulus = [rng.randrange(ctx.pK) for _ in range(d)] + [1]
    return RingExtension(ctx, modulus, check=False)


def test_ring_mul_batch_differential():
    rng = random.Random(1)
    for p, K, d in ((3, 8, 2), (3, 8, 6), (19, 2, 5), (3, 32, 4), (5, 21, 3), (3, 1, 6), (7, 16, 1)):
        ring = _random_ring(rng, p, K, d)
        m = ring.ctx.pK
        fhead = np.array(ring.modulus[:-1], dtype=np.int64)
        x = np.array([[rng.randrange(m) for _ in range(d)] for _ in range(40)], dtype=np.int64)
        y = np.array([[rng.randrange(m) for _ in range(d)] for _ in range(40)], dtype=np.int64)
        got = ring_mul_batch(x, y, fhead, m)
        for row in range(40):
            expect = ring_mul(ring.element(x[row].tolist()), ring.element(y[row].tolist()))
            assert got[row].tolist() == list(expect.coeffs)


def test_ring_mul_batch_broadcast_single():
    rng = random.Random(2)
    ring = _random_ring(rng, 3, 8, 6)
    m = ring.ctx.pK
    fhead = np.array(ring.modulus[:-1], dtype=np.int64)
    x = np.array([[rng.randrange(m) for _ in range(6)] for _ in range(25)], dtype=np.int64)
    y = np.array([rng.randrange(m) for _ in range(6)], dtype=np.int64)
    got = ring_mul_batch(x, y, fhead, m)
    yelt = ring.element(y.tolist())
    for row in range(25):
        expect = ring_mul(ring.element(x[row].tolist()), yelt)
        assert got[row].tolist() == list(expect.coeffs)


def test_ring_mul_batch_accumulator_guard():
    m = 2**51
    d = 2**12
    x = np.zeros((1, d), dtype=np.int64)
    with pytest.raises(OutOfRange):
        ring_mul_batch(x, x, np.zeros(d, dtype=np.int64), m)


def test_object_backend_matches_python_ints():
    rng = random.Random(4)
    for p, K, d in ((19, 32, 3), (7, 32, 1), (3, 8, 4)):
        ring = _random_ring(rng, p, K, d)
        m = ring.ctx.pK
        fhead = np.array(ring.modulus[:-1], dtype=object)
        x = np.array([[rng.randrange(m) for _ in range(d)] for _ in range(20)], dtype=object)
        y = np.array([[rng.randrange(m) for _ in range(d)] for _ in range(20)], dtype=object)
        assert mul_mod(x, y, m).tolist() == [[a * b % m for a, b in zip(u, v)] for u, v in zip(x, y)]
        got = ring_mul_batch(x, y, fhead, m)
        assert got.dtype == object
        for row in range(20):
            expect = ring_mul(ring.element(x[row].tolist()), ring.element(y[row].tolist()))
            assert got[row].tolist() == list(expect.coeffs)
        table = power_table(x[0], 30, fhead, m)
        assert table.dtype == object
        for k in (0, 1, 2, 17, 29):
            assert table[k].tolist() == list(ring_pow(ring.element(x[0].tolist()), k).coeffs)


def test_power_table_matches_ring_pow():
    ring = RingExtension(PadicContext(3, 8), [1, 0, 1])
    m = ring.ctx.pK
    fhead = np.array([1, 0], dtype=np.int64)
    alpha = ring.gen()
    table = power_table(np.array(alpha.coeffs, dtype=np.int64), 104, fhead, m)
    for k in (0, 1, 2, 3, 7, 50, 103):
        assert table[k].tolist() == list(ring_pow(alpha, k).coeffs)


def test_power_table_edges():
    fhead = np.array([2, 0], dtype=np.int64)
    one = power_table(np.array([0, 1], dtype=np.int64), 1, fhead, 81)
    assert one.tolist() == [[1, 0]]
    two = power_table(np.array([5, 7], dtype=np.int64), 2, fhead, 81)
    assert two.tolist() == [[1, 0], [5, 7]]


def _matmul_reference(a, b, m):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % m for col in zip(*b)] for row in a]


@pytest.mark.parametrize("m", [2, 3**8, 3**32, 2**51, 7**32, 19**32])
def test_matmul_mod_differential(m):
    dtype = np.int64 if supports_modulus(m) else object
    rng = random.Random(m % 1000)
    for rows, n, cols in ((7, 13, 5), (0, 4, 3), (1, 9, 2), (6, 1, 4), (40, 60, 30)):
        a = np.array([rng.randrange(m) for _ in range(rows * n)], dtype=dtype).reshape(rows, n)
        b = np.array([rng.randrange(m) for _ in range(n * cols)], dtype=dtype).reshape(n, cols)
        got = matmul_mod(a, split_limbs(b, m), m)
        assert got.dtype == dtype and got.shape == (rows, cols)
        assert got.tolist() == _matmul_reference(a, b, m)
    top = np.full((3, 50), m - 1, dtype=dtype)
    assert matmul_mod(top, split_limbs(top.T, m), m).tolist() == _matmul_reference(top, top.T, m)
    # stacked: a batch of (rows, n) matrices times a batch of (n, cols) maps, entry by entry
    for batch, rows, n, cols in ((4, 7, 13, 5), (3, 1, 30, 30), (1, 20, 2, 2)):
        a = np.array([rng.randrange(m) for _ in range(batch * rows * n)], dtype=dtype).reshape(batch, rows, n)
        b = np.array([rng.randrange(m) for _ in range(batch * n * cols)], dtype=dtype).reshape(batch, n, cols)
        got = matmul_mod(a, split_limbs(b, m), m)
        assert got.dtype == dtype and got.shape == (batch, rows, cols)
        assert got.tolist() == [_matmul_reference(u, v, m) for u, v in zip(a, b)]


def test_split_limbs_round_trip():
    for m in (2, 3**32, 2**51, 7**32, 19**32):
        values = [0, 1, m - 1, m // 3, (1 << 17) % m, ((1 << 51) - 1) % m]
        x = np.array(values, dtype=np.int64 if supports_modulus(m) else object)
        limbs = split_limbs(x, m)
        assert limbs.dtype == np.float64 and limbs.shape == (limb_count(m), len(values))
        assert limbs.max() < 1 << 17
        back = [sum(int(limb[i]) << (17 * k) for k, limb in enumerate(limbs)) for i in range(len(values))]
        assert back == values
    assert [limb_count(m) for m in (2, 1 << 17, (1 << 17) + 1, 3**32, 7**16, 7**32)] == [1, 1, 2, 3, 3, 6]


def test_matmul_mod_float_bound():
    # L = 3 limbs for 3^32: every class sum stays below L*n*2^34, exact while that is < 2^53
    m = 3**32
    n = contraction_limit(m)
    assert n == 174762 and 3 * n << 34 < 1 << 53 <= 3 * (n + 1) << 34
    a = np.full((1, n), m - 1, dtype=np.int64)
    assert matmul_mod(a, split_limbs(a.T, m), m).tolist() == [[n * (m - 1) ** 2 % m]]
    a = np.full((1, n + 1), m - 1, dtype=np.int64)
    with pytest.raises(OutOfRange):
        matmul_mod(a, split_limbs(a.T, m), m)
    with pytest.raises(OutOfRange):
        matmul_mod(a[:, :4], split_limbs(a[0, :4, None], 7**32), m)
    # a stacked b is bounded by its own contraction axis, not by its batch size
    stacked = np.full((2, 1, n + 1), m - 1, dtype=np.int64)
    with pytest.raises(OutOfRange):
        matmul_mod(stacked, split_limbs(stacked.transpose(0, 2, 1), m), m)
    wide = np.full((n + 1, 1, 3), m - 1, dtype=np.int64)
    assert matmul_mod(wide, split_limbs(wide[:, 0, :, None], m), m).tolist() == [[[3 * (m - 1) ** 2 % m]]] * (n + 1)
