"""Differential tests for the vectorized mod-m kernels against int arithmetic."""

import itertools
import mmap
import random
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfft import kernels
from padicfft.errors import OutOfRange
from padicfft.fft import dft, idft
from padicfft.kernels import (
    MODULUS_BITS,
    MODULUS_LIMIT,
    _folded_matmul,
    _map_block,
    a_limb_count,
    block_matmul_mod,
    contraction_limit,
    fold,
    from_digits,
    limb_count,
    matmul_mod,
    mul_mod,
    power_table,
    precision_fits,
    prepare,
    ring_mul_batch,
    split_limbs,
    supports_modulus,
    to_digits,
)
from padicfft.padic import PadicContext, RingExtension, ring_mul, ring_pow
from padicfft.pipeline import build_pipeline

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


@pytest.mark.parametrize("m", [2, 3, 3**32, 7**18, 2**51 - 1, 2**51])
def test_snap_window_endpoints(m):
    # (-2m, 2m) holds the residuals of a tile's recombined classes and of mul_mod's products
    values = [-2 * m + 1, -m - 1, -m, -1, 0, m - 1, m, 2 * m - 1]
    out = np.empty(len(values), dtype=np.int64)
    assert kernels._snap(np.array(values, dtype=np.int64), m, out) is out
    assert out.tolist() == [v % m for v in values]


@pytest.mark.parametrize("m", [2, 3, 7**16, 3**32, 2**51 - 1, 2**51])
def test_add_mod_window_edges(m):
    # the sum of two canonical int64 tiles lies in [0, 2m): its edges 0 + 0 and (m - 1) + (m - 1), and m itself
    pairs = [(0, 0), (m - 1, m - 1), (m - 1, 1), (1, m - 1), (0, m - 1), (m // 2, m - m // 2)]
    x, y = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    got = kernels._add_mod(x, y, m)
    assert got.dtype == np.int64 and got.tolist() == [(a + b) % m for a, b in pairs]


def test_scalar_operands_wrap_without_warning():
    # 0-d operands make numpy scalars, whose int64 wrapping warns where arrays' does not
    m = MODULUS_LIMIT
    want = (m - 1) ** 2 % m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for top in (np.int64(m - 1), np.array(m - 1, dtype=np.int64)):
            for got in (mul_mod(top, top, m), mul_mod(top, m - 1, m)):
                assert np.ndim(got) == 0 and int(got) == want
            rows = np.array([[top]], dtype=np.int64)
            assert matmul_mod(rows, rows, m).tolist() == [[want]]


def _random_ring(rng, p, K, d):
    ctx = PadicContext(p, K)
    modulus = [rng.randrange(ctx.pK) for _ in range(d)] + [1]
    return RingExtension(ctx, modulus, check=False)


def test_ring_mul_batch_differential():
    # both dtypes and degrees 1 to 30, on both sides of kernels.SCHOOLBOOK_DEGREE: reduced mod F one coefficient
    # at a time, or in one product by X^d's map
    rng = random.Random(1)
    for (p, K, d), dtype in itertools.product(
            ((3, 8, 2), (3, 8, 6), (19, 2, 5), (3, 32, 4), (5, 21, 3), (3, 1, 6), (7, 16, 1), (7, 16, 2), (3, 32, 3),
             (7, 16, 6), (3, 32, 30), (19, 12, 30), (7, 32, 2), (7, 32, 30), (5, 16, kernels.SCHOOLBOOK_DEGREE),
             (5, 16, kernels.SCHOOLBOOK_DEGREE + 1)), (np.int64, object)):
        if dtype is np.int64 and not supports_modulus(p**K):
            continue
        ring = _random_ring(rng, p, K, d)
        m = ring.ctx.pK
        fhead = np.array(ring.modulus[:-1], dtype=dtype)
        x = np.array([[rng.randrange(m) for _ in range(d)] for _ in range(40)], dtype=dtype)
        y = np.array([[rng.randrange(m) for _ in range(d)] for _ in range(40)], dtype=dtype)
        got = ring_mul_batch(x, y, fhead, m)
        assert got.dtype == dtype
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


def test_ring_mul_batch_accumulator_edge(monkeypatch):
    # the lazy sums need d (2m - 1) < 2^63: at m = 2^51, the widest int64 modulus, the guard admits d = 2048 and
    # refuses d = 2049. At d = 2048, with every coefficient of x, y and F m - 1, the int64 product matches the
    # object path, the lazy reduction mod F raised to this degree so that its sum of the d low coefficients and
    # d - 1 residuals runs at the bound too
    m = MODULUS_LIMIT
    d = (1 << 63) // (2 * m - 1)
    assert d == 2048 and d * (2 * m - 1) < 1 << 63 <= (d + 1) * (2 * m - 1)
    past = np.full((1, d + 1), m - 1, dtype=np.int64)
    with pytest.raises(OutOfRange):
        ring_mul_batch(past, past, past[0], m)
    x = np.full((1, d), m - 1, dtype=np.int64)
    monkeypatch.setattr(kernels, "SCHOOLBOOK_DEGREE", d)
    try:
        got = ring_mul_batch(x, x, x[0], m)
        want = ring_mul_batch(x.astype(object), x.astype(object), x[0].astype(object), m)
    finally:
        kernels._reduction_rows.cache_clear()  # X^d .. X^(2d-2) mod F at d = 2048 hold 32 MB
    assert got.dtype == np.int64 and want.dtype == object
    assert got.tolist() == want.tolist()


def _python_ring_product(x, y, fhead, m):
    """x y in (Z/m)[X]/F on Python ints: the full convolution, then X^i = -X^(i-d) fhead, top first."""
    d = len(x)
    conv = [0] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] += a * b
    for i in range(2 * d - 2, d - 1, -1):
        for k, f in enumerate(fhead):
            conv[i - d + k] -= conv[i] * f
    return [c % m for c in conv[:d]]


@pytest.mark.parametrize("m", [3, 7**16, 3**32, 2**51 - 129, 2**51])
def test_ring_mul_batch_lazy_sums_match_python_ints(m):
    # the int64 products on both sides of SCHOOLBOOK_DEGREE (the lazy reduction mod F, then one block product),
    # and at d = 1, against the object path and Python ints: random rows, then a row of m - 1 and a row of 0, y as
    # whole rows and as one broadcast row; the moduli run up to 2^51 and the largest prime below it
    rng = random.Random(m)
    for d in (1, 2, kernels.SCHOOLBOOK_DEGREE, kernels.SCHOOLBOOK_DEGREE + 1):
        fhead = np.array([rng.randrange(m) for _ in range(d)], dtype=np.int64)
        x = np.array([[rng.randrange(m) for _ in range(d)] for _ in range(30)] + [[m - 1] * d, [0] * d],
                     dtype=np.int64)
        for y in (x[::-1].copy(), x[7]):
            got = ring_mul_batch(x, y, fhead, m)
            want = ring_mul_batch(x.astype(object), y.astype(object), fhead.astype(object), m)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
            ys = y if y.ndim == 2 else [y] * len(x)
            assert got.tolist() == [_python_ring_product(a.tolist(), b.tolist(), fhead.tolist(), m)
                                    for a, b in zip(x, ys)]


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
        table = power_table(x[:1], [30], fhead, m)[0]
        assert table.dtype == object
        for k in (0, 1, 2, 17, 29):
            assert table[k].tolist() == list(ring_pow(ring.element(x[0].tolist()), k).coeffs)


def test_power_table_matches_ring_pow():
    # every row of each of a stack of elements, for lengths that end a doubling early, exactly, or past it, on
    # both dtypes; one length for all or each element its own, as make_plan passes each axis's g, where the rows
    # from an element's length to the longest stay 0 though it left the doubling in a product that ran past it
    rng = random.Random(5)
    for p, K, d, dtype in ((3, 8, 2, np.int64), (3, 32, 4, np.int64), (7, 32, 3, object), (3, 8, 1, object)):
        ring = _random_ring(rng, p, K, d)
        m = ring.ctx.pK
        fhead = np.array(ring.modulus[:-1], dtype=dtype)
        elts = [ring.element([rng.randrange(m) for _ in range(d)]) for _ in range(3)]
        for lengths in [[s] * 3 for s in (1, 2, 3, 5, 7, 104)] + [[8, 121, 13], [16, 9, 19]]:
            table = power_table(np.array([elt.coeffs for elt in elts], dtype=dtype), lengths, fhead, m)
            assert table.dtype == dtype and table.shape == (3, max(lengths), d)
            for elt, s, rows in zip(elts, lengths, table):
                assert rows[:s].tolist() == [list(ring_pow(elt, k).coeffs) for k in range(s)]
                assert not rows[s:].any()


def test_power_table_edges():
    fhead = np.array([2, 0], dtype=np.int64)
    one = power_table(np.array([[0, 1]], dtype=np.int64), [1], fhead, 81)
    assert one.tolist() == [[[1, 0]]]
    two = power_table(np.array([[5, 7], [0, 1]], dtype=np.int64), [2, 2], fhead, 81)
    assert two.tolist() == [[[1, 0], [5, 7]], [[1, 0], [0, 1]]]
    assert power_table(np.zeros((0, 2), dtype=np.int64), [], fhead, 81).shape == (0, 1, 2)


def _matmul_reference(a, b, m):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % m for col in zip(*b)] for row in a]


def _groups(N):
    """The stacked block index (N, 1, 1) that runs group u of the rows by map u alone."""
    return np.arange(N)[:, None, None]


@pytest.mark.parametrize("m", [2, 3**8, 2**18 + 1, 5**16, 7**16, 3**32, 2**51, 7**32, 19**32])
def test_matmul_mod_differential(m):
    dtype = np.int64 if supports_modulus(m) else object
    rng = random.Random(m % 1000)
    for rows, n, cols in ((7, 13, 5), (0, 4, 3), (1, 9, 2), (6, 1, 4), (40, 60, 30)):
        a = np.array([rng.randrange(m) for _ in range(rows * n)], dtype=dtype).reshape(rows, n)
        b = np.array([rng.randrange(m) for _ in range(n * cols)], dtype=dtype).reshape(n, cols)
        got = matmul_mod(a, b, m)
        assert got.dtype == dtype and got.shape == (rows, cols)
        assert got.tolist() == _matmul_reference(a, b, m)
    top = np.full((3, 50), m - 1, dtype=dtype)
    assert matmul_mod(top, top.T, m).tolist() == _matmul_reference(top, top.T, m)
    # stacked: a batch of (rows, n) matrices times a batch of (n, cols) maps, group u by map u of an (N, 1, 1) index
    for batch, rows, n, cols in ((4, 7, 13, 5), (3, 1, 30, 30), (1, 20, 2, 2)):
        a = np.array([rng.randrange(m) for _ in range(batch * rows * n)], dtype=dtype).reshape(batch, rows, n)
        b = np.array([rng.randrange(m) for _ in range(batch * n * cols)], dtype=dtype).reshape(batch, n, cols)
        got = block_matmul_mod(a, b, _groups(batch), m)
        assert got.dtype == dtype and got.shape == (batch, rows, cols)
        assert got.tolist() == [_matmul_reference(u, v, m) for u, v in zip(a, b)]


def test_split_limbs_round_trip():
    # count limbs of ceil(bits / count) bits: any count on int64, as rows are cut, and Lb, m's digit base, on
    # Python ints, as maps are folded
    for m in (2, 3**8, 7**16, 3**32, 2**51, 7**32, 19**32):
        values = [0, 1, m - 1, m // 3, (1 << 17) % m, ((1 << 51) - 1) % m]
        x = np.array(values, dtype=np.int64 if supports_modulus(m) else object)
        for count in range(1, limb_count(m) + 1) if supports_modulus(m) else [limb_count(m)]:
            width = -(-(m - 1).bit_length() // count)
            limbs = split_limbs(x, m, count)
            assert limbs.dtype == np.float64 and limbs.shape == (count, len(values))
            assert limbs.max() < 1 << width
            back = [sum(int(limb[i]) << (width * k) for k, limb in enumerate(limbs)) for i in range(len(values))]
            assert back == values
    assert [limb_count(m) for m in (2, 1 << 17, (1 << 17) + 1, 3**32, 7**16, 7**32)] == [1, 1, 1, 3, 2, 6]


def test_matmul_mod_float_bound():
    # 3^32: 2 limbs of 26 bits up to n = 511, then 3 of 17 bits, exact while 3*n*2^34 < 2^53
    m = 3**32
    n = contraction_limit(m)
    assert n == 174762 and 3 * n << 34 < 1 << 53 <= 3 * (n + 1) << 34
    assert [a_limb_count(m, k) for k in (1, 390, 511, 512, n)] == [2, 2, 2, 3, 3]
    a = np.full((1, n), m - 1, dtype=np.int64)
    assert matmul_mod(a, a.T, m).tolist() == [[n * (m - 1) ** 2 % m]]
    a = np.full((1, n + 1), m - 1, dtype=np.int64)
    with pytest.raises(OutOfRange):
        matmul_mod(a, a.T, m)
    # a stack of maps on the stacked block index is bounded by its own contraction axis, not by its batch size
    stacked = np.full((2, 1, n + 1), m - 1, dtype=np.int64)
    with pytest.raises(OutOfRange):
        block_matmul_mod(stacked, stacked.transpose(0, 2, 1), _groups(2), m)
    wide = np.full((n + 1, 1, 3), m - 1, dtype=np.int64)
    got = block_matmul_mod(wide, wide[:, 0, :, None], _groups(n + 1), m)
    assert got.tolist() == [[[3 * (m - 1) ** 2 % m]]] * (n + 1)


# products of more terms than this are checked for their width choice and refusal only, to keep memory small
BOUND_TERMS = 1 << 18


@pytest.mark.parametrize("m,dtype", [(m, dtype) for m in (3**8, 3**32, 2**51 - 1, 7**32, 19**32)
                                     for dtype in (np.int64, object) if dtype is object or supports_modulus(m)])
def test_matmul_mod_at_each_width_bound(m, dtype):
    # a cut into La limbs of width w = ceil(bits/La) holds exactly up to the largest n with La*n*2^(w+17) < 2^53:
    # all-(m-1) operands there, in one tile against the map folded for La, and through matmul_mod when La is
    # the kernel's own choice at n; at n+1 the tile refuses the folded map and matmul_mod takes more limbs or
    # refuses. Python ints run as digit arrays, on the same fold as int64 rows.
    bits, Lb = (m - 1).bit_length(), limb_count(m)
    digits = dtype is object
    out = to_digits(np.zeros((1, 1), dtype=object), m) if digits else np.empty((1, 1), dtype=dtype)
    for La in range(1, Lb + 1):
        w = -(-bits // La)
        n = ((1 << 53) - 1) // (La << (w + 17))
        assert La * n << (w + 17) < 1 << 53 <= La * (n + 1) << (w + 17)
        if 0 < n <= BOUND_TERMS:
            a, b = np.full((1, n), m - 1, dtype=dtype), np.full((n, 1), m - 1, dtype=dtype)
            want = [[n * (m - 1) ** 2 % m]]
            tile = _folded_matmul(to_digits(a, m), fold(b, m, La), m, out)
            assert from_digits(tile, m).tolist() == want
            if a_limb_count(m, n) == La:
                assert matmul_mod(a, b, m).tolist() == want
        a = np.broadcast_to(np.array(m - 1, dtype=dtype), (1, n + 1))
        with pytest.raises(OutOfRange):
            _folded_matmul(a, np.broadcast_to(np.zeros(()), (La, n + 1, Lb, 1)), m, out)
        if n + 1 > contraction_limit(m):
            with pytest.raises(OutOfRange):
                matmul_mod(a, a.T, m)
        elif a_limb_count(m, n) == La:
            assert a_limb_count(m, n + 1) > La


def _wide_digit_bounds(m):
    """{La: largest n with La n 2^(w + wb) < 2^53} for a cut into La limbs of width w = ceil(bits / La) against m's
    digits of wb > 17 bits, La from 1 to the fewest limbs from Lb on whose n is at least that of the cut into limbs
    and digits of 17 bits at most."""
    bits, Lb = (m - 1).bit_length(), limb_count(m)
    wb = -(-bits // Lb)
    narrow = -(-bits // 17)
    longest = ((1 << 53) - 1) // (narrow << (-(-bits // narrow) + 17))
    bounds, La = {}, 1
    while La <= Lb or bounds[La - 1] < longest:
        bounds[La] = ((1 << 53) - 1) // (La << (-(-bits // La) + wb))
        La += 1
    return bounds


@pytest.mark.parametrize("m,dtype", [(m, dtype) for m in ((1 << 17) + 1, 3**14, 5**16, 7**16, 3**29)
                                     for dtype in (np.int64, object)])
def test_matmul_mod_at_wide_digit_bounds(m, dtype):
    # int64 moduli of 18-23 and 35-46 bits take digits wider than 17 bits, WIDE_DIGIT_BITS at most (7^16: 2 of 23,
    # where 17 bits took 3), and a's limbs run past Lb, so no contraction is shorter than with 17-bit digits. At
    # each La's bound, all-(m-1) operands in one tile against the map folded for La, and through matmul_mod when La
    # is the kernel's own choice at n, come out exact; at n+1 the tile refuses the folded map, and past the last
    # bound matmul_mod refuses. Python ints run as digit arrays recut into La limbs, a digit across up to three.
    bits, Lb = (m - 1).bit_length(), limb_count(m)
    assert Lb == -(-bits // kernels.WIDE_DIGIT_BITS) and -(-bits // Lb) > 17
    bounds = _wide_digit_bounds(m)
    assert max(bounds) > Lb and contraction_limit(m) == bounds[max(bounds)] == max(bounds.values())
    out = to_digits(np.zeros((1, 1), dtype=object), m) if dtype is object else np.empty((1, 1), dtype=dtype)
    for La, n in bounds.items():
        assert contraction_limit(m, La) == n
        if 0 < n <= BOUND_TERMS:
            a, b = np.full((1, n), m - 1, dtype=dtype), np.full((n, 1), m - 1, dtype=dtype)
            want = [[n * (m - 1) ** 2 % m]]
            assert from_digits(_folded_matmul(to_digits(a, m), fold(b, m, La), m, out), m).tolist() == want
            if a_limb_count(m, n) == La:
                assert matmul_mod(a, b, m).tolist() == want
        a = np.broadcast_to(np.array(m - 1, dtype=dtype), (1, n + 1))
        with pytest.raises(OutOfRange):
            _folded_matmul(a, np.broadcast_to(np.zeros(()), (La, n + 1, Lb, 1)), m, out)
    past = np.broadcast_to(np.array(m - 1, dtype=dtype), (1, contraction_limit(m) + 1))
    with pytest.raises(OutOfRange):
        matmul_mod(past, past.T, m)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_matmul_mod_7_16_contractions(dtype):
    # 7^16 on 2 x 2 limb planes up to 63 terms, then more limbs of a: 64 and 114 terms (the folded end stages of its
    # d = 6 plans) and 10^4 run exactly in one tile, and 699,050, the longest contraction of 17-bit digits, is
    # still accepted, on 6 limbs of 8 bits; one term more is refused
    m = 7**16
    assert limb_count(m) == 2 and contraction_limit(m) == 699050
    assert [a_limb_count(m, n) for n in (1, 63, 64, 114, 10**4, 699050)] == [2, 2, 3, 3, 3, 6]
    rng = random.Random(16)
    for n in (63, 64, 114, 10**4):
        top = np.full((2, n), m - 1, dtype=dtype)
        top[1] = [rng.randrange(m) for _ in range(n)]
        assert matmul_mod(top, top.T, m).tolist() == _matmul_reference(top, top.T, m)
    with pytest.raises(OutOfRange):
        a_limb_count(m, 699051)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_map_block_matches_residue_block(data):
    # the block product by N prepared maps at an arbitrary (J, C) index equals the integer product mod m by the
    # residue matrix it stands for, and its map tile, assembled from the folded maps, is the fold of that matrix
    m = data.draw(st.sampled_from([3**8, 7**16, 3**32, 2**51 - 1, 7**32, 19**32]))
    dtype = data.draw(st.sampled_from([np.int64, object] if supports_modulus(m) else [object]))
    N, n, k, rows = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 5), (1, 4), (1, 4), (0, 6)))
    J, C = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    index = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=J * C, max_size=J * C))).reshape(J, C)
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def rand(*shape):
        return np.array([rng.randrange(m) for _ in range(int(np.prod(shape)))], dtype=dtype).reshape(shape)

    maps, a = rand(N, n, k), rand(rows, J * n)
    residue = maps[index].transpose(0, 2, 1, 3).reshape(J * n, C * k)
    La = a_limb_count(m, J * n)
    prepared = prepare(maps, m, J)
    assert prepared.folded.shape[0] == La
    assert np.array_equal(_map_block(prepared, index), fold(residue, m, La))
    got = block_matmul_mod(a, prepared, index, m)
    assert got.dtype == dtype
    assert got.tolist() == matmul_mod(a, residue, m).tolist() == _matmul_reference(a, residue, m)


def test_prepared_maps_are_not_folded_again(monkeypatch):
    # prepared maps pass through prepare and the product as they are, for any number of block rows, one index or a
    # stacked one, and run int64 rows and Python-int rows on the same block, rather than fold again per call
    m = 3**32
    maps = np.array([[[1, 2], [3, 4]]], dtype=np.int64)
    a = np.array([[5, 6]], dtype=np.int64)
    block = prepare(maps, m, 1)
    assert prepare(block, m, 1) is block and prepare(block, m, 3) is block
    assert block.j_step == 1
    monkeypatch.setattr(kernels, "fold", None)
    want = _matmul_reference(a, maps[0], m)
    twice = _matmul_reference(np.hstack([a, a]), np.vstack([maps[0], maps[0]]), m)
    for rows in (a, a.astype(object)):
        got = block_matmul_mod(rows, block, np.zeros((1, 1), int), m)
        assert got.dtype == rows.dtype and got.tolist() == want
        assert block_matmul_mod(np.stack([rows, rows]), block, np.zeros((2, 1, 1), int), m).tolist() == [want] * 2
        assert block_matmul_mod(np.hstack([rows, rows]), block, np.zeros((2, 1), int), m).tolist() == twice


@pytest.mark.parametrize("m, lengths", [(7**32, {1: 3, 2: 4, 114: 5, 2913: 6}), (19**32, {1: 6, 16: 7, 107: 8})])
def test_digit_row_folds_match_python_ints(m, lengths):
    # Python-int maps past 2^51, where every row is a digit array, at a contraction length n where the kernel picks
    # each La: entry (i, c, j, l) is digit j of 2^(wa i) b[c, l] mod m, wa = ceil(bits / La) and digits of
    # ceil(bits / Lb) bits
    rng = random.Random(m)
    bits = (m - 1).bit_length()
    Lb = -(-bits // 17)
    w = -(-bits // Lb)
    for n, La in lengths.items():
        maps = np.array([[[rng.randrange(m) for _ in range(2)] for _ in range(n)]], dtype=object)
        maps[0, 0] = m - 1
        folded = prepare(maps, m, 1).folded
        wa = -(-bits // La)
        want = [[[[(pow(2, wa * i, m) * int(x) % m) >> (w * j) & ((1 << w) - 1) for x in row] for j in range(Lb)]
                 for row in maps[0]] for i in range(La)]
        assert folded.shape == (La, n * Lb, 2)
        assert folded.reshape(La, n, Lb, 2).tolist() == want


@pytest.mark.parametrize("m", [3**8, 7**16, 3**32, 2**51 - 1, 7**32])
def test_one_fold_serves_both_row_forms(m):
    # maps prepared from int64 and from Python ints fold into the same array, entry (i, c, j, l) digit j of
    # 2^(wa i) b[c, l] mod m in to_digits' base, and one PreparedMaps multiplies int64 rows and Python-int rows to the
    # Python-int product, by one of its maps and on a stacked block index; past 2^51 on Python ints only
    rng = random.Random(m % 983)
    N, rows, n, k = 3, 5, 7, 4
    values = [[[rng.randrange(m) for _ in range(k)] for _ in range(n)] for _ in range(N)]
    values[0][0] = [m - 1] * k
    dtypes = (np.int64, object) if supports_modulus(m) else (object,)
    prepared = [prepare(np.array(values, dtype=dtype), m, 1) for dtype in dtypes]
    folded = prepared[0].folded
    assert all(np.array_equal(other.folded, folded) for other in prepared)
    La, Lb = folded.shape[0], limb_count(m)
    wa = -(-(m - 1).bit_length() // La)
    for i in range(La):
        shifted = to_digits(np.array(values, dtype=object) * pow(2, wa * i, m) % m, m)["digits"]
        assert np.array_equal(folded[i].reshape(N, n, Lb, k), shifted.transpose(0, 1, 3, 2))
    a = [[[rng.randrange(m) for _ in range(n)] for _ in range(rows)] for _ in range(N)]
    a[0][0] = [m - 1] * n
    for dtype in dtypes:
        stack = np.array(a, dtype=dtype)
        got = block_matmul_mod(stack[1], prepared[0], np.ones((1, 1), dtype=np.intp), m)
        assert got.dtype == dtype and got.tolist() == _matmul_reference(a[1], values[1], m)
        got = block_matmul_mod(stack, prepared[0], _groups(N), m)
        assert got.dtype == dtype and got.tolist() == [_matmul_reference(u, v, m) for u, v in zip(a, values)]


@pytest.mark.parametrize("m", [3**8, 2**51 - 1, 7**32])
def test_matmul_mod_tiles(monkeypatch, m):
    # a 16-element tile cuts every product below into several tiles, the last one short
    import padicfft.kernels as kernels_mod

    monkeypatch.setattr(kernels_mod, "TILE", 16)
    tiles = []
    real = kernels_mod._folded_matmul
    monkeypatch.setattr(kernels_mod, "_folded_matmul", lambda a, *rest: tiles.append(a.shape[:-1]) or real(a, *rest))
    dtype = np.int64 if supports_modulus(m) else object
    rng = random.Random(m % 997)

    def rand(*shape):
        return np.array([rng.randrange(m) for _ in range(int(np.prod(shape)))], dtype=dtype).reshape(shape)

    def check(a, b, want, sizes, index=None):
        # a tile's size: its rows, for one map (a block product of one group), or its (groups, rows) on a stacked index
        tiles.clear()
        got = matmul_mod(a, b, m) if index is None else block_matmul_mod(a, b, index, m)
        assert got.dtype == dtype and got.tolist() == want
        assert [shape[1] if index is None else shape for shape in tiles] == sizes

    # 2-D b: row tiles of 16 // max(La n, Lb k) rows, at least one; La = 1, 2, 3 at n = 1 and Lb = 1, 3, 6
    small = m == 3**8
    for rows, n, cols, sizes in ((11, 5, 3, [3, 3, 3, 2] if small else [1] * 11), (11, 20, 4, [1] * 11),
                                 (7, 2, 30, [1] * 7),
                                 (11, 1, 1, {3**8: [11], 2**51 - 1: [5, 5, 1], 7**32: [2] * 5 + [1]}[m])):
        a, b = rand(rows, n), rand(n, cols)
        check(a, b, _matmul_reference(a, b, m), sizes)
    # a non-contiguous column slice of a, as the butterflies pass their contraction tiles
    wide, b = rand(9, 12), rand(5, 3)
    check(wide[:, 4:9], b, _matmul_reference(wide[:, 4:9], b, m), [3, 3, 3] if small else [1] * 9)
    # a stack of maps on an (N, 1, 1) index: tiles of whole groups, min(16 // (rows max(La n, Lb k)),
    # 32 // (La n Lb k)) of them (the map tile within 2 TILE), or one group's rows in tiles of 16 // max(La n, Lb k)
    # when a group alone is larger
    for batch, rows, n, cols, sizes in ((7, 1, 3, 3, [(3, 1), (3, 1), (1, 1)]), (5, 2, 3, 3, [(2, 2), (2, 2), (1, 2)]),
                                        (3, 4, 5, 5, [(1, 3), (1, 1)] * 3)):
        a, b = rand(batch, rows, n), rand(batch, n, cols)
        check(a, b, [_matmul_reference(u, v, m) for u, v in zip(a, b)], sizes if small else [(1, 1)] * (batch * rows),
              _groups(batch))
    # a broadcast a, one low table against a batch of maps
    low, maps = rand(3, 4), rand(7, 4, 4)
    check(np.broadcast_to(low, (7, 3, 4)), maps, [_matmul_reference(low, v, m) for v in maps],
          [(1, 3)] * 7 if small else [(1, 1)] * 21, _groups(7))


@pytest.mark.parametrize("m", [3**8, 2**51 - 1, 7**32])
def test_stacked_block_index_tiles(monkeypatch, m):
    # a stacked index (N, J, C) runs group u of the rows (N, rows, J n) by the block matrix of index[u]: against the
    # per-group Python-int product by that matrix, with a 16-element tile, so that rows of one group split over
    # several row tiles, one-row groups pack into one tile, and J n past the tile splits the contraction into tiles
    # of j_step < J blocks, on a non-contiguous column slice of a wider array
    import padicfft.kernels as kernels_mod

    monkeypatch.setattr(kernels_mod, "TILE", 16)
    log = []
    real = kernels_mod._map_block, kernels_mod._folded_matmul
    monkeypatch.setattr(kernels_mod, "_map_block", lambda prepared, index: log.append(("map", index.shape))
                        or real[0](prepared, index))
    monkeypatch.setattr(kernels_mod, "_folded_matmul", lambda a, *rest: log.append(("tile", a.shape[:-1]))
                        or real[1](a, *rest))
    dtype = np.int64 if supports_modulus(m) else object
    rng = random.Random(m % 991)

    def rand(*shape):
        return np.array([rng.randrange(m) for _ in range(int(np.prod(shape)))], dtype=dtype).reshape(shape)

    for N, rows, J, C, n, k in ((3, 11, 2, 2, 2, 2), (6, 1, 1, 1, 1, 1), (2, 3, 5, 3, 8, 1)):
        maps = rand(4, n, k)
        index = np.array([rng.randrange(4) for _ in range(N * J * C)]).reshape(N, J, C)
        a = rand(N, rows, J * n + 3)[..., 1 : 1 + J * n]
        log.clear()
        got = block_matmul_mod(a, maps, index, m)
        assert got.dtype == dtype and got.shape == (N, rows, C * k)
        for u in range(N):
            block = maps[index[u]].transpose(0, 2, 1, 3).reshape(J * n, C * k)
            assert got[u].tolist() == _matmul_reference(a[u], block, m)
        # map tiles, each with the row tiles (groups, rows) that run on it: together they cover every group's
        # blocks once, and each map tile's row tiles cover all rows of the groups it gathered
        blocks = []
        for kind, shape in log:
            if kind == "map":
                blocks.append((shape, []))
            else:
                blocks[-1][1].append(shape)
        assert sum(G * Jt * Ct for (G, Jt, Ct), _ in blocks) == N * J * C
        assert all(sum(g * r for g, r in tiles) == G * rows and {g for g, _ in tiles} == {G}
                   for (G, *_), tiles in blocks)
        if rows == 11:
            assert all(G == 1 and len(tiles) > 1 for (G, *_), tiles in blocks)
        if rows == 1:  # one-row groups share a tile, up to its rows; at 7^32 two groups' blocks, of 3 x 6 limbs
            # each, would gather past 2 TILE, so each runs on its own
            assert [G for (G, *_), _ in blocks] == {3**8: [6], 2**51 - 1: [5, 1], 7**32: [1] * 6}[m]
        if J == 5:
            assert all(Jt < J for (_, Jt, _), _ in blocks)


# moduli above 2^51, and 3^8 and 7^16 (two digits of 23 bits), which fit int64, run on Python ints all the same
OBJECT_MODULI = [7**32, 3**64, 5**55, 3**8, 7**16]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_object_products_match_python_ints(data):
    # matmul_mod and block_matmul_mod (one index or a stacked one) on Python ints, which cross into digit arrays and back,
    # against the Python-int (a @ b) % m, with random, all-(m-1) or all-0 rows and maps
    m = data.draw(st.sampled_from(OBJECT_MODULI))
    rows, n, k, N = (data.draw(st.integers(lo, hi)) for lo, hi in ((0, 7), (1, 40), (1, 9), (1, 4)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def operand(*shape):
        fill = data.draw(st.sampled_from(["random", "top", "zero"]))
        values = [rng.randrange(m) if fill == "random" else (m - 1 if fill == "top" else 0)
                  for _ in range(int(np.prod(shape)))]
        return np.array(values, dtype=object).reshape(shape)

    a, b = operand(rows, n), operand(n, k)
    got = matmul_mod(a, b, m)
    assert got.dtype == object and got.shape == (rows, k)
    assert got.tolist() == ((a @ b) % m).tolist()
    stack_a, stack_b = operand(N, rows, n), operand(N, n, k)
    got = block_matmul_mod(stack_a, stack_b, _groups(N), m)
    assert got.tolist() == [((u @ v) % m).tolist() for u, v in zip(stack_a, stack_b)]
    J, C = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    index = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=J * C, max_size=J * C))).reshape(J, C)
    rows_a = operand(rows, J * n)
    residue = stack_b[index].transpose(0, 2, 1, 3).reshape(J * n, C * k)
    got = block_matmul_mod(rows_a, stack_b, index, m)
    assert got.dtype == object and got.tolist() == ((rows_a @ residue) % m).tolist()


@pytest.mark.parametrize("m", OBJECT_MODULI)
def test_object_products_at_contraction_limit(m):
    # all-(m-1) Python ints at n = contraction_limit(m), exact, and one past it, refused before any conversion;
    # the exact product runs at 3^64 only (n = 87381), since its folded map holds Lb^2 n floats
    n = contraction_limit(m)
    if m == 3**64:
        top = np.full((1, n), m - 1, dtype=object)
        assert matmul_mod(top, top.T, m).tolist() == [[n * (m - 1) ** 2 % m]]
    past = np.broadcast_to(np.array(m - 1, dtype=object), (1, n + 1))
    with pytest.raises(OutOfRange):
        matmul_mod(past, past.T, m)
    with pytest.raises(OutOfRange):
        block_matmul_mod(past, past.T[None], np.zeros((1, 1), dtype=np.intp), m)


def test_precision_limit_is_the_float64_bound():
    # p^K fits exactly while its limbs still contract one term exactly, decided from K log2 p away from the bound
    # and from p^K within a bit of it; a far wider p^K is refused without being built, and PadicContext refuses it
    assert contraction_limit(1 << MODULUS_BITS) == 1 and contraction_limit(2 << MODULUS_BITS) == 0
    assert precision_fits(2, MODULUS_BITS) and not precision_fits(2, MODULUS_BITS + 1)
    assert precision_fits(3, 32) and precision_fits(7, 10**6) and not precision_fits(3, 10**11)
    with pytest.raises(OutOfRange):
        PadicContext(3, 10**11)


def test_digit_arrays_round_trip():
    # to_digits keeps the shape and leaves int64 arrays alone; its digits are canonical and from_digits inverts it
    for m in OBJECT_MODULI + [2, 3]:
        Lb = limb_count(m)
        width = -(-(m - 1).bit_length() // Lb)
        values = np.array([0, 1, m - 1, m // 3, (1 << width) % m, ((1 << 63) - 1) % m], dtype=object).reshape(2, 3)
        digits = to_digits(values, m)
        assert digits.shape == (2, 3) and digits["digits"].shape == (2, 3, Lb)
        assert digits["digits"].min() >= 0 and digits["digits"].max() < 1 << width
        assert from_digits(digits, m).tolist() == values.tolist()
        assert from_digits(digits.T[:, ::-1], m).tolist() == values.T[:, ::-1].tolist()
    ints = np.arange(6, dtype=np.int64)
    assert to_digits(ints, 3**8) is ints and from_digits(ints, 3**8) is ints


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduce_matches_python_ints(data):
    # the digit reduction on random or extreme weight classes, below a small bound (one correction) and up to
    # 2^53 (two), against Python ints: canonical digits of sum_j c_j B^j mod m
    m = data.draw(st.sampled_from(OBJECT_MODULI + [2, 3, 2**51 + 1, 19**32]))
    Lb, bits = limb_count(m), data.draw(st.sampled_from([20, 40, 45, 53]))
    bound = 1 << bits
    width = -(-(m - 1).bit_length() // Lb)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    columns = data.draw(st.integers(1, 30))
    fill = data.draw(st.sampled_from(["random", "top", "zero"]))
    c = np.array([[rng.randrange(bound) if fill == "random" else (bound - 1 if fill == "top" else 0)
                   for _ in range(columns)] for _ in range(Lb)], dtype=np.float64)
    want = [sum(int(c[j, u]) << (width * j) for j in range(Lb)) % m for u in range(columns)]
    digits = kernels._reduce(c.copy(), m, bound)
    assert digits.min() >= 0 and digits.max() < 1 << width
    assert [sum(int(digits[j, u]) << (width * j) for j in range(Lb)) for u in range(columns)] == want


def test_reduce_second_quotient():
    # classes near 2^53 mod a small m, where V / m is near 2^53 too: the first quotient misses by up to a few units
    # either way, which the second quotient corrects
    rng = np.random.default_rng(7)
    for m in (3, 5, 7, 11, 97, 6561):
        Lb = limb_count(m)
        c = rng.integers(1 << 52, 1 << 53, size=(Lb, 4000)).astype(np.float64)
        digits = kernels._reduce(c.copy(), m, 1 << 53)
        width = -(-(m - 1).bit_length() // Lb)
        got = [sum(int(digits[j, u]) << (width * j) for j in range(Lb)) for u in range(c.shape[1])]
        assert got == [sum(int(c[j, u]) << (width * j) for j in range(Lb)) % m for u in range(c.shape[1])]


def _digit_vector(plan, seed):
    rng = random.Random(seed)
    m = plan.ring.ctx.pK
    return np.array([[rng.randrange(m) for _ in range(plan.ring.degree)] for _ in range(plan.s)], dtype=object)


def test_warm_digit_transforms_fault_in_no_temporaries():
    # every temporary of a digit tile comes from this thread's scratch, so once warm, ten 7^32 s=2736 dfts fault in
    # almost no fresh pages (about 34,000 when each tile allocated its own); counted around the calls only
    resource = pytest.importorskip("resource")

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    probe = mmap.mmap(-1, 256 * mmap.PAGESIZE)
    before = faults()
    for i in range(0, len(probe), mmap.PAGESIZE):
        probe[i] = 1
    counted = faults() - before >= 128
    probe.close()
    if not counted:
        pytest.skip("this platform does not count minor page faults")
    plan = build_pipeline(7, 32, s=2736, seed=2).plan
    x = _digit_vector(plan, 32)
    for _ in range(3):
        dft(x, plan)
    before = faults()
    for _ in range(10):
        dft(x, plan)
    assert faults() - before < 1000


def test_scratch_stays_within_its_bound():
    # the module docstring's bound, 16 arrays of 2 TILE float64s while no block row of a tile exceeds 2 TILE
    # elements, holds on a fresh thread's scratch after digit transforms at two plan sizes; the smaller plan reuses
    # the larger one's buffers and grows none
    plans = [build_pipeline(7, 32, s=s, seed=2).plan for s in (2736, 456)]
    inputs = [_digit_vector(plan, 7) for plan in plans]
    seen = []

    def run():
        for plan, x in zip(plans, inputs):
            idft(dft(x, plan), plan)
            seen.append({role: buffer.nbytes for role, buffer in kernels._scratch.buffers.items()})

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(seen) == 2
    assert seen[0] and seen[1] == seen[0]
    assert sum(seen[0].values()) <= 16 * 2 * kernels.TILE * 8
