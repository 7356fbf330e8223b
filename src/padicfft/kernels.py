"""Vectorized exact arithmetic mod m on numpy arrays.

Two dtypes, one set of functions. On int64 arrays (m up to 2^51) the
quotient of a*b by m is estimated in double precision, which is off by at
most 2 for m below 2^51; the residual a*b - q*m is then computed in
wrapping uint64 arithmetic, reinterpreted as signed (it lies in (-2m, 3m),
far inside int64), and snapped into [0, m) with one mod. On object arrays
of Python ints, for any m, the product is plain (a*b) % m. Everything here
is plain array math with no rounding anywhere in the result path.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import OutOfRange

MODULUS_LIMIT = 1 << 51


def supports_modulus(m: int) -> bool:
    return 2 <= m <= MODULUS_LIMIT


def int64_fits(m: int, terms: int) -> bool:
    """True when int64 kernels are exact mod m and a sum of `terms` residues stays below 2^63."""
    return supports_modulus(m) and terms * (m - 1) < 1 << 63


def _dtype(*arrays):
    """object when any operand holds Python ints, else int64."""
    return object if any(getattr(a, "dtype", None) == object for a in arrays) else np.int64


def mul_mod(a, b, m: int):
    """Exact elementwise (a*b) % m for canonical inputs in [0, m)."""
    if _dtype(a, b) is object:
        return np.asarray(a, dtype=object) * np.asarray(b, dtype=object) % m
    if not supports_modulus(m):
        raise OutOfRange(f"modulus {m} is outside [2, 2^51]")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    with np.errstate(over="ignore"):
        q = (a.astype(np.float64) * b.astype(np.float64) * (1.0 / m)).astype(np.uint64)
        r = np.asarray(a.astype(np.uint64) * b.astype(np.uint64) - q * np.uint64(m))
    return np.mod(r.view(np.int64), m)


def ring_mul_batch(x, y, fhead, m: int):
    """Row-wise product of coefficient arrays in (Z/m)[X]/F.

    x has shape (..., d) and supplies the output shape; y broadcasts against
    it. fhead is F without the monic leading 1. On int64, column
    accumulation stays below d*m <= 2^62 before the single mod; Python ints
    need no mod before it at all. Then synthetic division by F clears one
    top coefficient at a time.
    """
    dtype = _dtype(x, y)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    d = x.shape[-1]
    if d == 1:
        return mul_mod(x, y, m)
    if dtype is object:
        mul = np.multiply
    elif d * (m - 1) >= 1 << 62:
        raise OutOfRange(f"degree {d} with modulus {m} overflows the lazy accumulator")
    else:
        mul = functools.partial(mul_mod, m=m)
    conv = np.zeros(x.shape[:-1] + (2 * d - 1,), dtype=dtype)
    for j in range(d):
        conv[..., j : j + d] += mul(x[..., j : j + 1], y)
    conv %= m
    fhead = np.asarray(fhead, dtype=dtype)
    for k in range(2 * d - 2, d - 1, -1):
        top = conv[..., k : k + 1]
        conv[..., k - d : k] = (conv[..., k - d : k] - mul(top, fhead)) % m
    return conv[..., :d]


def power_table(elt, s: int, fhead, m: int):
    """Array of shape (s, d) and elt's dtype: rows elt^0 .. elt^(s-1), one ring product per row."""
    elt = np.asarray(elt, dtype=_dtype(elt))
    d = elt.shape[0]
    table = np.zeros((s, d), dtype=elt.dtype)
    table[0, 0] = 1 % m
    if s == 1:
        return table
    table[1] = np.mod(elt, m)
    have = 2
    while have < s:
        table[have] = ring_mul_batch(table[have - 1 : have], table[1], fhead, m)[0]
        take = min(have - 1, s - have - 1)
        if take > 0:
            table[have + 1 : have + 1 + take] = ring_mul_batch(table[1 : 1 + take], table[have], fhead, m)
        have += 1 + take
    return table
