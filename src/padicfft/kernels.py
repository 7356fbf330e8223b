"""Vectorized exact arithmetic mod m on numpy arrays.

Two dtypes, one set of functions. On int64 arrays (m up to 2^51) the
quotient of a*b by m is estimated in double precision, which is off by at
most 2 for m below 2^51; the residual a*b - q*m is then computed in
wrapping uint64 arithmetic, reinterpreted as signed (it lies in (-2m, 3m),
far inside int64), and snapped into [0, m) with one mod. On object arrays
of Python ints, for any m, the product is plain (a*b) % m.

matmul_mod multiplies matrices mod m on float64 BLAS, exactly. Both
operands are split into L limbs of 17 bits, L = ceil(bits(m-1)/17), and
each limb pair is one float64 matmul. Every entry of a weight class (the
limb pairs i+j = w) is an integer below L*n*2^34 for contraction length n,
so it is exact while L*n*2^34 < 2^53; matmul_mod checks that bound and
raises OutOfRange beyond it. The class sums are recombined mod m in
integers, so no rounding reaches any result.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import OutOfRange

MODULUS_LIMIT = 1 << 51
LIMB_BITS = 17
LIMB_MASK = (1 << LIMB_BITS) - 1
WORD_MASK = (1 << 3 * LIMB_BITS) - 1
FLOAT_EXACT = 1 << 53


def supports_modulus(m: int) -> bool:
    return 2 <= m <= MODULUS_LIMIT


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


def limb_count(m: int) -> int:
    """Number of 17-bit limbs that hold every residue mod m."""
    return max(1, -(-(m - 1).bit_length() // LIMB_BITS))


def contraction_limit(m: int) -> int:
    """Largest contraction length n with L*n*2^34 < 2^53, so matmul_mod is exact mod m."""
    return ((FLOAT_EXACT >> 2 * LIMB_BITS) - 1) // limb_count(m)


def split_limbs(x, m: int):
    """float64 array of shape (L,) + x.shape: the 17-bit limbs of residues mod m, lowest first.

    Python ints are first cut into int64 words of three limbs, so only those
    cuts touch Python ints.
    """
    x = np.asarray(x, dtype=_dtype(x))
    out = np.empty((limb_count(m),) + x.shape)
    for i in range(out.shape[0]):
        if i % 3 == 0:
            word = ((x >> (LIMB_BITS * i)) & WORD_MASK).astype(np.int64)
        out[i] = (word >> (LIMB_BITS * (i % 3))) & LIMB_MASK
    return out


def matmul_mod(a, b_limbs, m: int):
    """Exact (a @ b) % m for a of shape (..., rows, n) in [0, m) and b_limbs = split_limbs(b, m).

    b has shape (n, k) or a stack (..., n, k) that broadcasts against a like
    numpy's @, so one call multiplies a batch of matrices by a batch of
    maps; n, the contraction length the float64 bound applies to, is
    b_limbs.shape[-2]. The result has a's dtype. Weight class w sums the
    limb products a_i @ b_j with i + j = w. The classes are carried into
    17-bit digits and packed three to an int64 word, and the words are
    recombined mod m: with mul_mod on int64, with shifts of Python ints on
    object arrays.
    """
    L, n = b_limbs.shape[0], b_limbs.shape[-2]
    if L != limb_count(m):
        raise OutOfRange(f"{L} limbs do not hold residues mod {m}")
    if n > contraction_limit(m):
        raise OutOfRange(f"contraction length {n} with {L} limbs exceeds the float64 bound")
    a_limbs = split_limbs(a, m)
    words, carry = [], 0
    for w in range(2 * L - 1):
        part = sum(a_limbs[i] @ b_limbs[w - i] for i in range(max(0, w - L + 1), min(w, L - 1) + 1))
        value = part.astype(np.int64) + carry
        carry = value >> LIMB_BITS
        digit = (value & LIMB_MASK) << (LIMB_BITS * (w % 3))
        if w % 3:
            words[-1] |= digit
        else:
            words.append(digit)
    terms = [(word, 3 * LIMB_BITS * k) for k, word in enumerate(words)] + [(carry, LIMB_BITS * (2 * L - 1))]
    if _dtype(a) is not object:
        return sum(mul_mod(word % m, pow(2, shift, m), m) for word, shift in terms) % m
    # Horner from the top word, in place, so one array of Python ints is alive at a time
    acc, top = terms[-1][0].astype(object), terms[-1][1]
    for word, shift in reversed(terms[:-1]):
        acc <<= top - shift
        acc += word
        top = shift
    acc %= m
    return acc
