"""Vectorized exact arithmetic mod m on numpy arrays.

Two dtypes, one set of functions. On int64 arrays (m up to 2^51) the
quotient of a*b by m is estimated in double precision, which is off by at
most 2 for m below 2^51; the residual a*b - q*m is then computed in
wrapping uint64 arithmetic, reinterpreted as signed (it lies in (-2m, 3m),
far inside int64), and snapped into [0, m) with one mod. On object arrays
of Python ints, for any m, the product is plain (a*b) % m.

matmul_mod multiplies matrices mod m on float64 BLAS, exactly, and owns
the limb format and the tiling. Both operands are split into L limbs of
17 bits, L = ceil(bits(m-1)/17), and each limb pair is one float64 matmul.
Every entry of a weight class (the limb pairs i+j = w) is an integer below
L*n*2^34 for contraction length n, so it is exact while L*n*2^34 < 2^53;
matmul_mod checks that bound and raises OutOfRange beyond it. The class
sums are recombined mod m in integers, so no rounding reaches any result.

multiplication_maps turns fixed elements of (Z/m)[X]/F into the d x d
matrices of their ring products, so a batch of products is one matmul_mod;
power_table doubles on them, one matmul_mod per doubling.
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
# Elements per matmul_mod tile: bounds every temporary a product makes.
TILE = 1 << 15


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


def multiplication_maps(powers, fhead, m: int):
    """(r, d, d) array: row a of map u holds X^a * powers[u] mod F, so x @ maps[u] is x * powers[u]."""
    r, d = powers.shape
    maps = np.empty((r, d, d), dtype=powers.dtype)
    row = powers
    maps[:, 0] = row
    for a in range(1, d):
        shifted = np.zeros_like(row)
        shifted[:, 1:] = row[:, :-1]
        row = (shifted - mul_mod(row[:, -1:], fhead, m)) % m
        maps[:, a] = row
    return maps


def power_table(elt, s: int, fhead, m: int):
    """Array of shape (s, d) and elt's dtype: rows elt^0 .. elt^(s-1) for elt in [0, m)^d, by doubling.

    With rows [0, h) filled and step = elt^h, one matmul_mod of the rows
    [table[:take]; step] by step's multiplication map fills rows [h, h + take)
    and leaves elt^(2h) in its last row.
    """
    elt = np.asarray(elt, dtype=_dtype(elt))
    table = np.zeros((s, elt.shape[0]), dtype=elt.dtype)
    table[0, 0] = 1
    step, h = elt, 1
    while h < s:
        take = min(h, s - h)
        out = matmul_mod(np.vstack([table[:take], step]), multiplication_maps(step[None], fhead, m)[0], m)
        table[h : h + take], step = out[:take], out[take]
        h += take
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


def matmul_mod(a, b, m: int):
    """Exact (a @ b) % m for a and b in [0, m); the result has a's dtype.

    b is one (n, k) map for a of shape (rows, n), split into limbs once, with
    a cut into tiles of TILE // max(n, k) rows. Or b is a stack of maps
    (N, n, k) for a of shape (N, rows, n), entry by entry, cut with a into
    tiles of whole entries, at most TILE elements of a unless one entry alone
    holds more; each tile's maps are split on their own.
    """
    n, k = b.shape[-2:]
    if n > contraction_limit(m):
        raise OutOfRange(f"contraction length {n} with {limb_count(m)} limbs exceeds the float64 bound")
    out = np.empty(a.shape[:-1] + (k,), dtype=_dtype(a))
    if b.ndim == 2:
        step, b_limbs = max(1, TILE // max(1, n, k)), split_limbs(b, m)
    else:
        step = max(1, TILE // max(1, a.shape[1] * n))
    for u in range(0, len(a), step):
        tile_limbs = b_limbs if b.ndim == 2 else split_limbs(b[u : u + step], m)
        out[u : u + step] = _limb_matmul(a[u : u + step], tile_limbs, m)
    return out


def _limb_matmul(a, b_limbs, m: int):
    """One tile of matmul_mod, b given as split_limbs(b, m).

    Weight class w sums the limb products a_i @ b_j with i + j = w. The
    classes are carried into 17-bit digits packed three to an int64 word,
    and the words are recombined mod m: by mul_mod on int64, by shifts of
    Python ints on object arrays.
    """
    L = b_limbs.shape[0]
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
