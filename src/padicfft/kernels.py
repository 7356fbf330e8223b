"""Vectorized exact arithmetic mod m on numpy arrays.

Two dtypes, one set of functions. On int64 arrays (m up to 2^51) the
quotient of a*b by m is estimated in double precision, which is off by at
most 2 for m below 2^51; the residual a*b - q*m is then computed in
wrapping uint64 arithmetic, reinterpreted as signed (it lies in (-2m, 3m),
far inside int64), and snapped into [0, m) with one mod. On object arrays
of Python ints, for any m, the product is plain (a*b) % m.

block_matmul_mod multiplies rows by a block matrix of fixed maps mod m on
float64 BLAS, exactly, and owns the limb format and the tiling; matmul_mod
is its 1 x 1 case, or runs a stack of maps entry by entry. Each folds the
fixed map b: B_i = 2^(w i) b mod m, cut into Lb = ceil(bits(m-1)/17) limbs
of 17 bits, for each of the La limbs of width w that a is cut into. One
matmul of [a_0 | ... | a_(La-1)] by those limbs gives Lb weight classes,
each entry a sum of La*n integers below 2^(w+17) for contraction length n,
so exact while La*n*2^(w+17) < 2^53: w is the widest width that keeps that
bound (at 3^32 and n <= 511, 2 limbs of 26 bits: 2 x 3 limb planes), which
is checked, with OutOfRange beyond it. The Lb classes are recombined mod m
in integers, so no rounding reaches any result.

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
FLOAT_EXACT = 1 << 53
# Elements per matmul_mod tile: bounds every temporary a product makes.
TILE = 1 << 16
# Largest degree whose ring_mul_batch products reduce mod F by elementwise passes: from d = 4 on, at
# s = 12584, one matmul_mod by X^d's map is cheaper despite its fixed cost of about 0.2 ms a call.
SCHOOLBOOK_DEGREE = 3


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
    need no mod before it at all. Up to SCHOOLBOOK_DEGREE the top d-1
    coefficients reduce one at a time, top first, by X^i = -X^(i-d) fhead;
    above it in one matmul_mod by X^d .. X^(2d-2) mod F, the top rows of
    X^d = -fhead's map.
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
    if d <= SCHOOLBOOK_DEGREE:
        for i in range(2 * d - 2, d - 1, -1):
            conv[..., i - d : i] = (conv[..., i - d : i] - mul(conv[..., i : i + 1], fhead)) % m
    else:
        reduce = multiplication_maps(-fhead[None] % m, fhead, m)[0, : d - 1]
        top = matmul_mod(conv[..., d:].reshape(-1, d - 1), reduce, m).reshape(conv.shape[:-1] + (d,))
        conv[..., :d] = (conv[..., :d] + top) % m
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
    """Lb, the number of 17-bit limbs that hold every residue mod m."""
    return max(1, -(-(m - 1).bit_length() // LIMB_BITS))


def _width(m: int, La: int) -> int:
    """Width of each of La limbs that hold every residue mod m."""
    return -(-(m - 1).bit_length() // La)


def a_limb_count(m: int, n: int) -> int:
    """La for contraction length n: the fewest limbs of a, so the widest, that keep the class sums exact."""
    for La in range(1, limb_count(m) + 1):
        if n <= contraction_limit(m, La):
            return La
    raise OutOfRange(f"contraction length {n} exceeds the float64 bound mod {m}")


def contraction_limit(m: int, La: int | None = None) -> int:
    """Largest n with La*n*2^(w+17) < 2^53, w = _width(m, La): by default La = Lb, the largest of all La."""
    La = La or limb_count(m)
    return (FLOAT_EXACT - 1) // (La << (_width(m, La) + LIMB_BITS))


def split_limbs(x, m: int, count: int | None = None):
    """float64 (..., count, n) for x (..., n): count limbs of width _width(m, count) of residues mod m, lowest first.

    By default limb_count(m) limbs of 17 bits. Python ints are first cut
    into int64 words of whole limbs, so only those cuts touch Python ints.
    """
    x = np.asarray(x, dtype=_dtype(x))
    width = LIMB_BITS if count is None else _width(m, count)
    count = count or limb_count(m)
    out = np.empty(x.shape[:-1] + (count, x.shape[-1]))
    per = 63 // width if x.dtype == object else count
    for i in range(count):
        if i % per == 0:
            word = x >> (width * i) if i else x
            if x.dtype == object:
                word = (word & ((1 << per * width) - 1)).astype(np.int64)
        out[..., i, :] = (word >> (width * (i % per))) & ((1 << width) - 1)
    return out


def fold(b, m: int, La: int):
    """float64 (..., La, n, Lb, k) for maps b (..., n, k): entry (i, c, j, l) is 17-bit limb j of 2^(w i) b[c, l] mod m.

    w = _width(m, La). As one (La n) x (Lb k) block it multiplies a's La limbs side by side.
    """
    shifted = np.stack([mul_mod(b, pow(2, _width(m, La) * i, m), m) if i else b for i in range(La)], axis=-3)
    return split_limbs(shifted, m)


def matmul_mod(a, b, m: int):
    """Exact (a @ b) % m for integer a and b in [0, m), as a new array of a's dtype.

    b is one (n, k) map for a (rows, n), the 1 x 1 block_matmul_mod, or a stack (N, n, k) for a (N, rows, n),
    entry by entry, cut with a into tiles of TILE // (rows max(La n, Lb k)) entries or one, folded per tile.
    """
    if b.ndim == 2:
        return block_matmul_mod(a, b[None], np.zeros((1, 1), dtype=np.intp), m)
    (n, k), La = b.shape[-2:], a_limb_count(m, b.shape[-2])
    out = np.empty(a.shape[:-1] + (k,), dtype=_dtype(a))
    step = max(1, TILE // max(1, a.shape[1] * max(La * n, limb_count(m) * k)))
    for u in range(0, len(a), step):
        _folded_matmul(a[u : u + step], fold(b[u : u + step], m, La), m, out[u : u + step])
    return out


def block_matmul_mod(a, maps, index, m: int):
    """Exact (a @ M) % m for a (rows, J n) and the (J n) x (C k) matrix M whose block (j, c) is maps[index[j, c]].

    maps (N, n, k) are folded once. M runs in map tiles of whole blocks, each gathered by one index
    (_map_block): the contraction within TILE and the float64 bound, the limb block within a.size or 2 TILE.
    Per map tile the rows run in tiles of TILE // max(La n, Lb k), cut into limbs there for int64 and once
    per call for Python ints, whose cuts cost far more than the matmul; contraction tiles add up mod m.
    """
    (J, C), (n, k) = index.shape, maps.shape[-2:]
    out = np.empty((len(a), C * k), dtype=_dtype(a))
    j_step = min(J, max(1, min(TILE, contraction_limit(m)) // n))
    La = a_limb_count(m, j_step * n)
    folded = fold(maps, m, La)
    k_step = min(C, max(1, max(a.size, 2 * TILE) // (folded[0].size * j_step)))
    if a.dtype == object:
        a = split_limbs(a, m, La)
    for c0 in range(0, C, k_step):
        for j0 in range(0, J, j_step):
            block = _map_block(folded, index[j0 : j0 + j_step, c0 : c0 + k_step])
            step = max(1, TILE // max(block.shape[0] * block.shape[1], block.shape[2] * block.shape[3]))
            for u in range(0, len(a), step):
                rows = a[u : u + step, ..., j0 * n : j0 * n + block.shape[1]]
                dst = out[u : u + step, c0 * k : c0 * k + block.shape[3]]
                tile = _folded_matmul(rows, block, m, np.empty_like(dst) if j0 else dst)
                if j0:
                    dst[...] = (dst + tile) % m
    return out


def _map_block(folded, index):
    """Tile of fold(maps, m, La) with block (j, c) maps[index[j, c]], gathered in its final layout by one index."""
    _, La, n, Lb, k = folded.shape
    flat = np.moveaxis(folded, 1, 0).reshape(La, -1, k)
    block = np.take(flat, index[:, None] * (n * Lb) + np.arange(n * Lb)[:, None], axis=1)
    return block.reshape(La, index.shape[0] * n, Lb, index.shape[1] * k)


def _folded_matmul(a, folded, m: int, out):
    """One tile: out = (a @ b) % m for folded = fold(b, m, La), a maybe split_limbs(a, m, La); one matmul, checked."""
    La, n, Lb, k = folded.shape[-4:]
    if n > contraction_limit(m, La):
        raise OutOfRange(f"contraction length {n} with {La} limbs exceeds the float64 bound")
    a_limbs = a if a.dtype == np.float64 else split_limbs(a, m, La)
    classes = a_limbs.reshape(a_limbs.shape[:-2] + (La * n,)) @ folded.reshape(folded.shape[:-4] + (La * n, Lb * k))
    classes = classes.reshape(classes.shape[:-1] + (Lb, k))
    if out.dtype != object:
        # sum_j c_j 2^(17 j) < 2^53 m: its float64 quotient by m is off by a few units at most, so the residual,
        # exact in wrapping uint64 arithmetic, lies in (-6m, 6m) and one mod snaps it into [0, m)
        est = classes[..., Lb - 1, :] * (float(1 << LIMB_BITS * (Lb - 1)) / m)
        exact = classes[..., Lb - 1, :].astype(np.uint64)
        for j in range(Lb - 2, -1, -1):
            est += classes[..., j, :] * (float(1 << LIMB_BITS * j) / m)
            exact <<= np.uint64(LIMB_BITS)
            exact += classes[..., j, :].astype(np.uint64)
        with np.errstate(over="ignore"):
            exact -= est.astype(np.uint64) * np.uint64(m)
        return np.mod(exact.view(np.int64), m, out=out)
    # Python ints: the classes are carried into 17-bit digits packed three to an int64 word, and the words
    # recombined by Horner from the top word, in place, so one array of Python ints is alive at a time
    words, carry = [], 0
    for j in range(Lb):
        value = classes[..., j, :].astype(np.int64) + carry
        carry = value >> LIMB_BITS
        if j % 3 == 0:
            words.append(0)
        words[-1] |= (value & LIMB_MASK) << (LIMB_BITS * (j % 3))
    acc = carry.astype(object)
    for i in range(len(words) - 1, -1, -1):
        acc <<= LIMB_BITS * min(3, Lb - 3 * i)
        acc += words[i]
    return np.mod(acc, m, out=out)
