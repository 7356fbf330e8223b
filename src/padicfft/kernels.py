"""Vectorized exact arithmetic mod m on numpy arrays.

Three forms of residues. On int64 arrays (m up to 2^51), which must be
canonical, in [0, m), the quotient of a*b by m is estimated in double
precision, and its floor q is off by at most one; the residual a*b - q*m
is then computed in wrapping signed int64 arithmetic, exact mod 2^64 and
so exact, as it lies in [-m, 2m), far inside int64, and _snap takes it
into [0, m) by two unsigned minima, with no division. Object arrays of
Python ints (any m) are the outside form: mul_mod and ring_mul_batch's
products are plain (a*b) % m there, and the exact product below converts
them at its edges into digit arrays (to_digits, from_digits), the working
form: each element holds Lb = limb_count(m) canonical int64 digits of width
ceil(bits(m-1)/Lb) <= 17, so only those two conversions touch Python ints.

block_matmul_mod, the one exact product, multiplies rows by a block matrix
of fixed maps mod m on float64 BLAS, or each group of rows by its own block
matrix of the same maps (a transform stage: one group per k1; power_table:
one group per element), and owns the limb format and the tiling;
matmul_mod is its 1 x 1 case. It runs on the fixed map b folded (fold):
B_i = 2^(w i) b mod m, cut into its Lb digits, for each of the La limbs of
width w that a is cut into. Each modulus has one digit base, that of
to_digits, so one fold serves int64 rows and digit arrays alike. prepare
folds maps once into a PreparedMaps, which it takes in place of the maps,
so maps used again (a plan's stages) are never folded again; maps given as
an array are prepared on entry. One matmul of
[a_0 | ... | a_(La-1)] by those digits gives Lb weight classes, each entry a
sum of La*n integers below 2^(w+17) for contraction length n, so exact while
La*n*2^(w+17) < 2^53: w is the widest width that keeps that bound (at 3^32
and n <= 511, 2 limbs of 26 bits: 2 x 3 limb planes), which is checked,
with OutOfRange beyond it; past MODULUS_BITS not even n = 1 is exact, so
padic refuses such a p^K before building it. Int64 rows are cut into
limbs whose top one is not masked, as canonical rows lie below 2^(La w),
and their classes are recombined in the digit base by the quotient
estimate above, the residual in (-2m, 2m) snapped the same way; digit
rows are recut from their digits, and _reduce carries the classes into
canonical digits by the same estimate and an exact residual over the
digits, so no rounding reaches any result.

multiplication_maps turns fixed elements of (Z/m)[X]/F into the d x d
matrices of their ring products, so a batch of products is one matmul_mod;
power_table doubles on them, one stacked block_matmul_mod per doubling.
ring_mul_batch reduces mod F by the map of X^d, prepared once per (F, m).

Scratch. Every temporary that lives only within one digit tile comes from
this thread's scratch (_temporary), a threading.local of grow-only buffers,
one per role: _recut's limbs, digit plane and high part; the classes
product; _reduce's quotient q, its int64 and float64 pieces and both
residual rows; _carry's carry row. Each thread has its own, so concurrent
callers never share a buffer, and a role's pages are faulted in once per
thread rather than once per tile. A view of the scratch is valid only until
the next kernel call on its thread, so no kernel returns one: _folded_matmul
and _add_mod copy _reduce's digits into their out. Bound: a tile's limbs
and classes hold at most U = max(2 TILE, R) elements, R its widest block
row (La Jt n or Lb Ct k for Jt x Ct blocks of n x k maps), the plane and
high part at most U each, and _reduce's and _carry's roles, on the U / Lb
columns of the classes, at most 12 U together; so one thread's scratch
holds at most 16 U float64s, 16 MiB whatever s while R <= 2 TILE (a
transform stage's R is Lb r D at most, for radix r and subring degree D:
342 at 7^32, s = 2736). _map_block's gathered block is bounded by the stage's
maps rather than by TILE, so it stays a fresh array, as do the int64 rows'
temporaries: their limbs, classes, quotient estimate and residual taken from
the scratch measured no faster on the s = 12584 transform than fresh ones,
so they stay fresh.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange

MODULUS_LIMIT = 1 << 51
LIMB_BITS = 17
FLOAT_EXACT = 1 << 53
# Widest modulus of any exact product: its limb_count(m) limbs of 17 bits must contract one term, Lb 2^34 < 2^53,
# so contraction_limit(m) >= 1 exactly when (m - 1).bit_length() <= MODULUS_BITS = 17 (2^19 - 1).
MODULUS_BITS = LIMB_BITS * ((FLOAT_EXACT - 1) >> 2 * LIMB_BITS)
# Elements per block_matmul_mod tile: bounds every temporary a product makes.
TILE = 1 << 16
# Largest degree whose ring_mul_batch products reduce mod F by elementwise passes: from d = 4 on, at
# s = 12584, one block_matmul_mod by X^d's map is cheaper despite its fixed cost of about 0.2 ms a call.
SCHOOLBOOK_DEGREE = 3
# The block index of a single map: a 1 x 1 block matrix.
ONE_BLOCK = np.zeros((1, 1), dtype=np.intp)


class PreparedMaps(NamedTuple):
    """Fixed maps (N, n, k) mod m folded once (see prepare), which block_matmul_mod takes for maps, whatever rows.

    folded holds fold(maps, m, La) in _map_block's flat layout (La, N n Lb, k), with La chosen for contraction
    tiles of j_step blocks.
    """

    maps: np.ndarray
    folded: np.ndarray
    j_step: int

    @property
    def shape(self):
        return self.maps.shape

    @property
    def nbytes(self) -> int:
        return self.maps.nbytes + self.folded.nbytes


class _Radix(NamedTuple):
    """Constants of _reduce for one modulus m, in base B = 2^w of its digits."""

    w: int
    digits: np.ndarray  # (Lb + 1, 1) int64: m's digits, then 0 for the row above them
    weights: np.ndarray  # B^j / m, j < Lb: the quotient estimate
    shifts: np.ndarray  # bit offsets of the quotient's pieces
    h: int  # piece width
    low: np.ndarray  # (Lb, pieces) float64: digit j of piece a's product with m, unnormalised
    high: np.ndarray  # (pieces,) int64: piece a's product with m above digit Lb - 1, wrapped
    top: int  # lowest digit the second quotient reads
    top_weights: np.ndarray  # B^j / m for the digits from top to Lb


class _Scratch(threading.local):
    """This thread's grow-only buffers, one per temporary role of a digit tile (see the module docstring)."""

    def __init__(self):
        self.buffers = {}


_scratch = _Scratch()


def _temporary(role: str, shape, dtype=np.float64):
    """An uninitialised array of shape and dtype on this thread's buffer for role, grown to the largest request and
    kept; it is valid until the next request for role, so no array a kernel returns may be one."""
    need = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = _scratch.buffers.get(role)
    if buffer is None or buffer.nbytes < need:
        buffer = _scratch.buffers[role] = np.empty(need, dtype=np.uint8)
    return buffer[:need].view(dtype).reshape(shape)


def supports_modulus(m: int) -> bool:
    return 2 <= m <= MODULUS_LIMIT


def precision_fits(p: int, K: int) -> bool:
    """Whether p^K - 1 has at most MODULUS_BITS bits, for p >= 2 and K >= 1; p^K is computed only near that bound."""
    bits = K * math.log2(p)
    if abs(bits - MODULUS_BITS) > 1:
        return bits < MODULUS_BITS
    return (p**K - 1).bit_length() <= MODULUS_BITS


def _dtype(*arrays):
    """object when any operand holds Python ints, else int64."""
    return object if any(getattr(a, "dtype", None) == object for a in arrays) else np.int64


def mul_mod(a, b, m: int):
    """Exact elementwise (a*b) % m for canonical inputs in [0, m).

    On int64, a*b / m < 2^51 is estimated with three float64 roundings, so off by under 3/4 and its floor q by at
    most one: the residual a*b - q*m, wrapped exactly in int64, lies in [-m, 2m), and _snap takes it into [0, m).
    A 0-d result comes back as a numpy scalar.
    """
    if _dtype(a, b) is object:
        return np.asarray(a, dtype=object) * np.asarray(b, dtype=object) % m
    if not supports_modulus(m):
        raise OutOfRange(f"modulus {m} is outside [2, 2^51]")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    with np.errstate(over="ignore"):  # 0-d operands give numpy scalars, whose wrapping warns
        q = (a.astype(np.float64) * b.astype(np.float64) * (1.0 / m)).astype(np.int64)
        r = np.asarray(a * b - q * m)
    out = _snap(r, m, np.empty_like(r))
    return out if out.ndim else out[()]


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
        reduce = _reducer(tuple(fhead.tolist()), m)
        top = block_matmul_mod(conv[..., d:].reshape(-1, d - 1), reduce, ONE_BLOCK, m)
        conv[..., :d] = (conv[..., :d] + top.reshape(conv.shape[:-1] + (d,))) % m
    return conv[..., :d]


@functools.lru_cache(maxsize=16)
def _reducer(fhead: tuple, m: int):
    """X^d .. X^(2d-2) mod F, the top rows of X^d = -fhead's map, prepared for rows of either form; built on int64
    where m allows it."""
    fhead = np.array(fhead, dtype=np.int64 if supports_modulus(m) else object)
    return prepare(multiplication_maps(-fhead[None] % m, fhead, m)[:, : len(fhead) - 1], m, 1)


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


def power_table(elts, lengths, fhead, m: int):
    """(n, max(lengths), d) array of elts' dtype: rows elt^0 .. elt^(s-1) for each of the n elts in [0, m)^d and
    its own length s in lengths, by doubling; its rows from s on are 0.

    With rows [0, h) filled and step = elt^h per elt, one block_matmul_mod of the rows [table[:take]; step] of the
    elts still short of their length, each group by its own step's multiplication map, fills rows [h, h + take)
    and leaves elt^(2h) in its last row.
    """
    elts = np.asarray(elts, dtype=_dtype(elts))
    lengths = np.asarray(lengths, dtype=np.intp)
    s = lengths.max(initial=1)
    table = np.zeros((len(elts), s, elts.shape[1]), dtype=elts.dtype)
    table[:, 0, 0] = 1
    live, step, h = np.arange(len(elts)), elts, 1
    while h < s:
        take = min(h, s - h)
        short = lengths[live] > h
        live, step = live[short], step[short]
        rows = np.concatenate([table[live, :take], step[:, None]], axis=1)
        out = block_matmul_mod(rows, multiplication_maps(step, fhead, m), np.arange(len(live))[:, None, None], m)
        table[live, h : h + take], step = out[:, :take], out[:, take]
        h += take
    table[np.arange(s) >= lengths[:, None]] = 0
    return table


def limb_count(m: int) -> int:
    """Lb, the number of 17-bit limbs that hold every residue mod m."""
    return max(1, -(-(m - 1).bit_length() // LIMB_BITS))


def _width(m: int, La: int) -> int:
    """Width of each of La limbs that hold every residue mod m."""
    return -(-(m - 1).bit_length() // La)


def a_limb_count(m: int, n: int) -> int:
    """La for contraction length n: the fewest limbs of a, so the widest, that keep the class sums exact; past
    MODULUS_LIMIT, where every row is a digit array, the fewest of those whose class bound also lets _reduce correct
    once, else Lb."""
    Lb = limb_count(m)
    for La in range(1, Lb + 1):
        once = supports_modulus(m) or La == Lb or _near(m, La * n << _width(m, La) + _width(m, Lb))
        if n <= contraction_limit(m, La) and once:
            return La
    raise OutOfRange(f"contraction length {n} exceeds the float64 bound mod {m}")


def contraction_limit(m: int, La: int | None = None) -> int:
    """Largest n with La*n*2^(w+17) < 2^53, w = _width(m, La): by default La = Lb, the largest of all La."""
    La = La or limb_count(m)
    return (FLOAT_EXACT - 1) // (La << (_width(m, La) + LIMB_BITS))


def _cut(x, width: int, count: int):
    """int64 (..., count): count limbs of width bits of nonnegative x, lowest first.

    Python ints are first cut into int64 words of whole limbs, so only those cuts touch Python ints.
    """
    per = 63 // width if x.dtype == object else count
    out = np.empty(x.shape + (count,), dtype=np.int64)
    shifts = width * np.arange(per)
    for i in range(0, count, per):
        word = x >> (width * i) if i else x
        if x.dtype == object:
            word = (word & ((1 << per * width) - 1) if i + per < count else word).astype(np.int64)
        out[..., i : i + per] = (word[..., None] >> shifts[: count - i]) & ((1 << width) - 1)
    return out


def to_digits(x, m: int):
    """The working form of residues x mod m: Python ints become a digit array of x's shape, others pass unchanged.

    Each element of a digit array holds Lb = limb_count(m) int64 digits of width _width(m, Lb) <= 17, lowest first.
    """
    x = np.asarray(x)
    if x.dtype != object:
        return x
    Lb = limb_count(m)
    return _cut(x, _width(m, Lb), Lb).view(np.dtype([("digits", np.int64, (Lb,))]))[..., 0]


def from_digits(x, m: int):
    """Python ints of a digit array (see to_digits); other arrays pass unchanged."""
    if x.dtype.kind != "V":
        return x
    digits = x["digits"]
    Lb = digits.shape[-1]
    width = _width(m, Lb)
    per = 63 // width
    acc = None
    for i in reversed(range(0, Lb, per)):
        chunk = digits[..., i : i + per]
        word = (chunk << (width * np.arange(chunk.shape[-1]))).sum(axis=-1).astype(object)
        if acc is None:
            acc = word
        else:
            acc <<= per * width
            acc += word
    return acc


def split_limbs(x, m: int, count: int):
    """float64 (..., count, n) for x (..., n): count limbs of width _width(m, count) of residues mod m, lowest first.

    x must be canonical: below m <= 2^(count width), its top limb is its bits from (count - 1) width on, unmasked.
    """
    x = np.asarray(x, dtype=_dtype(x))
    width = _width(m, count)
    if x.dtype == object:
        return np.moveaxis(_cut(x, width, count), -1, -2).astype(np.float64)
    out = np.empty(x.shape[:-1] + (count, x.shape[-1]))
    for i in range(count):
        limb = x >> (width * i) if i else x
        out[..., i, :] = limb & ((1 << width) - 1) if i + 1 < count else limb
    return out


def fold(b, m: int, La: int):
    """float64 (La, n, Lb, k) for a map b (n, k): entry (i, c, j, l) is digit j of 2^(w i) b[c, l] mod m.

    w = _width(m, La); the Lb = limb_count(m) digits are to_digits', in m's one base. As one (La n) x (Lb k) block it
    multiplies a's La limbs side by side, whether a is int64 or a digit array.
    """
    shifted = np.stack([mul_mod(b, pow(2, _width(m, La) * i, m), m) if i else b for i in range(La)], axis=-3)
    return split_limbs(shifted, m, limb_count(m))


def _recut(digits, m: int, La: int):
    """float64 (..., La, n, rows) for digits (..., rows, n, Lb) mod m: La limbs of width _width(m, La), lowest first.

    A digit that straddles two limbs is split there in float64, exactly: its part above the cut is a floor. The
    limbs are a view of this thread's scratch.
    """
    Lb = digits.shape[-1]
    w, wa = _width(m, Lb), _width(m, La)
    planes = np.moveaxis(digits, (-1, -3), (-3, -1))
    out = _temporary("limbs", planes.shape[:-3] + (La,) + planes.shape[-2:])
    if La == Lb:
        out[...] = planes
        return out
    d, high = (_temporary(role, planes.shape[:-3] + planes.shape[-2:]) for role in ("plane", "high"))
    filled = [False] * La
    for j in range(Lb):
        d[...] = planes[..., j, :, :]
        i, cut = w * j // wa, wa * (w * j // wa + 1) - w * j  # the digit's low limb and its bits below that limb's top
        parts, scale = [(i, d)], 2.0 ** (w * j - wa * i)
        if cut < w and i + 1 < La:  # above the top limb a residue's bits are 0
            d *= 2.0**-cut  # powers of two scale exactly: the digit's part above the cut is the floor, its rest below
            np.floor(d, out=high)
            d -= high
            scale *= 2.0**cut
            parts.append((i + 1, high))
        d *= scale
        for limb, part in parts:
            if filled[limb]:
                out[..., limb, :, :] += part
            else:
                out[..., limb, :, :] = part
                filled[limb] = True
    return out


def prepare(maps, m: int, blocks: int) -> PreparedMaps:
    """maps (N, n, k) mod m, int64 or Python ints, folded once as the maps of a block matrix of blocks block rows
    for block_matmul_mod, for int64 rows and digit arrays alike; its contraction tiles are of j_step blocks, within
    TILE and the float64 bound. A PreparedMaps comes back as it is, for any number of block rows."""
    if isinstance(maps, PreparedMaps):
        return maps
    maps = np.asarray(maps)
    n, k = maps.shape[-2:]
    j_step = min(blocks, max(1, min(TILE, contraction_limit(m)) // n))
    La = a_limb_count(m, j_step * n)
    # the maps stacked as one (N n) x k map fold straight into the flat layout
    return PreparedMaps(maps, fold(maps.reshape(-1, k), m, La).reshape(La, -1, k), j_step)


def matmul_mod(a, b, m: int):
    """Exact (a @ b) % m for integer a (rows, n) and one map b (n, k) in [0, m), as a new array of a's dtype: the
    1 x 1 block_matmul_mod."""
    return block_matmul_mod(a, b[None], ONE_BLOCK, m)


def block_matmul_mod(a, maps, index, m: int):
    """Exact (a @ M) % m for a (rows, J n) and the (J n) x (C k) matrix M whose block (j, c) is maps[index[j, c]];
    for a stacked index (N, J, C) and a (N, rows, J n), group u of the rows by the M of index[u].

    maps (N', n, k), or their prepare()d form, are folded once, which refuses n past the float64 bound before
    Python-int rows cross into a digit array (and the result back). M runs in map tiles of whole blocks,
    each group's gathered by one index (_map_block): the contraction within TILE and the float64 bound, the limb
    block within a group's a size or 2 TILE. Per map tile the rows run in tiles of TILE // max(La n, Lb k), which
    split a group or take several whole groups, their map tiles together within that same bound; they are cut into
    limbs there (int64) or recut from their digits (digit arrays, whose tiles are evened out rather than leave a
    short last one). Contraction tiles add up mod m.
    """
    stacked = index.ndim == 3
    if not stacked:
        a, index = a[None], index[None]
    (N, J, C), (n, k) = index.shape, maps.shape[-2:]
    crossing = a.dtype == object  # Python ints cross into a digit array here, and the result back at the end
    maps = prepare(maps, m, J)
    a = to_digits(a, m) if crossing else a
    rows = a.shape[1]
    out = np.empty((N, rows, C * k), dtype=a.dtype)
    La, Lb = maps.folded.shape[0], limb_count(m)
    gather = max(rows * J * n, 2 * TILE) // (La * n * Lb * k)  # blocks a map tile may gather
    j_step = min(J, maps.j_step)
    k_step = min(C, max(1, gather // j_step))
    for c0 in range(0, C, k_step):
        for j0 in range(0, J, j_step):
            tile_index = index[:, j0 : j0 + j_step, c0 : c0 + k_step]
            Jt, Ct = tile_index.shape[1:]
            step = max(1, TILE // max(La * Jt * n, Lb * Ct * k))
            groups = max(1, min(step // max(1, rows), gather // (Jt * Ct)))
            if a.dtype.kind == "V":  # no short last tile: each digit tile pays a fixed cost in _reduce
                step = max(1, -(-rows // max(1, round(rows / step))))
            for u in range(0, N, groups):
                block = _map_block(maps, tile_index[u : u + groups])
                for v in range(0, rows, step):
                    src = a[u : u + groups, v : v + step, j0 * n : (j0 + Jt) * n]
                    dst = out[u : u + groups, v : v + step, c0 * k : (c0 + Ct) * k]
                    tile = _folded_matmul(src, block, m, np.empty_like(dst) if j0 else dst)
                    if j0:
                        dst[...] = _add_mod(dst, tile, m)
    out = from_digits(out, m) if crossing else out
    return out if stacked else out[0]


def _map_block(prepared: PreparedMaps, index):
    """Tiles of a block matrix's prepared maps, (..., La, J n, Lb, C k) for index (..., J, C) with block (j, c) of
    each maps[index[..., j, c]], by one gather."""
    n = prepared.shape[-2]
    La, rows, k = prepared.folded.shape
    width = rows // len(prepared.maps)  # n Lb
    flat = index[..., None, :, None, :].astype(np.intp) * width + np.arange(width)[:, None]
    block = np.take(prepared.folded.reshape(-1, k), flat + rows * np.arange(La)[:, None, None, None], axis=0)
    return block.reshape(index.shape[:-2] + (La, index.shape[-2] * n, width // n, index.shape[-1] * k))


def _folded_matmul(a, folded, m: int, out):
    """One tile: out = (a @ b) % m for folded = fold(b, m, La); one matmul, checked."""
    La, n, Lb, k = folded.shape[-4:]
    if n > contraction_limit(m, La):
        raise OutOfRange(f"contraction length {n} with {La} limbs exceeds the float64 bound")
    if a.dtype.kind == "V":
        # the transposed product leaves each weight class contiguous
        maps = folded.reshape(folded.shape[:-4] + (La * n, Lb * k)).swapaxes(-1, -2)
        limbs = _recut(a["digits"], m, La)
        limbs = limbs.reshape(limbs.shape[:-3] + (La * n, -1))
        shape = np.broadcast_shapes(maps.shape[:-2], limbs.shape[:-2]) + (Lb * k, limbs.shape[-1])
        classes = np.matmul(maps, limbs, out=_temporary("classes", shape))
        bound = La * n << _width(m, La) + _width(m, Lb)
        digits = _reduce(classes.reshape(classes.shape[:-2] + (Lb, -1)), m, bound)
        out["digits"].swapaxes(-1, -3)[...] = digits.reshape(digits.shape[:-1] + (k, -1))
        return out
    a_limbs = split_limbs(a, m, La)
    classes = a_limbs.reshape(a_limbs.shape[:-2] + (La * n,)) @ folded.reshape(folded.shape[:-4] + (La * n, Lb * k))
    classes = classes.reshape(classes.shape[:-1] + (Lb, k))
    # sum_j c_j B^j < 2^40 m in the digit base B = 2^w: its float64 quotient by m is off by under one unit, so the
    # residual, exact in wrapping int64 arithmetic, lies in (-2m, 2m), and _snap takes it into [0, m) in out. The
    # rows must be canonical: split_limbs leaves their top limb unmasked.
    w = _width(m, Lb)
    est = classes[..., Lb - 1, :] * (float(1 << w * (Lb - 1)) / m)
    exact = classes[..., Lb - 1, :].astype(np.int64)
    for j in range(Lb - 2, -1, -1):
        est += classes[..., j, :] * (float(1 << w * j) / m)
        exact <<= w
        exact += classes[..., j, :].astype(np.int64)
    exact -= est.astype(np.int64) * m
    return _snap(exact, m, out)


def _snap(r, m: int, out):
    """r mod m written into out, for an int64 array r in (-2m, 2m), a residual wrapped exactly; no division runs.

    Read as uint64, a negative r lies above every r >= 0, so the unsigned min(r, r + 2m) is r's residue in [0, 2m),
    and min(r, r - m) then its residue in [0, m). r is overwritten, and out serves as the scratch for r + 2m.
    """
    low, high = r.view(np.uint64), out.view(np.uint64)
    np.add(r, 2 * m, out=out)
    np.minimum(low, high, out=low)
    np.subtract(r, m, out=out)
    np.minimum(low, high, out=high)
    return out


def _add_mod(x, y, m: int):
    """(x + y) % m for two int64 or two digit arrays."""
    if x.dtype.kind != "V":
        return (x + y) % m
    out = np.empty_like(x)
    sums = np.moveaxis(x["digits"] + y["digits"], -1, -2).astype(np.float64)
    out["digits"] = np.moveaxis(_reduce(sums, m, 2 << _width(m, limb_count(m))), -1, -2)
    return out


@functools.lru_cache(maxsize=16)
def _radix(m: int):
    """Constants of _reduce mod m, whose digits have base B = 2^w."""
    Lb = limb_count(m)
    w = _width(m, Lb)
    digits = [(m >> (w * j)) & ((1 << w) - 1) for j in range(Lb)]
    h = w * max(1, (51 - w) // w)  # piece width: h + w + 1 <= 52, so two pieces' products with a digit add exactly
    shifts = np.arange(0, 54, h)  # pieces of a quotient below 2^54
    low = np.array([[digits[j - a // w] if 0 <= j - a // w < Lb else 0 for a in shifts] for j in range(Lb)], dtype=float)
    high = np.array([(m << int(a)) >> (w * Lb) & ((1 << 64) - 1) for a in shifts], dtype=np.uint64).view(np.int64)
    top = max(0, Lb - 2)
    return _Radix(w, np.array(digits + [0])[:, None], np.array([(1 << (w * j)) / m for j in range(Lb)]), shifts, h,
                  low, high, top, np.array([(1 << (w * j)) / m for j in range(top, Lb + 1)]))


def _reduce(c, m: int, bound: int):
    """Canonical digits (..., Lb, N), int64, of V = sum_j c[..., j, :] B^j mod m for float64 c (..., Lb, N) of
    integers in [0, bound), bound <= 2^53; c is overwritten. B = 2^w is the digit base of m.

    V / m < 2 bound, and its float64 estimate is off by less than (Lb + 2) 2^-52 bound. Where that and the
    rounding of the estimate less 1/4 stay within 1/4, its floor q is floor(V / m) or one below; else q is off by
    at most 2 Lb + 6 either way, V - q m is carried, signed, and its top digits give a second quotient k,
    floor((V - q m) / m) or one below. Either way V - q m (formed digit by digit: q in pieces of h bits, whose
    products with m's digits are exact in float64, the part above digit Lb - 1 in wrapping int64) or
    V - (q + k) m lies in [0, 2m): it and the same less m are carried together, with signed carries, and the one
    in [0, m) is kept. The digits are a view of this thread's scratch.
    """
    z = _radix(m)
    Lb = len(z.digits) - 1
    near = _near(m, bound)
    row = c.shape[:-2] + c.shape[-1:]
    q = np.matmul(z.weights, c, out=_temporary("q", row))
    if near:
        q -= 0.25
    np.maximum(np.floor(q, out=q), 0, out=q)
    whole = _temporary("whole q", row, np.int64)
    whole[...] = q
    pieces = _temporary("pieces", row[:-1] + (len(z.shifts),) + row[-1:], np.int64)
    np.right_shift(whole[..., None, :], z.shifts[:, None], out=pieces)
    pieces &= (1 << z.h) - 1
    both = _temporary("both", (2,) + c.shape[:-2] + (Lb + 1, c.shape[-1]), np.int64)
    float_pieces = _temporary("float pieces", pieces.shape)
    float_pieces[...] = pieces
    c -= np.matmul(z.low, float_pieces, out=both[1, ..., :Lb, :].view(np.float64))
    r = both[0]
    r[..., :Lb, :] = c
    np.negative(np.matmul(z.high, pieces, out=r[..., Lb, :]), out=r[..., Lb, :])
    if not near:
        _carry(r, z.w)
        k = np.floor(z.top_weights @ r[..., z.top :, :].astype(np.float64) - 2.0**-10).astype(np.int64)
        r -= z.digits * k[..., None, :]
    s = both[1]
    np.subtract(r, z.digits, out=s)
    _carry(both, z.w)
    keep = ~(s[..., Lb:, :] >> 63)  # all ones where V - (q + 1) m >= 0; a masked copy would branch per element
    s -= r
    s &= keep
    r += s
    return r[..., :Lb, :]


def _near(m: int, bound: int) -> bool:
    """Whether _reduce's first quotient is floor(V / m) or one below for classes below bound."""
    return (limb_count(m) + 3) * bound <= 1 << 50


def _carry(r, w: int):
    """Carry r (..., L, N) in place into digits of w bits, lowest first, the top row keeping the signed rest."""
    carry = _temporary("carry", r.shape[:-2] + r.shape[-1:], np.int64)
    for j in range(r.shape[-2] - 1):
        np.right_shift(r[..., j, :], w, out=carry)
        r[..., j, :] &= (1 << w) - 1
        r[..., j + 1, :] += carry
