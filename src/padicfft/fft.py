"""Mixed-radix decimation-in-time transform over (Z/p^K)[X]/F.

The input is permuted by mixed-radix digit reversal, a transpose of its
digit axes, then one stage per radix (last radix first) combines blocks: a
twiddle pass multiplies entry (j, k1) by alpha^((s/L) j k1), and a radix-r
pass evaluates the short DFT sum with the fixed powers alpha^((s/r) j k2).
There is one direction: idft(X)[n] = s^(-1) dft(X)[-n mod s], so idft runs
the forward schedule on its input read at -k mod s and multiplies the
result by s^(-1).

Every product inside a stage runs on the exact float64 matmul of
kernels.matmul_mod, in tiles bounded by TILE. A ring product by a fixed
element is the d x d multiplication matrix of that element, built from the
power table. The twiddle pass splits each twiddle into two factors, each
shared by whole rows of the stage, and multiplies every group of rows by
its factor's matrix in one batched product (see _twiddle). The radix-r
pass is the same Z/p^K-linear map of size rd x rd for every block of a
stage: block (j, k2) is the multiplication matrix of alpha^((s/r) j k2),
applied to all rows at once. The power table itself is two short tables
and one batched product.
The multiplication counter still charges the schoolbook model: a twiddle
or a butterfly product is counted exactly when its exponent is nonzero,
never based on operand values, so the count depends only on d and the
radix schedule.

One schedule runs on an (s, d) array whose dtype is the backend: int64 when
p^K <= 2^51, else numpy object arrays of Python ints. make_plan picks the
dtype once, as the dtype of the power table; both dtypes give the same
outputs and the same counts.

dft, idft and cyclic_convolution take either a list of s plan-ring elements
or an (s, d) integer array of their coefficients, and answer in the same
form: arrays come back in plan.table.dtype. poly_multiply stays in arrays.
Called without a plan, it reuses the plans it built before from a bounded
per-process cache keyed by (p, K, s, seed); a shared plan's ring.counter
accumulates the work of every caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BadInput,
    CoefficientNotRational,
    DegreeOverflow,
    FactoringFailure,
    LengthMismatch,
    NotCoprime,
    OutOfRange,
    ParentMismatch,
    PrecisionTooLow,
    RootNotPrimitive,
)
from .orders import FactoredOrder
from .padic import PadicContext, RingExtension, residue_inverse, ring_mul, ring_pow
from .planner import choose_parameters

# Elements per row tile, and the widest contraction or output tile, of a
# butterfly product, and elements per batch tile of a twiddle or power-table
# product: bounds every temporary a product makes.
TILE = 1 << 13
# Plans poly_multiply keeps for reuse. The largest one it reaches in practice
# (p=3, s=12584, d=30) holds a 3 MB int64 table, so the cache stays within tens of MB.
PLAN_CACHE_SIZE = 8


@dataclass
class FFTPlan:
    """Precomputed schedule for length-s transforms at precision K.

    Immutable once built; dft/idft never write to it, so one plan can serve
    concurrent calls on distinct buffers. Only ring.counter changes: every
    transform on the plan adds its modelled multiplications there, including
    those of other callers of a plan poly_multiply shares from its cache.
    """

    s: int
    s_factored: FactoredOrder
    radices: tuple
    ring: RingExtension
    root: object
    inv_s: int
    table: np.ndarray  # (s, d) powers of root; its dtype is the transform's backend

    @property
    def p(self) -> int:
        return self.ring.ctx.p

    @property
    def K(self) -> int:
        return self.ring.ctx.K


def make_plan(s, lift, K: int) -> FFTPlan:
    """Build the transform schedule from a lifted root.

    The lift's ring and root are truncated from their own precision down to
    K; the root must still be a primitive s-th root of unity there.
    """
    if not isinstance(s, FactoredOrder):
        s = FactoredOrder.of(s)
    if K < 1:
        raise BadInput("need K >= 1")
    if lift.precision < K:
        raise PrecisionTooLow(f"lift precision {lift.precision} is below K = {K}")
    ring = lift.ring.truncate(K)
    p = ring.ctx.p
    if s.value % p == 0:
        raise NotCoprime("s must be coprime to p")
    root = ring.element(lift.root.coeffs)
    if ring_pow(root, s.value) != ring.one():
        raise RootNotPrimitive(f"root^{s.value} is not 1 at precision {K}")
    for q, _ in s.factors:
        if ring_pow(root, s.value // q) == ring.one():
            raise RootNotPrimitive(f"root order divides {s.value}/{q}")

    m = ring.ctx.pK
    radices = tuple(s.radix_schedule())
    dtype = np.int64 if kernels.supports_modulus(m) else object
    table = _power_table(np.asarray(root.coeffs, dtype=dtype), s.value, _fhead(ring, dtype), m)
    ring.counter.add(max(0, s.value - 2) * ring.mul_cost())
    return FFTPlan(
        s=s.value,
        s_factored=s,
        radices=radices,
        ring=ring,
        root=root,
        inv_s=residue_inverse(s.value % m, ring.ctx),
        table=table,
    )


def _fhead(ring: RingExtension, dtype):
    """The modulus F without its monic leading 1, as a kernel operand."""
    return np.asarray(ring.modulus[:-1], dtype=dtype)


def _to_array(values, plan: FFTPlan):
    """(s, d) array of plan.table.dtype holding the coefficients of values.

    values is a list of plan-ring elements or an integer array of residues
    mod p^K; arrays come from outside, so their shape, type and range are checked.
    """
    s, d, m = plan.s, plan.ring.degree, plan.ring.ctx.pK
    if isinstance(values, np.ndarray):
        if values.shape != (s, d):
            raise LengthMismatch(f"expected an array of shape {(s, d)}, got {values.shape}")
        if values.dtype == object:
            if not all(isinstance(v, int) for v in values.flat):
                raise BadInput("object arrays must hold Python ints")
        elif values.dtype.kind not in "iu":
            raise BadInput(f"array entries must be integers, got dtype {values.dtype}")
        if values.size and (values.min() < 0 or values.max() >= m):
            raise BadInput(f"array entries must lie in [0, {m})")
        return values.astype(plan.table.dtype, copy=False)
    if len(values) != s:
        raise LengthMismatch(f"expected {s} elements, got {len(values)}")
    for v in values:
        if not v.parent.same(plan.ring):
            raise ParentMismatch("element does not belong to the plan's ring")
    return np.array([v.coeffs for v in values], dtype=plan.table.dtype)


def _to_elements(arr, plan: FFTPlan):
    return [plan.ring.element(row) for row in arr.tolist()]


def dft(coeffs, plan: FFTPlan):
    """Evaluations [f(alpha^0), ..., f(alpha^(s-1))] of sum coeffs[i] Y^i.

    coeffs is a list of s plan-ring elements, giving a list, or an (s, d)
    integer array of their coefficients in [0, p^K), giving an array of
    plan.table.dtype.
    """
    out = _transform(_to_array(coeffs, plan), plan)
    return out if isinstance(coeffs, np.ndarray) else _to_elements(out, plan)


def idft(evals, plan: FFTPlan):
    """Exact inverse of dft: coefficients from evaluations, in the form of evals."""
    ring = plan.ring
    out = _transform(_to_array(evals, plan)[-np.arange(plan.s) % plan.s], plan)
    ring.counter.add(plan.s * ring.degree)  # scaling by s^-1, d multiplications per element
    out = kernels.mul_mod(out, plan.inv_s, ring.ctx.pK)
    return out if isinstance(evals, np.ndarray) else _to_elements(out, plan)


def _transform(arr, plan: FFTPlan):
    s = plan.s
    ring = plan.ring
    m = ring.ctx.pK
    d = ring.degree
    cost = ring.mul_cost()
    table = plan.table
    fhead = _fhead(ring, table.dtype)
    # digit reversal: input n_0 + n_1 r_0 + n_2 r_0 r_1 + ... moves to the position whose digits, most
    # significant first, are n_0, n_1, ...; with one radix arr stays a view of the caller's array, which
    # the first stage (t = 1, no twiddles) only reads
    n = len(plan.radices)
    arr = arr.reshape(plan.radices[::-1] + (d,)).transpose(*range(n - 1, -1, -1), n).reshape(s, d)
    t = 1
    for r in reversed(plan.radices):
        big = r * t
        blocks = s // big
        view = arr.reshape(blocks, r, t, d)
        _twiddle(view, table, fhead, m)
        ring.counter.add((r - 1) * blocks * (t - 1) * cost)  # the products with exponent j*k1 != 0
        maps = _multiplication_maps(table[(s // r) * np.arange(r)], fhead, m)
        arr = _butterfly(view, maps, m).reshape(s, d)
        ring.counter.add((r - 1) ** 2 * blocks * t * cost)  # the schoolbook products with exponent j*k2 != 0
        t = big
    return arr


def _multiplication_maps(powers, fhead, m: int):
    """(r, d, d) array: row a of map u holds X^a * powers[u] mod F, so x @ maps[u] is x * powers[u]."""
    r, d = powers.shape
    maps = np.empty((r, d, d), dtype=powers.dtype)
    row = powers
    maps[:, 0] = row
    for a in range(1, d):
        shifted = np.zeros_like(row)
        shifted[:, 1:] = row[:, :-1]
        row = (shifted - kernels.mul_mod(row[:, -1:], fhead, m)) % m
        maps[:, a] = row
    return maps


def _twiddle(view, table, fhead, m: int):
    """Twiddle pass, in place: entry (b, j, k1) of view times alpha^(blocks j k1), as batched exact matmuls.

    With k1 = h c + l the twiddle is alpha^(blocks j l) * alpha^(blocks j c h),
    c the smallest divisor of t with c^2 >= t: one pass multiplies the rows
    sharing (j, l) by one map, a second those sharing (j, h). So a stage
    builds (r-1)(c + t/c) maps rather than one per twiddle. A single pass
    (c = t) runs when its (r-1) t maps of d x d hold no more entries than
    the stage's own array. Factors with exponent 0 are skipped.
    """
    blocks, r, t, d = view.shape
    s = table.shape[0]
    if (r - 1) * t * d <= s:
        c = t
    else:
        c = next(q for q in range(1, t + 1) if t % q == 0 and q * q >= t)
    grid = view.reshape(blocks, r, t // c, c, d)
    # pass 1 batches over (j, l >= 1), pass 2 over (j, h >= 1); the rows are the other two axes
    for x, unit in ((grid[:, 1:, :, 1:].transpose(1, 3, 0, 2, 4), 1), (grid[:, 1:, 1:].transpose(1, 2, 0, 3, 4), c)):
        if x.size:
            e = blocks * unit * np.arange(1, r)[:, None] * np.arange(1, x.shape[1] + 1)
            powers = table[e.ravel()]
            x[...] = _ring_scale(x.reshape(powers.shape[0], -1, d), powers, fhead, m).reshape(x.shape)


def _ring_scale(x, powers, fhead, m: int):
    """out[u] = x[u] * powers[u] in the ring, for x of shape (n, rows, d) and powers of shape (n, d).

    Each power becomes its multiplication map, and the maps act on their
    rows in stacked kernels.matmul_mod products. A tile takes whole batch
    entries, at most TILE elements of x unless one entry alone holds more.
    """
    n, rows, d = x.shape
    maps = _multiplication_maps(powers, fhead, m)
    out = np.empty(x.shape, dtype=powers.dtype)
    step = max(1, TILE // (rows * d))
    for u in range(0, n, step):
        out[u : u + step] = kernels.matmul_mod(x[u : u + step], kernels.split_limbs(maps[u : u + step], m), m)
    return out


def _power_table(root, s: int, fhead, m: int):
    """(s, d) array of root^0 .. root^(s-1), root given as a coefficient array.

    Row h c + l is (root^c)^h * root^l with c = ceil(sqrt(s)): kernels.power_table
    builds the two short tables, and one batched product fills the rest.
    """
    d = root.shape[0]
    c = math.isqrt(s - 1) + 1
    low = kernels.power_table(root, c + 1, fhead, m)
    high = kernels.power_table(low[c], -(-s // c), fhead, m)
    return _ring_scale(np.broadcast_to(low[:c], (len(high), c, d)), high, fhead, m).reshape(-1, d)[:s]


def _butterfly(view, maps, m: int):
    """Radix-r pass: out[b, k2, i] = sum_j view[b, j, i] * alpha^((s/r) j k2), as one exact matmul.

    The pass is the (r d) x (r d) map whose block (j, k2) is maps[j k2 mod r],
    applied to the rows (b, i) of view.
    It runs in tiles of whole radix digits: contraction and output widths of
    at most TILE, a map tile no larger than the stage's own array, and row
    tiles of at most TILE elements.
    """
    blocks, r, t, d = view.shape
    out = np.empty_like(view)
    j_step = min(r, max(1, min(TILE, kernels.contraction_limit(m)) // d))
    k_step = min(r, max(1, min(TILE, view.size // (j_step * d)) // d))
    rows = max(1, TILE // (max(j_step, k_step) * d))
    b_step, i_step = max(1, rows // t), min(t, rows)
    digits = np.arange(r)
    for k0 in range(0, r, k_step):
        ks = digits[k0 : k0 + k_step]
        for j0 in range(0, r, j_step):
            js = digits[j0 : j0 + j_step]
            block = maps[(js[:, None] * ks[None, :]) % r]
            b_limbs = kernels.split_limbs(block.transpose(0, 2, 1, 3).reshape(len(js) * d, len(ks) * d), m)
            for b0 in range(0, blocks, b_step):
                for i0 in range(0, t, i_step):
                    x = view[b0 : b0 + b_step, j0 : j0 + j_step, i0 : i0 + i_step].transpose(0, 2, 1, 3)
                    y = kernels.matmul_mod(x.reshape(-1, len(js) * d), b_limbs, m)
                    y = y.reshape(x.shape[0], x.shape[1], len(ks), d).transpose(0, 2, 1, 3)
                    dst = out[b0 : b0 + b_step, k0 : k0 + k_step, i0 : i0 + i_step]
                    dst[...] = (dst + y) % m if j0 else y
    return out


def naive_dft(coeffs, root, s: int):
    """[f(root^j)]_{j < s} by Horner evaluation; the O(s^2) oracle."""
    ring = root.parent
    out = []
    point = ring.one()
    for j in range(s):
        if j:
            point = ring_mul(point, root)
        acc = ring.zero()
        for c in reversed(list(coeffs)):
            acc = ring_mul(acc, point) + c
        out.append(acc)
    return out


def cyclic_convolution(x, y, plan: FFTPlan):
    """Length-s cyclic convolution via dft, pointwise product, idft.

    An array when x and y are both (s, d) arrays, else a list of plan-ring elements.
    """
    ring = plan.ring
    fx, fy = (dft(v if isinstance(v, np.ndarray) else _to_array(v, plan), plan) for v in (x, y))
    ring.counter.add(plan.s * ring.mul_cost())
    prod = idft(kernels.ring_mul_batch(fx, fy, _fhead(ring, plan.table.dtype), ring.ctx.pK), plan)
    return prod if isinstance(x, np.ndarray) and isinstance(y, np.ndarray) else _to_elements(prod, plan)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _default_plan(p: int, K: int, s, seed: int | None) -> FFTPlan:
    """build_pipeline's plan for (p, K, s) at seed, which determines it."""
    from . import pipeline

    return pipeline.build_pipeline(p, K, s=s, seed=seed).plan


def poly_multiply(f, g, p: int, K: int, planner=choose_parameters, plan: FFTPlan | None = None,
                  seed: int | None = None):
    """Exact product of two Z/p^K coefficient sequences via the transform.

    Coefficients must be Python or numpy integers. Inputs are embedded as
    constant ring elements: column 0 of two (s, d) arrays. A prebuilt plan
    must be over Z/p^K. Without one, the planner hook picks s above
    deg f + deg g, and the plan comes from a per-process cache of
    PLAN_CACHE_SIZE plans keyed by (p, K, s, seed), each built once by
    build_pipeline at that seed (its default when None); a cached plan's
    ring.counter accumulates the work of every caller. Output results must
    come back constant, coefficient by coefficient.
    """
    m = PadicContext(p, K).pK
    if plan is not None and (plan.p, plan.K) != (p, K):
        raise ParentMismatch(f"plan is over Z/{plan.p}^{plan.K}, not Z/{p}^{K}")
    for c in (*f, *g):
        if not isinstance(c, (int, np.integer)):
            raise BadInput(f"coefficient {c!r} is not an integer")
    fc = [int(c) % m for c in f]
    gc = [int(c) % m for c in g]
    while fc and fc[-1] == 0:
        fc.pop()
    while gc and gc[-1] == 0:
        gc.pop()
    if not fc or not gc:
        return []
    bound = (len(fc) - 1) + (len(gc) - 1)
    if plan is None:
        try:
            chosen = planner(p, max(bound, 1))
        except (OutOfRange, FactoringFailure) as exc:
            raise DegreeOverflow(f"no transform length above {bound} is available") from exc
        plan = _default_plan(p, K, chosen.s_factored, seed)
    if bound >= plan.s:
        raise DegreeOverflow(f"product degree {bound} needs s > {bound}, plan has s = {plan.s}")
    xs = np.zeros((plan.s, plan.ring.degree), dtype=plan.table.dtype)
    ys = np.zeros_like(xs)
    xs[: len(fc), 0] = fc
    ys[: len(gc), 0] = gc
    prod = cyclic_convolution(xs, ys, plan)
    bad = np.flatnonzero((prod[:, 1:] != 0).any(axis=1))
    if bad.size:
        raise CoefficientNotRational(f"product coefficient {bad[0]} is not in Z/p^K")
    out = prod[:, 0].tolist()
    while out and out[-1] == 0:
        out.pop()
    return out
