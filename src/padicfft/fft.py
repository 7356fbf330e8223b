"""Good-Thomas transform between the prime powers of s, Cooley-Tukey inside each.

The coprime prime powers g of s are the axes of a multi-dimensional
transform (see _index_maps): one gather reads the input in Good's
index order, each axis runs a decimation-in-time transform of length g
on its own, and one scatter writes the output in CRT order. Inside an
axis the input is digit-reversed over its radices and one stage per radix
(last radix first) combines blocks: a twiddle pass multiplies entry
(j, k1) by alpha^((s/(r t)) j k1), t the length combined so far on that
axis, and a radix-r pass evaluates the short DFT sum with the fixed powers
alpha^((s/r) j k2). Each q^v runs fused as radices q^a, a the largest
exponent whose map fits in the stage array (see _fused_radices), so only
an axis with two or more stages makes twiddles: s = 2736 = 2^4 3^2 19 at
d = 6 runs stages 16, 9 and 19 with none, and s = 12584 = 2^3 11^2 13 at
d = 30 runs 8, 11, 11 and 13 with one twiddle pass, inside 11^2.
There is one direction: idft(X)[n] = s^(-1) dft(X)[-n mod s], so idft runs
the forward schedule on its input read at -k mod s and multiplies the
result by s^(-1).

Every product inside a stage runs on the exact float64 products of
kernels, which own the limb format and the tiling. A ring product by a
fixed element is the d x d multiplication matrix of that element, which
kernels.multiplication_maps builds from rows of the power table that
make_plan gets from kernels.power_table. A twiddle pass shares each twiddle
with the rows of the later axes, may split it into two factors each shared
by more rows, and multiplies every group of rows by its factor's matrix in
one stacked kernels.matmul_mod (see _twiddle). The radix-r pass is the same
Z/p^K-linear map of size rd x rd for every block of a stage: block (j, k2)
is the multiplication matrix of alpha^((s/r) j k2), and the pass is one
kernels.block_matmul_mod of all rows by the r maps at index j k2 mod r
(see _butterfly).
The multiplication counter is a model, not a timer: it charges the
schoolbook products of the paper's prime schedule plan.radices, whatever
radices the stages run. A twiddle or a butterfly product is counted exactly
when its exponent is nonzero, never based on operand values, so the count
depends only on d and the plan.

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
from .padic import PadicContext, RingElement, RingExtension, residue_inverse, ring_mul, ring_pow
from .planner import choose_parameters

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
    table = kernels.power_table(np.asarray(root.coeffs, dtype=dtype), s.value, _fhead(ring, dtype), m)
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
        if not isinstance(v, RingElement):
            raise BadInput(f"entry {v!r} is not a ring element")
        if not v.parent.same(plan.ring):
            raise ParentMismatch("element does not belong to the plan's ring")
    return np.array([v.coeffs for v in values], dtype=plan.table.dtype)


def _to_elements(arr, plan: FFTPlan):
    """Plan-ring elements of the rows of a transform output, which are already canonical."""
    return [RingElement(plan.ring, tuple(row)) for row in arr.tolist()]


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
    table = plan.table
    fhead = _fhead(ring, table.dtype)
    groups = _fused_radices(plan.s_factored, d)
    gather, scatter = _index_maps(groups, s)
    arr = arr[gather]
    pre = 1
    for radices in groups:
        g = math.prod(radices)
        post = s // (pre * g)
        t = 1
        for r in reversed(radices):
            blocks = pre * g // (r * t)
            view = arr.reshape(blocks, r, t, post, d)
            _twiddle(view, table, fhead, m)
            maps = kernels.multiplication_maps(table[(s // r) * np.arange(r)], fhead, m)
            arr = _butterfly(view.reshape(blocks, r, t * post, d), maps, m).reshape(s, d)
            t *= r
        pre *= g
    out = np.empty_like(arr)
    out[scatter] = arr
    # the count models the paper's prime-radix stages, whatever radices ran: per stage the twiddle
    # products with exponent j*k1 != 0, then the schoolbook products with exponent j*k2 != 0
    t = 1
    for r in reversed(plan.radices):
        blocks = s // (r * t)
        ring.counter.add(((r - 1) * blocks * (t - 1) + (r - 1) ** 2 * blocks * t) * ring.mul_cost())
        t *= r
    return out


def _index_maps(groups, s: int):
    """Good-Thomas input and output index maps for the prime-power axes whose radices are groups.

    With input n = sum n_g s/g and output k = sum k_g e_g (mod s, e_g = 1
    mod g and 0 mod s/g) over the coprime prime powers g of s, alpha^(n k)
    = prod alpha^((s/g) n_g k_g), so each g is an axis transformed on its
    own, with no twiddles between axes. Position i of the C-ordered axes
    (g, ...) reads input gather[i], whose n_g runs digit-reversed over its
    axis's radices (n_0 + n_1 r_0 + n_2 r_0 r_1 + ... sits where its
    digits, most significant first, are n_0, n_1, ...), and its result is
    output scatter[i]. Both are permutations of range(s).
    """
    gather = scatter = np.zeros((), dtype=np.int64)
    for radices in groups:
        g, n = math.prod(radices), len(radices)
        reverse = np.arange(g).reshape(radices[::-1]).transpose(range(n - 1, -1, -1)).ravel()
        gather = np.add.outer(gather, reverse * (s // g))
        scatter = np.add.outer(scatter, np.arange(g) * (s // g * pow(s // g, -1, g)))
    return gather.ravel() % s, scatter.ravel() % s


def _fused_radices(s: FactoredOrder, d: int) -> tuple:
    """The radices the stages run, one tuple per prime power q^v of s: chunks of q^a, the remainder last.

    a is the largest exponent <= v whose (q^a d) x (q^a d) map holds no more
    entries than the (s, d) stage array, and 1 when even q's map does not.
    """
    groups = []
    for q, v in s.factors:
        a = max((a for a in range(2, v + 1) if (q**a * d) ** 2 <= s.value * d), default=1)
        groups.append((q**a,) * (v // a) + ((q ** (v % a),) if v % a else ()))
    return tuple(groups)


def _twiddle(view, table, fhead, m: int):
    """Twiddle pass, in place: entry (b, j, k1, i) of view times alpha^((s/(r t)) j k1), as batched exact matmuls.

    view is (blocks, r, t, post, d): the radix-r stage of one prime-power
    axis, t its length so far inside that axis, post the axes after it,
    whose rows i share every twiddle. With k1 = h c + l the twiddle is
    alpha^((s/(r t)) j l) * alpha^((s/(r t)) j c h), c the smallest divisor
    of t with c^2 >= t: one pass multiplies the rows sharing (j, l) by one
    map, a second those sharing (j, h). So a stage builds (r-1)(c + t/c)
    maps rather than one per twiddle. A single pass (c = t) runs when its
    (r-1) t maps of d x d hold no more entries than the stage's own array.
    Factors with exponent 0 are skipped.
    """
    blocks, r, t, post, d = view.shape
    s = table.shape[0]
    if (r - 1) * t * d <= s:
        c = t
    else:
        c = next(q for q in range(1, t + 1) if t % q == 0 and q * q >= t)
    grid = view.reshape(blocks, r, t // c, c, post, d)
    # pass 1 batches over (j, l >= 1), pass 2 over (j, h >= 1); the rows are the other three axes
    for x, unit in ((grid[:, 1:, :, 1:].transpose(1, 3, 0, 2, 4, 5), 1),
                    (grid[:, 1:, 1:].transpose(1, 2, 0, 3, 4, 5), c)):
        if x.size:
            e = s // (r * t) * unit * np.arange(1, r)[:, None] * np.arange(1, x.shape[1] + 1)
            powers = table[e.ravel()]
            maps = kernels.multiplication_maps(powers, fhead, m)
            x[...] = kernels.matmul_mod(x.reshape(len(maps), -1, d), maps, m).reshape(x.shape)


def _butterfly(view, maps, m: int):
    """Radix-r pass: out[b, k2, i] = sum_j view[b, j, i] * alpha^((s/r) j k2), as one exact block product.

    The pass is the (r d) x (r d) map whose block (j, k2) is maps[j k2 mod r],
    applied by kernels.block_matmul_mod to the rows (b, i) of view, copied
    once into contiguous rows; the result is a (blocks, r, t, d) view of its rows.
    """
    blocks, r, t, d = view.shape
    rows = view.transpose(0, 2, 1, 3).reshape(blocks * t, r * d)
    out = kernels.block_matmul_mod(rows, maps, np.outer(np.arange(r), np.arange(r)) % r, m)
    return out.reshape(blocks, t, r, d).transpose(0, 2, 1, 3)


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
def _default_plan(p: int, K: int, s, seed: int) -> FFTPlan:
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
    build_pipeline at that seed, None being pipeline.DEFAULT_SEED; a cached plan's
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
        from .pipeline import DEFAULT_SEED

        plan = _default_plan(p, K, chosen.s_factored, DEFAULT_SEED if seed is None else seed)
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
