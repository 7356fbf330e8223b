"""Good-Thomas transform between the prime powers of s, Cooley-Tukey inside each.

The coprime prime powers g of s are the axes of a multi-dimensional
transform (see _index_maps): one gather reads the input in Good's
index order, each axis runs a decimation-in-time transform of length g
on its own, and one scatter writes the output in CRT order. Inside an
axis the input is digit-reversed over its radices and one stage per radix
(last radix first) combines blocks: with t the length combined so far on
that axis, entry (j, k1) goes to output k1 + t k2 times zeta_(r t)^(j (k1 +
t k2)), zeta_(r t) = zeta_g^(g/(r t)), zeta_g = alpha^(s/g), the twiddle
zeta_(r t)^(j k1) and the short DFT's zeta_r^(j k2) in one power. Each q^v
runs fused as radices q^a, a the largest exponent whose map fits in the
stage array or whose stage adds no more products per element over a stages
of q than one pass of its own costs (see _fused_radices), so only an axis
with two or more stages has t > 1: s = 2736 = 2^4 3^2 19 at d = 6 runs
stages 16, 9 and 19 all at t = 1, as does each of its divisors (16 at s =
16, d = 2, fused as it pays, not as it fits), and s = 12584 = 2^3 11^2 13 at
d = 30 runs 8, 11, 11 and 13, the second 11 at t = 11.
There is one direction: idft(X)[n] = s^(-1) dft(X)[-n mod s], so idft runs
the forward schedule on its input gathered at -gather mod s, its first
stage's maps times s^(-1), which scales its output.

Each axis runs over its own Galois subring: zeta_g lies in GR(p^K, d_g) inside
A = GR(p^K, d), d_g = ord_g(p) (see subring_axes). Axes whose d_g share a
prime join one tensor factor of degree D = lcm d_g; the degrees are pairwise
coprime with product d, so the products of each factor's powers zeta_G^e,
e < D, G its axes' product, are a basis of A, the rows of a matrix P that
only make_plan holds. In it a product by zeta_g^j is a D x D map on its factor's
coordinates, the other factors' being extra rows: at s = 12584 the factors 8,
121 and 13 have degrees 2, 5 and 3 against d = 30. P^-1 enters the basis at
the first stage and P leaves it at the last, folded into the end stage's maps
or, where those would be far wider (see basis_routes), as a radix-1 stage of
one d x d map; a plan of one factor keeps X coordinates and d x d maps.

Every product inside a stage runs on kernels.block_matmul_mod, the one
exact float64 product, which owns the limb format and the tiling. make_plan
builds every stage's maps once (see _stages): the multiplication matrices of
fixed elements, from kernels.multiplication_maps of each axis's g powers of
zeta_g, so no plan holds the s powers of alpha. It also prepares them once
(kernels.prepare: folded for rows of either backend), so a transform folds
no map and makes none. A stage keeps the r t maps of zeta_(r t)^e, e < r t. All
rows of one k1 (the later axes and the other factors' coordinates are rows
too) share one Z/p^K-linear map of size rD x rD, whose block (j, k2) is the
map at j (k1 + t k2) mod r t, so each stage runs as one
kernels.block_matmul_mod with a group of rows per k1.
The multiplication counter is a model, not a timer: it charges the
schoolbook products of the paper's prime schedule plan.radices, whatever
radices the stages run, counted once per plan (plan.mults) and added per
transform, with a twiddle product per entry (j, k1) and a
butterfly product per (j, k2), each exactly when its exponent j k1 or j k2 is
nonzero, never based on operand values, so the count depends only on d and
the plan.

One schedule runs on an (s, d) array whose dtype is the backend: int64 when
p^K <= 2^51, else numpy object arrays of Python ints. make_plan picks the
dtype once, as plan.dtype; both dtypes give the same outputs and the same
counts. _transform hands its array to kernels.to_digits once on entry and
takes it back from kernels.from_digits once on exit: Python ints become an
(s, d) array of kernels' own digit form there (int64 arrays pass
unchanged), so every stage runs on int64 digits and no stage touches a
Python int.

dft, idft and cyclic_convolution take either a list of s plan-ring elements
or an (s, d) integer array of their coefficients, and answer in the same
form: arrays come back in plan.dtype. poly_multiply stays in arrays and
packs c = (d+1)//2 consecutive coefficients into the X-coordinates of
each element: chunk products have degree at most 2c-2 < d, so nothing wraps
mod F, and overlap-add reads the product back. Called without a plan, it
runs on the cheapest divisor s' of the planner's s that holds the chunks in
its own ring, of degree ord_s'(p), on build_pipeline's plan for s', kept in
one cache within a byte bound (see poly_multiply).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

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
from .orders import FactoredOrder, multiplicative_order
from .padic import PadicContext, RingElement, RingExtension, ring_mul, ring_pow
from .planner import choose_parameters, predicted_mults

# Bytes of the plans poly_multiply keeps (FFTPlan.nbytes: stage maps, their folds and block indices, and the index
# maps), the least recently used dropped first. The 29 plans of the divisors of 7^16's planner s = 2736 hold 0.87 MB
# together, those of 7^32 1.9 MB, and the 23 of 3^32's s = 12584 4.8 MB (s' = 968 the largest, 0.79 MB), so all
# stay; past that, a 3^32 plan on the axis 1093 = Phi_7(3) holds 6.7 MB (s' = 2186) to 7.9 MB (s' = 113672), so
# one stays at a time, kept as the newest even where it alone is past the bound.
PLAN_CACHE_BYTES = 8 << 20
# Products per element an end stage may add by folding in the basis change, or a fused stage over its prime
# stages, about what a pass of its own costs (see basis_routes, _fused_radices): on int64 in row splits and
# recombination, on digit arrays (p^K > 2^51) in recuts and reductions.
FOLD_LIMIT = 90
DIGIT_FOLD_LIMIT = 40


@dataclass(frozen=True)
class Stage:
    """One radix-r stage of a prime-power axis and the maps make_plan built for it, kernels.prepare()d once.

    shape is (blocks, r, t, post) of the stage's view of the (s, d) array, which reads the d coordinates as
    layout = (a, D, b): the maps act on the middle D, the axis's tensor factor, or on all d, (1, d, 1), at a folded
    end stage of a split basis. maps are the r t maps of zeta_(r t)^e, e < r t, prepared as the blocks of an r x r
    block matrix, and index (t, r, r) gives each k1 < t its block matrix: block (j, k2) is map j (k1 + t k2) mod r t.
    A basis change run on its own is a radix-1 stage with one map, P^-1 or P.
    """

    shape: tuple
    layout: tuple
    maps: object
    index: np.ndarray


@dataclass(frozen=True)
class FFTPlan:
    """Precomputed schedule for length-s transforms at precision K.

    Immutable once built; dft/idft never write to it, so one plan can serve
    concurrent calls on distinct buffers. Only ring.counter changes: every
    transform on the plan adds its modelled multiplications there, including
    those of other callers of a plan poly_multiply shares from its cache.
    The fields are what dft and idft read; s and radices, the model's prime
    schedule, are read off s_factored, p and K off ring, and mults, the count
    a transform adds, off both, once per plan.
    """

    s_factored: FactoredOrder
    ring: RingExtension
    root: object
    dtype: np.dtype  # the transform's backend: int64, or object for Python ints
    stages: tuple  # Stage per stage, in the order they run
    inverse_stages: tuple  # the stages idft runs: the first one's maps times s^-1
    index_maps: tuple  # (gather, scatter), the Good-Thomas input and output permutations (see _index_maps)

    s = property(lambda self: self.s_factored.value)
    radices = property(lambda self: tuple(self.s_factored.radix_schedule()))
    p = property(lambda self: self.ring.ctx.p)
    K = property(lambda self: self.ring.ctx.K)

    @functools.cached_property
    def mults(self) -> int:
        """The modelled multiplications of one transform, counted once per plan: the paper's prime-radix stages,
        whatever radices run; per stage the twiddle products with exponent j*k1 != 0, then the schoolbook products
        with exponent j*k2 != 0."""
        count, t = 0, 1
        for r in reversed(self.radices):
            blocks = self.s // (r * t)
            count += (r - 1) * blocks * (t - 1) + (r - 1) ** 2 * blocks * t
            t *= r
        return count * self.ring.mul_cost()

    @property
    def nbytes(self) -> int:
        """Bytes of the plan's arrays: its stages' maps, folds and block indices, and the index maps."""
        stages = (*self.stages, *self.inverse_stages)  # idft's share all maps but its first stage's with dft's
        prepared = {id(stage.maps): stage.maps for stage in stages}
        arrays = (*self.index_maps, *(stage.index for stage in self.stages))
        return sum(x.nbytes for x in prepared.values()) + sum(a.nbytes for a in arrays)


def subring_axes(p: int, s: FactoredOrder) -> tuple:
    """(g, d_g) per prime power g of s, in order: zeta_g lies in GR(p^K, d_g), d_g = ord_g(p)."""
    return tuple((q**v, multiplicative_order(p, q**v)) for q, v in s.factors)


def _tensor_factors(axes, d: int) -> tuple:
    """(axes, D) per tensor factor: axes whose d_g share a prime join one factor of degree D = lcm d_g.

    One factor, or coprime degrees whose product is not d (a ring larger than the roots need), make the whole ring one.
    """
    factors = []  # (axis positions, D)
    for i, (_, dg) in enumerate(axes):
        joined = [f for f in factors if math.gcd(f[1], dg) > 1]
        factors = [f for f in factors if f not in joined]
        factors.append((sorted([i, *(j for f in joined for j in f[0])]), math.lcm(dg, *(f[1] for f in joined))))
    if len(factors) < 2 or math.prod(D for _, D in factors) != d:
        factors = [(range(len(axes)), d)]
    return tuple((tuple(axes[i][0] for i in positions), D) for positions, D in sorted(factors))


def make_plan(s, lift, K: int) -> FFTPlan:
    """Build the transform schedule from a lifted root.

    The lift's ring and root are truncated from their own precision down to
    K; the root must still be a primitive s-th root of unity there.
    """
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
    m, d = ring.ctx.pK, ring.degree
    dtype = np.dtype(np.int64 if kernels.supports_modulus(m) else object)
    fhead = _fhead(ring, dtype)
    # per prime power g = q^v of s: zeta_g^k, k < g, zeta_g = root^(s/g), in X coordinates, all in one table
    zetas = np.asarray([ring_pow(root, s.value // q**v).coeffs for q, v in s.factors], dtype=dtype).reshape(-1, d)
    table = kernels.power_table(zetas, [q**v for q, v in s.factors], fhead, m)
    rows = {q**v: powers[: q**v] for (q, v), powers in zip(s.factors, table)}
    for q, v in s.factors:
        if np.array_equal(rows[q**v][q ** (v - 1)], rows[q**v][0]):  # zeta_g^(g/q) = root^(s/q)
            raise RootNotPrimitive(f"root order divides {s.value}/{q}")
    ring.counter.reset()  # the root checks and zeta_g above are not the model's
    ring.counter.add(max(0, s.value - 2) * ring.mul_cost())  # the model charges the paper's power table of s rows
    factors = _tensor_factors(subring_axes(p, s), d)
    basis = basis_inv = np.identity(d, dtype=dtype)
    tops = []  # a split basis: zeta_G^D per tensor factor, G the product of its axes, in X coordinates
    if len(factors) > 1:  # P's rows root^(sum e_i s/G_i), e_i < D_i, in C order, then the tops
        e = np.zeros((), dtype=np.int64)
        for gs, D in factors:
            e = np.add.outer(e, s.value // math.prod(gs) * np.arange(D))
        e = np.append(e.ravel(), [s.value // math.prod(gs) * D for gs, D in factors])
        # root^k is the product over the axes g of zeta_g^(k (s/g)^-1 mod g)
        axes = [powers[e * pow(s.value // g, -1, g) % g] for g, powers in rows.items()]
        powers = functools.reduce(lambda x, y: kernels.ring_mul_batch(x, y, fhead, m), axes)
        basis, tops = np.split(powers, [d])
        basis_inv = _inverse_mod(basis, p, K, m)
    inv_s = ring.ctx.inv(s.value)
    groups = _fused_radices(s, d, _pass_limit(m))
    index_maps = _index_maps(groups, s.value)  # before the stages' folds, which would add to its peak
    stages = _stages(s, groups, factors, rows, tops, fhead, basis, basis_inv, m, basis_routes(p, K, s, d))
    return FFTPlan(
        s_factored=s,
        ring=ring,
        root=root,
        dtype=dtype,
        stages=stages,
        inverse_stages=(_scaled(stages[0], inv_s, m), *stages[1:]) if stages else (),
        index_maps=index_maps,
    )


def _inverse_mod(a, p: int, K: int, m: int):
    """a^-1 mod m = p^K for a invertible mod p: Gauss-Jordan mod the largest p^e < 2^31 (or p), then Newton steps."""
    n, e = len(a), max(k for k in range(1, K + 1) if k == 1 or p**k < 1 << 31)
    q = p**e
    w = np.concatenate([a % q, np.identity(n, dtype=a.dtype)], axis=1).astype(np.int64 if q < 1 << 31 else object)
    for col in range(n):
        pivot = col + np.flatnonzero(w[col:, col] % p)[0]
        w[[col, pivot]] = w[[pivot, col]]
        w[col] = w[col] * pow(int(w[col, col]), -1, q) % q
        rest = np.arange(n) != col
        w[rest] = (w[rest] - w[rest, col : col + 1] * w[col]) % q
    inv = w[:, n:].astype(a.dtype)
    while e < K:  # inv = a^-1 mod p^e gives inv (2 - a inv) = a^-1 mod p^(2e)
        inv = kernels.matmul_mod(inv, (2 * np.identity(n, dtype=a.dtype) - kernels.matmul_mod(a, inv, m)) % m, m)
        e *= 2
    return inv


def _stages(s: FactoredOrder, groups, factors, rows, tops, fhead, basis, basis_inv, m: int, routes) -> tuple:
    """Every stage's maps, built once per plan from the axes' rows zeta_g^k, k < g, in X coordinates, an axis of
    radices per group (see _fused_radices).

    Axis g's products are by powers of zeta_g = zeta_G^(G/g), G the product of its factor's
    axes. The factor's coordinates are those of the basis zeta_G^e, e < D, and its products
    the D x D multiplication maps N of (Z/m)[Z]/F_G, F_G the minimal polynomial of zeta_G,
    read off zeta_G^D (tops); a one-factor plan keeps X's coordinates, so its maps are the d x d
    maps of the rows. A split basis enters at the first stage and leaves at the last: as routes says
    (basis_routes), their maps are P^-1 (I x N x I) and (I x N x I) P, the X-coordinate maps with
    P^-1 or P folded in, or P^-1 and P run as radix-1 stages before and after them.
    """
    d = len(basis)
    coords = {g: (powers, fhead, (1, d, 1)) for g, powers in rows.items()}  # per axis: its rows, head and layout
    before = 1
    for (gs, D), top in zip(factors, tops):  # a split basis: P^-1's columns of the factor's coordinates
        after = d // (before * D)
        stacked = np.vstack([*(rows[g] for g in gs), top])
        *powers, head = np.split(kernels.matmul_mod(stacked, basis_inv[:, after * np.arange(D)], m), np.cumsum(gs))
        coords.update({g: (x, -head[0] % m, (before, D, after)) for g, x in zip(gs, powers)})
        before *= D

    stages, pre = [], 1
    for radices in groups:
        g = math.prod(radices)
        post = s.value // (pre * g)
        powers, head, layout = coords[g]
        t = 1
        for r in reversed(radices):
            # map e is zeta_(r t)^e, zeta_(r t) = zeta_g^(g / (r t)); block (j, k2) of group k1 is map j (k1 + t k2)
            maps = kernels.multiplication_maps(powers[g // (r * t) * np.arange(r * t)], head, m)
            index = (np.arange(r)[:, None] * (np.arange(t)[:, None, None] + t * np.arange(r)) % (r * t)).astype(
                np.min_scalar_type(r * t - 1))  # at r = 1093, t = 1, 2.4 MB on uint16 where intp would take 9.6 MB
            at = layout
            if routes and routes[0] == "fold" and not stages:  # X coordinates in: P^-1 (I x N x I)
                at, maps = (1, d, 1), _fold_basis(basis_inv, maps, layout, m)
            elif routes and routes[1] == "fold" and post == 1 and r * t == g:  # out: (I x N x I) P, transposed
                at, maps = (1, d, 1), _fold_basis(basis.T, maps.swapaxes(1, 2), layout, m).swapaxes(1, 2)
            stages.append(Stage((pre * g // (r * t), r, t, post), at, kernels.prepare(maps, m, r), index))
            t *= r
        pre *= g
    if routes and routes[0] == "pass":  # X coordinates in and out by stages of their own
        stages.insert(0, _basis_pass(basis_inv, s.value, m))
    if routes and routes[1] == "pass":
        stages.append(_basis_pass(basis, s.value, m))
    return tuple(stages)


def _basis_pass(change, s: int, m: int) -> Stage:
    """A radix-1 stage whose one map is the basis change P^-1 or P: one d x d product per row."""
    return Stage((s, 1, 1, 1), (1, len(change), 1), kernels.prepare(change[None], m, 1), np.zeros((1, 1, 1), np.uint8))


def _scaled(stage: Stage, factor: int, m: int) -> Stage:
    """stage with every map times factor mod m, so its output is scaled."""
    return replace(stage, maps=kernels.prepare(kernels.mul_mod(stage.maps.maps, factor, m), m, stage.shape[1]))


def basis_routes(p: int, K: int, s: FactoredOrder, d: int) -> tuple:
    """The basis change at the first and last stages, "fold" or "pass" each; () for a plan of one tensor factor.

    A fold makes an end stage of radix r run d x d maps, r d products per element, where a pass adds a stage of
    d and leaves it r D. A pass runs where the fold adds more than FOLD_LIMIT products per element on int64, or
    DIGIT_FOLD_LIMIT on digit arrays, where a wider contraction also needs more limbs per row; the end stages are
    those _fused_radices runs under the same limit.
    """
    factors = _tensor_factors(subring_axes(p, s), d)
    if len(factors) == 1:
        return ()
    degree = {g: D for gs, D in factors for g in gs}
    limit = _pass_limit(p**K)
    ends = _fused_radices(s, d, limit)
    return tuple("pass" if r * (d - degree[math.prod(radices)]) - d > limit else "fold"
                 for r, radices in ((ends[0][-1], ends[0]), (ends[-1][0], ends[-1])))


def _pass_limit(m: int) -> int:
    """About the products per element that one pass over the array costs mod m: FOLD_LIMIT on int64, DIGIT_FOLD_LIMIT
    on digit arrays."""
    return FOLD_LIMIT if kernels.supports_modulus(m) else DIGIT_FOLD_LIMIT


def _fold_basis(left, maps, layout, m: int):
    """(r, d, d): left (I_a x N x I_b) mod m for each D x D map N of maps, layout (a, D, b); one product by the
    maps side by side."""
    a, D, b = layout
    d = len(left)
    rows = left.reshape(d, a, D, b).transpose(0, 1, 3, 2).reshape(-1, D)
    out = kernels.matmul_mod(rows, maps.transpose(1, 0, 2).reshape(D, -1), m)
    return out.reshape(d, a, b, -1, D).transpose(3, 0, 1, 4, 2).reshape(-1, d, d)


def _fhead(ring: RingExtension, dtype):
    """The modulus F without its monic leading 1, as a kernel operand."""
    return np.asarray(ring.modulus[:-1], dtype=dtype)


def _to_array(values, plan: FFTPlan):
    """(s, d) array of plan.dtype holding the coefficients of values.

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
            raise BadInput(f"array entries must lie in [0, {plan.p}^{plan.K})")  # p^K may be past str()'s digit limit
        return values.astype(plan.dtype, copy=False)
    if len(values) != s:
        raise LengthMismatch(f"expected {s} elements, got {len(values)}")
    for v in values:
        if not isinstance(v, RingElement):
            raise BadInput(f"entry {v!r} is not a ring element")
        if v.parent is not plan.ring and not v.parent.same(plan.ring):
            raise ParentMismatch("element does not belong to the plan's ring")
        if len(v.coeffs) != d:  # fromiter below reads the flat run of coefficients s d at a time
            raise LengthMismatch(f"element has {len(v.coeffs)} coefficients, the plan's ring has {d}")
    coeffs = itertools.chain.from_iterable(v.coeffs for v in values)
    return np.fromiter(coeffs, dtype=plan.dtype, count=s * d).reshape(s, d)


def _to_elements(arr, plan: FFTPlan):
    """Plan-ring elements of the rows of a transform output, which are already canonical: each element's tuple is
    cut from one flat list of the entries, with no list per row."""
    ring, flat = plan.ring, iter(arr.ravel().tolist())
    return [RingElement(ring, coeffs) for coeffs in zip(*[flat] * arr.shape[1])]


def dft(coeffs, plan: FFTPlan):
    """Evaluations [f(alpha^0), ..., f(alpha^(s-1))] of sum coeffs[i] Y^i.

    coeffs is a list of s plan-ring elements, giving a list, or an (s, d)
    integer array of their coefficients in [0, p^K), giving an array of
    plan.dtype.
    """
    out = _transform(_to_array(coeffs, plan), plan, plan.stages, plan.index_maps[0])
    return out if isinstance(coeffs, np.ndarray) else _to_elements(out, plan)


def idft(evals, plan: FFTPlan):
    """Exact inverse of dft: coefficients from evaluations, in the form of evals."""
    out = _transform(_to_array(evals, plan), plan, plan.inverse_stages, -plan.index_maps[0] % plan.s)
    plan.ring.counter.add(plan.s * plan.ring.degree)  # scaling by s^-1, d multiplications per element
    return out if isinstance(evals, np.ndarray) else _to_elements(out, plan)


def _transform(arr, plan: FFTPlan, stages, gather):
    """stages run on the rows arr[gather], the one copy of arr; the output is written in CRT order."""
    s = plan.s
    ring = plan.ring
    m = ring.ctx.pK
    d = ring.degree
    arr = kernels.to_digits(arr[gather], m)
    for stage in stages:
        blocks, r, t, post = stage.shape
        a, D, b = stage.layout
        # out[k2, k1] = sum_j zeta_(r t)^(j (k1 + t k2)) arr[j, k1] on the stage's D coordinates: one block product
        # whose rows of each k1 run by the maps at stage.index[k1]; each copy frees the one before, so two (s, d)
        # arrays live at most
        rows = arr.reshape(blocks, r, t, post, a, D, b).transpose(2, 0, 3, 4, 6, 1, 5).reshape(t, -1, r * D)
        del arr
        arr = kernels.block_matmul_mod(rows, stage.maps, stage.index, m)
        del rows
        arr = arr.reshape(t, blocks, post, a, b, r, D).transpose(1, 5, 0, 2, 3, 6, 4).reshape(s, d)
    out = np.empty_like(arr)
    out[plan.index_maps[1]] = arr
    ring.counter.add(plan.mults)
    return kernels.from_digits(out, m)


def _index_maps(groups, s: int):
    """Good-Thomas input and output index maps for the prime-power axes whose radices are groups.

    With input n = sum n_g s/g and output k = sum k_g e_g (mod s, e_g = 1
    mod g and 0 mod s/g) over the coprime prime powers g of s, alpha^(n k)
    = prod alpha^((s/g) n_g k_g), so each g is an axis transformed on its
    own, with no twiddles between axes. Position i of the C-ordered axes
    (g, ...) reads input gather[i], whose n_g runs digit-reversed over its
    axis's radices (n_0 + n_1 r_0 + n_2 r_0 r_1 + ... sits where its
    digits, most significant first, are n_0, n_1, ...), and its result is
    output scatter[i]. Both are permutations of range(s), int32 where s
    fits, as every planner s does, and each is built whole before the other.
    """
    sizes = [math.prod(radices) for radices in groups]
    gather = _crt_sum([np.arange(g).reshape(r[::-1]).transpose(range(len(r) - 1, -1, -1)).ravel() * (s // g)
                       for g, r in zip(sizes, groups)], s)
    scatter = _crt_sum([np.arange(g) * (s // g * pow(s // g, -1, g)) for g in sizes], s)
    return gather, scatter


def _crt_sum(terms, s: int):
    """The C-ordered outer sum of the int64 terms mod s, flat: int32 where s fits, else int64."""
    out = np.zeros((), dtype=np.int64)
    for term in terms:
        out = np.add.outer(out, term)
        out %= s
    return out.ravel().astype(np.int64 if s >> 31 else np.int32)


def _fused_radices(s: FactoredOrder, d: int, limit: int = FOLD_LIMIT) -> tuple:
    """The radices the stages run, one tuple per prime power q^v of s: chunks of q^a, the remainder last.

    a is the largest exponent <= v for which one stage of q^a fits or pays: its (q^a d) x (q^a d) map holds no
    more entries than the (s, d) stage array, or the products per element it adds over a stages of q, d (q^a -
    a q), are at most limit, what one pass of its own costs (_pass_limit: FOLD_LIMIT on int64, DIGIT_FOLD_LIMIT
    on digit arrays); a is 1 when q^2 does neither. Both tests get harder as a grows, so the exponents that pass
    run from 2 up to a. The second is for small arrays, where each stage is one block_matmul_mod whose fixed
    cost per call (its tiles, map gather and the two transposing copies of the array) outweighs the products:
    16 at s = 16, d = 2 adds 16 products per element over 2, 2, 2, 2 and saves three calls (a 7^16 dft took
    60 against 190 us). Large arrays keep the first test's stages (s = 2736 at d = 6: 16, 9, 19; s = 12584 at
    d = 30: 8, 11, 11, 13), where 11^2 as one stage would add 2970 products per element.
    Both tests are on d, not on the axis's subring degree D <= d, on purpose: a fused q^a stage costs q^a D
    products per element where a stages of q cost a q D, so the smaller maps that D allows would fuse stages
    that then cost more (at s = 12584, 121 as one stage of 11^2: a slower dft).
    """
    groups = []
    for q, v in s.factors:
        a = max((a for a in range(2, v + 1) if (q**a * d) ** 2 <= s.value * d or d * (q**a - a * q) <= limit),
                default=1)
        groups.append((q**a,) * (v // a) + ((q ** (v % a),) if v % a else ()))
    return tuple(groups)


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
    prod = idft(kernels.ring_mul_batch(fx, fy, _fhead(ring, plan.dtype), ring.ctx.pK), plan)
    return prod if isinstance(x, np.ndarray) and isinstance(y, np.ndarray) else _to_elements(prod, plan)


# Plans poly_multiply keeps, by (p, K, s', seed), least recently used first: see _product_plan.
_plans: dict = {}


def _product_plan(p: int, K: int, s, seed: int | None) -> FFTPlan:
    """build_pipeline's plan for (p, K, s) at seed, which determines it, None being pipeline.DEFAULT_SEED.

    Kept in _plans while they hold at most PLAN_CACHE_BYTES with it, the least recently used dropped first.
    """
    from . import pipeline

    seed = pipeline.DEFAULT_SEED if seed is None else seed
    plan = _plans.pop((p, K, s, seed), None)
    if plan is None:
        plan = pipeline.build_pipeline(p, K, s=s, seed=seed).plan
        held = plan.nbytes + sum(q.nbytes for q in _plans.values())
        while held > PLAN_CACHE_BYTES and _plans:
            held -= _plans.pop(next(iter(_plans))).nbytes
    _plans[p, K, s, seed] = plan
    return plan


@functools.lru_cache(maxsize=64)
def _divisors_by_cost(p: int, s: FactoredOrder) -> tuple:
    """(s', ord_s'(p)) per divisor s' >= 2 of s, cheapest first by planner.predicted_mults, then by s'."""
    out = []
    for exponents in itertools.product(*(range(v + 1) for _, v in s.factors)):
        factors = tuple((q, e) for (q, _), e in zip(s.factors, exponents) if e)
        t = math.prod(q**e for q, e in factors)
        if t > 1:  # the tower builds no s' = 1
            out.append((FactoredOrder(t, factors), multiplicative_order(p, t)))
    return tuple(sorted(out, key=lambda pair: (predicted_mults(*pair), pair[0].value)))


def poly_multiply(f, g, p: int, K: int, planner=choose_parameters, plan: FFTPlan | None = None,
                  seed: int | None = None):
    """Exact product of two Z/p^K coefficient sequences via the transform.

    Coefficients must be Python or numpy integers. With c = (d+1)//2, d the
    plan ring's degree, the runs of c consecutive coefficients of f and g go
    into X-coordinates 0..c-1 of successive elements, and the length-s cyclic
    convolution of these chunk sequences holds the product when ceil(len f/c)
    + ceil(len g/c) - 1 <= s: chunk products have degree at most 2c-2 < d, so
    none wraps mod F, and overlap-add reads the coefficients back. Every
    result coordinate from 2c-1 up must come back zero.

    A prebuilt plan must be over Z/p^K and packs into its own s. Without one,
    the planner hook picks s above deg f + deg g, and the product runs on
    build_pipeline(p, K, s=s', seed=seed)'s plan, None being
    pipeline.DEFAULT_SEED, for the divisor s' >= 2 of s that holds the chunks
    in its own ring, of degree d' = ord_s'(p), at the least modelled cost
    planner.predicted_mults(s', d'), then s'. No other pipeline is built, and
    none when no divisor holds the chunks. Plans are kept in a per-process
    cache of at most PLAN_CACHE_BYTES; a cached plan's ring.counter
    accumulates the work of every caller.
    """
    m = PadicContext(p, K).pK
    if plan is not None and (plan.p, plan.K) != (p, K):
        raise ParentMismatch(f"plan is over Z/{plan.p}^{plan.K}, not Z/{p}^{K}")
    for x in (*f, *g):
        if not isinstance(x, (int, np.integer)):
            raise BadInput(f"coefficient {x!r} is not an integer")
    fc = [int(x) % m for x in f]
    gc = [int(x) % m for x in g]
    while fc and fc[-1] == 0:
        fc.pop()
    while gc and gc[-1] == 0:
        gc.pop()
    if not fc or not gc:
        return []
    if plan is None:
        bound = (len(fc) - 1) + (len(gc) - 1)
        try:
            chosen = planner(p, max(bound, 1))
        except (OutOfRange, FactoringFailure) as exc:
            raise DegreeOverflow(f"no transform length above {bound} is available") from exc
        candidates = _divisors_by_cost(p, chosen.s_factored)
    else:
        candidates = ((plan.s_factored, plan.ring.degree),)
    for s, d in candidates:  # the planner's s comes last, and no divisor holds more chunks than it
        c = (d + 1) // 2
        n = -(-len(fc) // c) + -(-len(gc) // c) - 1
        if n <= s.value:
            break
    else:
        raise DegreeOverflow(f"lengths {len(fc)} and {len(gc)} pack into {n} elements of {c} coefficients, "
                             f"plan has s = {s.value}")
    if plan is None:
        plan = _product_plan(p, K, s, seed)
    prod = cyclic_convolution(_pack(fc, c, plan), _pack(gc, c, plan), plan)
    bad = np.flatnonzero((prod[:, 2 * c - 1:] != 0).any(axis=1))
    if bad.size:  # named by the first coefficient of that element's chunk
        raise CoefficientNotRational(f"product coefficient {bad[0] * c} is not in Z/p^K")
    # overlap-add: element i holds coefficients i c .. i c + 2c - 2, the top c - 1 shared with element i + 1
    out = np.zeros((n + 1, c), dtype=prod.dtype)
    out[:n] = prod[:n, :c]
    out[1:, : c - 1] += prod[:n, c : 2 * c - 1]
    out = (out.ravel()[: len(fc) + len(gc) - 1] % m).tolist()
    while out and out[-1] == 0:
        out.pop()
    return out


def _pack(coeffs, c: int, plan: FFTPlan):
    """(s, d) array of plan.dtype holding coeffs in runs of c, run i in coordinates 0..c-1 of row i."""
    out = np.zeros((plan.s, plan.ring.degree), dtype=plan.dtype)
    out[: -(-len(coeffs) // c), :c].flat[: len(coeffs)] = coeffs
    return out
