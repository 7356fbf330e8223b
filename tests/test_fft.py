import dataclasses
import functools
import hashlib
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfft.errors import (
    BadInput,
    CoefficientNotRational,
    DegreeOverflow,
    FactoringFailure,
    LengthMismatch,
    OutOfRange,
    ParentMismatch,
    PrecisionTooLow,
    RootNotPrimitive,
)
from padicfft.fft import (
    DIGIT_FOLD_LIMIT,
    FOLD_LIMIT,
    _fused_radices,
    _index_maps,
    _inverse_mod,
    _tensor_factors,
    _to_array,
    _to_elements,
    basis_routes,
    cyclic_convolution,
    dft,
    idft,
    make_plan,
    naive_dft,
    poly_multiply,
    subring_axes,
)
from padicfft.lifting import LiftResult, newton_lift_root
from padicfft.orders import FactoredOrder, multiplicative_order
from padicfft.padic import RingElement, RingExtension, ring_mul, ring_pow
from padicfft.pipeline import build_pipeline
from padicfft.planner import choose_parameters


def random_vector(ring, s, rng):
    return [ring.element([rng.randrange(ring.ctx.pK) for _ in range(ring.degree)])
            for _ in range(s)]


def schoolbook(f, g, m):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % m
    while out and out[-1] == 0:
        out.pop()
    return out


def kronecker(f, g, m):
    """f g mod m by one Python-int product of f and g packed into byte slots wide enough for every coefficient sum."""
    width = (2 * (m - 1).bit_length() + min(len(f), len(g)).bit_length() + 7) // 8

    def pack(coeffs):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in coeffs), "little")

    packed = (pack(f) * pack(g)).to_bytes(width * (len(f) + len(g)), "little")
    out = [int.from_bytes(packed[i : i + width], "little") % m for i in range(0, width * (len(f) + len(g) - 1), width)]
    while out and out[-1] == 0:
        out.pop()
    return out


def horner(coeffs, point):
    acc = point.parent.zero()
    for c in reversed(coeffs):
        acc = ring_mul(acc, point) + c
    return acc


def object_copy(plan):
    """The plan on the object backend, its stages' prepared maps shared with plan."""
    return dataclasses.replace(plan, dtype=np.dtype(object))


def tensor_factors(plan):
    """(axes, D) per tensor factor of the plan, as make_plan splits its ring."""
    return _tensor_factors(subring_axes(plan.p, plan.s_factored), plan.ring.degree)


def tensor_basis(plan):
    """P as Python ints from ring_pow: row i is root^(sum e_i s/G_i), e_i < D_i in C order, in X coordinates, G_i the
    product of factor i's axes; the identity for a plan of one factor."""
    factors = tensor_factors(plan)
    if len(factors) == 1:
        return np.identity(plan.ring.degree, dtype=object)
    exponents = np.zeros((), dtype=np.int64)
    for gs, D in factors:
        exponents = np.add.outer(exponents, plan.s // math.prod(gs) * np.arange(D))
    return np.array([ring_pow(plan.root, int(e)).coeffs for e in exponents.ravel()], dtype=object)


def block_products(monkeypatch):
    """A list that gets the block index shape of each kernels.block_matmul_mod call and each matmul_mod call's None."""
    from padicfft import kernels

    calls = []
    real = kernels.block_matmul_mod, kernels.matmul_mod
    monkeypatch.setattr(kernels, "block_matmul_mod", lambda a, maps, index, m: calls.append(index.shape)
                        or real[0](a, maps, index, m))
    monkeypatch.setattr(kernels, "matmul_mod", lambda *args: calls.append(None) or real[1](*args))
    return calls


def stage_indices(stages):
    """The (t, r, r) block index of each stage: one block product per stage, in the order they run."""
    return [(stage.shape[2], stage.shape[1], stage.shape[1]) for stage in stages]


def test_frozen_length_four():
    # p=3, K=4: the tower gives f = Y^2 + 1 and the lifted root is Y itself,
    # so f(Y) = 1 + Y evaluates to 2, 1+Y, 0, 1-Y at the four powers.
    pipe = build_pipeline(3, 4, s=4, seed=7)
    plan = pipe.plan
    assert plan.ring.modulus == (1, 0, 1)
    assert plan.root.coeffs == (0, 1)
    ring = plan.ring
    x = [ring.from_int(1), ring.from_int(1), ring.zero(), ring.zero()]
    out = dft(x, plan)
    assert [v.coeffs for v in out] == [(2, 0), (1, 1), (0, 0), (1, 80)]
    assert idft(out, plan) == x


def test_plan_fields_are_frozen():
    # poly_multiply's cache shares one plan among callers, so no caller may reassign its fields
    plan = build_pipeline(3, 4, s=4, seed=7).plan
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.stages = ()
    assert object_copy(plan).stages is plan.stages


@pytest.mark.parametrize("p,s", [(3, 2), (3, 4), (3, 8), (3, 104),
                                 (5, 6), (5, 12), (5, 24), (19, 5), (19, 8)])
def test_matches_naive(p, s):
    pipe = build_pipeline(p, 3, s=s, seed=1)
    plan = pipe.plan
    rng = random.Random(s * 1000 + p)
    x = random_vector(plan.ring, s, rng)
    assert dft(x, plan) == naive_dft(x, plan.root, s)


def test_matches_naive_above_int64():
    # 19^32 > 2^51, so the transform runs on Python ints
    pipe = build_pipeline(19, 32, s=40, seed=1)
    plan = pipe.plan
    assert plan.dtype == object
    x = random_vector(plan.ring, 40, random.Random(40))
    assert dft(x, plan) == naive_dft(x, plan.root, 40)


@pytest.mark.parametrize("K", [1, 8, 32])
@pytest.mark.parametrize("s", [2, 4, 8, 104])
def test_round_trip(s, K):
    pipe = build_pipeline(3, K, s=s, seed=5)
    plan = pipe.plan
    rng = random.Random(s + K)
    x = random_vector(plan.ring, s, rng)
    assert idft(dft(x, plan), plan) == x
    assert dft(idft(x, plan), plan) == x


def test_round_trip_python_engine():
    # 19^32 is far beyond the vector kernel's modulus bound
    pipe = build_pipeline(19, 32, s=40, seed=4)
    plan = pipe.plan
    assert plan.dtype == object
    rng = random.Random(9)
    x = random_vector(plan.ring, 40, rng)
    assert idft(dft(x, plan), plan) == x


@pytest.mark.parametrize("p, K, s", [(7, 16, 3), (19, 32, 40)])
def test_to_elements_round_trip(p, K, s):
    # d = 1 (7 = 1 mod 3), and an object-dtype plan (19^32 > 2^51)
    plan = build_pipeline(p, K, s=s, seed=2).plan
    assert (plan.ring.degree == 1) == (p == 7) and (plan.dtype == object) == (p == 19)
    x = random_vector(plan.ring, s, random.Random(s))
    back = _to_elements(_to_array(x, plan), plan)
    assert back == x
    assert all(type(v.coeffs) is tuple and all(type(c) is int for c in v.coeffs) for v in back)


def test_length_one_plan():
    lift = newton_lift_root([2, 1], 1, 3, 3)
    plan = make_plan(1, lift, 8)
    v = plan.ring.from_int(5)
    assert dft([v], plan) == [v]
    assert idft([v], plan) == [v]


def test_linearity():
    pipe = build_pipeline(3, 8, s=8, seed=2)
    plan = pipe.plan
    rng = random.Random(11)
    x = random_vector(plan.ring, 8, rng)
    y = random_vector(plan.ring, 8, rng)
    fx, fy = dft(x, plan), dft(y, plan)
    mixed = dft([a + b + b for a, b in zip(x, y)], plan)
    assert mixed == [a + b + b for a, b in zip(fx, fy)]


def test_convolution_matches_schoolbook():
    pipe = build_pipeline(3, 8, s=8, seed=2)
    plan = pipe.plan
    ring = plan.ring
    m = ring.ctx.pK
    rng = random.Random(13)
    av = [rng.randrange(m) for _ in range(8)]
    bv = [rng.randrange(m) for _ in range(8)]
    got = cyclic_convolution([ring.from_int(c) for c in av],
                             [ring.from_int(c) for c in bv], plan)
    want = [sum(av[i] * bv[(k - i) % 8] for i in range(8)) % m for k in range(8)]
    assert [v.coeffs[0] for v in got] == want
    assert all(not any(v.coeffs[1:]) for v in got)


def test_engine_parity():
    # one plan, two backends (int64 and Python-int object arrays), and two
    # input forms (RingElement lists and (s, d) arrays): identical outputs
    # and identical counted work
    pipe = build_pipeline(3, 8, s=104, seed=2)
    fast = pipe.plan
    slow = object_copy(fast)
    assert fast.dtype == np.int64
    counter = fast.ring.counter
    rng = random.Random(17)
    x = random_vector(fast.ring, 104, rng)
    y = random_vector(fast.ring, 104, rng)
    xa, ya = (np.array([v.coeffs for v in vec]) for vec in (x, y))
    for op, forms in ((dft, ((x,), (xa,))), (idft, ((x,), (xa,))), (cyclic_convolution, ((x, y), (xa, ya)))):
        outs, counts = [], []
        for plan in (fast, slow):
            for args in forms:
                counter.reset()
                out = op(*args, plan)
                counts.append(counter.count)
                if isinstance(out, np.ndarray):
                    assert out.dtype == plan.dtype
                    outs.append([tuple(row) for row in out.tolist()])
                else:
                    outs.append([v.coeffs for v in out])
        assert outs[0] == outs[1] == outs[2] == outs[3]
        assert counts[0] == counts[1] == counts[2] == counts[3] > 0


def test_transform_outputs_pinned():
    # outputs and per-call counter deltas of every transform entry point, over int64 plans, their
    # object copies and object plans, up to the transform-large plan (s=12584, d=30); the
    # digest is the one the transform gave while it kept a separate inverse schedule
    everything = ("dft", "idft", "idft list", "convolution", "product")
    arrays = ("dft", "idft")
    cases = [(3, 4, 4, everything), (3, 1, 8, everything), (5, 8, 24, everything), (7, 16, 48, everything),
             (19, 32, 40, everything), (3, 32, 104, everything), (7, 16, 2736, everything),
             (7, 32, 2736, arrays), (3, 32, 12584, arrays)]
    rows = []
    for p, K, s, ops in cases:
        plan = build_pipeline(p, K, s=s, seed=2).plan
        variants = [(plan, ops)]
        if plan.dtype == np.int64 and s <= 2736:
            variants.append((object_copy(plan), ops if s < 1000 else arrays))
        ring, m = plan.ring, plan.ring.ctx.pK
        rng = random.Random(s * 100 + K)
        x, y = ([[rng.randrange(m) for _ in range(ring.degree)] for _ in range(s)] for _ in range(2))
        f, g = ([rng.randrange(m) for _ in range(s // 2)] for _ in range(2))
        for q, names in variants:
            xa, ya = (np.array(v, dtype=q.dtype) for v in (x, y))
            calls = {"dft": lambda: dft(xa, q), "idft": lambda: idft(xa, q),
                     "idft list": lambda: [v.coeffs for v in idft([ring.element(c) for c in x], q)],
                     "convolution": lambda: cyclic_convolution(xa, ya, q),
                     "product": lambda: poly_multiply(f, g, p, K, plan=q)}
            for name in names:
                ring.counter.reset()
                out = calls[name]()
                if isinstance(out, np.ndarray):
                    assert out.dtype == q.dtype
                    out = out.tolist()
                rows.append((p, K, s, str(q.dtype), name, ring.counter.count, out))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "1a604c47f0d66affe44f1a5f6fd1406cbabaac6fb0d2d62bb0c654507f7f4d4f"


@pytest.mark.parametrize("p,K,s", [(3, 32, 104), (7, 32, 2736), (5, 32, 9), (3, 32, 16), (3, 32, 64)])
def test_tiled_butterflies_match_untiled(monkeypatch, p, K, s):
    # a tiny tile splits the radix-13 (s=104) and radix-19 (s=2736, digit
    # arrays, on 3 x 3 maps, so a tile of 32) stages into several contraction, output and row tiles, the stage
    # with t > 1 (the second 8 of 64 = 8 * 8 at d = 16) into map and row tiles per group, and the axes'
    # power-table products into several tiles, which must rebuild the same plan; s=9 (object arrays) and s=16 run
    # one stage whose r t maps outgrow the stage array. make_plan folds every stage's maps under the tile it runs with,
    # and the transforms fold none
    from padicfft import kernels

    pipe = build_pipeline(p, K, s=s, seed=2)
    plan = pipe.plan
    rng = random.Random(s)
    x = random_vector(plan.ring, s, rng)
    y = random_vector(plan.ring, s, rng)
    # log of block products (index shape), their map tiles (index shape: groups, then blocks of D x D), the row
    # tiles under each (groups, rows), and the maps folded (shape)
    log = []
    real = kernels.block_matmul_mod, kernels._map_block, kernels._folded_matmul, kernels.fold
    monkeypatch.setattr(kernels, "block_matmul_mod", lambda a, maps, index, m: log.append(("stage", index.shape))
                        or real[0](a, maps, index, m))
    monkeypatch.setattr(kernels, "_map_block", lambda prepared, index: log.append(("map", index.shape))
                        or real[1](prepared, index))
    monkeypatch.setattr(kernels, "_folded_matmul", lambda a, *rest: log.append(("tile", a.shape[:-1]))
                        or real[2](a, *rest))
    monkeypatch.setattr(kernels, "fold", lambda b, *rest: log.append(("fold", b.shape)) or real[3](b, *rest))
    runs = []
    for tile in (kernels.TILE, 32 if s == 2736 else 64):
        monkeypatch.setattr(kernels, "TILE", tile)
        log.clear()
        rebuilt = make_plan(plan.s_factored, pipe.lift, K)
        folded = [math.prod(shape) for kind, shape, *_ in log if kind == "fold"]  # entries
        assert len(rebuilt.stages) == len(plan.stages)
        for ours, theirs in zip(rebuilt.stages, plan.stages):
            assert np.array_equal(ours.maps.maps, theirs.maps.maps) and np.array_equal(ours.index, theirs.index)
            assert ours.maps.maps.size in folded
        outs, counts = [], []
        for op, args in ((dft, (x,)), (idft, (x,)), (cyclic_convolution, (x, y))):
            rebuilt.ring.counter.reset()
            log.clear()
            outs.append(op(*args, rebuilt))
            counts.append(rebuilt.ring.counter.count)
            if op is not cyclic_convolution:  # whose pointwise reduction map is prepared once per ring
                assert all(kind != "fold" for kind, *_ in log)
            if op is dft:
                dft_log = list(log)
        runs.append((outs, counts))
    assert runs[0] == runs[1]
    # the small-tile dft runs one block product per stage, index (t, r, r); its map tiles cover each group's r x r
    # blocks once, and the row tiles under each map tile cover its groups' s d / (t r D) rows each, D the width
    # of the stage's maps; at this tile every stage with t > 1 gathers one group per map tile
    stages = []
    for kind, shape in dft_log:
        if kind == "stage":
            stages.append((shape, []))
        elif kind == "map":
            stages[-1][1].append((shape, []))
        else:
            stages[-1][1][-1][1].append(shape)
    assert [shape for shape, _ in stages] == stage_indices(plan.stages)
    for stage, ((t, r, _), blocks) in zip(plan.stages, stages):
        rows = s * plan.ring.degree // (t * r * stage.layout[1])
        assert sum(G * J * C for (G, J, C), _ in blocks) == t * r * r
        assert all(sum(math.prod(tile) for tile in tiles) == G * rows for (G, *_), tiles in blocks)
        if t > 1:
            assert all(G == 1 for (G, *_), _ in blocks)
    # at s=104 and s=2736 the widest stage runs several contraction and output tiles, each in several row tiles
    (_, r, _), blocks = max(stages, key=lambda stage: stage[0][1])
    if s >= 104:
        assert all(J < r and C < r and len(tiles) > 1 for (_, J, C), tiles in blocks)
    evals = runs[1][0][0]
    if s <= 104:
        assert evals == naive_dft(x, plan.root, s)
    else:
        for j in (1, 5, 144, s - 1):
            assert evals[j] == naive_dft(x, ring_pow(plan.root, j), 2)[1]


@pytest.mark.parametrize("s,d,fused", [(12584, 30, ((8,), (11, 11), (13,))), (2736, 6, ((16,), (9,), (19,))),
                                       (48, 2, ((16,), (3,))), (104, 6, ((8,), (13,))), (64, 16, ((8, 8),)),
                                       (242, 5, ((2,), (11, 11)))])
def test_fused_radices(s, d, fused):
    # each prime power q^v runs as stages of the largest q^a whose map fits in the stage array or which adds at
    # most FOLD_LIMIT = 90 products per element over a stages of q, d (q^a - a q), remainder last: 8 fits at
    # s = 12584 and 16 at s = 2736; 16 at d = 2 adds 16 and 8 at d = 6 adds 12; at d = 16, 8 adds 32 and 16 would
    # add 128, so 2^6 runs as 8, 8; 11^2 at d = 5 would add 495, and at d = 30 2970
    assert _fused_radices(FactoredOrder.of(s), d) == fused


def test_fused_radices_cover_s():
    # the stages cover each prime power q^v, in chunks of q^a and a remainder; a > 1 only where q^a fits the stage
    # array or adds at most the limit's products per element over a stages of q, and q^(a+1), where v allows it,
    # does neither; both limits, int64's and the digit arrays'
    def pays(q, a, s, d, limit):
        return (q**a * d) ** 2 <= s * d or d * (q**a - a * q) <= limit

    for s in range(1, 400):
        order = FactoredOrder.of(s)
        for d, limit in itertools.product((1, 2, 6, 30), (FOLD_LIMIT, DIGIT_FOLD_LIMIT)):
            groups = _fused_radices(order, d, limit)
            assert [math.prod(radices) for radices in groups] == [q**v for q, v in order.factors]
            for (q, v), radices in zip(order.factors, groups):
                a = next(a for a in range(1, v + 1) if q**a == radices[0])
                assert all(r == q**a for r in radices[:-1]) and radices[-1] in (q**a, q ** (v % a))
                assert a == 1 or pays(q, a, s, d, limit)
                assert a == v or not pays(q, a + 1, s, d, limit)


@pytest.mark.parametrize("s", [9, 16, 48, 104, 2736, 12584])
def test_index_maps_are_permutations(s):
    # Good's input map and the CRT output map are permutations of range(s), and output position (k_g, ...)
    # of the prime-power axes holds the k with k = k_g mod g on every axis
    for d in (1, 2, 6, 30):
        groups = _fused_radices(FactoredOrder.of(s), d)
        gather, scatter = _index_maps(groups, s)
        assert sorted(gather.tolist()) == sorted(scatter.tolist()) == list(range(s))
        assert gather.dtype == scatter.dtype == np.int32
        sizes = [math.prod(radices) for radices in groups]
        for g, k_g in zip(sizes, np.unravel_index(np.arange(s), sizes)):
            assert np.array_equal(scatter % g, k_g)


@pytest.mark.parametrize("p,K,s,samples,passes", [
    (5, 16, 9, None, [(9, 1)]),
    (7, 16, 16, None, [(16, 1)]),
    (3, 8, 104, None, [(8, 1), (13, 1)]),
    (7, 16, 60, None, [(4, 1), (3, 1), (5, 1)]),
    (7, 16, 2736, 8, [(16, 1), (9, 1), (19, 1)]),
    (3, 32, 12584, 2, [(1, 1), (8, 1), (11, 1), (11, 11), (13, 1), (1, 1)]),
    (3, 32, 64, None, [(8, 1), (8, 8)]),
    (3, 32, 242, 8, [(2, 1), (11, 1), (11, 11)]),
])
def test_good_thomas_matches_naive(monkeypatch, p, K, s, samples, passes):
    # one prime-power axis (s = 9, 16, 64), two (104 = 8 * 13, 242 = 2 * 121) and three (60 = 4 * 3 * 5,
    # 2736 = 16 * 9 * 19), on the int64 plan and its object copy, all outputs against naive_dft or, from s = 242,
    # sampled ones against Horner, with the idft round trip; the passes over the array, one per stage as its
    # (r, t), t > 1 only inside an axis of two or more stages (64 = 8 * 8 at d = 16, 121 = 11 * 11 at d = 5 and
    # d = 30), each in dft and idft one block product with t groups of rows, and no other product
    plan = build_pipeline(p, K, s=s, seed=2).plan
    assert [stage.shape[1:3] for stage in plan.stages] == passes
    assert plan.dtype == np.int64
    rng = random.Random(s)
    x = random_vector(plan.ring, s, rng)
    if samples is None:
        js, want = range(s), naive_dft(x, plan.root, s)
    else:
        js = [1, s - 1] + rng.sample(range(2, s - 1), samples - 2)
        want = [horner(x, ring_pow(plan.root, j)) for j in js]
    log = block_products(monkeypatch)
    for q in (plan, object_copy(plan)):
        xa = np.array([v.coeffs for v in x], dtype=q.dtype)
        log.clear()
        evals = dft(xa, q)
        assert log == stage_indices(q.stages)
        assert [tuple(evals[j].tolist()) for j in js] == [v.coeffs for v in want]
        log.clear()
        assert np.array_equal(idft(evals, q), xa)
        assert log == stage_indices(q.inverse_stages)


@pytest.mark.parametrize("p,K,s,samples,factors", [
    (5, 8, 24, None, (((8, 3), 2),)),
    (7, 16, 36, None, (((4,), 2), ((9,), 3))),
    (7, 16, 72, None, (((8,), 2), ((9,), 3))),
    (13, 8, 36, None, (((4,), 1), ((9,), 3))),
    (5, 8, 36, None, (((4,), 1), ((9,), 6))),
    (7, 32, 36, None, (((4,), 2), ((9,), 3))),
    (19, 32, 72, None, (((8,), 2), ((9,), 1))),
    (7, 16, 2736, 6, (((16,), 2), ((9, 19), 3))),
    (3, 32, 12584, 2, (((8,), 2), ((121,), 5), ((13,), 3))),
    (19, 12, 432, 6, (((16,), 4), ((27,), 3))),
])
def test_subring_matches_naive(p, K, s, samples, factors):
    # each axis runs over its own tensor factor: one factor (s=24, X coordinates), two of degrees 2 and 3 (s=36,
    # 72 at p=7), two of degrees 4 and 3 whose end axes both run two stages (s = 432 = 16 * 27 at p=19: 8, 2 and
    # 9, 3), a degree-1 factor (p=13, 5), object plans with a split basis (7^32, 19^32), and axes
    # 9 and 19 sharing a factor (s=2736); outputs against naive_dft or, from s = 432, sampled ones against Horner,
    # with the idft round trip, on each plan and its object copy
    plan = build_pipeline(p, K, s=s, seed=2).plan
    ring, m, d = plan.ring, plan.ring.ctx.pK, plan.ring.degree
    assert tensor_factors(plan) == factors
    degrees = [D for _, D in factors]
    assert all(D == math.lcm(*(multiplicative_order(p, g) for g in gs)) for gs, D in factors)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(degrees, 2))
    assert math.prod(degrees) == d
    basis = tensor_basis(plan)  # the root powers are a basis of the ring: P is invertible mod p^K
    inverse = _inverse_mod(basis.astype(plan.dtype), p, K, m).astype(object)
    assert (basis @ inverse % m == np.identity(d, dtype=object)).all()
    rng = random.Random(s * p)
    x = random_vector(ring, s, rng)
    if samples is None:
        js, want = range(s), naive_dft(x, plan.root, s)
    else:
        js = [1, s - 1] + rng.sample(range(2, s - 1), samples - 2)
        want = [horner(x, ring_pow(plan.root, j)) for j in js]
    for q in (plan, object_copy(plan)) if plan.dtype == np.int64 else (plan,):
        xa = np.array([v.coeffs for v in x], dtype=q.dtype)
        evals = dft(xa, q)
        assert [tuple(evals[j].tolist()) for j in js] == [v.coeffs for v in want]
        assert np.array_equal(idft(evals, q), xa)


def routes_of(plan):
    """The basis change each end of a split-basis plan runs: a radix-1 stage there is a pass, else the end folds."""
    if len(tensor_factors(plan)) == 1:
        return ()
    return tuple("pass" if stage.shape[1] == 1 else "fold" for stage in (plan.stages[0], plan.stages[-1]))


@pytest.mark.parametrize("p,K,s,samples,routes", [
    (3, 32, 286, None, ("fold", "pass")),
    (3, 32, 1144, 4, ("pass", "pass")),
    (3, 32, 12584, 2, ("pass", "pass")),
    (3, 40, 1144, 4, ("fold", "pass")),
    (7, 16, 2736, 4, ("fold", "fold")),
    (3, 32, 104, None, ("fold", "fold")),
])
def test_basis_routes_match_naive(p, K, s, samples, routes):
    # each end of a split basis folds P^-1 or P into its stage's maps, or runs it as a radix-1 stage of its own:
    # int64 passes where the folded maps are much wider than the end axis's factor (the last stage 13 at d = 15,
    # 30, both ends at s = 12584 and at s = 1144, whose first stage 8 at d = 30 would add 194 products per
    # element), digit arrays (3^40) from a lower limit, which fuses 8 at d = 30 no further than 4, 2, so s = 1144
    # folds its first end there; outputs against naive_dft or sampled Horner evaluations, and the idft round trip,
    # on each plan and on its object copy, which keeps its routes
    plan = build_pipeline(p, K, s=s, seed=2).plan
    d = plan.ring.degree
    assert routes_of(plan) == basis_routes(p, K, plan.s_factored, d) == routes
    assert plan.dtype == (object if p**K > 2**51 else np.int64)
    # a pass is one d x d map, and the end stage beside it keeps its factor's D x D maps
    for (end, beside), route in zip(((plan.stages[0], plan.stages[1]), (plan.stages[-1], plan.stages[-2])), routes):
        if route == "pass":
            assert (end.shape, end.layout, end.maps.shape) == ((s, 1, 1, 1), (1, d, 1), (1, d, d))
            assert beside.layout[1] == beside.maps.shape[1] < d
        else:
            assert end.layout == (1, d, 1) and end.maps.shape[1:] == (d, d)
    rng = random.Random(s * p + K)
    x = random_vector(plan.ring, s, rng)
    if samples is None:
        js, want = range(s), naive_dft(x, plan.root, s)
    else:
        js = [1, s - 1] + rng.sample(range(2, s - 1), samples - 2)
        want = [horner(x, ring_pow(plan.root, j)) for j in js]
    for q in (plan, object_copy(plan)) if plan.dtype == np.int64 else (plan,):
        assert routes_of(q) == routes
        xa = np.array([v.coeffs for v in x], dtype=q.dtype)
        evals = dft(xa, q)
        assert [tuple(evals[j].tolist()) for j in js] == [v.coeffs for v in want]
        assert np.array_equal(idft(evals, q), xa)


def test_object_transform_crosses_once(monkeypatch):
    # a 7^32 dft and idft: the Python ints cross into a digit array once on entry and back once on exit, and no
    # stage's kernel call receives or returns Python ints; outputs against Horner samples and the round trip
    from padicfft import kernels

    plan = build_pipeline(7, 32, s=2736, seed=2).plan
    assert plan.dtype == object
    crossings, calls = [], []
    real = {name: getattr(kernels, name) for name in ("to_digits", "from_digits", "block_matmul_mod", "matmul_mod")}

    def spy(name):
        def run(a, *args):
            out = real[name](a, *args)
            if name in ("to_digits", "from_digits"):
                crossings.append((name, a.dtype == object, out.dtype == object))
            else:
                calls.append((a.dtype, out.dtype))
            return out
        return run

    for name in real:
        monkeypatch.setattr(kernels, name, spy(name))
    def run(op, arg):
        crossings.clear()
        calls.clear()
        out = op(arg, plan)
        assert crossings == [("to_digits", True, False), ("from_digits", False, True)]
        assert calls and all(dtype.kind == "V" for call in calls for dtype in call)
        assert out.dtype == object
        return out

    x = random_vector(plan.ring, plan.s, random.Random(32))
    xa = np.array([v.coeffs for v in x], dtype=object)
    evals = run(dft, xa)
    for j in (1, 7, plan.s - 1):
        assert tuple(evals[j].tolist()) == horner(x, ring_pow(plan.root, j)).coeffs
    assert np.array_equal(run(idft, evals), xa)


def test_threads_sharing_plans_match_serial_runs():
    # FFTPlan serves concurrent calls: two threads, started together, each run dft, idft and cyclic_convolution on a
    # shared 7^32 plan (digit rows, whose tile temporaries come from each thread's own scratch) and a shared 3^32
    # plan (int64 rows), on inputs of their own, and every output is bit-identical to the same call run alone
    plans = [build_pipeline(7, 32, s=2736, seed=2).plan, build_pipeline(3, 32, s=1144, seed=2).plan]
    rng = random.Random(29)
    inputs = [[np.array([[rng.randrange(plan.ring.ctx.pK) for _ in range(plan.ring.degree)] for _ in range(plan.s)],
                        dtype=plan.dtype) for _ in range(3)] for plan in plans]

    def calls(thread):
        for plan, (x, y, z) in zip(plans, inputs):
            x, y = (x, y) if thread else (y, z)
            yield from ((dft, (x, plan)), (idft, (y, plan)), (cyclic_convolution, (x, y, plan)))

    want = [[op(*args).tolist() for op, args in calls(thread)] for thread in range(2)]
    got, start = [[], []], threading.Barrier(2)

    def run(thread):
        start.wait()
        for _ in range(2):
            got[thread].append([op(*args).tolist() for op, args in calls(thread)])

    workers = [threading.Thread(target=run, args=(thread,)) for thread in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads trade the interpreter between kernel calls far more often
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [[want[0]] * 2, [want[1]] * 2]


@pytest.mark.parametrize("p,K,s,stages", [
    (7, 32, 2736, (((2736, 1, 1, 1), (1, 6, 1)), ((1, 16, 1, 171), (1, 2, 3)), ((16, 9, 1, 19), (2, 3, 1)),
                   ((144, 19, 1, 1), (2, 3, 1)), ((2736, 1, 1, 1), (1, 6, 1)))),
    (7, 16, 2736, (((1, 16, 1, 171), (1, 6, 1)), ((16, 9, 1, 19), (2, 3, 1)), ((144, 19, 1, 1), (1, 6, 1)))),
    (7, 16, 48, (((1, 16, 1, 3), (1, 2, 1)), ((16, 3, 1, 1), (1, 2, 1)))),
])
def test_benchmark_plans_fold(p, K, s, stages):
    # the polymul-mixed plans (7^16, int64) fold the basis change at both ends, and the transform-bigmod plan
    # (7^32, digit arrays) runs it as a pass at both ends; each stage's view and layout pinned
    plan = build_pipeline(p, K, s=s, seed=2).plan
    routes = ("pass", "pass") if K == 32 else ("fold", "fold")
    assert routes_of(plan) == basis_routes(p, K, plan.s_factored, plan.ring.degree) == routes
    assert tuple((stage.shape, stage.layout) for stage in plan.stages) == stages


@pytest.mark.parametrize("p,K,s", [(3, 4, 4), (3, 1, 8), (5, 8, 24), (7, 16, 48), (19, 32, 40), (3, 32, 104),
                                   (7, 16, 2736), (7, 32, 2736), (3, 32, 12584), (3, 32, 16)])
def test_plan_maps_bounded(p, K, s):
    # the plans of test_transform_outputs_pinned and s=16: each stage stores its r t maps of D x D, D the width of
    # its layout, and from s=24 on none holds more entries than the s d of a transform's array; the large plans'
    # maps together hold under a tenth of that. Below s=24 neither bound holds: a one-axis plan's last stage holds
    # r t = s maps of d x d, d times the array
    plan = build_pipeline(p, K, s=s, seed=2).plan
    sizes = [stage.maps.maps.size for stage in plan.stages]
    for stage in plan.stages:
        D = stage.layout[1]
        assert stage.maps.shape == (stage.shape[1] * stage.shape[2], D, D)
    if s >= 24:
        assert max(sizes) <= s * plan.ring.degree
    if s >= 2736:
        assert 10 * sum(sizes) < s * plan.ring.degree
    if s == 16:
        # one factor of degree d = 4: the one stage (r = 16, t = 1) holds 16 maps of 4 x 4, 256 entries against the
        # array's 64
        assert (plan.stages[-1].shape[1:3], sizes[-1]) == ((16, 1), 256)


@pytest.mark.parametrize("p,K,s", [(5, 16, 9), (7, 16, 16), (3, 8, 104), (7, 16, 36), (7, 16, 60), (7, 32, 2736),
                                   (3, 32, 286), (3, 32, 242)])
def test_stage_maps_are_root_powers(p, K, s):
    # map e of a stage of radix r after t is the multiplication map of zeta_(r t)^e = root^(e s / (r t)), e < r t,
    # on its layout's coordinates, checked against ring_pow: X coordinates, or the tensor basis P, which a folded end
    # stage (s = 36 at its last stage; s = 242 at its last, t = 11) or a radix-1 pass (7^32; 3^32 at s = 286 at its
    # end) enters or leaves; idft's first stage holds its maps times s^-1
    plan = build_pipeline(p, K, s=s, seed=2).plan
    ring, m, d = plan.ring, plan.ring.ctx.pK, plan.ring.degree
    X, basis = np.identity(d, dtype=object), tensor_basis(plan)
    routes = basis_routes(p, K, plan.s_factored, d)
    coords = X  # rows: the X coordinates of the basis the stage's input is in
    for i, stage in enumerate(plan.stages):
        _, r, t, _ = stage.shape
        a, D, b = stage.layout
        maps = stage.maps.maps.astype(object)
        assert maps.shape == (r * t, D, D)
        out = (basis if i == 0 else X) if routes and i in (0, len(plan.stages) - 1) else coords
        for e, N in enumerate(maps):
            z = ring_pow(plan.root, e * s // (r * t))
            full = np.kron(np.kron(np.identity(a, dtype=object), N), np.identity(b, dtype=object))
            want = [list(ring_mul(ring.element([int(c) for c in row]), z).coeffs) for row in coords]
            assert (full @ out % m).tolist() == want
        coords = out
    assert coords is X
    inv_s = pow(s, -1, m)
    assert np.array_equal(plan.inverse_stages[0].maps.maps.astype(object),
                          plan.stages[0].maps.maps.astype(object) * inv_s % m)


def test_make_plan_keeps_no_power_table():
    # make_plan builds each axis's g powers, not the s powers of the root: at s=12584, d=30 its peak stays under a
    # quarter of the (s, d) int64 array an s-row table would take
    import tracemalloc

    pipe = build_pipeline(3, 32, s=12584, seed=2)
    plan = pipe.plan
    tracemalloc.start()
    try:
        make_plan(plan.s_factored, pipe.lift, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < plan.s * plan.ring.degree * 8 / 4


@pytest.mark.parametrize("p,K,s", [(3, 32, 104), (7, 16, 2736), (7, 32, 2736), (3, 32, 12584)])
def test_make_plan_charges_only_its_model(p, K, s):
    # a built plan's ring holds the model's power table of s rows and nothing else: not the root checks, not zeta_g
    plan = build_pipeline(p, K, s=s).plan
    assert plan.ring.counter.count == (s - 2) * plan.ring.mul_cost()


@pytest.mark.parametrize("p,K,s", [(3, 32, 104), (7, 16, 2736), (7, 32, 2736)])
def test_transforms_fold_no_maps(monkeypatch, p, K, s):
    # make_plan prepares every map a transform runs (every stage's, idft's first stage's times s^-1) and the
    # pointwise reduction is prepared once per ring: on a built plan, int64 (3^32, 7^16) or digit rows (7^32),
    # dft, idft and cyclic_convolution, and a warm poly_multiply, fold no map and make no multiplication map
    from padicfft import kernels

    plan = build_pipeline(p, K, s=s, seed=2).plan
    m, d = plan.ring.ctx.pK, plan.ring.degree
    rng = random.Random(s)
    x, y = (np.array([[rng.randrange(m) for _ in range(d)] for _ in range(s)], dtype=plan.dtype) for _ in range(2))
    f, g = ([rng.randrange(m) for _ in range(n)] for n in (300, 250))
    want = poly_multiply(f, g, p, K)
    made = []
    for name in ("fold", "multiplication_maps"):
        real = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, real=real, name=name: made.append(name) or real(*a))
    evals = dft(x, plan)
    assert np.array_equal(idft(evals, plan), x)
    cyclic_convolution(x, y, plan)
    assert poly_multiply(f, g, p, K) == want
    assert made == []
    assert want == schoolbook(f, g, m)


def test_fused_stages_match_naive(monkeypatch):
    # s = 64 at d = 16 runs stages (8, 8) on both backends, one block product each, the second radix-8 stage with
    # its twiddles in its maps (t = 8), while the plan and its count keep the prime schedule
    plan = build_pipeline(3, 8, s=64, seed=2).plan
    assert plan.radices == (2, 2, 2, 2, 2, 2)
    assert _fused_radices(plan.s_factored, plan.ring.degree) == ((8, 8),)
    x = random_vector(plan.ring, 64, random.Random(64))
    want = naive_dft(x, plan.root, 64)
    counts = []
    products = block_products(monkeypatch)
    for q in (plan, object_copy(plan)):
        plan.ring.counter.reset()
        products.clear()
        assert dft(x, q) == want
        assert products == [(1, 8, 8), (8, 8, 8)]
        counts.append(plan.ring.counter.count)
        assert idft(want, q) == x
    cost = plan.ring.mul_cost()
    # the schoolbook prime-radix model: six stages r = 2 at t = 1, 2, 4, 8, 16, 32
    model = sum((r - 1) * (64 // (r * t)) * ((t - 1) + (r - 1) * t) for r, t in ((2, 2**i) for i in range(6)))
    assert counts == [model * cost] * 2


@pytest.mark.parametrize("p,K,s", [(7, 16, t) for t in range(2, 2737) if 2736 % t == 0]
                         + [(3, 8, t) for t in range(2, 105) if 104 % t == 0])
def test_small_plans_match_naive(p, K, s):
    # every divisor s >= 2 of 7^16's planner s = 2736 (the plans poly_multiply draws from there) and of 3^8's s = 104,
    # whose stages fuse where fusing pays: on the int64 plan and its object copy, dft against naive_dft, or past
    # s = 200 against Horner at sampled points, the idft round trip, and poly_multiply on the plan against
    # schoolbook, its chunks filling all s elements; each plan is the one poly_multiply builds, at the default seed
    plan = build_pipeline(p, K, s=s).plan
    m, c = plan.ring.ctx.pK, (plan.ring.degree + 1) // 2
    rng = random.Random(s * p)
    x = random_vector(plan.ring, s, rng)
    if s <= 200:
        js, want = range(s), naive_dft(x, plan.root, s)
    else:
        js = [1, s - 1] + rng.sample(range(2, s - 1), 4)
        want = [horner(x, ring_pow(plan.root, j)) for j in js]
    short = min(8, (s + 1) // 2)  # chunks of g; f's fill the rest: ceil(len f / c) + short - 1 = s
    f = [rng.randrange(m) for _ in range(c * (s + 1 - short))]
    g = [rng.randrange(m) for _ in range(c * short - (c > 1))]
    product = schoolbook(f, g, m)
    assert plan.dtype == np.int64
    for q in (plan, object_copy(plan)):
        xa = np.array([v.coeffs for v in x], dtype=q.dtype)
        evals = dft(xa, q)
        assert [tuple(evals[j].tolist()) for j in js] == [v.coeffs for v in want]
        assert np.array_equal(idft(evals, q), xa)
        assert poly_multiply(f, g, p, K, plan=q) == product


def test_count_is_input_independent():
    pipe = build_pipeline(3, 8, s=104, seed=3)
    plan = pipe.plan
    rng = random.Random(19)
    plan.ring.counter.reset()
    dft([plan.ring.zero()] * 104, plan)
    zeros = plan.ring.counter.count
    plan.ring.counter.reset()
    dft(random_vector(plan.ring, 104, rng), plan)
    assert plan.ring.counter.count == zeros


def test_transform_budget():
    # one transform stays under 8 d^2 s (sum of v*q over the radices of s)
    pipe = build_pipeline(3, 8, N=100)
    plan = pipe.plan
    d, s = plan.ring.degree, plan.s
    weight = sum(plan.radices)
    plan.ring.counter.reset()
    dft([plan.ring.zero()] * s, plan)
    assert 0 < plan.ring.counter.count <= 8 * d * d * s * weight


def test_poly_multiply_planner_path():
    assert poly_multiply([1, 1], [1, 1], 3, 8) == [1, 2, 1]
    assert poly_multiply([4, 5, 6], [1], 3, 4) == [4, 5, 6]
    assert poly_multiply([5], [7], 3, 4) == [35]  # one chunk: s' = 2, the smallest plan the tower builds
    assert poly_multiply([], [1, 2], 3, 4) == []
    assert poly_multiply([3**4, 0], [1, 1], 3, 4) == []
    assert poly_multiply([1, 3**4], [1, 3**4], 3, 8) == [1, 162]  # the top coefficient 3^8 vanishes


def test_poly_multiply_prebuilt_plan():
    pipe = build_pipeline(3, 8, s=104, seed=3)
    m = 3**8
    rng = random.Random(23)
    for _ in range(20):
        fc = [rng.randrange(m) for _ in range(rng.randrange(1, 42))]
        gc = [rng.randrange(m) for _ in range(rng.randrange(1, 42))]
        assert poly_multiply(fc, gc, 3, 8, plan=pipe.plan) == schoolbook(fc, gc, m)


def test_poly_multiply_degree_overflow(monkeypatch):
    import padicfft.pipeline as pipeline_mod

    pipe = build_pipeline(3, 4, s=8, seed=2)
    f = [1] * 5
    with pytest.raises(DegreeOverflow):
        poly_multiply(f, f, 3, 4, plan=pipe.plan)
    # planner hook that cannot reach the degree: no divisor of its s = 8 holds the 9 chunks, refused before any build
    def tiny_planner(p, N):
        return choose_parameters(p, 1)
    builds = []
    monkeypatch.setattr(pipeline_mod, "build_pipeline", lambda *args, **kwargs: builds.append(kwargs))
    with pytest.raises(DegreeOverflow, match="pack into 9 elements of 1 coefficients, plan has s = 8$"):
        poly_multiply(f, f, 3, 4, planner=tiny_planner)
    assert builds == []


@pytest.mark.parametrize("error", [OutOfRange, FactoringFailure])
def test_poly_multiply_planner_failure_is_degree_overflow(error):
    def failing_planner(p, N):
        raise error(f"no length above {N}")

    with pytest.raises(DegreeOverflow, match="no transform length above 3 is available"):
        poly_multiply([1, 2], [3, 4, 5], 3, 4, planner=failing_planner)


def test_poly_multiply_plan_mismatch():
    # a plan over Z/3^4 must not silently reduce a product asked mod 3^8 or 5^4
    plan = build_pipeline(3, 4, s=8, seed=2).plan
    assert poly_multiply([100], [100], 3, 4, plan=plan) == [10000 % 3**4]
    with pytest.raises(ParentMismatch):
        poly_multiply([100], [100], 3, 8, plan=plan)
    with pytest.raises(ParentMismatch):
        poly_multiply([100], [100], 5, 4, plan=plan)


def test_poly_multiply_validates_precision():
    # K and p are checked before any planning; K = 0 used to return [], K < 0 reduced by a float
    def tripwire(p, N):
        raise AssertionError("planner called")

    for p, K in ((3, 0), (3, -1), (4, 2)):
        with pytest.raises(BadInput):
            poly_multiply([1, 2], [3], p, K, planner=tripwire)


def test_poly_multiply_rejects_non_integer_coefficients():
    # 3^8 runs on int64, where a float used to be truncated silently; 7^32 runs on object arrays
    for p, K in ((3, 8), (7, 32)):
        assert poly_multiply([np.int64(2), 1], [3, np.uint8(1)], p, K) == [6, 5, 1]
        for f, g in (([1.5], [2]), ([1, 2.7], [3, 1]), (["1"], [1]), ([1], [np.float64(2)]),
                     ([1], [Fraction(2)])):
            with pytest.raises(BadInput):
                poly_multiply(f, g, p, K)


def test_poly_multiply_builds_each_plan_once(monkeypatch):
    # one build_pipeline call per (p, K, s', seed), seed None being DEFAULT_SEED; the cached plan is that call's plan,
    # of degree ord_s'(p); the planner's s (12584 at 3^8) is built only when it is the divisor that runs (48 at 7^K)
    import padicfft.fft as fft_mod
    import padicfft.pipeline as pipeline_mod

    builds = []
    real_build = pipeline_mod.build_pipeline

    def counting_build(p, K, s, seed):
        builds.append((p, K, s.value, seed))
        return real_build(p, K, s=s, seed=seed)

    monkeypatch.setattr(pipeline_mod, "build_pipeline", counting_build)
    monkeypatch.setattr(fft_mod, "_plans", {})
    default = pipeline_mod.DEFAULT_SEED
    rng = random.Random(29)
    for p, K, lengths, s in ((7, 16, (20, 15), 48), (7, 32, (20, 15), 48), (3, 8, (500, 500), 143)):
        m = p**K
        f, g = ([rng.randrange(m) for _ in range(n)] for n in lengths)
        for seed in (None, default, 3, 3):
            assert poly_multiply(f, g, p, K, seed=seed) == schoolbook(f, g, m)
        assert builds == [(p, K, s, default), (p, K, s, 3)]
        assert [(q, k, t.value, seed) for q, k, t, seed in fft_mod._plans][-2:] == builds
        x = np.array([[rng.randrange(m) for _ in range(multiplicative_order(p, s))] for _ in range(s)])
        for seed in (default, 3):
            plan = fft_mod._plans[p, K, FactoredOrder.of(s), seed]
            fresh = real_build(p, K, s=s, seed=seed).plan
            assert plan.ring.degree == fresh.ring.degree == multiplicative_order(p, s)
            assert (plan.root, plan.dtype) == (fresh.root, fresh.dtype)
            assert dft(x, plan).tolist() == dft(x, fresh).tolist()
        builds.clear()


# An explicit plan per p with d >= 3, so c = (d+1)//2 >= 2 coefficients share an element: (s, d, c) =
# (88, 10, 5) at p=3, (124, 3, 2) at p=5, (304, 6, 3) at p=7 and (54, 3, 2) at p=19.
PACKED_PLAN_S = {3: 88, 5: 124, 7: 304, 19: 54}


@functools.lru_cache(maxsize=None)
def packed_plan(p, K):
    return build_pipeline(p, K, s=PACKED_PLAN_S[p], seed=5).plan


def chunks(n, c):
    return -(-n // c)


@st.composite
def factor(draw, m, max_len, c):
    """Coefficients in [0, m) of a length in 1..max_len, often a multiple of c or one off (max_len when none of
    those fits), with 0 and m - 1 frequent and trailing zeros sometimes."""
    n = draw(st.one_of(st.integers(1, max_len),
                       st.integers(1, max(1, max_len // c)).map(lambda k: k * c)
                       .flatmap(lambda n: st.sampled_from([x for x in (n - 1, n, n + 1) if 1 <= x <= max_len]
                                                          or [max_len]))))
    coeffs = draw(st.lists(st.one_of(st.sampled_from((0, m - 1)), st.integers(0, m - 1)), min_size=n, max_size=n))
    zeros = draw(st.integers(0, min(3, n - 1)))
    return coeffs[: n - zeros] + [0] * zeros


@settings(max_examples=80, deadline=None)
@given(data=st.data(), p=st.sampled_from((3, 5, 7, 19)), K=st.sampled_from((1, 8, 16, 32, 64)),
       explicit=st.booleans())
def test_poly_multiply_matches_schoolbook(data, p, K, explicit):
    # both paths, int64 (p^K <= 2^51) and object arrays, lengths up to 400 near multiples of c
    m = p**K
    if explicit:
        plan = packed_plan(p, K)
        c = (plan.ring.degree + 1) // 2
        f = data.draw(factor(m, min(400, c * plan.s), c))
        g = data.draw(factor(m, min(400, c * (plan.s + 1 - chunks(len(f), c))), c))
    else:
        # len f + len g up to 800 reaches past the planner's s = 104 at p=3, 744 at p=5, 48 at p=7 and 360 at p=19;
        # the next s at p=5 and p=19 (581064 and 137160) runs on a divisor in its own ring
        plan = None
        f = data.draw(factor(m, 400, 15))
        g = data.draw(factor(m, 400, 3))
    assert poly_multiply(f, g, p, K, plan=plan) == schoolbook(f, g, m)


def test_poly_multiply_packed_capacity():
    # an explicit plan of s elements holds ceil(la/c) + ceil(lb/c) - 1 <= s chunks: about c s coefficients
    for p, K in ((3, 8), (7, 32)):
        plan, m = packed_plan(p, K), p**K
        c = (plan.ring.degree + 1) // 2
        f, g = [m - 1] * (c * (plan.s // 2)), [m - 1] * (c * (plan.s + 1 - plan.s // 2))
        assert chunks(len(f), c) + chunks(len(g), c) - 1 == plan.s
        assert poly_multiply(f, g, p, K, plan=plan) == schoolbook(f, g, m)
        with pytest.raises(DegreeOverflow) as info:
            poly_multiply(f, g + [1], p, K, plan=plan)
        message = str(info.value)
        assert f"pack into {plan.s + 1} elements of {c} coefficients, plan has s = {plan.s}" in message
        assert "needs s >" not in message


def test_poly_multiply_runs_the_cheapest_divisor(monkeypatch):
    # (s', d') is the divisor of the planner's s that holds the chunks in its own ring, d' = ord_s'(p) and
    # c' = (d'+1)//2, at the least modelled cost d'^2 s' sum v q
    import padicfft.fft as fft_mod

    runs = []
    real = fft_mod.cyclic_convolution

    def spy(x, y, plan):
        runs.append((plan.s, plan.ring.degree))
        return real(x, y, plan)

    monkeypatch.setattr(fft_mod, "cyclic_convolution", spy)
    rng = random.Random(31)
    for p, K, la, lb, run in ((3, 8, 500, 500, (143, 15)),  # s = 12584 (d = 30): 125 chunks of 8 at d' = 15 < d
                              (7, 16, 600, 600, (456, 6)),  # s = 2736 (d = 6): 399 chunks of 3, d' = d
                              (7, 16, 30, 30, (38, 3))):  # 29 chunks of 2 at s' = 2 19, cheaper than 19 of 3 at 24
        m = p**K
        f, g = ([rng.randrange(1, m) for _ in range(n)] for n in (la, lb))
        assert poly_multiply(f, g, p, K) == schoolbook(f, g, m)
        assert runs.pop() == run


def test_poly_multiply_plan_cache_holds_its_bytes(monkeypatch):
    # the plans kept hold at most PLAN_CACHE_BYTES with the newest, the least recently used dropped first, and a plan
    # larger than the bound is kept alone
    import padicfft.fft as fft_mod

    m = 7**16
    rng = random.Random(29)
    # at 7^16 (planner s = 2736) on s' = 38, 304 and 114
    pairs = [[[rng.randrange(1, m) for _ in range(n)] for n in ab] for ab in ((30, 30), (350, 417), (100, 100))]

    def run(*which):
        for i in which:
            assert poly_multiply(*pairs[i], 7, 16) == schoolbook(*pairs[i], m)
        return [plan.s for plan in fft_mod._plans.values()]

    monkeypatch.setattr(fft_mod, "_plans", {})
    assert run(0, 1, 2) == [38, 304, 114]
    sizes = {plan.s: plan.nbytes for plan in fft_mod._plans.values()}
    assert min(sizes[38], sizes[114]) <= sizes[304]  # so 38 and 114 fit where 304 and either one do
    monkeypatch.setattr(fft_mod, "PLAN_CACHE_BYTES", sizes[304] + max(sizes[38], sizes[114]))
    fft_mod._plans.clear()
    assert run(0, 1, 0) == [304, 38]  # a plan used again is the most recent
    assert run(2) == [38, 114]  # 304, the least recently used, is dropped for 114
    monkeypatch.setattr(fft_mod, "PLAN_CACHE_BYTES", 1)
    assert run(1) == [304]


def test_poly_multiply_divisor_plans_are_reused(monkeypatch):
    # the pipelines built are those of the divisors that run, and a second pass over the same lengths builds nothing
    import padicfft.fft as fft_mod
    import padicfft.pipeline as pipeline_mod

    builds, runs = [], []
    real_build, real_convolution = pipeline_mod.build_pipeline, fft_mod.cyclic_convolution

    def counting_build(*args, **kwargs):
        builds.append(kwargs["s"].value)
        return real_build(*args, **kwargs)

    def spy(x, y, plan):
        runs.append((planned[-1].s, plan.s))
        return real_convolution(x, y, plan)

    def planner(p, N):
        planned.append(choose_parameters(p, N))
        return planned[-1]

    planned = []
    monkeypatch.setattr(pipeline_mod, "build_pipeline", counting_build)
    monkeypatch.setattr(fft_mod, "cyclic_convolution", spy)
    monkeypatch.setattr(fft_mod, "_plans", {})
    rng = random.Random(19)
    m = 7**16
    # factor lengths int(w), w log-uniform on [1, 601), as in the benchmark's polymul-mixed
    lengths = [tuple(int(math.exp(rng.random() * math.log(601))) for _ in range(2)) for _ in range(21)]
    pairs = [([rng.randrange(m) for _ in range(a)], [rng.randrange(m) for _ in range(b)]) for a, b in lengths]
    for f, g in pairs:
        assert poly_multiply(f, g, 7, 16, planner=planner) == schoolbook(f, g, m)
    assert len(planned) == len(runs) == len(pairs)
    assert sorted(builds) == sorted({s for _, s in runs})
    assert all(planner_s % s == 0 for planner_s, s in runs) and any(s < planner_s for planner_s, s in runs)
    built = list(builds)
    for f, g in pairs:
        assert poly_multiply(f, g, 7, 16, planner=planner) == schoolbook(f, g, m)
    assert builds == built


@pytest.mark.parametrize("p,K,s", [(3, 16, 8), (3, 16, 104), (3, 16, 12584), (5, 16, 24), (5, 16, 744),
                                   (7, 16, 48), (7, 16, 2736)])
def test_poly_multiply_across_planner_boundaries(p, K, s):
    # deg f + deg g = s - 1 plans s, and s plans the next planner length, which runs on a divisor in its own ring
    planned = []

    def planner(p, N):
        planned.append(choose_parameters(p, N))
        return planned[-1]

    rng = random.Random(s)
    m = p**K
    for total in (s - 1, s):
        f, g = ([rng.randrange(1, m) for _ in range(n)] for n in (total // 2 + 1, total - total // 2 + 1))
        assert poly_multiply(f, g, p, K, planner=planner) == kronecker(f, g, m)
    assert planned[0].s == s < planned[1].s


def test_poly_multiply_7000_by_7000_mod_3_32(monkeypatch):
    # past the planner's s = 12584 the default path plans s = 13754312 (d = 210), whose tower does not finish here,
    # and runs on its divisor 3146 (d' = 15) without building it
    import padicfft.fft as fft_mod
    import padicfft.pipeline as pipeline_mod

    builds, runs = [], []
    real_build, real_convolution = pipeline_mod.build_pipeline, fft_mod.cyclic_convolution

    def counting_build(*args, **kwargs):
        builds.append(kwargs["s"].value)
        return real_build(*args, **kwargs)

    def spy(x, y, plan):
        runs.append((plan.s, plan.ring.degree))
        return real_convolution(x, y, plan)

    monkeypatch.setattr(pipeline_mod, "build_pipeline", counting_build)
    monkeypatch.setattr(fft_mod, "cyclic_convolution", spy)
    monkeypatch.setattr(fft_mod, "_plans", {})
    assert choose_parameters(3, 13998).s == 13754312
    rng = random.Random(7000)
    m = 3**32
    f, g = ([rng.randrange(m) for _ in range(7000)] for _ in range(2))
    assert poly_multiply(f, g, 3, 32) == kronecker(f, g, m)
    assert runs == [(3146, 15)] and builds == [3146]


def test_validation():
    pipe = build_pipeline(3, 4, s=8, seed=2)
    plan = pipe.plan
    x = [plan.ring.zero()] * 8
    with pytest.raises(LengthMismatch):
        dft(x[:-1], plan)
    other = build_pipeline(3, 4, s=4, seed=2).plan
    with pytest.raises(ParentMismatch):
        dft([other.ring.zero()] * 8, plan)
    # list entries that are not ring elements at all
    for bad in ([[1, 0]] * 8, list(range(8))):
        for op, args in ((dft, (bad,)), (idft, (bad,)), (cyclic_convolution, (bad, x))):
            with pytest.raises(BadInput, match="not a ring element"):
                op(*args, plan)
    with pytest.raises(PrecisionTooLow):
        make_plan(8, pipe.lift, 5)
    with pytest.raises(BadInput):
        make_plan(8, pipe.lift, 0)
    with pytest.raises(RootNotPrimitive):
        make_plan(4, pipe.lift, 4)  # root has order 8, not 4
    from padicfft.errors import NotCoprime
    with pytest.raises(NotCoprime):
        make_plan(9, pipe.lift, 4)
    # a root of order a proper divisor of s passes root^s = 1 and fails at the prime q with root^(s/q) = 1, read off
    # axis q^v's powers: alpha^2 and alpha^3 of the s=48 plan (int64), alpha^2 and alpha^5 of the s=40 plan (object)
    for p, K, s, exponents in ((7, 16, 48, (2, 3)), (19, 32, 40, (2, 5))):
        base = build_pipeline(p, K, s=s, seed=2).plan
        for e in exponents:
            lift = LiftResult(base.ring, ring_pow(base.root, e), steps=0, base_mults=0)
            with pytest.raises(RootNotPrimitive, match=f"root order divides {s}/{e}$"):
                make_plan(s, lift, K)
    # arrays come from outside: shape, type and range are checked on both backends
    m, d = plan.ring.ctx.pK, plan.ring.degree
    for pl in (plan, object_copy(plan)):
        for form in (np.int64, object):
            good = np.zeros((8, d), dtype=form)
            for op, args in ((dft, (good,)), (idft, (good,)), (cyclic_convolution, (good, good))):
                op(*args, pl)
                for shape in ((7, d), (8, d + 1), (8 * d,)):
                    with pytest.raises(LengthMismatch):
                        op(*(np.zeros(shape, dtype=form) for _ in args), pl)
                for value in (m, -1):
                    wrong = good.copy()
                    wrong[3, 1] = value
                    with pytest.raises(BadInput):
                        op(*(wrong for _ in args), pl)
    with pytest.raises(BadInput):
        dft(np.zeros((8, d)), plan)
    with pytest.raises(BadInput):
        dft(np.full((8, d), 0.5, dtype=object), plan)


def test_elements_with_the_wrong_number_of_coefficients_are_refused():
    # the list path reads the elements' coefficients as one flat run: a coefficient too many on element 0 would shift
    # every later one (evaluation 0 read (1, 35) where it is (36, 0)), one on the last element would be dropped
    # unseen, and one too few would leave the run short; each is refused, in any position, by dft, idft and
    # cyclic_convolution
    plan = build_pipeline(3, 8, s=8, seed=2).plan
    ring = plan.ring
    x = [ring.from_int(k + 1) for k in range(8)]
    assert dft(x, plan)[0].coeffs == (36, 0)
    for at in (0, 5, 7):
        for coeffs in ((at + 1, 0, 0), (at + 1,), ()):
            bad = x[:at] + [RingElement(ring, coeffs)] + x[at + 1:]
            for op, args in ((dft, (bad,)), (idft, (bad,)), (cyclic_convolution, (bad, x)),
                             (cyclic_convolution, (x, bad))):
                with pytest.raises(LengthMismatch, match=f"element has {len(coeffs)} coefficients"):
                    op(*args, plan)


def test_idft_reads_its_input_through_the_one_gather(monkeypatch):
    # idft hands its input array to _transform as it is, with the gather read at -k mod s, so the gather is the one
    # (s, d) copy of its input; the output is s^-1 times the dft of the input read at -k mod s, on both backends
    import padicfft.fft as fft_mod

    plan = build_pipeline(7, 16, s=36, seed=2).plan
    s, m = plan.s, plan.ring.ctx.pK
    seen = []
    real = fft_mod._transform
    monkeypatch.setattr(fft_mod, "_transform", lambda arr, pl, stages, gather: seen.append((arr, gather))
                        or real(arr, pl, stages, gather))
    rng = random.Random(36)
    for q in (plan, object_copy(plan)):
        x = np.array([v.coeffs for v in random_vector(q.ring, s, rng)], dtype=q.dtype)
        seen.clear()
        out = idft(x, q)
        [(arr, gather)] = seen
        assert arr is x and np.array_equal(gather, -q.index_maps[0] % s)
        want = dft(x[-np.arange(s) % s], q).astype(object) * pow(s, -1, m) % m
        assert out.dtype == q.dtype and (out.astype(object) == want).all()


def test_equal_ring_elements_accepted():
    # elements of an equal but distinct RingExtension pass validation, alone or mixed with the plan ring's own
    plan = build_pipeline(3, 8, s=8, seed=2).plan
    twin = RingExtension(plan.ring.ctx, plan.ring.modulus)
    assert twin is not plan.ring and twin.same(plan.ring)
    x = random_vector(plan.ring, 8, random.Random(8))
    mixed = [twin.element(v.coeffs) if i % 2 else v for i, v in enumerate(x)]
    assert dft([twin.element(v.coeffs) for v in x], plan) == dft(mixed, plan) == dft(x, plan)


def test_projection_failure_detected(monkeypatch):
    # products of constants are constant, so force a bad convolution result
    # to show the projection check actually fires
    import padicfft.fft as fft_mod

    pipe = build_pipeline(3, 4, s=4, seed=7)
    plan = pipe.plan
    bad = np.ones((4, 2), dtype=plan.dtype)
    bad[0, 1] = 0
    monkeypatch.setattr(fft_mod, "cyclic_convolution", lambda x, y, p: bad)
    with pytest.raises(CoefficientNotRational, match="coefficient 1 "):
        poly_multiply([1, 1], [1, 1], 3, 4, plan=plan)
    # d = 6 packs c = 3 coefficients per element, whose products fill coordinates 0..4 and leave 5 zero;
    # element i holds the product's coefficients from 3 i on
    plan = build_pipeline(3, 4, s=7, seed=7).plan
    assert plan.ring.degree == 6
    bad = np.zeros((7, 6), dtype=plan.dtype)
    bad[:3, :5] = 1
    monkeypatch.setattr(fft_mod, "cyclic_convolution", lambda x, y, p: bad)
    assert poly_multiply([1, 1, 1, 1], [1, 1, 1, 1, 1], 3, 4, plan=plan) == [1, 1, 1, 2, 2, 1, 2, 2]  # overlap-add
    bad[2, 5] = 1
    with pytest.raises(CoefficientNotRational, match="coefficient 6 "):
        poly_multiply([1, 1, 1, 1], [1, 1, 1, 1, 1], 3, 4, plan=plan)
