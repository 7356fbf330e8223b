import dataclasses
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from padicfft.errors import (
    BadInput,
    CoefficientNotRational,
    DegreeOverflow,
    LengthMismatch,
    ParentMismatch,
    PrecisionTooLow,
    RootNotPrimitive,
)
from padicfft.fft import (
    cyclic_convolution,
    dft,
    idft,
    make_plan,
    naive_dft,
    poly_multiply,
)
from padicfft.lifting import newton_lift_root
from padicfft.padic import ring_pow
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
    assert plan.table.dtype == object
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
    assert plan.table.dtype == object
    rng = random.Random(9)
    x = random_vector(plan.ring, 40, rng)
    assert idft(dft(x, plan), plan) == x


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
    slow = dataclasses.replace(fast, table=fast.table.astype(object))
    assert fast.table.dtype == np.int64
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
                    assert out.dtype == plan.table.dtype
                    outs.append([tuple(row) for row in out.tolist()])
                else:
                    outs.append([v.coeffs for v in out])
        assert outs[0] == outs[1] == outs[2] == outs[3]
        assert counts[0] == counts[1] == counts[2] == counts[3] > 0


def test_transform_outputs_pinned():
    # outputs and per-call counter deltas of every transform entry point, over int64 plans, their
    # object-table copies and object plans, up to the transform-large plan (s=12584, d=30); the
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
        if plan.table.dtype == np.int64 and s <= 2736:
            variants.append((dataclasses.replace(plan, table=plan.table.astype(object)), ops if s < 1000 else arrays))
        ring, m = plan.ring, plan.ring.ctx.pK
        rng = random.Random(s * 100 + K)
        x, y = ([[rng.randrange(m) for _ in range(ring.degree)] for _ in range(s)] for _ in range(2))
        f, g = ([rng.randrange(m) for _ in range(s // 2)] for _ in range(2))
        for q, names in variants:
            xa, ya = (np.array(v, dtype=q.table.dtype) for v in (x, y))
            calls = {"dft": lambda: dft(xa, q), "idft": lambda: idft(xa, q),
                     "idft list": lambda: [v.coeffs for v in idft([ring.element(c) for c in x], q)],
                     "convolution": lambda: cyclic_convolution(xa, ya, q),
                     "product": lambda: poly_multiply(f, g, p, K, plan=q)}
            for name in names:
                ring.counter.reset()
                out = calls[name]()
                if isinstance(out, np.ndarray):
                    assert out.dtype == q.table.dtype
                    out = out.tolist()
                rows.append((p, K, s, str(q.table.dtype), name, ring.counter.count, out))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "1a604c47f0d66affe44f1a5f6fd1406cbabaac6fb0d2d62bb0c654507f7f4d4f"


@pytest.mark.parametrize("p,K,s", [(3, 32, 104), (7, 32, 2736)])
def test_tiled_butterflies_match_untiled(monkeypatch, p, K, s):
    # a tiny tile splits the radix-13 (s=104) and radix-19 (s=2736, object
    # arrays) stages into several contraction, output and row tiles, and the
    # twiddle and power-table products into several batch tiles
    import padicfft.fft as fft_mod
    from padicfft import kernels

    pipe = build_pipeline(p, K, s=s, seed=2)
    plan = pipe.plan
    counter = plan.ring.counter
    rng = random.Random(s)
    x = random_vector(plan.ring, s, rng)
    y = random_vector(plan.ring, s, rng)
    root = np.asarray(plan.root.coeffs, dtype=plan.table.dtype)
    one_product_per_row = kernels.power_table(root, s, fft_mod._fhead(plan.ring, root.dtype), plan.ring.ctx.pK)
    # log of twiddle stages (view shape), their batched products (x shape) and the stacked matmuls under them
    log = []
    real = fft_mod._twiddle, fft_mod._ring_scale, kernels.matmul_mod
    monkeypatch.setattr(fft_mod, "_twiddle", lambda view, *a: log.append(("stage", view.shape)) or real[0](view, *a))
    monkeypatch.setattr(fft_mod, "_ring_scale", lambda x, *a: log.append(("pass", x.shape)) or real[1](x, *a))
    monkeypatch.setattr(kernels, "matmul_mod",
                        lambda a, *rest: (a.ndim == 3 and log.append(("tile", a.shape))) or real[2](a, *rest))
    runs = []
    for tile in (fft_mod.TILE, 64):
        monkeypatch.setattr(fft_mod, "TILE", tile)
        assert np.array_equal(make_plan(plan.s_factored, pipe.lift, K).table, one_product_per_row)
        outs, counts = [], []
        for op, args in ((dft, (x,)), (idft, (x,)), (cyclic_convolution, (x, y))):
            counter.reset()
            log.clear()
            outs.append(op(*args, plan))
            counts.append(counter.count)
            if op is dft:
                dft_log = list(log)
        runs.append((outs, counts))
    assert runs[0] == runs[1]
    # per twiddle stage of the TILE = 64 dft: t -> its passes, each with its tile count
    stages = {}
    for kind, shape in dft_log:
        if kind == "stage":
            passes = stages.setdefault(shape[2], [])
        elif kind == "pass":
            passes.append([shape, 0])
        else:
            passes[-1][1] += 1
    two_factor = [t for t, passes in stages.items() if len(passes) == 2]
    assert two_factor and any(tiles > 1 for passes in stages.values() for _, tiles in passes)
    if s == 104:
        assert len(stages[13]) == 1 and stages[13][0][0][0] == 12  # one pass: (r-1)(t-1) twiddles
        assert [shape[0] for shape, _ in stages[26]] == [12, 1]  # c = 13: (r-1)(c-1), then (r-1)(t/c - 1)
    evals = runs[1][0][0]
    if s <= 104:
        assert evals == naive_dft(x, plan.root, s)
    else:
        for j in (1, 5, 144, s - 1):
            assert evals[j] == naive_dft(x, ring_pow(plan.root, j), 2)[1]


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
    assert poly_multiply([], [1, 2], 3, 4) == []
    assert poly_multiply([3**4, 0], [1, 1], 3, 4) == []


def test_poly_multiply_prebuilt_plan():
    pipe = build_pipeline(3, 8, s=104, seed=3)
    m = 3**8
    rng = random.Random(23)
    for _ in range(20):
        fc = [rng.randrange(m) for _ in range(rng.randrange(1, 42))]
        gc = [rng.randrange(m) for _ in range(rng.randrange(1, 42))]
        assert poly_multiply(fc, gc, 3, 8, plan=pipe.plan) == schoolbook(fc, gc, m)


def test_poly_multiply_degree_overflow():
    pipe = build_pipeline(3, 4, s=8, seed=2)
    f = [1] * 5
    with pytest.raises(DegreeOverflow):
        poly_multiply(f, f, 3, 4, plan=pipe.plan)
    # planner hook that cannot reach the degree
    def tiny_planner(p, N):
        return choose_parameters(p, 1)
    with pytest.raises(DegreeOverflow):
        poly_multiply(f, f, 3, 4, planner=tiny_planner)


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


def test_poly_multiply_reuses_default_plan(monkeypatch):
    import padicfft.fft as fft_mod
    import padicfft.pipeline as pipeline_mod

    builds = []
    real_build = pipeline_mod.build_pipeline

    def counting_build(*args, **kwargs):
        builds.append(kwargs.get("s"))
        return real_build(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "build_pipeline", counting_build)
    fft_mod._default_plan.cache_clear()
    rng = random.Random(29)
    for K, dtype in ((16, np.int64), (32, object)):
        m = 7**K
        f, g = ([rng.randrange(m) for _ in range(n)] for n in (20, 15))
        assert poly_multiply(f, g, 7, K) == schoolbook(f, g, m)
        assert [s.value for s in builds] == [48]  # each K builds its own plan
        f, g = ([rng.randrange(m) for _ in range(n)] for n in (10, 30))
        assert poly_multiply(f, g, 7, K) == schoolbook(f, g, m)  # s=48 again: no build
        assert len(builds) == 1
        plan = fft_mod._default_plan(7, K, builds[0], None)
        assert plan.table.dtype == dtype
        for _ in range(2):
            assert poly_multiply(f, g, 7, K, seed=3) == schoolbook(f, g, m)
        assert len(builds) == 2  # another seed builds once, then reuses its plan
        assert fft_mod._default_plan(7, K, builds[1], 3).root == real_build(7, K, s=plan.s, seed=3).plan.root
        fresh = real_build(7, K, s=plan.s).plan
        x = np.array([[rng.randrange(m) for _ in range(plan.ring.degree)] for _ in range(plan.s)])
        assert dft(x, plan).tolist() == dft(x, fresh).tolist()
        builds.clear()


def test_validation():
    pipe = build_pipeline(3, 4, s=8, seed=2)
    plan = pipe.plan
    x = [plan.ring.zero()] * 8
    with pytest.raises(LengthMismatch):
        dft(x[:-1], plan)
    other = build_pipeline(3, 4, s=4, seed=2).plan
    with pytest.raises(ParentMismatch):
        dft([other.ring.zero()] * 8, plan)
    with pytest.raises(PrecisionTooLow):
        make_plan(8, pipe.lift, 5)
    with pytest.raises(BadInput):
        make_plan(8, pipe.lift, 0)
    with pytest.raises(RootNotPrimitive):
        make_plan(4, pipe.lift, 4)  # root has order 8, not 4
    from padicfft.errors import NotCoprime
    with pytest.raises(NotCoprime):
        make_plan(9, pipe.lift, 4)
    # arrays come from outside: shape, type and range are checked on both backends
    m, d = plan.ring.ctx.pK, plan.ring.degree
    for pl in (plan, dataclasses.replace(plan, table=plan.table.astype(object))):
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


def test_projection_failure_detected(monkeypatch):
    # products of constants are constant, so force a bad convolution result
    # to show the projection check actually fires
    import padicfft.fft as fft_mod

    pipe = build_pipeline(3, 4, s=4, seed=7)
    plan = pipe.plan
    bad = np.ones((4, 2), dtype=plan.table.dtype)
    bad[0, 1] = 0
    monkeypatch.setattr(fft_mod, "cyclic_convolution", lambda x, y, p: bad)
    with pytest.raises(CoefficientNotRational, match="coefficient 1 "):
        poly_multiply([1, 1], [1, 1], 3, 4, plan=plan)
