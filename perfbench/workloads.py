"""The benchmark's workloads: seeded inputs, a closed timed loop, and exact checks.

Each workload has a `setup(seed)` that makes everything the timed loop needs
and a `run(...)` that is the loop: one caller issues the next operation only
after the previous one returned. Inputs come from the benchmark seed alone;
the library receives only the generated inputs. Every operation's result is
checked outside its timed interval, and a check that fails or an operation
that raises marks that operation failed.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import reference
from padicfft import fft, pipeline, planner
from padicfft.padic import ring_pow

# The tower's randomness is fixed, as in `padicfft dft` without --seed, so
# the benchmark seed only moves the inputs and never the plan.
PIPELINE_SEED = pipeline.DEFAULT_SEED


@dataclass
class OpRecord:
    seconds: float
    ok: bool
    model: tuple  # modelled multiplications the op charged


@dataclass
class Setup:
    """What `run` needs, the library time spent making it, its check and model counts."""

    state: object
    seconds: float
    ok: bool
    model: tuple


@dataclass
class LoopResult:
    """The ops of a timed loop and the reference readings taken between them.

    `probes` holds (ops completed before the reading, slowdown) pairs; the
    first is taken before the first op and the last after the last op.
    """

    parts: tuple = ()  # the reference parts read; none leaves wall time as it is
    ops: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    _since_probe: float = 0.0

    @property
    def busy(self) -> float:
        return sum(op.seconds for op in self.ops)

    def probe(self, every: float = 0.0) -> None:
        """Read the reference when `every` seconds of op time passed since the last reading."""
        if self._since_probe >= every or not self.probes:
            self.probes.append((len(self.ops), reference.slowdown(self.parts)))
            self._since_probe = 0.0

    def add(self, op: "OpRecord") -> None:
        self.ops.append(op)
        self._since_probe += op.seconds

    def ref_seconds(self) -> list:
        """Each op's wall time over the mean slowdown of the readings just before and after it."""
        out = []
        for (start, before), (end, after) in zip(self.probes, self.probes[1:]):
            out += [op.seconds * 2 / (before + after) for op in self.ops[start:end]]
        return out

    @property
    def models(self) -> list:
        return [op.model for op in self.ops]


def _pipeline_model(pipes) -> tuple:
    """(tower, lift, transform-ring) model counts of each pipeline, as they stand now."""
    return tuple((p.tower.base_counter.count, p.lift.base_mults, p.plan.ring.counter.count) for p in pipes)


untraced = contextlib.nullcontext
# Op time between two readings of the reference speed.
PROBE_EVERY_S = 0.5


def _keep_going(result: LoopResult, seconds, count) -> bool:
    """True until `seconds` of op time and `count` ops, each when given."""
    return (seconds is not None and result.busy < seconds) or (count is not None and len(result.ops) < count)


def _timed(call, record):
    """(output, seconds, raised) of one call inside `record()`."""
    t0 = time.perf_counter()
    try:
        with record():
            out = call()
    except Exception:  # the loop must go on; the op counts as failed
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - t0, True
    return out, time.perf_counter() - t0, False


def random_vector(ring, s: int, rng: random.Random):
    pK = ring.ctx.pK
    return [ring.element([rng.randrange(pK) for _ in range(ring.degree)]) for _ in range(s)]


def horner(values, point):
    """sum values[i] * point^i, by Horner's rule."""
    acc = point.parent.zero()
    for v in reversed(values):
        acc = acc * point + v
    return acc


def check_dft(x, X, plan, horner_at: int | None = None) -> bool:
    """Spot checks of X = dft(x) that need no transform.

    f(alpha^0) is the coefficient sum and f(alpha^(s/2)) = f(-1) the
    alternating sum; when horner_at is given, X[horner_at] is also compared
    with a direct Horner evaluation at alpha^horner_at.
    """
    s, pK = plan.s, plan.ring.ctx.pK
    if not isinstance(X, list) or len(X) != s or s % 2:
        return False
    cols = list(zip(*(v.coeffs for v in x)))
    total = tuple(sum(c) % pK for c in cols)
    alternating = tuple((sum(c[0::2]) - sum(c[1::2])) % pK for c in cols)
    try:
        if X[0].coeffs != total or X[s // 2].coeffs != alternating:
            return False
    except AttributeError:  # not a ring element
        return False
    if horner_at is not None:
        return X[horner_at] == horner(x, ring_pow(plan.root, horner_at))
    return True


@dataclass(frozen=True)
class TransformWorkload:
    """Alternating dft and idft of seeded random vectors over one fixed plan.

    Each loop step is a dft of a fresh vector followed by an idft of its
    output, so every pair is also a round-trip check.
    """

    name: str
    p: int
    K: int
    N: int
    reference: tuple = reference.BOTH

    def setup(self, seed: int, record=untraced) -> Setup:
        """Planner, tower, lift and make_plan: the plan every op uses."""
        t0 = time.perf_counter()
        with record():
            pipe = pipeline.build_pipeline(self.p, self.K, N=self.N, seed=PIPELINE_SEED)
        secs = time.perf_counter() - t0
        return Setup(state=pipe.plan, seconds=secs, ok=True, model=_pipeline_model([pipe]))

    def inputs(self, plan, seed: int):
        """The Horner check's index and an endless stream of input vectors, all from the seed."""
        rng = random.Random(f"{self.name}:{seed}")
        horner_at = rng.randrange(1, plan.s)
        return horner_at, (random_vector(plan.ring, plan.s, rng) for _ in itertools.count())

    def run(self, plan, seed: int, seconds: float | None = None, count: int | None = None,
            record=untraced) -> LoopResult:
        """Timed loop until `seconds` of op time and `count` ops, each when given.

        The first dft is also checked by one Horner evaluation at a seeded index.
        """
        horner_at, vectors = self.inputs(plan, seed)
        counter = plan.ring.counter
        result = LoopResult(self.reference)
        while _keep_going(result, seconds, count):
            x = next(vectors)
            result.probe(PROBE_EVERY_S)
            before = counter.count
            X, secs, raised = _timed(lambda: fft.dft(x, plan), record)
            ok = not raised and check_dft(x, X, plan, None if result.ops else horner_at)
            result.add(OpRecord(secs, ok, (counter.count - before,)))
            if raised:
                continue
            result.probe(PROBE_EVERY_S)
            before = counter.count
            y, secs, raised = _timed(lambda: fft.idft(X, plan), record)
            result.add(OpRecord(secs, not raised and y == x, (counter.count - before,)))
        result.probe()
        return result


def schoolbook(f, g, m: int) -> list:
    """f*g mod m with trailing zeros dropped, the reference for poly_multiply."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    out = [c % m for c in out]
    while out and out[-1] == 0:
        out.pop()
    return out


@contextlib.contextmanager
def captured_pipelines(out: list):
    """Append every PipelineResult that poly_multiply builds while the block runs."""
    original = pipeline.build_pipeline

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        out.append(result)
        return result

    pipeline.build_pipeline = capture
    try:
        yield
    finally:
        pipeline.build_pipeline = original


@dataclass(frozen=True)
class ProductWorkload:
    """poly_multiply(plan=None) on seeded length pairs, as `padicfft mul` calls it.

    Each factor length is int(w) with w log-uniform on [1, max_len + 1).
    The run's set holds one pair from each of `pairs_per_set` equal-
    probability strata of wa + wb, a continuous stand-in for the product
    length, drawn by rejection from the seed, and the loop makes whole
    passes over the set. So every seed and every run measures nearly the
    same mix of short and long products.
    """

    name: str
    p: int
    K: int
    max_len: int = 600
    pairs_per_set: int = 21
    reference: tuple = reference.BOTH

    def _draw(self, rng: random.Random) -> tuple:
        top = math.log(self.max_len + 1)
        return math.exp(rng.random() * top), math.exp(rng.random() * top)

    def _strata_edges(self) -> list:
        """Quantiles of wa + wb, estimated once from a constant seed."""
        rng = random.Random(0)
        sample = sorted(sum(self._draw(rng)) for _ in range(400 * self.pairs_per_set))
        step = len(sample) / self.pairs_per_set
        return [sample[int(k * step)] for k in range(1, self.pairs_per_set)]

    def pairs(self, seed: int) -> list:
        """The seed's length pairs, shortest stratum first."""
        edges = [0.0] + self._strata_edges() + [math.inf]
        rng = random.Random(f"{self.name}:lengths:{seed}")
        pairs = []
        for lo, hi in zip(edges, edges[1:]):
            while True:
                wa, wb = self._draw(rng)
                if lo <= wa + wb < hi:
                    break
            pairs.append((int(wa), int(wb)))
        return pairs

    def _factors(self, a: int, b: int, rng: random.Random) -> tuple:
        m = self.p**self.K
        return [rng.randrange(m) for _ in range(a)], [rng.randrange(m) for _ in range(b)]

    def inputs(self, pairs, seed: int):
        """Endless (f, g) factors from the seed, pass after pass over `pairs`."""
        rng = random.Random(f"{self.name}:coeffs:{seed}")
        return (self._factors(a, b, rng) for _ in itertools.count() for a, b in pairs)

    def _product(self, f, g, record) -> OpRecord:
        pipes = []
        with captured_pipelines(pipes):
            # The planner is poly_multiply's default, passed by name so a traced run sees the call.
            out, secs, raised = _timed(
                lambda: fft.poly_multiply(f, g, self.p, self.K, planner=planner.choose_parameters), record)
        ok = not raised and out == schoolbook(f, g, self.p**self.K)
        return OpRecord(secs, ok, _pipeline_model(pipes))

    def setup(self, seed: int, record=untraced) -> Setup:
        """The seed's pairs, after one warm-up product of the set's largest length pair."""
        pairs = self.pairs(seed)
        a, b = max(pairs, key=lambda ab: (ab[0] + ab[1], ab))
        f, g = self._factors(a, b, random.Random(f"{self.name}:warmup:{seed}"))
        warm = self._product(f, g, record)
        return Setup(state=pairs, seconds=warm.seconds, ok=warm.ok, model=warm.model)

    def run(self, pairs, seed: int, seconds: float | None = None, count: int | None = None,
            record=untraced) -> LoopResult:
        """Whole passes over the set until `seconds` of op time and `count` ops, each when given."""
        factors = self.inputs(pairs, seed)
        result = LoopResult(self.reference)
        while _keep_going(result, seconds, count):
            for f, g in itertools.islice(factors, len(pairs)):
                result.probe(PROBE_EVERY_S)
                result.add(self._product(f, g, record))
        result.probe()
        return result


WORKLOADS = {
    w.name: w
    for w in (
        # The reference parts do not track the speed of its 12-15 s numpy
        # transforms (see README), so its ops read none.
        TransformWorkload("transform-large", p=3, K=32, N=10**4, reference=()),
        TransformWorkload("transform-bigmod", p=7, K=32, N=1000),
        ProductWorkload("polymul-mixed", p=7, K=16),
    )
}
