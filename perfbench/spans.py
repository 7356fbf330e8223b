"""Spans around padicfft's public functions, recorded from outside the library.

While `Tracer.recording()` is active, selected module-level functions of
padicfft are replaced by wrappers in every padicfft namespace that holds
them. Each call becomes one span (name, start, end, parent) appended to
flat arrays that stay in memory until the run ends. A few wrappers also read
the library's own model counters (`MulCounter`, `LiftResult.base_mults`),
so the modelled counts sit beside the timings. Nothing inside padicfft is
edited; leaving `recording()` restores every original function.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _plan_count(args, kwargs):
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return plan.ring.counter.count


def _model_delta(tracer, label, before, args, kwargs, result):
    tracer.counts[label + ".model_mults"] += _plan_count(args, kwargs) - before


def _after_make_plan(tracer, label, before, args, kwargs, result):
    tracer.counts[label + ".model_mults"] += result.ring.counter.count


def _after_ring_mul_batch(tracer, label, before, args, kwargs, result):
    tracer.counts[label + ".elems"] += int(np.prod(result.shape[:-1]))
    tracer.counts[label + ".bytes_computed"] += 8 * (np.size(args[0]) + np.size(args[1]) + result.size)


def _after_mul_mod(tracer, label, before, args, kwargs, result):
    tracer.counts[label + ".elems"] += result.size


def _after_tower(tracer, label, before, args, kwargs, result):
    tracer.counts["tower.base_mults"] += result.base_counter.count


def _after_lift(tracer, label, before, args, kwargs, result):
    tracer.counts["lifting.steps"] += result.steps
    tracer.counts["lifting.base_mults"] += result.base_mults


def _after_pipeline(tracer, label, before, args, kwargs, result):
    tracer.plan_keys.append((result.p, result.K, result.s))


@dataclass(frozen=True)
class Target:
    """One padicfft function to wrap.

    `label` names the span metrics `<label>.{calls,self_s,total_s}`; a
    target with span=False only counts its calls under `label`. `counts`
    names the metrics its hooks add to. `only_in` limits the patch to those
    modules' names (calls made from there); empty means every padicfft
    module holding the function.
    """

    module: str
    name: str
    label: str
    span: bool = True
    only_in: tuple = ()
    counts: tuple = ()
    before: Callable | None = None
    after: Callable | None = None


TARGETS = (
    Target("padicfft.planner", "choose_parameters", "planner.choose_parameters"),
    Target("padicfft.pipeline", "build_pipeline", "pipeline.build_pipeline", after=_after_pipeline),
    Target("padicfft.tower", "build_root_of_unity", "tower.build_root_of_unity",
           counts=("tower.base_mults",), after=_after_tower),
    Target("padicfft.tower", "cz_split", "tower.cz_split"),
    Target("padicfft.tower", "ff_random_monic", "tower.cz_rounds", span=False, only_in=("padicfft.tower",),
           counts=("tower.cz_rounds",)),
    Target("padicfft.ffield", "ff_poly_modpow", "ffield.ff_poly_modpow", only_in=("padicfft.tower",)),
    Target("padicfft.lifting", "newton_lift_root", "lifting.newton_lift_root",
           counts=("lifting.steps", "lifting.base_mults"), after=_after_lift),
    Target("padicfft.fft", "make_plan", "fft.make_plan", counts=("fft.make_plan.model_mults",),
           after=_after_make_plan),
    Target("padicfft.fft", "dft", "fft.dft", counts=("fft.dft.model_mults",),
           before=_plan_count, after=_model_delta),
    Target("padicfft.fft", "idft", "fft.idft", counts=("fft.idft.model_mults",),
           before=_plan_count, after=_model_delta),
    Target("padicfft.fft", "cyclic_convolution", "fft.cyclic_convolution"),
    Target("padicfft.fft", "poly_multiply", "fft.poly_multiply"),
    Target("padicfft.kernels", "ring_mul_batch", "kernels.ring_mul_batch",
           counts=("kernels.ring_mul_batch.elems", "kernels.ring_mul_batch.bytes_computed"),
           after=_after_ring_mul_batch),
    Target("padicfft.kernels", "mul_mod", "kernels.mul_mod", counts=("kernels.mul_mod.elems",),
           after=_after_mul_mod),
    Target("padicfft.kernels", "power_table", "kernels.power_table"),
    Target("padicfft.padic", "ring_mul", "padic.ring_mul"),
    Target("padicfft.padic", "ring_pow", "padic.ring_pow"),
)


class Tracer:
    """Span store plus the wrappers that fill it; one per traced run."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.plan_keys = []
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def recording(self):
        """Wrap every target for the duration of the block."""
        if self._patches:
            raise RuntimeError("recording() is not re-entrant")
        try:
            for nid, target in enumerate(TARGETS):
                self._install(nid, target)
            yield self
        finally:
            for namespace, attr, original in reversed(self._patches):
                setattr(namespace, attr, original)
            self._patches.clear()

    def _install(self, nid: int, target: Target):
        original = getattr(sys.modules[target.module], target.name)
        wrapper = self._wrap(nid, target, original)
        if target.only_in:
            namespaces = [sys.modules[m] for m in target.only_in]
        else:
            namespaces = [m for n, m in list(sys.modules.items())
                          if n == "padicfft" or n.startswith("padicfft.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._patches.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)

    def _wrap(self, nid: int, target: Target, fn):
        label, before, after = target.label, target.before, target.after
        if not target.span:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)

            return counted
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            state = before(args, kwargs) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after:
                after(self, label, state, args, kwargs, result)
            return result

        return traced

    def _columns(self):
        start = np.asarray(self.start, dtype=np.float64)
        dur = np.asarray(self.end, dtype=np.float64) - start
        return dur, np.asarray(self.parent, dtype=np.int64), np.asarray(self.name, dtype=np.int64)

    def root_seconds(self) -> float:
        """Total duration of spans with no wrapped parent: the traced share of wall time."""
        dur, parent, _ = self._columns()
        return float(dur[parent < 0].sum())

    def metrics(self) -> dict:
        """Span, count and plan-repeat metrics of everything recorded so far.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans sum to root_seconds().
        """
        dur, parent, name = self._columns()
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for nid, target in enumerate(TARGETS):
            if target.span:
                mine = name == nid
                out[target.label + ".calls"] = int(mine.sum())
                out[target.label + ".self_s"] = float(own[mine].sum())
                out[target.label + ".total_s"] = float(dur[mine].sum())
            for count in target.counts:
                out[count] = self.counts[count]
        keys = self.plan_keys
        out["pipeline.plan_repeat_share"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        out["trace.spans"] = len(dur)
        return out
