"""A fixed reference computation that reads how fast the machine runs right now.

On a shared host the speed of this process drifts: other tenants' load
changes how fast the same instructions retire, by as much as 1.6x over tens
of seconds, and CPU time drifts with wall time. A timed loop of 15-25 s
samples one phase of that drift. The benchmark therefore times this reference
between the ops of its timed loop and rescales each op's wall time by how
slow the reference ran around it. The reference uses none of padicfft, so a
change to the library moves the ops and not the reference.

It has two parts, one per kind of arithmetic the library's engines run:
`python` is interpreted schoolbook products of big-integer coefficient
lists reduced mod a modulus above 2^64 (the python engine's kind of work),
`numpy` is exact int64 modular products of arrays by the float-quotient
method (the numpy engine's kind of work). Each part is a fixed amount of
work that takes 10-12 ms at the nominal speed. A workload names the parts
it reads; with none, its times stay wall times.
"""

from __future__ import annotations

import time

import numpy as np

# Wall seconds each part takes at the nominal speed, its fast phase on the
# host this was written on. A ref second is a wall second over the slowdown.
NOMINAL_S = {"python": 0.012, "numpy": 0.010}
BOTH = tuple(NOMINAL_S)

_PY_MODULUS = 7**32
_PY_A = tuple((7**31 * (i + 3) + 12345 * i) % _PY_MODULUS for i in range(6))
_PY_B = tuple((5**40 * (i + 1) + 999 * i) % _PY_MODULUS for i in range(6))
_PY_REPS = 1300

_NP_MODULUS = 3**32
_NP_A = np.arange(1, 4001, dtype=np.int64) * 1_000_003 % _NP_MODULUS
_NP_B = np.arange(7, 4007, dtype=np.int64) * 998_244_353 % _NP_MODULUS
_NP_REPS = 260


def _python_work() -> int:
    m, acc = _PY_MODULUS, 0
    for _ in range(_PY_REPS):
        prod = [0] * 11
        for i, x in enumerate(_PY_A):
            for j, y in enumerate(_PY_B):
                prod[i + j] += x * y
        acc = (acc + sum(c % m for c in prod)) % m
    return acc


def _numpy_work() -> int:
    a, b, m = _NP_A, _NP_B, _NP_MODULUS
    acc = 0
    with np.errstate(over="ignore"):
        for _ in range(_NP_REPS):
            q = (a.astype(np.float64) * b.astype(np.float64) * (1.0 / m)).astype(np.uint64)
            r = (a.astype(np.uint64) * b.astype(np.uint64) - q * np.uint64(m)).view(np.int64)
            acc ^= int(np.mod(r, m)[-1])
    return acc


_WORK = {"python": _python_work, "numpy": _numpy_work}
# A process's first call of each part runs cold (fresh pages, unspecialized
# bytecode) and would read slow; make it here, outside every timed interval.
for _work in _WORK.values():
    _work()


def slowdown(parts) -> float:
    """Wall time of the reference parts now, over their nominal time; 1 for no parts."""
    if not parts:
        return 1.0
    t0 = time.perf_counter()
    for part in parts:
        _WORK[part]()
    return (time.perf_counter() - t0) / sum(NOMINAL_S[part] for part in parts)
