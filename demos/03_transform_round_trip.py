"""An exact DFT: evaluate, invert, recover every digit.

No floating point anywhere, so idft(dft(x)) is x on the nose, at any
precision. The instrumented counter shows the measured multiplication
count sitting under the planner's predicted cost shape.
"""

import random
import time

from padicfft import build_pipeline, dft, idft, naive_dft
from padicfft.fft import subring_axes

pipe = build_pipeline(3, 32, N=100)
plan = pipe.plan
print(f"p=3, N=100 -> s={plan.s} = {plan.radices}, ring degree {pipe.d}, K=32")
print(f"backend dtype: {plan.dtype}")
# each prime power g of s is an axis whose roots lie in the subring of degree d_g = ord_g(p)
print("axes g:d_g = " + " ".join(f"{g}:{dg}" for g, dg in subring_axes(plan.p, plan.s_factored)))

rng = random.Random(0)
x = [plan.ring.element([rng.randrange(3**32) for _ in range(pipe.d)]) for _ in range(plan.s)]

plan.ring.counter.reset()
evals = dft(x, plan)
used = plan.ring.counter.count
back = idft(evals, plan)
print(f"round trip exact: {back == x}")
print(f"one dft: {used} base multiplications, planner predicted about {pipe.planner_result.predicted_mults}")

# agreement with the quadratic evaluation loop
assert evals == naive_dft(x, plan.root, plan.s)
print("matches the naive evaluation loop")

# the same machinery at a size where the fast algorithm is the only option
t0 = time.perf_counter()
big = build_pipeline(3, 32, N=10**4)
y = [big.plan.ring.element([rng.randrange(3**32) for _ in range(big.d)]) for _ in range(big.s)]
ok = idft(dft(y, big.plan), big.plan) == y
print(f"s={big.s}, d={big.d}: exact round trip {ok} in {time.perf_counter() - t0:.1f}s")
print("axes g:d_g = " + " ".join(f"{g}:{dg}" for g, dg in subring_axes(big.plan.p, big.plan.s_factored)))
