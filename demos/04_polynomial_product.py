"""Exact polynomial products, including where floats would lie.

poly_multiply packs c = (d+1)//2 consecutive coefficients into the
X-coordinates of each element of the extension ring, transforms, multiplies
pointwise, transforms back and overlap-adds the chunk products, which have
degree at most 2c-2 < d and so never wrap. Without a plan it runs on the
cheapest divisor of the planner's length that holds the chunks in its own
ring, of degree ord(p) modulo that divisor. Every
coefficient of the result is exact mod p^K, so products of huge
coefficients survive untouched.
"""

import random
import time

from padicfft import build_pipeline, poly_multiply

# (1 + Y)^2 = 1 + 2Y + Y^2, the smallest smoke test
print("(1 + Y)^2 =", poly_multiply([1, 1], [1, 1], 3, 8))

# coefficients near 3^32: the exact answer needs every one of the 64 digits
m = 3**32
rng = random.Random(1)
f = [rng.randrange(m) for _ in range(40)]
g = [rng.randrange(m) for _ in range(40)]
school = [0] * 79
for i, a in enumerate(f):
    for j, b in enumerate(g):
        school[i + j] = (school[i + j] + a * b) % m
got = poly_multiply(f, g, 3, 32)
print(f"degree-39 squares over Z/3^32 match schoolbook: {got == school}")

# a float FFT of the same data has no chance: each pairwise product is
# about twice the coefficient width, far past what a double can hold
print(f"pairwise products reach {max(f).bit_length() + max(g).bit_length()} bits "
      f"(float mantissa: 53)")

# reusing one plan across many products amortizes the setup
plan = build_pipeline(3, 16, s=104).plan
products = [poly_multiply([1, c], [c, 1], 3, 16, plan=plan) for c in range(1, 6)]
print("five products from one plan:", products)

# without a plan, poly_multiply keeps the plan of each divisor length it
# built, so a repeat at the same size skips the tower, the lift and the plan
m = 7**16
f = [rng.randrange(m) for _ in range(300)]
g = [rng.randrange(m) for _ in range(300)]
for label in ("first product", "repeat"):
    t0 = time.perf_counter()
    poly_multiply(f, g, 7, 16)
    print(f"{label} of two length-300 polynomials mod 7^16: {time.perf_counter() - t0:.2f} s")
