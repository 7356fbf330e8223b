"""Where do p-adic roots of unity live?

Z/p^K has only (p-1)-st roots of unity, so a length-s transform needs an
extension ring. This script builds F_p[Y]/f with a primitive s-th root of
unity as the class of Y, for a few (p, s), and shows the randomized
factor-splitting that picks f.
"""

import random

from padicfft import build_root_of_unity, cz_split, multiplicative_order
from padicfft.ffield import PrimeField, ff_poly_modpow, packed

# The classic small case: 5th roots of unity over F_19. The 5th cyclotomic
# polynomial splits into two quadratics; which one we land on depends on
# the random splitting element.
print("splitting Y^4+Y^3+Y^2+Y+1 over F_19, ten seeds:")
phi5 = [1, 1, 1, 1, 1]
for seed in range(10):
    factor = cz_split(PrimeField(19), phi5, 2, random.Random(seed))
    print(f"  seed {seed}: {factor}")

# Either factor works: both define F_361 and Y has order 5 in each.
print()
for p, s in [(19, 5), (3, 8), (3, 104), (19, 8)]:
    root = build_root_of_unity(p, s, random.Random(1))
    d = len(root.modulus) - 1
    print(f"p={p:2d} s={s:3d}: degree {d} = ord_{s}({p}) = {multiplicative_order(p, s)}")
    print(f"         f = {root.modulus}")
    # Y^s mod f must be 1, and no smaller prime quotient of s may reach 1
    F = PrimeField(p)
    assert ff_poly_modpow(F, packed(F, [0, 1]), s, packed(F, root.modulus)).tolist() == [[1]]
print()
print("in each ring, Y^s = 1 and s is the exact order of Y")
