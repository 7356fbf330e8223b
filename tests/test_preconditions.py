"""Refusals of bad arguments that no other test reaches, one case per raise."""

import pytest

from padicfft.errors import BadInput, DegreeTooSmall, FactoringFailure, ZeroInput
from padicfft.ffield import PrimeField, ff_poly_modpow, is_irreducible, packed, poly_divmod
from padicfft.lifting import hensel_factor_oracle, linear_hensel_step, newton_lift_root
from padicfft.orders import cyclotomic_degree, multiplicative_order, tower_step_degree
from padicfft.padic import PadicContext, RingExtension
from padicfft.planner import choose_parameters
from padicfft.selftest import run_criterion

F7 = PrimeField(7)

CASES = {
    "divmod-by-zero": (lambda: poly_divmod(F7, [1, 2], []), ZeroInput),
    "modpow-constant-modulus": (lambda: ff_poly_modpow(F7, packed(F7, [0, 1]), 3, packed(F7, [1])), DegreeTooSmall),
    "constant-not-irreducible": (lambda: is_irreducible(PrimeField(3), [3]), False),
    "lift-fbar-not-monic": (lambda: newton_lift_root([1, 5, 2], 5, 1, 19), BadInput),
    "hensel-step-k0": (lambda: linear_hensel_step(3, 0, [2, 0, 1], [1, 1], [2, 1], [2], [1]), BadInput),
    "hensel-step-h-not-monic": (lambda: linear_hensel_step(3, 1, [2, 0, 2], [1, 1], [2, 1], [2], [1]), BadInput),
    "hensel-oracle-K0": (lambda: hensel_factor_oracle([2, 0, 1], [1, 1], [2, 1], 3, 0), BadInput),
    "order-mod-0": (lambda: multiplicative_order(3, 0), BadInput),
    "cyclotomic-s0": (lambda: cyclotomic_degree(3, 0, 0), BadInput),
    "tower-step-a0": (lambda: tower_step_degree(3, 0, 2, 1), BadInput),
    "ring-degree-0": (lambda: RingExtension(PadicContext(3, 2), [1]), DegreeTooSmall),
    "element-too-long": (lambda: RingExtension(PadicContext(3, 2), [1, 1]).element([1, 2, 3]), BadInput),
    "planner-past-factoring": (lambda: choose_parameters(3, 10**30), FactoringFailure),
    "no-criterion-11": (lambda: run_criterion(11), BadInput),
}


@pytest.mark.parametrize("call, want", CASES.values(), ids=CASES.keys())
def test_precondition_is_refused(call, want):
    if isinstance(want, type):
        with pytest.raises(want):
            call()
    else:
        assert call() == want
