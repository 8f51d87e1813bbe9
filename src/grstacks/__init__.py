"""Exact verification workbench for classes of classifying stacks.

The package computes in the Grothendieck ring of stacks restricted to the
subring generated by the Lefschetz class L, with L and every L^n - 1
inverted.  On top of that ring sit the recursion tower for the classifying
classes of spin and pin groups, exact Clifford-algebra models over Gaussian
rationals, finite blade groups, and brute-force finite-field orbit checks.
Everything is exact: no floats, no tolerances.
"""

from .blades import blade_mul_mask, blade_sign
from .lefschetz import (
    LC_ONE,
    LC_ZERO,
    LefschetzClass,
    NotAUnit,
    ZeroInverse,
    l_blocks,
    l_pow_minus_one,
    l_power,
    lc_add,
    lc_eq,
    lc_eval_at,
    lc_int,
    lc_inv,
    lc_mul,
    lc_neg,
    lc_normalize,
    lc_pow,
    lc_sum,
    render_factors,
)
from .motive import (
    DomainError,
    Inconsistent,
    MissingAtom,
    MotiveExpr,
    bg,
    bpin,
    bspin,
    class_g2,
    class_gl,
    class_sl,
    class_spin,
    leading_delta_coeff,
    m_atom,
    m_scalar,
    solve_deltas,
    substitute_deltas,
)
from .report import CheckReport, CheckResult
from .suites import SUITES

__all__ = [
    "CheckReport",
    "CheckResult",
    "DomainError",
    "Inconsistent",
    "LC_ONE",
    "LC_ZERO",
    "LefschetzClass",
    "MissingAtom",
    "MotiveExpr",
    "NotAUnit",
    "SUITES",
    "ZeroInverse",
    "bg",
    "blade_mul_mask",
    "blade_sign",
    "bpin",
    "bspin",
    "class_g2",
    "class_gl",
    "class_sl",
    "class_spin",
    "l_blocks",
    "l_pow_minus_one",
    "l_power",
    "lc_add",
    "lc_eq",
    "lc_eval_at",
    "lc_int",
    "lc_inv",
    "lc_mul",
    "lc_neg",
    "lc_normalize",
    "lc_pow",
    "lc_sum",
    "leading_delta_coeff",
    "m_atom",
    "m_scalar",
    "render_factors",
    "solve_deltas",
    "substitute_deltas",
]
