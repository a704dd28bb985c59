"""winterdyn: metastable-state dynamics of the Winter model.

A particle on the half-line behind a delta barrier at x = pi leaks out of
the cavity (0, pi) through imperfect reflections.  This package computes the
complex resonance poles, the exponential and power-law pieces of the decay,
and the renormalized mixing matrix that relates the cavity resonances to the
eigenstates of a closed box.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    CrossingNotFoundError,
    DomainError,
    IllConditionedError,
    OctantViolationError,
    PoleConvergenceError,
    WinterError,
)
from .evolution import (
    WaveField,
    asymptotic_field,
    cavity_norm,
    direct_field,
    exponential_field,
    power_field,
    psi_power_quad,
    resonance_exponential_norm,
    resonance_term_norm,
)
from .mixing import (
    IndexMatrix,
    U_inverse,
    U_truncated,
    V_order,
    Z_exact,
    Z_order,
    counter_rotate,
    diagonal_evolution_check,
    exponentiation_gap,
    matrix_A,
    matrix_A_squared_closed,
    matrix_AH,
    matrix_H,
    mixing_V_exact,
)
from .poles import (
    PoleTable,
    freq_pert,
    pole_table,
    width_pert,
)
from .spectrum import ab_product, coef_a, coef_b

__all__ = [
    "AccuracyError",
    "CrossingNotFoundError",
    "DomainError",
    "IllConditionedError",
    "IndexMatrix",
    "OctantViolationError",
    "PoleConvergenceError",
    "PoleTable",
    "U_inverse",
    "U_truncated",
    "V_order",
    "WaveField",
    "WinterError",
    "Z_exact",
    "Z_order",
    "ab_product",
    "asymptotic_field",
    "cavity_norm",
    "coef_a",
    "coef_b",
    "counter_rotate",
    "diagonal_evolution_check",
    "direct_field",
    "exponential_field",
    "exponentiation_gap",
    "freq_pert",
    "matrix_A",
    "matrix_AH",
    "matrix_A_squared_closed",
    "matrix_H",
    "mixing_V_exact",
    "pole_table",
    "power_field",
    "psi_power_quad",
    "resonance_exponential_norm",
    "resonance_term_norm",
    "width_pert",
]
