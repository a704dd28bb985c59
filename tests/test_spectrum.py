import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winterdyn import DomainError, ab_product, coef_a, coef_b, pole_table

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Below this, a*b is considered to sit on a resonance pole and evaluation of
# the normalized eigenfunction is refused instead of returning huge numbers.
AB_POLE_GUARD = 1e-10


def eigenfunction(x: float, k: complex, g: float) -> complex:
    """Delta-normalized continuum eigenfunction psi(x; k, g) at position x >= 0.

    The common normalization 1/sqrt(2 pi a b) is evaluated with a single
    principal square root of the product a*b.  Dividing both pieces by the
    same root keeps the function exactly continuous at x = pi; it may differ
    from evaluating sqrt(a/b) and sqrt(b/a) separately by a global sign,
    which no |psi|^2 observable can see.
    """
    if x < 0:
        raise DomainError("position x must be >= 0")
    ab = complex(ab_product(k, g))
    if abs(ab) < AB_POLE_GUARD:
        raise DomainError(
            f"a*b = {ab:.3e} at k = {k}: evaluation too close to a resonance pole"
        )
    k = complex(k)
    norm = 1.0 / np.sqrt(2.0 * np.pi * ab)
    if x <= np.pi:
        value = norm * np.sin(k * x)
    else:
        a = complex(coef_a(k, g))
        b = complex(coef_b(k, g))
        s = np.sqrt(ab)
        value = (a * np.exp(1j * k * x) + b * np.exp(-1j * k * x)) / (
            np.sqrt(2.0 * np.pi) * s
        )
    return complex(value)


def test_coef_a_integer_k_is_minus_half_i():
    assert complex(coef_a(1, 0.3)) == pytest.approx(-0.5j, abs=1e-15)


def test_coef_b_integer_k_is_plus_half_i():
    assert complex(coef_b(1, 0.3)) == pytest.approx(0.5j, abs=1e-15)


def test_coef_a_half_integer():
    # exp(-i pi) = -1 makes the bracket -2
    expected = -10.0 / math.pi - 0.5j
    assert complex(coef_a(0.5, 0.1)) == pytest.approx(expected, abs=1e-14)


def test_coef_b_reflection():
    assert complex(coef_b(-0.5, 0.1)) == pytest.approx(10.0 / math.pi + 0.5j, abs=1e-14)


def test_resonance_dip_magnitude():
    # near k = n(1 - g) the coefficients dip to O(g n); away from it they are O(1/g)
    dip = abs(complex(coef_a(0.9, 0.1)))
    assert 0.05 < dip < 0.25
    assert abs(complex(coef_a(0.5, 0.1))) > 10 * dip


def test_coef_b_small_near_pole():
    # n=1 pole sits at 0.915961 - 0.021171i for g = 0.1; |b'| ~ 5.5 there, so
    # a 4-decimal rounding keeps |b| below 1e-3 while a 2-decimal one does not
    assert abs(complex(coef_b(0.9160 - 0.0212j, 0.1))) < 1e-3
    assert abs(complex(coef_b(0.91 - 0.022j, 0.1))) < 0.05


def test_domain_errors():
    with pytest.raises(DomainError):
        coef_a(0.0, 0.1)
    with pytest.raises(DomainError):
        coef_b(1.0, 0.0)
    with pytest.raises(DomainError):
        coef_b(0.0, 0.2)


finite_k = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
finite_g = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)
signs = st.sampled_from([-1.0, 1.0])


@given(k=finite_k, g=finite_g, sk=signs, sg=signs)
@settings(max_examples=200)
def test_reflection_symmetry_property(k, g, sk, sg):
    k, g = sk * k, sg * g
    lhs = complex(coef_a(-k, g))
    rhs = -complex(coef_b(k, g))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1e-300)


@given(kr=finite_k, ki=st.floats(min_value=-2.0, max_value=2.0), g=finite_g, sg=signs)
@settings(max_examples=200)
def test_conjugation_symmetry_property(kr, ki, g, sg):
    k, g = complex(kr, ki), sg * g
    lhs = complex(coef_a(k, g)).conjugate()
    rhs = complex(coef_b(k.conjugate(), g))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1e-300)


def test_eigenfunction_vanishes_at_origin():
    assert eigenfunction(0.0, 1.37 + 0.0j, 0.2) == 0.0


def test_eigenfunction_continuous_at_barrier():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        k = complex(rng.uniform(0.1, 8.0), rng.uniform(-0.3, 0.3))
        g = rng.uniform(0.05, 2.0)
        if abs(complex(ab_product(k, g))) < 1e-3:
            continue
        left = eigenfunction(math.pi - 1e-13, k, g)
        right = eigenfunction(math.pi + 1e-13, k, g)
        assert abs(left - right) < 1e-11
        checked += 1


def test_eigenfunction_integer_k_normalization():
    # at k = n the product a b = 1/4, so inside psi = sqrt(2/pi) sin(k x)
    for n in (1, 2, 3):
        ab = complex(ab_product(n, 0.37))
        assert ab == pytest.approx(0.25, abs=1e-14)
        v = eigenfunction(1.1, n, 0.37)
        assert v == pytest.approx(SQRT_2_OVER_PI * math.sin(n * 1.1), abs=1e-13)


def test_eigenfunction_near_pole_guard():
    k = pole_table(0.1, 1)[1]
    with pytest.raises(DomainError):
        eigenfunction(1.0, k, 0.1)


def _peak_ratio(k, g):
    inside = abs(eigenfunction(math.pi / 2, k, g))
    outside = max(
        abs(eigenfunction(x, k, g)) for x in np.linspace(math.pi, 3 * math.pi, 200)
    )
    return inside / outside


def test_cavity_amplitude_peaks_at_resonance():
    r1 = _peak_ratio(0.9, 0.1)
    r2 = _peak_ratio(0.99, 0.01)
    assert r1 > 2.0
    assert r2 > 20.0
    assert 5.0 < r2 / r1 < 20.0  # dip scales like 1/(g n)
