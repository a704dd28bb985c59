import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winterdyn import (
    DomainError,
    OctantViolationError,
    PoleConvergenceError,
    PoleTable,
    coef_a,
    freq_pert,
    pole_table,
    width_pert,
)


def pole_seed(n: int, g: float) -> complex:
    """Fourth-order small-g expansion of the pole with branch k^(n)(0) = n."""
    return (
        n
        - n * g
        + (n - 1j * math.pi * n**2) * g**2
        + (4.0 * math.pi**2 * n**3 / 3.0 + 3j * math.pi * n**2 - n) * g**3
    )


def find_pole(n: int, g: float, tol: float = 1e-12) -> complex:
    """The pole k^(n)(g), as the last pole of a table of n."""
    return pole_table(g, n, tol)[n]


def conjugate_zero_residual(k: complex, g: float) -> float:
    """|a(conj k, g)|: the mirrored zero of a must match the pole of b."""
    return abs(complex(coef_a(k.conjugate(), g)))


def sqrt_relation_residual(n: int, k: complex, g: float) -> float:
    """|exp(i pi k) - (-1)^n sqrt(1 - 2 pi i g k)| with the principal branch."""
    lhs = cmath.exp(1j * math.pi * k)
    rhs = (-1) ** n * cmath.sqrt(1.0 - 2j * math.pi * g * k)
    return abs(lhs - rhs)


def exact_relation_residual(k: complex, g: float) -> float:
    """|exp(2 pi i k) - 1 + 2 pi i g k|, zero for any true zero of b."""
    return abs(cmath.exp(2j * math.pi * k) - 1.0 + 2j * math.pi * g * k)


def test_seed_free_limit():
    assert pole_seed(1, 0.0) == 1.0
    assert pole_seed(7, 0.0) == 7.0


def test_seed_frozen_values():
    # term-by-term substitution of the quartic expansion
    s = pole_seed(1, 0.1)
    assert s.real == pytest.approx(0.92215947, abs=1e-7)
    assert s.imag == pytest.approx(-0.02199115, abs=1e-7)
    s2 = pole_seed(2, 0.01)
    assert s2.real == pytest.approx(1.98030328, abs=1e-7)
    assert s2.imag == pytest.approx(-0.00121894, abs=1e-7)


def test_width_pert_values():
    assert width_pert(1, 0.1, 2) == pytest.approx(4 * math.pi * 0.01)
    assert width_pert(2, 0.1, 2) == pytest.approx(32 * math.pi * 0.01)
    assert width_pert(1, 0.0, 2) == 0.0
    assert width_pert(1, 0.0, 3) == 0.0
    assert width_pert(1, 0.1, 3) == pytest.approx(4 * math.pi * 0.01 * 0.6)


def test_freq_pert_values():
    assert freq_pert(1, 0.1, 2) == pytest.approx(0.83)
    assert freq_pert(2, 0.0, 1) == 4.0
    assert freq_pert(1, 0.05, 1) == pytest.approx(0.9)


def test_pert_arrays_match_scalars():
    # an int array gives, bit for bit, the scalar value of every entry
    n = np.arange(1, 30)
    for g in (0.013, 0.2):
        for order in (2, 3):
            assert width_pert(n, g, order).tolist() == [width_pert(int(m), g, order) for m in n]
        for order in (1, 2):
            assert freq_pert(n, g, order).tolist() == [freq_pert(int(m), g, order) for m in n]
    with pytest.raises(DomainError):
        width_pert(np.arange(0, 3), 0.1)


def test_find_pole_free_limit():
    for g in (1e-4, 1e-5):
        k = find_pole(1, g)
        assert abs(k - 1.0) < 3 * g
    # below, the root falls between representable doubles; loosen tol
    k = find_pole(1, 1e-7, tol=1e-8)
    assert abs(k - 1.0) < 3e-7


def test_pole_solver_floor_at_large_n():
    # at tol 1e-12 the floor is reached at large n too, not only as g -> 0:
    # |b| floors at 1.37e-12 from n = 4103 at g = 0.0469
    with pytest.raises(PoleConvergenceError, match="loosen tol") as exc:
        pole_table(0.0469, 4200, 1e-12)
    assert exc.value.n == 4103


def test_find_pole_residual_and_octant():
    table = pole_table(0.1, 1, tol=1e-12)
    k = table[1]
    assert table.residual[0] < 1e-12
    assert k.imag < 0 and k.real > abs(k.imag)
    assert abs(k - pole_seed(1, 0.1)) < 0.01  # O(g^4) away (coefficient ~ 60)


def test_exact_relation_at_pole():
    k = find_pole(3, 0.1, tol=1e-12)
    assert exact_relation_residual(k, 0.1) < 1e-10


def test_sqrt_relation_and_conjugate_zero():
    for (n, g) in [(1, 0.1), (2, 0.2), (4, 0.05)]:
        k = find_pole(n, g, tol=1e-12)
        assert sqrt_relation_residual(n, k, g) < 1e-11
        assert conjugate_zero_residual(k, g) < 1e-11


def test_seed_gap_scales_as_g4():
    gaps = [abs(find_pole(1, g) - pole_seed(1, g)) for g in (0.04, 0.02, 0.01)]
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    assert 12.0 < r1 < 20.0
    assert 12.0 < r2 < 20.0


def test_width_freq_extraction_matches_pert_orders():
    # omega - n^2(1-2g) = O(g^2) and gamma - 4 pi n^3 g^2 = O(g^3)
    n = 2
    om_gap = []
    ga_gap = []
    for g in (0.04, 0.02):
        table = pole_table(g, n)
        om_gap.append(abs(table.omega[-1] - freq_pert(n, g, 1)))
        ga_gap.append(abs(table.gamma[-1] - width_pert(n, g, 2)))
    assert 3.0 < om_gap[0] / om_gap[1] < 5.0
    assert 6.0 < ga_gap[0] / ga_gap[1] < 10.0


def test_invalid_inputs():
    with pytest.raises(DomainError):
        find_pole(0, 0.1)
    with pytest.raises(DomainError):
        find_pole(1, -0.1)
    with pytest.raises(DomainError):
        find_pole(1, 0.0)
    with pytest.raises(ValueError):
        find_pole(1, 0.1, tol=-1)


def test_pole_table_monotone_and_residuals():
    t = pole_table(0.1, 5, tol=1e-12)
    re = t.k_values.real
    assert all(b > a for a, b in zip(re, re[1:]))
    assert np.all(t.residual < 1e-12)


def test_pole_table_small_g_first_order():
    t = pole_table(0.01, 10)
    assert not t.warnings  # width bound only bites for n > ~78 at g = 0.01
    for n, k in zip(t.n, t.k_values):
        # third-order term (4 pi^2 n^3/3) g^3 grows past 2e-3 around n = 6
        gap = abs(k.real - n * (1 - 0.01))
        assert gap < 2e-3 if n <= 5 else gap / k.real < 2e-3


def test_pole_table_octant_at_moderate_g():
    with pytest.warns(UserWarning):
        t = pole_table(0.2, 3)
    for k in t.k_values:
        assert k.imag < 0 and k.real > abs(k.imag)


def test_pole_table_deterministic():
    with pytest.warns(UserWarning):
        a = pole_table(0.15, 9)
    with pytest.warns(UserWarning):
        b = pole_table(0.15, 9)
    assert np.array_equal(a.k_values, b.k_values)
    assert a.warnings == b.warnings


# k^(n)(g) from the Newton continuation in g that preceded the log-branch
# solver (pole_table(g, 200), default tol)
CONTINUATION_POLES = [
    (0.2, 1, 0.8627413005714853 - 0.05665891602548522j),
    (0.2, 10, 9.756468395750588 - 0.3990325989832481j),
    (0.2, 200, 199.74993336063432 - 0.8794115122391659j),
    (0.5, 10, 9.746305229177082 - 0.5446103324319543j),
]


@pytest.mark.parametrize("g, n, k_ref", CONTINUATION_POLES)
def test_poles_match_continuation_literals(g, n, k_ref):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        table = pole_table(g, 200)
    assert abs(table[n] - k_ref) < 1e-13
    assert abs(find_pole(n, g) - k_ref) < 1e-13


@given(
    g=st.floats(min_value=1e-3, max_value=0.5),
    N=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pole_table_properties(g, N, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        table = pole_table(g, N)
    assert list(table.n) == list(range(1, N + 1))
    for k, r in zip(table.k_values, table.residual):
        assert r <= table.tol
        assert k.imag < 0 and k.real > abs(k.imag)
    re = np.real(table.k_values)
    assert np.all(np.diff(re) > 0)
    n = data.draw(st.integers(min_value=1, max_value=N))
    assert find_pole(n, g) == table[n]


@pytest.mark.parametrize("g", [1e-5, 1e-7])
def test_pole_table_tiny_coupling_is_finite(g):
    table = pole_table(g, 200, tol=1e-8)
    ks = table.k_values
    assert np.all(np.isfinite(ks))
    assert np.all(table.residual < 1e-8)
    n = np.arange(1, 201)
    assert np.max(np.abs(ks - n * (1 - g)) / n) < 3 * g


def test_branch_holds_at_g_half():
    # the log branch fixed by n holds all the way to g = 0.5
    for n in (1, 10):
        table = pole_table(0.5, n, tol=1e-12)
        k = table[n]
        assert table.residual[-1] < 1e-12
        assert k.imag < 0 and k.real > abs(k.imag)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_non_positive_tol_is_a_domain_error(tol):
    with pytest.raises(DomainError):
        pole_table(0.2, 3, tol)


def test_table_index_is_one_based():
    table = pole_table(0.1, 3)
    assert table[1] == complex(table.k_values[0]) and table[3] == complex(table.k_values[2])
    for n in (0, 4, -1):
        with pytest.raises(IndexError):
            table[n]


def test_table_rejects_pole_outside_octant():
    # n = 2 has Re k < |Im k|
    ks = np.array([0.9 - 0.05j, 1.1 - 1.5j, 2.9 - 0.2j])
    with pytest.raises(OctantViolationError) as exc:
        PoleTable(0.1, 1e-12, ks, np.zeros(3))
    assert exc.value.n == 2


def test_table_rejects_non_increasing_re_k():
    ks = np.array([0.9 - 0.05j, 2.1 - 0.1j, 2.0 - 0.2j])
    with pytest.raises(PoleConvergenceError) as exc:
        PoleTable(0.1, 1e-12, ks, np.zeros(3))
    assert not isinstance(exc.value, OctantViolationError)
