import json
import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm
from scipy.special import digamma, polygamma
from test_evolution import pole_wavefunction

from winterdyn import (
    DomainError,
    IllConditionedError,
    IndexMatrix,
    U_inverse,
    U_truncated,
    V_order,
    Z_exact,
    Z_order,
    cli,
    counter_rotate,
    diagonal_evolution_check,
    exponential_field,
    exponentiation_gap,
    matrix_A,
    matrix_AH,
    matrix_A_squared_closed,
    matrix_H,
    mixing_V_exact,
    pole_table,
)
from winterdyn.evolution import SQRT_2_OVER_PI
from winterdyn.mixing import CONTAMINATION_POINTS, _expansion, _indices

PI = math.pi


def rotated_state_closed_form(l: int, g: float, x_grid) -> np.ndarray:
    """Compact form of the order-g counter-rotated state.

    The counter-rotation shifts the wave vector l -> l(1 - g) and rescales by
    1 - g/2; its sine series has 1/n coefficients, so a finite truncation
    shows the usual non-uniform convergence at x = pi.
    """
    x = np.asarray(x_grid, dtype=float)
    return SQRT_2_OVER_PI * (1.0 - 0.5 * g) * np.sin(l * (1.0 - g) * x)


def synthesize(coefficients, x_grid) -> np.ndarray:
    """sqrt(2/pi) sum_n c_n sin(n x) on the given grid: the state of a box-mode expansion."""
    n = np.arange(1, len(coefficients) + 1)
    return SQRT_2_OVER_PI * (np.sin(np.outer(np.asarray(x_grid, dtype=float), n)) @ coefficients)


def inf_norm(m):
    return np.abs(m).sum(axis=1).max()


def series_identities_check(m: int, N: int) -> tuple[float, float]:
    """Tail-accelerated partial sums behind the closed form of A^2.

    Returns (sum over k != m of 1/(k^2 - m^2), sum of k^2/(k^2 - m^2)^2),
    each as the explicit sum to N plus the analytic remainder: the first
    tail telescopes to harmonic numbers, the second reduces to trigamma
    values.  Closed forms are 3/(4 m^2) and pi^2/12 + 1/(16 m^2).
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    if N <= 2 * m:
        raise DomainError("N must exceed 2m for the tail formulas")
    k = np.arange(1, N + 1, dtype=float)
    k = k[k != m]
    d = k**2 - m**2
    s1 = float(np.sum(1.0 / d))
    s2 = float(np.sum(k**2 / d**2))
    tail1 = (digamma(N + m + 1) - digamma(N - m + 1)) / (2.0 * m)
    tail2 = 0.5 * tail1 + 0.25 * (polygamma(1, N - m + 1) + polygamma(1, N + m + 1))
    return s1 + float(tail1), s2 + float(tail2)


# ---------------------------------------------------------------------------
# fixed matrices
# ---------------------------------------------------------------------------

def test_A_entries():
    a = matrix_A(6)
    assert a[1, 2] == pytest.approx(4.0 / 3.0)
    assert a[2, 1] == pytest.approx(-4.0 / 3.0)
    assert a[1, 3] == pytest.approx(-0.75)
    assert a[3, 3] == 0.0


def test_A_antisymmetric_exactly():
    a = matrix_A(40).entries
    assert np.all(a + a.T == 0.0)


def test_AH_entries_and_diagonal():
    ah = matrix_AH(5)
    assert ah[1, 2] == pytest.approx(8.0 / 3.0)
    assert all(ah[i, i] == 0.0 for i in range(1, 6))
    assert np.all(matrix_H(4).entries == np.diag([1.0, 2.0, 3.0, 4.0]))


def test_A_squared_closed_values():
    a2 = matrix_A_squared_closed(5)
    assert a2[1, 1] == pytest.approx(-PI**2 / 3 - 0.25)
    assert a2[1, 2] == pytest.approx(40.0 / 9.0)
    assert a2[2, 1] == pytest.approx(40.0 / 9.0)
    assert np.allclose(a2.entries, a2.entries.T)


def test_A_squared_brute_force_corner():
    # truncated products approach the closed form like C/N (C = 4 l n)
    closed = matrix_A_squared_closed(5).entries
    a = matrix_A(2000).entries
    top = a[:5, :] @ a[:, :5]
    gap = np.abs(top - closed)
    assert gap[0, 0] < 5e-3
    assert gap[0, 1] < 5e-3 and gap[1, 0] < 5e-3
    ln = np.arange(1, 6)
    c_model = 4.0 * np.outer(ln, ln) / 2000.0
    assert np.all(gap < 1.1 * c_model + 1e-12)


def test_series_identities():
    for m in (1, 2, 3):
        s1, s2 = series_identities_check(m, 10_000)
        assert s1 == pytest.approx(3.0 / (4 * m * m), abs=1e-10)
        assert s2 == pytest.approx(PI**2 / 12 + 1.0 / (16 * m * m), abs=1e-10)
    with pytest.raises(DomainError):
        series_identities_check(3, 5)


# ---------------------------------------------------------------------------
# perturbative orders
# ---------------------------------------------------------------------------

def V2_entrywise(N: int) -> np.ndarray:
    """Second-order mixing written entry by entry (cross-check of V_order(2))."""
    l, n = _indices(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (-1.0) ** (l + n) * 2.0 * l * n / (l**2 - n**2) * (1j * math.pi * n - 1.0)
        off += (-1.0) ** (l + n + 1) * 2.0 * l * n * (l**2 + n**2) / (l**2 - n**2) ** 2
    ent = np.asarray(off, dtype=complex)
    ll = np.arange(1.0, N + 1.0)
    np.fill_diagonal(ent, 0.25 - math.pi**2 * ll**2 / 6.0 - 1.5j * math.pi * ll)
    return ent


def test_V_orders():
    assert np.allclose(V_order(0, 4).entries, np.eye(4))
    v1 = V_order(1, 4)
    assert v1[1, 2] == pytest.approx(4.0 / 3.0)
    assert v1[1, 1] == pytest.approx(-0.5)
    v2 = V_order(2, 10)
    assert v2[1, 1] == pytest.approx(0.25 - PI**2 / 6 - 1.5j * PI)
    assert np.max(np.abs(v2.entries - V2_entrywise(10))) < 1e-10


def test_Z_orders():
    z1 = Z_order(1, 4)
    assert np.allclose(z1.entries, 0.5 * np.eye(4))
    z2 = Z_order(2, 4)
    assert z2[2, 2] == pytest.approx(-0.125 + 3j * PI)
    assert np.count_nonzero(z2.entries - np.diag(np.diag(z2.entries))) == 0


@pytest.mark.parametrize("N", [4, 64])
def test_expansion_table_is_U_equals_VZ(N):
    # coefficient by coefficient: U = V Z through g^2, and "Uinv" is the
    # Neumann series I - g U_1 + g^2 (U_1^2 - U_2) with the closed-form A^2
    # standing in for U_1^2
    v, z, u, uinv = (_expansion(name, N) for name in ("V", "Z", "U", "Uinv"))
    a2 = matrix_A_squared_closed(N).entries
    expected = [
        (u[0], v[0] @ z[0]),
        (u[1], v[1] + z[1]),
        (u[2], v[2] + v[1] @ z[1] + z[2]),
        (uinv[0], np.eye(N)),
        (uinv[1], -u[1]),
        (uinv[2], a2 - u[2]),
    ]
    for got, want in expected:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.fixture(scope="module")
def table01():
    return pole_table(0.1, 8, tol=1e-13)


def test_Z_exact_free_limit():
    t = pole_table(1e-5, 2, tol=1e-8)
    assert Z_exact(1, 1e-5, t) == pytest.approx(1.0, abs=1e-4)


def test_Z_exact_expansion(table01):
    z = Z_exact(1, 0.1, table01)
    assert z.imag == 0.0
    assert z.real == pytest.approx(1.05, abs=0.02)
    gaps = []
    for g in (0.1, 0.05):
        t = pole_table(g, 3)
        gaps.append(abs(Z_exact(1, g, t) - (1 + 0.5 * g)))
    assert 3.0 < gaps[0] / gaps[1] < 5.0


def test_Z_exact_matches_quadrature(table01):
    x = np.linspace(0, PI, 4001)
    theta0 = pole_wavefunction(1, x, 0.0, table01)
    norm = simpson(np.abs(theta0) ** 2, x=x)
    assert math.sqrt(norm) == pytest.approx(Z_exact(1, 0.1, table01), abs=1e-8)


def test_V_exact_perturbative_consistency():
    # remainder past the order-2 series shrinks like g^3; keep g*||A|| small
    N = 4
    norms = []
    for g in (0.04, 0.02):
        t = pole_table(g, N, tol=1e-13)
        v = mixing_V_exact(g, t).entries
        series = (
            np.eye(N) + g * V_order(1, N).entries + g * g * V_order(2, N).entries
        )
        norms.append(inf_norm(v - series))
    assert 6.0 < norms[0] / norms[1] < 10.0


def test_V_exact_diagonal_first_order(table01):
    v = mixing_V_exact(0.1, table01)
    assert abs(v[1, 1] - (1 - 0.05)) < 6 * 0.1**2  # O(g^2) off the order-1 value


def test_V_exact_identity_limit():
    t = pole_table(1e-3, 4)
    v = mixing_V_exact(1e-3, t).entries
    assert inf_norm(v - np.eye(4)) < 0.02


# ---------------------------------------------------------------------------
# U and its inverse
# ---------------------------------------------------------------------------

def test_U_order1_entry():
    u = U_truncated(0.1, 4, order=1)
    assert u[2, 1] == pytest.approx(-2.0 / 15.0)


def test_U_infinitesimal_rotation():
    g, N = 0.1, 16
    u = U_truncated(g, N, order=1).entries
    bound = 2 * g * g * inf_norm(matrix_A_squared_closed(N).entries)
    assert inf_norm(u.T @ u - np.eye(N)) <= bound
    # rows peak on the diagonal while g*l < 1 (g A_{l,l-1} ~ g l)
    rows = np.arange(8)
    assert np.all(np.argmax(np.abs(u[rows]), axis=1) == rows)


def test_U_inverse_series_neumann():
    g, N = 0.05, 8
    u = U_truncated(g, N, order=1).entries
    inv = U_inverse(g, N, order=1, mode="series").entries
    assert inf_norm(u @ inv - np.eye(N)) < 4 * g * g * inf_norm(
        matrix_A_squared_closed(N).entries
    )


def test_U_inverse_numeric_residual():
    inv = U_inverse(0.1, 64, order=2, mode="numeric")
    assert inv.meta["residual"] < 1e-10


def test_U_inverse_numeric_vs_series_gap():
    gaps = []
    for g in (0.02, 0.01):
        num = U_inverse(g, 8, order=1, mode="numeric").entries
        ser = U_inverse(g, 8, order=1, mode="series").entries
        gaps.append(inf_norm(num - ser))
    assert 3.0 < gaps[0] / gaps[1] < 5.0


def test_U_inverse_condition_guard(monkeypatch):
    import winterdyn.mixing as mixing

    monkeypatch.setattr(mixing, "COND_LIMIT", 1.0)
    with pytest.raises(IllConditionedError):
        U_inverse(0.1, 8, mode="numeric")


# ---------------------------------------------------------------------------
# counter-rotation
# ---------------------------------------------------------------------------

def test_counter_rotate_free_limit():
    row = counter_rotate(3, 0.0, 8, order=1)
    expect = np.zeros(8)
    expect[2] = 1.0
    assert np.allclose(row, expect)


@pytest.mark.parametrize("mode", ["series", "numeric"])
@pytest.mark.parametrize("order", [1, 2])
def test_U_inverse_is_the_identity_at_g0(order, mode):
    # so the g = 0 rotation is the free vector e_l, signs of zero included
    inv = U_inverse(0.0, 8, order, mode).entries
    assert np.array_equal(inv, np.eye(8))
    assert not np.signbit(inv.real).any() and not np.signbit(inv.imag).any()


@pytest.mark.parametrize("g", [0.0, 0.1])
def test_counter_rotate_refuses_one_mode(g):
    # N >= 2 at every coupling, g = 0 included
    with pytest.raises(DomainError):
        counter_rotate(1, g, 1)


def test_counter_rotate_closed_form():
    g, N = 0.1, 256
    row = counter_rotate(1, g, N, order=1, mode="series")
    x = np.linspace(0, 0.9 * PI, 200)
    synth = synthesize(row, x)
    target = rotated_state_closed_form(1, g, x)
    assert np.max(np.abs(synth - target)) <= 5 * g * g


def test_counter_rotate_tail_decay():
    row = counter_rotate(1, 0.1, 256, order=1, mode="series")
    c200 = abs(row[199]) * 200
    assert 0.8 < c200 / (2 * 0.1 * 1) < 1.2  # |c_n| ~ 2 g l / n


def test_rotated_state_csv():
    row = counter_rotate(1, 0.1, 4, order=1, mode="series")
    lines = cli._complex_csv("n", range(1, 5), row).strip().split("\n")
    assert lines[0] == "n,re,im"
    assert len(lines) == 5


def test_csv_and_json_match_per_entry_loops():
    # references: the CSV written entry by entry, and json.dumps of the block
    # built entry by entry; the hand-built matrix holds signed zeros, the
    # smallest subnormal, a value repr writes in exponent form and both
    # extremes of the float range, and a meta item that is not written; the
    # empty matrix has no rows to splice
    big = 1.7976931348623157e308
    edge = np.empty((2, 2), dtype=complex)
    edge.real = [[-0.0, 5e-324], [1e-05, 1e16]]
    edge.imag = [[big, -0.0], [-5e-324, -big]]
    numeric = U_inverse(0.13, 37, 2, "numeric")
    assert isinstance(numeric.meta["residual"], float) and isinstance(numeric.meta["cond"], float)
    assert numeric.meta["mode"] == "numeric"
    mats = (matrix_A(5), U_inverse(0.1, 5, 2, "numeric"), IndexMatrix(-np.zeros((2, 2)), "H"),
            numeric, U_inverse(0.13, 37, 2, "series"),
            IndexMatrix(edge, "U", meta={"g": 0.5, "order": 2, "tag": "edge", "rows": (1, 2)}),
            IndexMatrix(np.zeros((0, 0)), "H"))
    for mat in mats:
        lines = ["row,col,re,im"]
        for i in range(mat.dim):
            for j in range(mat.dim):
                v = complex(mat.entries[i, j])
                lines.append(f"{i + 1},{j + 1},{v.real!r},{v.imag!r}")
        csv = "\n".join(lines) + "\n"
        block = {
            "label": mat.label,
            "dim": mat.dim,
            "entries": [[[complex(v).real, complex(v).imag] for v in row] for row in mat.entries],
            "meta": {k: v for k, v in mat.meta.items() if k != "rows"},
        }
        assert list(cli._matrix_texts(mat, "csv")) == [("csv", csv)]
        assert list(cli._matrix_texts(mat, "json")) == [
            ("csv", csv), ("json", json.dumps(block, indent=2) + "\n")]

    row = counter_rotate(2, 0.1, 6, order=2, mode="numeric")
    lines = ["n,re,im"]
    for i, c in enumerate(row, start=1):
        lines.append(f"{i},{complex(c).real!r},{complex(c).imag!r}")
    assert cli._complex_csv("n", range(1, 7), row) == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exponentiation and diagonal evolution
# ---------------------------------------------------------------------------

def test_exponentiation_gap_zero_coupling():
    assert exponentiation_gap(0.0, 16)[0] == pytest.approx(0.0, abs=1e-14)


def test_exponentiation_gap_scaling():
    gaps = [exponentiation_gap(g, 8)[0] for g in (0.04, 0.02)]
    assert 6.0 < gaps[0] / gaps[1] < 10.0


@pytest.mark.parametrize("N", [8, 64])
@pytest.mark.parametrize("subtract_ah", [True, False])
def test_exponentiation_gap_matches_expm(N, subtract_ah):
    # scipy's expm is the reference for the closed-form exponential
    for g in (0.02, 0.2):
        a = matrix_A(N).entries
        ah = matrix_AH(N).entries
        u2 = np.eye(N) + g * a + g * g * (0.5 * (a @ a) - 0.5 * a + 1j * PI * ah)
        gap = u2 - expm(g * (1.0 - 0.5 * g) * a)
        if subtract_ah:
            gap = gap - 1j * PI * g * g * ah
        ref = inf_norm(gap)
        assert exponentiation_gap(g, N)[0 if subtract_ah else 1] == pytest.approx(ref, rel=1e-13)


def test_exponentiation_gap_ah_not_absorbed():
    gaps = [exponentiation_gap(g, 8)[1] for g in (0.04, 0.02)]
    assert 3.0 < gaps[0] / gaps[1] < 5.0  # O(g^2) once the AH term stays


def test_diagonal_evolution_free():
    norms = diagonal_evolution_check(1, 0.0, None, [0.0, 1.0, 5.0])
    assert np.all(norms == 0.0)


@pytest.mark.parametrize("l", [0, 9])
def test_diagonal_evolution_refuses_l_outside_table(table01, l):
    with pytest.raises(DomainError):
        diagonal_evolution_check(l, 0.1, table01, [1.0])


@pytest.mark.parametrize("g", [0.0, 0.1])
@pytest.mark.parametrize("l", [0, -3, 1.5])
def test_diagonal_evolution_refuses_l_that_is_no_mode(table01, g, l):
    # at g = 0 too, where no table is read and every valid l gives zeros
    with pytest.raises(DomainError):
        diagonal_evolution_check(l, g, table01 if g else None, [1.0])


def test_pole_table_of_another_coupling_is_refused(table01):
    x = np.linspace(0.0, PI, 9)
    calls = (lambda: exponential_field(1, x, 0.5, 0.2, table01),
             lambda: mixing_V_exact(0.2, table01),
             lambda: Z_exact(1, 0.2, table01),
             lambda: diagonal_evolution_check(1, 0.2, table01, [1.0]))
    for call in calls:
        with pytest.raises(ValueError, match="pole table was built at g=0.1"):
            call()


def test_diagonal_evolution_contamination_scaling():
    # the returned series is the squared cavity norm; it scales like g^2
    # once the heavy poles have decayed (t ~ 2)
    norms = []
    for g in (0.1, 0.05):
        t = pole_table(g, 8, tol=1e-13)
        norms.append(diagonal_evolution_check(2, g, t, [2.0], order=1, mode="series")[0])
    assert 3.0 < norms[0] / norms[1] < 5.0


def test_diagonal_evolution_numeric_beats_series():
    g = 0.1
    t = pole_table(g, 16, tol=1e-13)
    ser = diagonal_evolution_check(2, g, t, [1.0], order=1, mode="series")
    num = diagonal_evolution_check(2, g, t, [1.0], order=2, mode="numeric")
    assert num[0] < ser[0]


def test_diagonal_evolution_contamination_grows_relatively():
    g = 0.1
    t = pole_table(g, 10, tol=1e-13)
    norms = diagonal_evolution_check(2, g, t, [1.0, 40.0], order=1, mode="series")
    # signal xi^(2) decays like Gamma_2; the pole-1 leak decays like Gamma_1
    signal = np.exp(-t.gamma[1] * np.array([1.0, 40.0]))
    rel = np.sqrt(norms) / signal
    assert rel[1] > 10 * rel[0]


def test_diagonal_evolution_matches_per_time_loop():
    # reference: one residue sum and one Simpson norm per time
    g, l = 0.1, 2
    table = pole_table(g, 12, tol=1e-13)
    ts = np.array([0.0, 0.5, 2.0, 10.0, 40.0])
    norms = diagonal_evolution_check(l, g, table, ts, order=1, mode="series")
    n = len(table)
    coeff = (U_inverse(g, n, 1, "series").entries @ mixing_V_exact(g, table).entries)[l - 1]
    coeff[l - 1] -= 1.0 / Z_exact(l, g, table)
    ks = table.k_values
    x = np.linspace(0.0, math.pi, CONTAMINATION_POINTS)
    sin_mat = np.sin(np.outer(x, ks))
    for t, norm in zip(ts, norms):
        delta = SQRT_2_OVER_PI * (sin_mat @ (coeff * np.exp(-1j * ks**2 * t)))
        assert norm == pytest.approx(float(simpson(np.abs(delta) ** 2, x=x)), rel=1e-13)


@pytest.mark.parametrize("g", [1e200, 1e300])
def test_U_inverse_refuses_overflowed_U(g):
    # U's g^2 terms overflow: the condition estimate is not <= COND_LIMIT
    with pytest.raises(IllConditionedError), np.errstate(invalid="ignore", over="ignore"):
        U_inverse(g, 4, mode="numeric")


def test_rotated_state_refuses_non_finite_coefficients():
    with pytest.raises(DomainError):
        cli._complex_csv("n", range(1, 3), np.array([1.0, np.nan], dtype=complex))
