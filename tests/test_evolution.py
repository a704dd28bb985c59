import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from test_quadrature import baseline_subpanels, panel_cell_edges

from winterdyn import (
    AccuracyError,
    DomainError,
    WaveField,
    asymptotic_field,
    cavity_norm,
    cli,
    direct_field,
    evolution,
    exponential_field,
    pole_table,
    power_field,
    psi_power_quad,
)
from winterdyn.evolution import (
    _ROT,
    ORIGIN_GRADING,
    SPECTRAL_PREFACTOR,
    _cavity_norms,
    _direct_values,
    _exponential_values,
    _filon_sums,
    _power_values,
    _spectral_kernel,
)
from winterdyn.quadrature import (
    GL_NODES,
    TRUNCATION_PANEL_CAP,
    _angle_split,
    filon_moments,
    gl_nodes_weights,
    panel_edges,
    ray_cell_edges,
    refine_edges,
    tail_panels,
    truncation_panels,
)
from winterdyn.spectrum import ab_product

SQ = math.sqrt(2.0 / math.pi)

# Window around k = l where sin(k pi)/(k^2 - l^2) switches to its Taylor
# form; 1e-4 keeps the cancellation error below 1e-10 with four terms.
RING_WINDOW = 1e-4


def _sin_ratio(k: np.ndarray, l: int) -> np.ndarray:
    """Reference form: sin(pi k)/(k^2 - l^2) in complex arithmetic, the
    removable singularity at k = l filled.

    Near k = l the Taylor form (-1)^l [pi - (pi d)^2 pi/6 + ...]/(k + l) in
    d = k - l avoids the 0/0 cancellation; four terms cover |d| < 1e-4 to
    better than 1e-10.
    """
    k = np.asarray(k, dtype=complex)
    d = k - l
    near = np.abs(d) < RING_WINDOW
    out = np.empty_like(k)
    far = ~near
    out[far] = np.sin(np.pi * k[far]) / (k[far] ** 2 - l**2)
    if near.any():
        dd = d[near]
        pd2 = (np.pi * dd) ** 2
        series = np.pi * (1.0 - pd2 / 6.0 + pd2**2 / 120.0 - pd2**3 / 5040.0)
        out[near] = (-1) ** l * series / (k[near] + l)
    return out


def spectral_kernel_complex(l: int, k, g: float) -> np.ndarray:
    """Reference form of p^(l)(k; x, g)/sin(k x): complex _sin_ratio over 4 a b."""
    k = np.asarray(k, dtype=complex)
    return (-1) ** l * l * _sin_ratio(k, l) / (4.0 * ab_product(k, g))


def integrand_p(l: int, k: complex, x: float, g: float) -> complex:
    """Spectral integrand p^(l)(k; x, g) at one k."""
    k = np.array([k], dtype=complex)
    return complex((spectral_kernel_complex(l, k, g) * np.sin(k * x))[0])


def pole_wavefunction(n: int, x, t: float, table):
    """Diagonally evolving pole state sqrt(2/pi) sin(k^(n) x) e^{-i eps^(n) t}."""
    k = table[n]
    val = SQ * np.sin(k * np.asarray(x, dtype=complex)) * cmath.exp(-1j * k * k * t)
    return complex(val) if np.ndim(x) == 0 else val


def psi_power_asym(l: int, x: float, t: float, g: float) -> complex:
    """Two-term large-time form of the power part at one point."""
    return complex(asymptotic_field(l, [x], t, g).values[0])


@pytest.fixture(scope="module")
def table02():
    return pole_table(0.2, 24, tol=1e-12)


@pytest.fixture(scope="module")
def table01():
    return pole_table(0.1, 24, tol=1e-12)


# ---------------------------------------------------------------------------
# integrand
# ---------------------------------------------------------------------------

def test_integrand_removable_singularity():
    at = integrand_p(1, 1.0, math.pi / 2, 0.1)
    above = integrand_p(1, 1.0 + 1e-6, math.pi / 2, 0.1)
    below = integrand_p(1, 1.0 - 1e-6, math.pi / 2, 0.1)
    assert abs(at - 0.5 * (above + below)) < 1e-8
    assert np.isfinite(at.real) and np.isfinite(at.imag)


def test_integrand_zero_at_origin_wall():
    assert integrand_p(1, 0.5, 0.0, 0.1) == 0.0


def test_integrand_small_k_coefficient():
    # leading k^2 coefficient is g^2/(1+g)^2 * (-1)^(l+1) pi x / l
    l, g, x = 2, 0.3, 1.1
    expected = g**2 / (1 + g) ** 2 * (-math.pi * x / 2)
    vals = [complex(integrand_p(l, k, x, g)) / k**2 for k in (1e-3, 5e-4)]
    richardson = (4 * vals[1] - vals[0]) / 3  # kill the k^2 correction
    assert abs(richardson - expected) / abs(expected) < 1e-5


def kernel_nodes(l: int) -> np.ndarray:
    """k = l, l -+ 1e-13 .. 2e-4, n -+ 1e-9 for n = 1..1000, and 2^-40 .. 1000."""
    n = np.arange(1.0, 1001.0)
    near = l + np.array([[-1.0], [1.0]]) * [1e-13, 1e-6, 5e-5, 2e-4]
    return np.concatenate([[float(l)], near.ravel(), n - 1e-9, n + 1e-9,
                           np.geomspace(2.0**-40, 1000.0, 4001)])


@pytest.mark.parametrize("g", [0.00398, 0.025, 0.2, 3.0])
def test_spectral_kernel_matches_complex_form(g):
    # the real kernel against the complex reference, relative gap 1e-10.  The
    # reference takes sin at pi k rounded, off by up to about 2 eps pi k;
    # outside its Taylor window that much of its sine is allowed too, which
    # is all of its error next to an integer n != l (1.1e-4 of the value at
    # k = 954 - 1e-9)
    eps = np.finfo(float).eps
    for l in (1, 2, 3):
        k = kernel_nodes(l)
        got = _spectral_kernel(l, k, g)
        ref = spectral_kernel_complex(l, k, g)
        assert got.dtype == np.float64
        far = np.abs(k - l) >= RING_WINDOW
        smooth = l / np.abs((k[far] ** 2 - l**2) * 4.0 * ab_product(k[far].astype(complex), g))
        slack = np.zeros_like(k)
        slack[far] = 2.0 * eps * math.pi * k[far] * smooth
        assert np.all(np.abs(got - ref.real) <= 1e-10 * np.abs(got) + slack)


def test_spectral_kernel_matches_mpmath_next_to_integers():
    # where the complex form cannot judge it, the real kernel meets a 40-digit
    # value of (-1)^l l sin(pi k)/((k^2 - l^2) 4 |b|^2)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for l, g, k in [(1, 0.2, 954.0 - 1e-9), (1, 0.2, 953.006), (2, 0.025, 500.0 + 1e-9),
                    (3, 0.00398, 1000.0 - 1e-9), (2, 3.0, 2.0 + 1e-13), (1, 3.0, 2.0**-40)]:
        km = mpmath.mpf(k)
        b = 0.5j + mpmath.expm1(2j * mpmath.pi * km) / (4 * mpmath.pi * g * km)
        exact = (-1) ** l * l * mpmath.sin(mpmath.pi * km) / ((km**2 - l**2) * 4 * abs(b) ** 2)
        got = _spectral_kernel(l, np.array([k]), g)[0]
        assert abs(got - exact) <= 1e-15 * abs(exact)


# ---------------------------------------------------------------------------
# direct quadrature
# ---------------------------------------------------------------------------

def test_psi_direct_initial_condition():
    v = direct_field(1, [math.pi / 2], 0.0, 0.2, tol=1e-6).values[0]
    assert abs(v - SQ) < 1e-6
    v2 = direct_field(2, [math.pi / 4], 0.0, 0.1, tol=1e-6).values[0]
    assert abs(v2 - SQ) < 1e-6


@pytest.mark.parametrize("t", [51.0, 1e3, 1e5])
def test_direct_certified_past_t50(t):
    # the node set does not depend on t, so no time is out of reach
    fld = direct_field(1, [1.0], t, 0.2)
    assert fld.meta["error_estimate"] <= 1e-6
    assert fld.meta["panels"] == truncation_panels(1, t, 1e-6)


def test_direct_reports_accuracy_failure():
    # tiny-t chirp with an impossible tolerance must fail loudly, best attached
    with pytest.raises(AccuracyError) as exc:
        direct_field(1, [2.0], 0.001, 0.1, tol=1e-14)
    assert exc.value.best is not None
    assert exc.value.estimate > 1e-14


@pytest.mark.parametrize("l, g", [(l, g) for l in (1, 2, 3)
                                  for g in (0.00398, 0.008, 0.015, 0.025, 0.05, 0.1, 0.2, 0.4)])
def test_direct_t0_estimate_covers_true_error(l, g):
    # t = 0 is the one time with a known answer, sqrt(2/pi) sin(l x): on the
    # default 129-point grid every point is certified and its true error is
    # within its estimate, x = pi (where both sit at rounding level) included,
    # down to the route's floor g = 1/(80 pi); from g = 0.025 on the error is
    # at most 1e-12 (below, the cells of the low panels set it: 1.1e-10 at
    # g = 0.00398)
    tol = 1e-6
    x = np.linspace(0.0, math.pi, 129)
    values, estimates, _ = _direct_values(l, x, [0.0], g, tol)
    err = np.abs(values[:, 0] - SQ * np.sin(l * x))
    assert np.all(values.imag == 0.0)
    assert np.all(estimates <= tol)
    assert np.all(err <= estimates[:, 0])
    if g >= 0.025:
        assert err.max() <= 1e-12
    # just inside the barrier every point is certified within its estimate
    slivers = (6e-3, 3e-3, 1e-3, 1e-4, 1e-6) if (l, g) in [(1, 0.2), (3, 0.4), (2, 0.05)] else ()
    for gap in slivers:
        x = math.pi - gap
        fld = direct_field(l, [x], 0.0, g, tol)
        assert abs(fld.values[0] - SQ * math.sin(l * x)) <= fld.meta["error_estimate"] <= tol


@pytest.mark.parametrize(
    "l, g", [(1, 0.4), (2, 0.4), (1, 0.05), (3, 0.2), (1, 0.025), (2, 0.025), (3, 0.025)]
)
def test_direct_t0_estimate_covers_rounding_at_barrier(l, g):
    # at x = pi the value is 0 and every term of the closed-form tail is
    # E_n(0) = 1/(n - 1) or oscillatory: what is left is rounding in the
    # panel sums, which the estimate's floor (eps times the sum of |weight|
    # times the sine roundings) must cover
    fld = direct_field(l, [math.pi], 0.0, g, 1e-6)
    assert abs(fld.values[0]) <= fld.meta["error_estimate"]


def chirp_cell_edges(j, g, t):
    """The cells of panel [j, j+1] refined to ~1.5 cells per cycle of exp(-i k^2 t)."""
    cycles = (2 * j + 1) * t / (2.0 * math.pi)
    ns = max(baseline_subpanels(j, g), math.ceil(1.5 * cycles))
    return np.union1d(np.linspace(j, j + 1, ns + 1), panel_cell_edges(j, g))


def direct_field_dense(l, x, t, g, n_panels):
    """Reference form at t > 0: GL-15 in k on chirp-resolving cells, every node
    of every panel in one nodes x points array, scattered into panel sums
    with np.add.at.

    Returns (values, error estimate, node count).
    """
    nodes, wts, panel_of = [], [], []
    for j in range(n_panels):
        nd, w = gl_nodes_weights(chirp_cell_edges(j, g, t))
        nodes.append(nd)
        wts.append(w)
        panel_of.append(np.full(len(nd), j, dtype=np.intp))
    nodes, wts, panel_of = map(np.concatenate, (nodes, wts, panel_of))
    kern = spectral_kernel_complex(l, nodes, g) * np.exp(-1j * nodes**2 * t) * wts
    contrib = kern[:, None] * np.sin(np.outer(nodes, x))
    panels = np.zeros((n_panels, len(x)), dtype=complex)
    np.add.at(panels, panel_of, contrib)
    estimates = 3.0 * np.max(np.abs(panels[-5:, :]), axis=0)
    return panels.sum(axis=0) * SPECTRAL_PREFACTOR, estimates.max() * SPECTRAL_PREFACTOR, len(nodes)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("g", [0.1, 0.2])
def test_direct_field_matches_dense_reference(l, g):
    # t = 0: panels 0..J-1 plus the closed-form tail give the initial state
    # to 1e-12, with J = tail_panels.  t > 0: Filon in u = k^2 on the t-free
    # node set agrees with GL in k on chirp cells at the same truncation,
    # with far fewer nodes
    x = np.linspace(0.0, math.pi, 33)
    tol = 1e-6
    for t in (0.0, 0.5, 5.0, 50.0):
        try:
            fld = direct_field(l, x, t, g, tol)
            failed = False
        except AccuracyError as exc:
            fld, failed = exc.value.best, True
        n_panels = tail_panels(l, g) if t == 0 else truncation_panels(l, t, tol)
        assert fld.meta["panels"] == n_panels
        if t == 0:
            assert not failed
            assert np.all(fld.values.imag == 0.0)
            np.testing.assert_allclose(fld.values, SQ * np.sin(l * x), rtol=0, atol=1e-12)
        else:
            values, estimate, n_nodes = direct_field_dense(l, x, t, g, n_panels)
            np.testing.assert_allclose(fld.values, values, rtol=0, atol=1e-9)
            assert not failed and estimate <= tol
            assert fld.meta["nodes"] < n_nodes


@pytest.mark.parametrize("chunk", [evolution.DIRECT_CHUNK, 3], ids=["one-block", "3-cell-blocks"])
def test_filon_sums_match_gl_in_k(monkeypatch, chunk):
    # Filon in u = k^2 against GL-15 in k on cells of at most ~1 radian of
    # chirp, on one cell and on the cells of panels 1..5 (52 cells: with
    # 3-cell blocks, the weights of four times, the last block holds one
    # cell, and the sine blocks of 8 nodes split the cells)
    monkeypatch.setattr(evolution, "DIRECT_CHUNK", chunk)
    x = np.linspace(0.0, math.pi, 5)
    l, g = 2, 0.2
    for k_edges in (np.array([3.0, 3.25]),
                    np.unique(np.concatenate([panel_cell_edges(j, g) for j in range(1, 6)]))):
        for t in (0.5, 50.0, 1e3):
            cells = [np.linspace(a, b, max(64, math.ceil((b * b - a * a) * t)) + 1)[:-1]
                     for a, b in zip(k_edges[:-1], k_edges[1:])]
            nodes, wts = gl_nodes_weights(np.append(np.concatenate(cells), k_edges[-1]))
            kern = spectral_kernel_complex(l, nodes, g)
            ref = (kern * np.exp(-1j * nodes**2 * t) * wts) @ np.sin(np.outer(nodes, x))
            got = _filon_sums(l, x, t * np.arange(1.0, 5.0), g, k_edges**2)[0][0, :, 0]
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_filon_sums_angle_addition_matches_np_sin(monkeypatch):
    # the 129-point grid takes quadrature.sin_blocks' angle addition; the
    # np.sin form of the same Filon sums, over the cells of 240 panels, differs
    # by rounding only, and the rounding floor counts the p + q = 23 products.
    # sum |w|, sum u |w| and sum k |w| come from the Filon weights rebuilt here
    # on the complex kernel, not from the weights _filon_sums forms
    x = np.linspace(0.0, math.pi, 129)
    assert _angle_split(x) == (11, 12)
    l, g, t = 2, 0.2, np.array([0.5, 50.0])
    u_edges = np.union1d(ORIGIN_GRADING, panel_edges(g, 240)) ** 2
    got, floor, reach = _filon_sums(l, x, t, g, u_edges)
    c = 0.5 * (u_edges[1:] + u_edges[:-1])[:, None]
    h = 0.5 * (u_edges[1:] - u_edges[:-1])[:, None]
    u = c + h * GL_NODES
    kern = np.abs(spectral_kernel_complex(l, np.sqrt(u), g)) / (2.0 * np.sqrt(u))
    size = h[:, :, None] * np.abs(filon_moments(h * t)) * kern[:, None, :]  # cells x t x nodes
    total, u_total = size.sum(axis=(0, 2)), (u[:, None, :] * size).sum(axis=(0, 2))
    k_total = (np.sqrt(u)[:, None, :] * size).sum(axis=(0, 2))
    monkeypatch.setattr(evolution, "sin_blocks",
                        lambda x, k, max_doubles: [(0, np.sin(np.multiply.outer(x, k)))])
    ref, *_ = _filon_sums(l, x, t, g, u_edges)
    assert np.all(np.abs(got - ref) <= 1e-13 * total)
    assert np.all(floor >= (1 + 11 + 12) * total)
    np.testing.assert_allclose(floor, (1 + 11 + 12) * total + t * u_total, rtol=1e-9)
    np.testing.assert_allclose(reach, k_total, rtol=1e-9)


def test_direct_estimate_covers_error_where_truncation_is_capped():
    # at t = 0.059 and tol 1e-12 the truncation stops at TRUNCATION_PANEL_CAP
    # panels, and three times the last five panel sums fell short of the tail
    # left out (5 points missed, the worst by 1.78x at x = 3.0189); the
    # reference is the residue sum over 1500 poles plus power at 1e-13
    l, g, t = 1, 0.2, 0.059
    x = np.linspace(0.0, math.pi, 129)
    values, estimates, counts = _direct_values(l, x, [t], g, 1e-12)
    assert counts[0, 0] == TRUNCATION_PANEL_CAP
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = pole_table(g, 1500, tol=1e-12)
    expo, tail = _exponential_values(l, x, [t], g, table)
    power, power_estimates = _power_values(l, x, [t], g, 1e-13)
    gap = np.abs(values - expo - power)
    assert np.all(gap <= estimates + power_estimates + tail)


def test_direct_field_memory_is_bounded():
    # the dense route held a ~1 GB nodes x points array here
    x = np.linspace(0.0, math.pi, 129)
    tracemalloc.start()
    try:
        direct_field(2, x, 50.0, 0.2, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("x, bound_mib", [(np.linspace(3.0, math.pi, 1025), 48),
                                          (np.linspace(0.0, math.pi, 129), 16)],
                         ids=["1025-near-barrier", "default-grid"])
def test_direct_t0_memory_is_bounded(x, bound_mib):
    # the t = 0 tail forms its E_n arrays in blocks of points (the fitted
    # tail it replaced peaked at 365 MiB on 1025 points near the barrier as
    # one block)
    tracemalloc.start()
    try:
        _direct_values(2, x, [0.0], 0.2, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


@pytest.mark.parametrize("l, g", [(1, 0.2), (2, 0.2), (3, 0.2), (1, 0.025)],
                         ids=["1", "2", "3", "1-g0.025"])
def test_direct_t0_value_does_not_depend_on_grid(l, g):
    # a t = 0 point's value does not depend on what else the grid holds:
    # points far from the barrier, near it and x = pi get the same value
    # alone as on the default grid, up to the rounding of the sines, which
    # the grid builds by angle addition and a lone point by np.sin.  The
    # estimate's rounding floor counts those roundings (24 per sine on the
    # grid, 1 alone), so a lone point's estimate is its own, and it covers
    # the lone point's error at rounding level
    tol = 1e-6
    grid = np.linspace(0.0, math.pi, 129)
    values, _, _ = _direct_values(l, grid, [0.0], g, tol)
    for i in (17, 64, 121, 122, 125, 128):
        alone, alone_estimate, _ = _direct_values(l, grid[i : i + 1], [0.0], g, tol)
        assert abs(alone[0, 0] - values[i, 0]) <= 1e-14
        assert abs(alone[0, 0] - SQ * np.sin(l * grid[i])) <= alone_estimate[0, 0] <= 1e-13


@pytest.mark.parametrize(
    "l, g, t",
    [(1, 0.2, 99.07), (2, 0.1, 280.26), (1, 0.2, 164.0), (1, 0.2, 1000.0),
     (1, 0.1, 326.0), (1, 0.05, 1283.0), (1, 0.025, 5550.0), (1, 0.2, 1e4), (1, 0.2, 1e5)],
)
def test_decomposition_identity_past_t50(l, g, t):
    # at the exact exponential/power crossovers (99.07, 280.26 and the l = 1
    # g-scan's 326, 1283, 5550) and at 164, 1000, 1e4 and 1e5: direct =
    # exponential + power within tol, and each point's direct estimate covers
    # its gap.  At 1e5 the gap (about 1e-15, the field being about 1e-9) is
    # rounding in the quadrature terms, which only the rounding floor covers
    x = np.linspace(0.0, math.pi, 65)
    tol = 1e-6
    values, estimates, _ = _direct_values(l, x, [t], g, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = pole_table(g, 24, tol=1e-12)
    gap = np.abs(values[:, 0] - exponential_field(l, x, t, g, table).values
                 - power_field(l, x, t, g, 1e-10).values)
    assert np.all(estimates <= tol)
    assert np.all(gap <= estimates[:, 0])


def test_decomposition_identity_pointwise(table02):
    x = math.pi / 2
    d = direct_field(1, [x], 5.0, 0.2, tol=1e-7).values[0]
    e = exponential_field(1, [x], 5.0, 0.2, table02).values[0]
    p = psi_power_quad(1, x, 5.0, 0.2, tol=1e-8)
    assert abs(d - (e + p)) < 1e-6


# ---------------------------------------------------------------------------
# exponential part
# ---------------------------------------------------------------------------

def test_time_factor_unity_at_zero(table02):
    # E^(n)(0) = 1: pole wavefunction at t=0 is just the sine profile
    k = table02[1]
    v = pole_wavefunction(1, 0.7, 0.0, table02)
    assert abs(v - SQ * np.sin(k * 0.7)) < 1e-15


def test_pole_wavefunction_free_limit():
    t = pole_table(1e-6, 3, tol=1e-8)
    v = pole_wavefunction(2, 0.9, 1.5, t)
    expected = SQ * math.sin(2 * 0.9) * np.exp(-1j * 4 * 1.5)
    assert abs(v - expected) < 1e-4


def test_pole_wavefunction_grows_toward_barrier(table02):
    # Im k < 0 tilts |sin(kx)| upward from the wall to the barrier
    xs = np.linspace(0.3, math.pi, 12)
    mags = np.abs(pole_wavefunction(1, xs, 2.0, table02))
    envelope = mags / np.abs(np.sin(table02[1].real * xs))
    assert np.all(np.diff(envelope) > 0)


def test_exponential_decay_rate(table02):
    # log-norm slope approaches -Gamma_1 once higher poles have died
    x = np.linspace(0, math.pi, 129)
    ts = np.array([20.0, 25.0, 30.0, 35.0])
    norms = [
        cavity_norm(exponential_field(1, x, t, 0.2, table02)) for t in ts
    ]
    slope = np.polyfit(ts, np.log(norms), 1)[0]
    assert abs(-slope - table02.gamma[0]) / table02.gamma[0] < 0.03


def test_l2_dominated_by_first_pole(table01):
    # the n=1 weight is -(4/3) g at leading order and decays slowest
    from winterdyn.evolution import _pole_weights

    w = _pole_weights(2, table01)
    assert abs(w[0] - (-4.0 / 3.0) * 0.1) < 5 * 0.1**2
    w_half = _pole_weights(2, pole_table(0.05, 4))
    ratio = abs(w[0] - (-4.0 / 3.0) * 0.1) / abs(w_half[0] - (-4.0 / 3.0) * 0.05)
    assert 3.0 < ratio < 5.0  # first-order weight is off by O(g^2)

    x = np.linspace(0, math.pi, 129)
    full = exponential_field(2, x, 50.0, 0.1, table01).values
    k1 = table01[1]
    first = w[0] * SQ * np.sin(k1 * x) * np.exp(-1j * k1 * k1 * 50.0)
    # residue: the n=2 term still carries e^{-Gamma_2 t/2} ~ 5e-6 at t=50
    assert np.max(np.abs(full - first)) / np.max(np.abs(full)) < 1e-3


def test_exponential_values_batch_every_time(table02):
    # one product for all t gives each time's field; the t = 0 warning comes once
    x = np.linspace(0.0, math.pi, 33)
    ts = np.array([0.0, 0.5, 5.0, 50.0])
    with pytest.warns(UserWarning, match="1/n") as caught:
        values, tails = _exponential_values(1, x, ts, 0.2, table02)
    assert len(caught) == 1
    for j, t in enumerate(ts):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fld = exponential_field(1, x, t, 0.2, table02)
        np.testing.assert_allclose(values[:, j], fld.values, rtol=0, atol=1e-15)
        assert tails[j] == pytest.approx(fld.meta["tail_estimate"], rel=1e-15)


def test_exponential_warns_at_t_zero(table02):
    with pytest.warns(UserWarning, match="1/n"):
        exponential_field(1, [1.0], 0.0, 0.2, table02)


def test_exponential_tail_tolerance(table02):
    with pytest.raises(AccuracyError):
        exponential_field(1, [1.0], 1.0, 0.2, table02, tol=1e-30)


def test_exponential_table_mismatch(table02):
    with pytest.raises(ValueError):
        exponential_field(1, [1.0], 1.0, 0.1, table02)


# ---------------------------------------------------------------------------
# power part
# ---------------------------------------------------------------------------

def test_power_matches_direct_minus_exponential(table02):
    x, t = math.pi / 2, 2.0
    d = direct_field(1, [x], t, 0.2, tol=1e-7).values[0]
    e = exponential_field(1, [x], t, 0.2, table02).values[0]
    p = psi_power_quad(1, x, t, 0.2, tol=1e-9)
    assert abs(p - (d - e)) < 1e-6


def test_power_frozen_amplitude():
    # leading amplitude (1/sqrtute2) g^2/(1+g)^2 x / t^(3/2) at x=pi, t=1e4
    v = abs(psi_power_quad(1, math.pi, 1e4, 0.2, tol=1e-12))
    assert v == pytest.approx(6.170622e-08, rel=1e-3)


def test_power_vanishes_with_coupling():
    for x, t in [(1.0, 3.0), (2.5, 0.5)]:
        assert abs(psi_power_quad(1, x, t, 1e-4, tol=1e-12)) < 1e-7


def test_power_marginal_point_raises():
    with pytest.raises(AccuracyError) as exc:
        psi_power_quad(1, math.pi, 0.0, 0.2, tol=1e-8)
    assert exc.value.best is not None


def test_power_converges_at_t_zero_inside():
    v = psi_power_quad(1, math.pi / 2, 0.0, 0.2, tol=1e-8)
    assert np.isfinite(v.real)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("g", [0.05, 0.2, 0.3])
def test_power_field_matches_pointwise(l, g):
    # the batched grid evaluation equals the one-point route point by point,
    # and its recorded estimate certifies the tolerance
    x = np.linspace(0.0, math.pi, 33)
    for t in (0.0, 0.5, 5.0, 50.0, 300.0):
        xs = x[:-1] if t == 0 else x  # (pi, 0) is the marginal point
        for tol in (1e-6, 1e-10):
            fld = power_field(l, xs, t, g, tol)
            pointwise = [psi_power_quad(l, xi, t, g, tol) for xi in xs]
            np.testing.assert_allclose(fld.values, pointwise, rtol=1e-14, atol=0)
            assert fld.meta["error_estimate"] <= tol


def _ray_sums_per_t(l, x, t, g, edges):
    """Reference form: the ray integrand of one t as one nodes x points array,
    with e^{-kappa^2 t} in the per-node factor."""
    nodes, wts = gl_nodes_weights(edges)
    k = nodes * _ROT
    delta = 1.0 / (4.0 * math.pi * g * k)
    a_pi = -np.expm1(-2j * math.pi * k)
    a_coef = -0.5j - delta * a_pi
    b_wrapped = 0.5j * (1.0 - a_pi) + delta * a_pi
    per_node = (
        (-1) ** l * l / 16.0 * a_pi / (a_coef * b_wrapped * (k**2 - l**2))
        * np.exp(-nodes**2 * t)
    )
    f = np.exp(np.multiply.outer(1j * k, x - math.pi))
    f *= np.expm1(np.multiply.outer(-2j * k, x))
    f *= per_node[:, None]
    last = nodes >= edges[-2]
    envelope = np.max(np.abs(f[last]) * nodes[last, None] ** 2, axis=0)
    sums = (f * wts[:, None]).sum(axis=0)
    return sums, np.where(np.isfinite(sums), envelope / edges[-1], math.inf)


def power_values_per_t(l, x, t, g, tol):
    """Reference form: the ray kernel at one time, each point climbing the
    ladder base -> x2 -> x4 -> x8 on its own."""
    if t > 0:
        groups = [(np.arange(len(x)), ray_cell_edges(t, math.pi))]
    else:
        groups = [(np.array([i]), ray_cell_edges(t, xi)) for i, xi in enumerate(x)]
    values = np.empty(len(x), dtype=complex)
    estimates = np.empty(len(x))
    for active, edges in groups:
        values[active], _ = _ray_sums_per_t(l, x[active], t, g, edges)
        for factor in (2, 4, 8):
            cur, tails = _ray_sums_per_t(l, x[active], t, g, refine_edges(edges, factor))
            estimates[active] = np.abs(cur - values[active]) + tails
            values[active] = cur
            active = active[~(estimates[active] <= tol)]
            if not active.size:
                break
    return _ROT * SPECTRAL_PREFACTOR * values, estimates


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("g", [0.05, 0.2])
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_power_values_match_per_time_reference(l, g, tol):
    # the time-batched kernel gives each (x, t) the per-t kernel's value, and
    # every estimate but the marginal point's (pi, 0) meets tol; t = 1e-4 is
    # the band of cutoff 768, and no exponential of the kernel overflows or
    # turns invalid for these finite inputs
    x = np.linspace(0.0, math.pi, 33)
    ts = np.array([0.0, 1e-4, 0.3, 0.5, 1.0, 2.0, 4.0, 5.0, 16.0, 50.0, 64.0, 300.0, 1e5])
    with np.errstate(over="raise", invalid="raise"):
        values, estimates = _power_values(l, x, ts, g, tol)
    assert values.shape == estimates.shape == (len(x), len(ts))
    assert np.all(values[0] == 0.0)  # sin(k x) = 0 at x = 0, exactly
    for j, t in enumerate(ts):
        ref, ref_estimates = power_values_per_t(l, x, t, g, tol)
        np.testing.assert_allclose(values[:, j], ref, rtol=1e-13, atol=0)
        marginal = (x == math.pi) & (t == 0)
        assert np.all(estimates[~marginal, j] <= tol)
        assert np.all(ref_estimates[~marginal] <= tol)
        assert np.all(estimates[marginal, j] > tol) and np.all(ref_estimates[marginal] > tol)


def test_first_ladder_pair_is_one_kernel_pass(monkeypatch):
    # base and x2 cells of every band are summed in one _ray_sums call; a
    # band whose points all meet tol at x2 needs no further call
    calls = []

    def recorder(*args):
        calls.append(args)
        return ray_sums(*args)

    ray_sums = evolution._ray_sums
    monkeypatch.setattr(evolution, "_ray_sums", recorder)
    psi_power_quad(1, 1.0, 5.0, 0.2, 1e-8)
    assert len(calls) == 1
    calls.clear()
    x = np.linspace(0.0, math.pi, 9)
    _, estimates = _power_values(1, x, [0.5, 5.0, 50.0], 0.2, 1e-8)  # three bands
    assert len(calls) == 3 and np.all(estimates <= 1e-8)
    assert [len(levels) for *_, levels in calls] == [2, 2, 2]


@pytest.mark.parametrize("l, g", [(1, 0.2), (2, 0.1)])
def test_power_values_memory_is_bounded(l, g):
    # the ray sums go in blocks of cells: the first two levels without
    # blocks peaked at 7.5 MiB here, the complex kernel at 4.4 MiB
    x, ts = np.linspace(0.0, math.pi, 129), np.linspace(0.5, 300.0, 201)
    tracemalloc.start()
    try:
        _power_values(l, x, ts, g, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_power_field_marginal_point_raises_with_field():
    x = np.linspace(0.0, math.pi, 33)
    with pytest.raises(AccuracyError) as exc:
        power_field(1, x, 0.0, 0.2, tol=1e-8)
    best = exc.value.best
    assert isinstance(best, WaveField)
    assert len(best.values) == len(x)
    assert best.meta["error_estimate"] == exc.value.estimate > 1e-8
    # the interior points still converged; only x = pi misses the tolerance
    np.testing.assert_allclose(
        best.values[:-1], power_field(1, x[:-1], 0.0, 0.2, tol=1e-8).values, rtol=1e-14
    )


def test_power_field_rejects_positions_outside_cavity():
    with pytest.raises(DomainError):
        power_field(1, [0.5, 3.5], 1.0, 0.2)


@pytest.mark.parametrize("x", [-1.0, 3.5])
@pytest.mark.parametrize("route", ["direct", "exponential", "power", "asymptotic"])
def test_fields_refuse_positions_outside_cavity(table02, route, x):
    fields = {
        "direct": lambda: direct_field(1, [x], 5.0, 0.2),
        "exponential": lambda: exponential_field(1, [x], 5.0, 0.2, table02),
        "power": lambda: power_field(1, [x], 5.0, 0.2),
        "asymptotic": lambda: asymptotic_field(1, [x], 5.0, 0.2),
    }
    with pytest.raises(DomainError):
        fields[route]()


@pytest.mark.parametrize(
    "l, t, g, message",
    [(1.5, 5.0, 0.2, "positive integer"), (1, -1.0, 0.2, "time must be >= 0"),
     (1, 5.0, 0.0, "requires g > 0")],
    ids=["l-not-integer", "t-negative", "g-zero"],
)
@pytest.mark.parametrize("field", [direct_field, power_field], ids=["direct", "power"])
def test_quadrature_fields_refuse_inputs_outside_domain(field, l, t, g, message):
    with pytest.raises(DomainError, match=message):
        field(l, [0.5], t, g)


def test_direct_field_refuses_g_below_its_tail_model():
    # the route refuses g < DIRECT_G_MIN = 1/(80 pi), below the couplings
    # its t = 0 estimates are tested at
    with pytest.raises(DomainError, match="requires g >= "):
        direct_field(1, np.linspace(0.0, math.pi, 129), 0.0, 0.002, 1e-6)


def psi_power_asym_scalar(l, x, t, g):
    """Reference form: the two-term closed form in scalar math/cmath."""
    gp = g / (1.0 + g)
    bracket = (
        1.0 / l**2 + math.pi**2 / 6.0 + (2.0 / 3.0) * math.pi**2 * gp - math.pi**2 * gp**2
        - x**2 / 6.0
    )
    lead = cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0) * (-1) ** l / l * gp**2 * x / t**1.5
    return complex(lead * (1.0 - 1.5j / t * bracket))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_asymptotic_field_matches_scalar_form(l):
    # numpy over x gives the scalar closed form at every point; so does
    # psi_power_asym
    x = np.linspace(0.0, math.pi, 33)
    for t, g in [(0.3, 0.05), (7.0, 0.2), (1e4, 0.4)]:
        ref = [psi_power_asym_scalar(l, xi, t, g) for xi in x]
        np.testing.assert_allclose(asymptotic_field(l, x, t, g).values, ref, rtol=1e-15, atol=0)
        assert psi_power_asym(l, x[7], t, g) == pytest.approx(ref[7], rel=1e-15)


def test_cavity_norms_of_columns_equal_cavity_norm():
    # the batched Simpson call keeps the one-field operation order, bit for bit
    rng = np.random.default_rng(3)
    for n in (33, 34, 129):
        x = np.linspace(0.0, math.pi, n)
        values = rng.normal(size=(n, 7)) + 1j * rng.normal(size=(n, 7))
        norms = _cavity_norms(x, values)
        for j in range(7):
            fld = WaveField(x_grid=x, t=float(j), values=values[:, j])
            assert norms[j] == cavity_norm(fld)


@pytest.mark.parametrize("n", [33, 34, 129, 130, 257])
def test_cavity_norms_equal_scipy_simpson(n):
    # scipy.integrate.simpson is the reference: same rule, same operation
    # order, so every norm matches bit for bit, odd and even point counts
    rng = np.random.default_rng(n)
    uneven = np.sort(rng.uniform(0.0, math.pi, n))
    uneven[[0, -1]] = 0.0, math.pi
    for x in (np.linspace(0.0, math.pi, n), uneven):
        values = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        ref = simpson(np.abs(np.ascontiguousarray(values.T)) ** 2, x=x, axis=-1)
        assert np.array_equal(_cavity_norms(x, values), ref)
        fld = WaveField(x_grid=x, t=0.0, values=values[:, 0])
        assert cavity_norm(fld) == float(simpson(np.abs(values[:, 0]) ** 2, x=x))


def test_asymptotic_against_quadrature():
    q = psi_power_quad(1, math.pi / 2, 1e3, 0.2, tol=1e-12)
    a = psi_power_asym(1, math.pi / 2, 1e3, 0.2)
    assert abs(q - a) / abs(q) < 0.01


def test_asymptotic_zero_at_wall():
    assert psi_power_asym(1, 0.0, 100.0, 0.2) == 0.0


def test_asymptotic_exponent_independent_of_l_g():
    for (l, g) in [(1, 0.1), (2, 0.3)]:
        r = abs(psi_power_asym(l, 1.0, 4e4, g)) / abs(psi_power_asym(l, 1.0, 1e4, g))
        assert r == pytest.approx(4.0**-1.5, rel=1e-3)


# ---------------------------------------------------------------------------
# norms and containers
# ---------------------------------------------------------------------------

def test_cavity_norm_initial_unity():
    x = np.linspace(0, math.pi, 129)
    fld = direct_field(1, x, 0.0, 0.2, tol=1e-5)
    assert cavity_norm(fld) == pytest.approx(1.0, abs=1e-5)


def test_cavity_norm_zero_field():
    x = np.linspace(0, math.pi, 65)
    fld = WaveField(x_grid=x, t=0.0, values=np.zeros(65, dtype=complex))
    assert cavity_norm(fld) == 0.0


def test_cavity_norm_grid_guards():
    x = np.linspace(0, math.pi, 21)
    fld = WaveField(x_grid=x, t=0.0, values=np.zeros(21, dtype=complex))
    with pytest.raises(DomainError):
        cavity_norm(fld)
    x2 = np.linspace(0, 3.0, 65)
    fld2 = WaveField(x_grid=x2, t=0.0, values=np.zeros(65, dtype=complex))
    with pytest.raises(DomainError):
        cavity_norm(fld2)


def test_wavefield_validation():
    with pytest.raises(ValueError):
        WaveField(
            x_grid=np.array([0.0, 0.0, 1.0]),
            t=0.0,
            values=np.zeros(3, dtype=complex),
        )


def test_timeseries_csv_shape():
    lines = cli._norm_csv(np.array([1.0, 2.0]), np.array([0.5, 0.25])).strip().split("\n")
    assert lines[0] == "t,norm"
    assert len(lines) == 3


def test_wavefield_csv_shape():
    fld = WaveField(
        x_grid=np.array([0.0, 1.0]),
        t=0.0,
        values=np.array([0j, 1 + 2j]),
    )
    lines = cli._complex_csv("x_or_t", fld.x_grid, fld.values).strip().split("\n")
    assert lines[0] == "x_or_t,re,im"
    assert lines[2].startswith("1.0,1.0,2.0")


def test_csv_matches_per_entry_loop():
    # reference: the per-entry formatting the shared encoder replaced
    rng = np.random.default_rng(5)
    x = np.array([0.0, 1e-8, 0.1, 1.0 / 3.0, math.pi, 123456.789])
    vals = (rng.normal(size=6) + 1j * rng.normal(size=6)) * 10.0 ** rng.integers(-300, 300, 6)
    vals[1] = complex(-0.0, -0.0)
    fld = WaveField(x_grid=x, t=1.0, values=vals)
    lines = ["x_or_t,re,im"]
    for xi, v in zip(fld.x_grid, fld.values):
        v = complex(v)
        lines.append(f"{float(xi)!r},{v.real!r},{v.imag!r}")
    assert cli._complex_csv("x_or_t", fld.x_grid, fld.values) == "\n".join(lines) + "\n"

    t_grid, norms = np.array([1.0, 2.0, 7.0]), np.array([0.5, 0.0, 1e-300])
    lines = ["t,norm"] + [f"{float(t)!r},{float(v)!r}" for t, v in zip(t_grid, norms)]
    assert cli._norm_csv(t_grid, norms) == "\n".join(lines) + "\n"


def test_decomposition_identity_grid_l2(table01):
    # companion combo to the acceptance run (which does l=1, g=0.2)
    x = np.linspace(0, math.pi, 65)
    from winterdyn import direct_field, exponential_field, power_field

    d = direct_field(2, x, 5.0, 0.1, tol=2e-6).values
    e = exponential_field(2, x, 5.0, 0.1, table01).values
    p = power_field(2, x, 5.0, 0.1, tol=1e-7).values
    assert np.max(np.abs(d - (e + p))) < 1e-5


@pytest.mark.parametrize("route", [direct_field, power_field], ids=["direct", "power"])
def test_non_finite_field_is_an_accuracy_error(monkeypatch, route):
    # at g = 1e-300 the integrand's 1/(a b) overflows to nan; the direct route
    # refuses so small a g, so a nan kernel stands in for the overflow there
    x = np.linspace(0.0, math.pi, 33)
    g = 1e-300
    if route is direct_field:
        g = 0.2
        monkeypatch.setattr(evolution, "_spectral_kernel",
                            lambda l, k, g: np.full(k.shape, np.nan, dtype=complex))
    with pytest.raises(AccuracyError) as exc, np.errstate(all="ignore"):
        route(1, x, 1.0, g, 1e-6)
    assert exc.value.best is None


def test_non_finite_values_are_domain_errors():
    x = np.linspace(0.0, math.pi, 33)
    values = np.full(33, np.nan, dtype=complex)
    with pytest.raises(DomainError):
        WaveField(x_grid=x, t=0.0, values=values)
    with pytest.raises(DomainError):
        cli._norm_csv(np.array([0.0, 1.0]), np.array([1.0, np.inf]))
    with pytest.raises(DomainError):
        _cavity_norms(x, values[:, None])
