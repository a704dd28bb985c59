import math

import numpy as np
import pytest

from numpy.polynomial import legendre
from scipy.special import spherical_jn

from winterdyn.evolution import ORIGIN_GRADING, _spectral_kernel
from winterdyn.quadrature import (
    GL_NODES,
    GL_WEIGHTS,
    RAY_K_CAP,
    TAIL_ORDER,
    _angle_split,
    expint,
    filon_moments,
    panel_edges,
    ray_band,
    ray_cell_edges,
    refine_edges,
    sin_blocks,
    sine_rounds,
    spherical_bessel_j,
    tail_coefficients,
    tail_panels,
)

MOMENT_OMEGAS = [0.0, 1e-8, 1e-3, 0.5, 14.9, 15.0, 15.1, 100.0, 1e4, 1e7]


def refine_edges_per_cell(edges, factor):
    """Reference form: one np.linspace per cell."""
    if factor <= 1:
        return edges
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        out.extend(np.linspace(a, b, factor + 1)[1:])
    return np.array(out)


def baseline_subpanels(j: int, g: float) -> int:
    """Cells needed for the period-1 structure of 1/(4ab) in panel [j, j+1]."""
    delta = 1.0 / (4.0 * math.pi * abs(g) * (j + 0.5))
    if delta < 0.02:
        return 1
    if delta < 0.1:
        return 4
    if delta < 0.3:
        return 8
    return 16


def panel_cell_edges(j: int, g: float) -> np.ndarray:
    """Subdivision of the unit panel [j, j+1] adapted to spike and wiggle."""
    lo, hi = float(j), float(j + 1)
    edges = set(np.linspace(lo, hi, baseline_subpanels(j, g) + 1))
    n = j + 1
    kr = n * (1.0 - g + g * g)
    if lo - 0.5 < kr < hi + 0.5:
        w = min(max(math.pi * n * n * g * g / 4.0, 1e-9), 0.25)
        step = w
        pts = [kr]
        while step < 1.0:
            pts.append(kr - step)
            pts.append(kr + step)
            step *= 2.0
        edges.update(p for p in pts if lo < p < hi)
    return np.array(sorted(edges))


@pytest.mark.parametrize("g", np.geomspace(0.01, 1.0, 10).tolist())
def test_panel_edges_match_per_panel_reference(g):
    # the closed form is bit for bit the union of the per-panel reference
    # cells, alone and with the origin grading of the t > 0 route
    for n_panels in (48, 100, 220, 800, 1000):
        ref = np.unique(np.concatenate([panel_cell_edges(j, g) for j in range(n_panels)]))
        np.testing.assert_array_equal(panel_edges(g, n_panels), ref)
        np.testing.assert_array_equal(np.union1d(ORIGIN_GRADING, panel_edges(g, n_panels)),
                                      np.union1d(ORIGIN_GRADING, ref))


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 5.0, 300.0])
@pytest.mark.parametrize("x", [0.0, 1.0, math.pi - 0.01, math.pi])
def test_refine_edges_matches_per_cell_linspace(t, x):
    edges = ray_cell_edges(t, x)
    for factor in (1, 2, 3, 4, 8):
        fine = refine_edges(edges, factor)
        ref = refine_edges_per_cell(edges, factor)
        assert len(fine) == len(ref) == (len(edges) - 1) * factor + 1
        assert np.array_equal(fine[::factor], edges)
        np.testing.assert_allclose(fine, ref, rtol=4e-16, atol=0)
        assert np.all(np.diff(fine) > 0)


@pytest.mark.parametrize("b", [-31, -29, -5, -1, 0, 1, 2, 3, 4, 5, 30])
def test_ray_band_exact_at_powers_of_four(b):
    # 4^b starts its own band and the float just below it lies in the band
    # before; math.log(4.0**-29, 4) is -29.000000000000004, and math.log(t, 4)
    # rounds the float just below 64 up to 3.0
    t = 4.0**b
    below, above = np.nextafter(t, 0.0), np.nextafter(t, np.inf)
    assert ray_band(t) == t
    assert ray_band(float(above)) == t
    assert ray_band(float(below)) == t / 4.0
    assert ray_band(float(np.nextafter(4.0 * t, 0.0))) == t
    assert np.array_equal(ray_cell_edges(float(above), math.pi), ray_cell_edges(t, math.pi))
    if t >= 0.25:
        # the closed form of the doubling cells is bit-identical to doubling
        # in a loop
        assert np.array_equal(ray_cell_edges(t, math.pi), ray_cell_edges_doubling_loop(t))


def ray_cell_edges_doubling_loop(t):
    """Reference form of the cells of t >= 1/4: 13 core edges, then doubling up to K."""
    k_max = max(10.0, math.sqrt(36.0 / ray_band(t)))
    core = min(6.0 / math.sqrt(ray_band(t)), k_max)
    edges = list(np.linspace(0.0, core, 13))
    while edges[-1] < k_max:
        edges.append(min(edges[-1] * 2.0, k_max))
    return np.array(edges)


def ray_cell_edges_closed_form(t, x):
    """Reference form with the doublings of t_b >= 1/4 in closed form: core 2^m,
    m <= ceil(log2(K/core)), exact because K/core is 1 or 5/3 times 2^b."""
    if t > 0:
        t_b = ray_band(t)
        k_max = max(10.0, math.sqrt(36.0 / t_b))
        core = 6.0 / math.sqrt(t_b)
        if core <= 12.0:
            doublings = core * 2.0 ** np.arange(math.ceil(math.log2(k_max / core)) + 1)
            return np.append(np.arange(12.0) * (core / 12.0), np.minimum(doublings, k_max))
    else:
        k_max = min(max(10.0, 40.0 / max((math.pi - x) / math.sqrt(2.0), 1e-9)), RAY_K_CAP)
    edges = list(np.linspace(0.0, 10.0, 21))
    while edges[-1] < k_max:
        edges.append(min(edges[-1] * 1.5, k_max))
    return np.array(edges)


def test_ray_cells_match_closed_form_doublings():
    # t = 0 across the cavity up to the cap at the barrier, and t > 0 across
    # twelve decades with every power of 4 and the float just below it
    for x in [*np.linspace(0.0, math.pi, 257), math.pi - 1e-6, math.pi - 1e-12]:
        assert np.array_equal(ray_cell_edges(0.0, x), ray_cell_edges_closed_form(0.0, x))
    powers = 4.0 ** np.arange(-9, 10)
    for t in [*np.geomspace(1e-6, 1e6, 4000), 0.25, *powers, *np.nextafter(powers, 0.0)]:
        assert np.array_equal(ray_cell_edges(t, 1.0), ray_cell_edges_closed_form(t, 1.0))


@pytest.mark.parametrize("t", [1e-3, 0.3, 0.5, 3.99, 5.0, 50.0, 300.0, 1e5])
def test_ray_cells_shared_by_band_and_cover_cutoff(t):
    # every t of a band gets the cells of the band's start, whose cutoff K
    # still has exp(-K^2 t) <= e^-36
    edges = ray_cell_edges(t, 1.0)
    assert np.array_equal(edges, ray_cell_edges(ray_band(t), math.pi))
    assert ray_band(t) <= t < 4.0 * ray_band(t)
    assert edges[-1] ** 2 * t >= 36.0


def lagrange_basis(m):
    """The GL-15 Lagrange polynomial l_m, interpolated in the Legendre basis."""
    return legendre.Legendre.fit(GL_NODES, np.eye(len(GL_NODES))[m], len(GL_NODES) - 1,
                                 domain=[-1, 1], window=[-1, 1])


def moments_oversampled_gl(omega):
    """Reference form: composite GL-30 on 2^p dyadic cells, a cell or more per radian.

    The cell midpoints are dyadic, so omega * midpoint is exact for the
    omegas tested and the phase e^{-i omega s} carries no rounding of size
    eps * omega.
    """
    cells = 2 ** max(2, math.ceil(math.log2(max(omega, 1.0))))
    mid = -1.0 + (2 * np.arange(cells) + 1.0) / cells
    nodes, weights = legendre.leggauss(30)
    s = mid[:, None] + nodes / cells
    phase = np.exp(-1j * omega * mid)[:, None] * np.exp(-1j * omega * nodes / cells)
    return np.array([np.sum(lagrange_basis(m)(s) * phase * weights) / cells
                     for m in range(len(GL_NODES))])


def moments_by_parts(omega):
    """Reference form for large omega: integration by parts, exact for a polynomial.

    int p e^{-i w s} ds = -sum_k [p^(k)(s) e^{-i w s}]_{-1}^{1} / (i w)^(k+1).
    """
    out = []
    for m in range(len(GL_NODES)):
        p, total = lagrange_basis(m), 0j
        for k in range(len(GL_NODES)):
            jump = p(1.0) * np.exp(-1j * omega) - p(-1.0) * np.exp(1j * omega)
            total -= jump / (1j * omega) ** (k + 1)
            p = p.deriv()
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("omega", MOMENT_OMEGAS)
def test_filon_moments_match_reference(omega):
    # the closed form sum_n (2n+1)(-i)^n P_n(s_m) j_n(omega) w_m against an
    # oversampled GL rule (integration by parts at 1e7, where GL would need
    # ~1e8 nodes), relative to the largest moment
    phi = filon_moments(omega)
    ref = moments_by_parts(omega) if omega > 1e4 else moments_oversampled_gl(omega)
    assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_filon_moments_at_zero_are_gl_weights():
    assert np.array_equal(filon_moments(0.0), GL_WEIGHTS.astype(complex))
    assert filon_moments(np.zeros((2, 3))).shape == (2, 3, len(GL_NODES))


def _jittered_grid():
    x = np.linspace(0.0, math.pi, 129)
    x[1:-1] += np.random.default_rng(3).uniform(-1e-3, 1e-3, 127)
    return x


SINE_GRIDS = {
    "2-points": np.linspace(0.0, math.pi, 2),
    "9-points": np.linspace(0.0, math.pi, 9),
    "33-points": np.linspace(0.0, math.pi, 33),
    "129-points": np.linspace(0.0, math.pi, 129),
    "1025-near-barrier": np.linspace(3.0, math.pi, 1025),
    "not-arithmetic": _jittered_grid(),
    "one-point": np.array([1.3]),
    "empty": np.array([]),
}


def test_angle_split_takes_linspace_grids_of_two_or_more_points():
    splits = {name: _angle_split(x) for name, x in SINE_GRIDS.items()}
    assert splits == {"2-points": (1, 2), "9-points": (3, 3), "33-points": (6, 6),
                      "129-points": (11, 12), "1025-near-barrier": (32, 33),
                      "not-arithmetic": (0, 0), "one-point": (0, 0), "empty": (0, 0)}


@pytest.mark.parametrize("max_doubles", [4096 * 32, 5000], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("x", SINE_GRIDS.values(), ids=SINE_GRIDS.keys())
def test_sin_product_matches_np_sin(x, max_doubles):
    # the blocks of sin_blocks, one after the other, times 154 identity
    # columns compare every sine, times 2 random columns the sums; the nodes
    # reach the direct route's 800-panel cap.  Either side rounds the phase
    # k x to about k x eps, and sine_rounds reports the roundings of the
    # sines: 1 + p + q on the angle-addition tables, 1 for np.sin
    rng = np.random.default_rng(11)
    k = np.sort(rng.uniform(0.0, 800.0, 154))
    p, q = _angle_split(x)
    ref = np.sin(np.multiply.outer(x, k))
    blocks = [(lo, sines.copy()) for lo, sines in sin_blocks(x, k, max_doubles)]
    assert [lo for lo, _ in blocks] == list(np.cumsum([0] + [s.shape[1] for _, s in blocks])[:-1])
    table = np.concatenate([s for _, s in blocks], axis=1)
    rounds = sine_rounds(x)
    for w in (np.eye(len(k)), rng.standard_normal((len(k), 2))):
        got = table @ w
        assert got.shape == (len(x), w.shape[1])
        assert rounds == 1 + p + q
        bound = 2.0 * np.finfo(float).eps * (rounds + np.multiply.outer(x, k))
        assert np.all(np.abs(got - ref @ w) <= bound @ np.abs(w))


def test_spherical_bessel_matches_scipy_across_regimes():
    # series below 1, Miller's recurrence up to 15, upward recurrence beyond
    w = np.concatenate([MOMENT_OMEGAS, np.linspace(0.9, 16.0, 711), [3.3e6]])
    ref = np.stack([spherical_jn(n, w) for n in range(len(GL_NODES))], axis=-1)
    err = np.abs(spherical_bessel_j(w) - ref)
    assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=-1, keepdims=True))


def test_expint_matches_mpmath_on_imaginary_axis():
    # the t = 0 tail takes E_n on the imaginary axis: z = 0 (x = pi), the
    # series below |z| = 1, the fraction order by order up to 2 TAIL_ORDER,
    # the fraction at the top order and the downward recurrence beyond
    mpmath = pytest.importorskip("mpmath")
    top = TAIL_ORDER
    size = np.array([0.0, 1e-8, 0.5, 0.999, 1.001, 5.0, 2 * top - 0.01, 2 * top + 0.01,
                     125.0, 1e4, 1.2e4])
    z = np.concatenate([-1j * size, 1j * size[1:]])
    got = expint(z, top)
    assert got.shape == (len(z), top - 1)
    for zi, row in zip(z, got):
        ref = [complex(mpmath.expint(n, mpmath.mpc(zi.real, zi.imag))) for n in range(2, top + 1)]
        np.testing.assert_allclose(row, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("l, g", [(1, 0.2), (2, 0.025), (3, 0.4), (1, 0.00398), (9, 0.3)])
def test_tail_expansion_matches_direct_integrand(l, g):
    # the expansion sum 2 Re(C[n, j] e^{i pi (2j + 1) k}) k^-n times sin(k x)
    # against the kernel on [J, 4 J]; its remainder is below about
    # 4 r^(N-1) l/k^2 with r = max(1/(pi g k), l/k) <= 1/8, and any wrong
    # coefficient of order n <= N would leave r^(n-2) l/k^2.  The phases are
    # taken from k - round(k), as the kernel takes them
    J = tail_panels(l, g)
    coef = tail_coefficients(l, g)
    k = np.linspace(J, 4.0 * J, 3001)
    n = np.round(k)
    odd = 2 * np.arange(coef.shape[1]) + 1
    phases = ((-1.0) ** n)[:, None] * np.exp(1j * math.pi * np.outer(k - n, odd))
    series = (2.0 * (phases @ coef.T).real * k[:, None] ** -np.arange(TAIL_ORDER + 1.0)).sum(axis=1)
    r = np.maximum(1.0 / (math.pi * g * k), l / k)
    assert r.max() <= 0.125
    bound = l / k**2 * (4.0 * r ** (TAIL_ORDER - 1) + 1e-14)
    for x in (0.3, 2.0, math.pi - 1e-3, math.pi):
        sines = np.sin(k * x)
        assert np.all(np.abs(series * sines - _spectral_kernel(l, k, g) * sines) <= bound)
