"""Time evolution of metastable cavity states.

A state starting as sqrt(2/pi) sin(l x) inside the cavity evolves as the
spectral integral

    psi^(l)(x, t) = (2/pi)^(3/2) * Int_0^inf p^(l)(k; x, g) e^{-i k^2 t} dk,
    p^(l)(k; x, g) = (-1)^l l sin(k pi)/(k^2 - l^2) * sin(k x)/(4 a b),

which splits into an exponential part (residue sum over the poles of 1/b in
the lower half-plane) and a power part (integral along the ray arg k = -pi/4
where the quadratic phase turns into Gaussian damping).  The exponential part
dominates on intermediate times; the power part, falling like t^(-3/2) in
amplitude, always wins asymptotically.

Three independent evaluation routes are provided on purpose: direct
quadrature along the real k axis, the residue sum, and the rotated-ray
quadrature.  Their mutual agreement (direct = exponential + power) is the
strongest internal check the package has, so none of them may be implemented
in terms of another.  The direct route uses no pole and no contour: at every
t, Filon quadrature in u = k^2, where the chirp e^{-i k^2 t} is linear, on a
node set that does not depend on t, so it reaches every t > 0; at t = 0 the
panels end at J and the closed-form integral of the integrand's large-k
expansion adds the rest.

Each route, and the two-term asymptotic form of the power part, is one kernel
`_<route>_values(l, x, t, g, ...)` that evaluates every (x, t) of a points x
times grid after `_inputs` has checked the route's domain.  The field
functions (`direct_field`, ...) are views of one time, and `_certify` raises
the AccuracyError of every quadrature that misses its tolerance.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import AccuracyError, DomainError
from .poles import PoleTable, width_pert
from .quadrature import (
    GL_NODES,
    TRUNCATION_PANEL_CAP,
    direct_tail,
    filon_moments,
    gl_nodes_weights,
    panel_edges,
    ray_band,
    ray_cell_edges,
    refine_edges,
    sin_blocks,
    sine_rounds,
    tail_panels,
    truncation_panels,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SPECTRAL_PREFACTOR = (2.0 / math.pi) ** 1.5

# The direct route's blocks: at t > 0 the Filon weights of one block of cells
# hold at most DIRECT_CHUNK x 128 doubles, and at either time a block of
# sin(k x), or the angle-addition basis behind it, at most DIRECT_CHUNK x 32,
# so memory does not grow with the tolerance; at t = 0 the tail's E_n arrays
# of one block of points hold about DIRECT_CHUNK x 128.
DIRECT_CHUNK = 4096

# Panel 0 in u = k^2 also gets the cell edges k = 2^-1 ... 2^-40, graded
# toward the sqrt(u) branch point at k = 0; the innermost cell contributes
# ~ 2^-120.
ORIGIN_GRADING = 2.0 ** -np.arange(1, 41)

# Smallest coupling of the direct route, 1/(80 pi): there the t = 0 sum runs
# to J = 640 panels, and the low panels' cells set its error (up to 1.1e-10,
# estimates up to 3.5e-8).  Smaller g is untested.
DIRECT_G_MIN = 1.0 / (80.0 * math.pi)


def _inputs(route: str, l: int, x, t, g: float):
    """x and t as 1-d float arrays, checked against the domain of a route.

    Every route needs a positive integer l, positions in the cavity [0, pi]
    and times t >= 0; power needs g > 0, direct g >= DIRECT_G_MIN > 0 and
    asymptotic t > 0.  Raises DomainError.
    """
    if l < 1 or int(l) != l:
        raise DomainError("initial mode index l must be a positive integer")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((x >= 0.0) & (x <= math.pi)):
        raise DomainError("cavity position x must lie in [0, pi]")
    if not np.all(t >= 0):
        raise DomainError("time must be >= 0")
    if route in ("direct", "power") and not g > 0:
        raise DomainError(f"the {route} route requires g > 0")
    if route == "direct" and g < DIRECT_G_MIN:
        raise DomainError(f"the direct route requires g >= {DIRECT_G_MIN!r} = 1/(80 pi), "
                          "the smallest coupling its cells are tested at")
    if route == "asymptotic" and not np.all(t > 0):
        raise DomainError("asymptotic form needs t > 0")
    return x, t


def _certify(route: str, l: int, x, t, g: float, tol: float, estimates, best, norm=False):
    """Raise AccuracyError unless every (x, t) estimate meets tol.

    The error names the worst (x, t) and carries its estimate and `best`.
    For a norm, the power route's (x, t) = (pi, 0), where the ray integral is
    marginally divergent, may miss tol: its cutoff-limited value enters the
    norm with a warning.
    """
    missed = ~(estimates <= tol)
    if norm and route == "power":
        marginal = missed & (t == 0)[None, :] & (x >= math.pi - 1e-12)[:, None]
        if marginal.any():
            warnings.warn(
                "ray integral is marginally divergent at (x, t) = (pi, 0); "
                "using the cutoff-limited value for the norm",
                stacklevel=3,
            )
        missed &= ~marginal
    if missed.any():
        i, j = np.unravel_index(np.argmax(np.where(missed, estimates, -np.inf)), missed.shape)
        raise AccuracyError(
            f"{route} route reached an error estimate {estimates[i, j]:.2e} > tol {tol:.1e} "
            f"(l={l}, x={x[i]}, t={t[j]}, g={g})",
            best=best,
            estimate=float(estimates[i, j]),
        )


# ---------------------------------------------------------------------------
# fields and cavity norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveField:
    """Complex amplitudes of one state on an x-grid at a single time."""

    x_grid: np.ndarray
    t: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        if np.any(np.diff(x) <= 0):
            raise ValueError("x_grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")


def _certified_field(route: str, l: int, x, t, g: float, tol: float, values, estimates,
                     **meta) -> WaveField:
    """The field of the single time t, raising AccuracyError unless every point meets tol.

    meta["error_estimate"] is the largest per-point estimate.  A field that
    is not finite is never certified and carries no best field.
    """
    fld = None
    if np.all(np.isfinite(values)):
        worst = float(estimates.max(initial=0.0))
        fld = WaveField(x, float(t[0]), values[:, 0], {"error_estimate": worst, **meta})
    _certify(route, l, x, t, g, tol, estimates, fld)
    return fld


def _check_norm_grid(x) -> None:
    """Refuse a position grid that _cavity_norms cannot integrate over (DomainError)."""
    if len(x) < 33 or x[0] > 1e-12 or x[-1] < math.pi - 1e-12:
        raise DomainError("cavity norms need a grid of at least 33 points covering [0, pi]")


def _cavity_norms(x_grid, values) -> np.ndarray:
    """Integral of |psi|^2 over the cavity for each column of points x times values.

    Composite Simpson runs along the rows of the contiguous times x points
    transpose, which keeps the operation order of a one-field call: each
    norm equals cavity_norm of its column's field bit for bit.  The rule is
    the irregular-spacing form in a fixed operation order; an even point
    count adds Cartwright's correction for the last interval.
    """
    x = np.asarray(x_grid, dtype=float)
    _check_norm_grid(x)
    if not np.all(np.isfinite(values)):
        raise DomainError("field values must be finite")
    y = np.abs(np.ascontiguousarray(values.T)) ** 2
    h = np.diff(x)
    m = len(x) - 2 - (len(x) + 1) % 2  # the Simpson pairs cover intervals 0..m
    h0, h1 = h[0:m:2], h[1 : m + 1 : 2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    norms = np.sum(hsum / 6.0 * (
        y[:, 0:m:2] * (2.0 - 1.0 / h0divh1)
        + y[:, 1 : m + 1 : 2] * (hsum * (hsum / hprod))
        + y[:, 2 : m + 2 : 2] * (2.0 - h0divh1)), axis=-1)
    if len(x) % 2 == 0:
        hm2, hm1 = h[-2:-1], h[-1:]
        alpha = (2 * hm1**2 + 3 * hm2 * hm1) / (6 * (hm1 + hm2))
        beta = (hm1**2 + 3.0 * hm2 * hm1) / (6 * hm2)
        eta = hm1**3 / (6 * hm2 * (hm2 + hm1))
        norms += alpha * y[:, -1] + beta * y[:, -2] - eta * y[:, -3]
    return norms


def cavity_norm(fld: WaveField) -> float:
    """Integral of |psi|^2 over the cavity by composite Simpson on the grid."""
    return float(_cavity_norms(fld.x_grid, np.asarray(fld.values)[:, None])[0])


# ---------------------------------------------------------------------------
# direct spectral quadrature
# ---------------------------------------------------------------------------

def _spectral_kernel(l: int, k: np.ndarray, g: float) -> np.ndarray:
    """p^(l)(k; x, g) / sin(k x) at real nodes k > 0, in real arithmetic.

    With n = round(k), r = k - n, s, c = sin, cos(pi r) and d = 1/(4 pi g k),
    b = -2 d s^2 + i (1/2 + 2 d s c) and a = conj(b) on the real axis, so
    4 a b = 4 [(2 d s^2)^2 + (1/2 + 2 d s c)^2] = (v s)^2 + (1 + v c)^2 with
    v = 4 d s; sin(pi k) = (-1)^n s.  Where n = l, k - l = r exactly and
    sin(pi k)/(k - l) = (-1)^l pi sinc(r), which fills the one 0/0, at k = l.
    """
    n = np.round(k)
    r = k - n
    s, c = np.sin(math.pi * r), np.cos(math.pi * r)
    v = s / (math.pi * g * k)
    ring = n == l
    ratio = np.divide(s, k - l, out=np.empty_like(k), where=~ring)
    ratio[ring] = math.pi * np.sinc(r[ring])
    np.negative(ratio, out=ratio, where=(n.astype(np.int64) + l) % 2 == 1)  # (-1)^(n + l)
    return l * ratio / ((k + l) * ((v * s) ** 2 + (1.0 + v * c) ** 2))


def _filon_sums(l: int, x, t, g: float, u_edges: np.ndarray,
                cuts=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filon sums in u = k^2 of the spectral integrand over groups of cells,
    groups x points x times.

    With u = k^2 the integral over a cell [u_c - H, u_c + H] reads
    Int F(u) e^{-i u t} du, F = p^(l)(sqrt(u))/(2 sqrt(u)), and Filon weights
    its GL-15 nodes by H e^{-i u_c t} Phi_m(H t).  The cells split into groups
    at the cell indices `cuts` (one group without them), and go in blocks
    whose weight arrays hold at most DIRECT_CHUNK x 128 doubles; a block's
    moments, phases and real kernel are formed once, whatever groups it
    meets.  quadrature.sin_blocks gives the sines of its nodes, in blocks of
    DIRECT_CHUNK x 32 doubles, and every (x, t) of a group that a block of
    sines meets follows from one real product of those sines with the
    interleaved (re, im) nodes x times weights of the group's nodes, so no
    complex nodes x points array is formed.

    Also returns, per t, the sum over all terms of |weight| (r + u t): each
    term carries a rounding error of about eps (r + u t), u t being the phase
    that e^{-i u t} and the moments Phi_m(H t) are evaluated at and r the
    roundings of its sine (quadrature.sine_rounds: 1 + p + q on the
    angle-addition tables, 1 for np.sin); and the sum of |weight| k, which
    times x bounds the rounding of the sines' phases k x.
    """
    centre, half = 0.5 * (u_edges[1:] + u_edges[:-1]), 0.5 * (u_edges[1:] - u_edges[:-1])
    bounds = np.array([0, *cuts, len(centre)])
    per_block = max(1, DIRECT_CHUNK * 128 // (len(GL_NODES) * 2 * len(t)))
    acc = np.zeros((len(bounds) - 1, len(x), 2 * len(t)))
    floor = np.zeros(len(t))
    reach = np.zeros(len(t))
    rounds = sine_rounds(x)
    for lo in range(0, len(centre), per_block):
        c, h = centre[lo : lo + per_block, None], half[lo : lo + per_block, None]
        k = np.sqrt(c + h * GL_NODES).ravel()
        # cells x times x nodes Filon weights, then, times the real kernel,
        # nodes x times
        moments = (h * np.exp(-1j * c * t))[:, :, None] * filon_moments(h * t)
        wts = np.empty((len(c), len(GL_NODES), len(t)), dtype=complex)
        kern = _spectral_kernel(l, k, g) / (2.0 * k)
        np.multiply(moments.transpose(0, 2, 1), kern.reshape(-1, len(GL_NODES), 1), out=wts)
        wts = wts.reshape(len(k), len(t))
        # the group bounds as node offsets into this block of cells
        ends = len(GL_NODES) * (bounds - lo)
        for first, sines in sin_blocks(x, k, DIRECT_CHUNK * 32):
            width = sines.shape[1]
            # the groups that meet these sines, and their nodes among them
            for i in range(np.searchsorted(ends, first, "right") - 1,
                           np.searchsorted(ends, first + width)):
                a, b = max(ends[i] - first, 0), min(ends[i + 1] - first, width)
                if a < b:
                    acc[i] += sines[:, a:b] @ wts[first + a : first + b].view(np.float64)
        size = np.abs(wts)
        floor += rounds * size.sum(axis=0) + t * (k * k @ size)
        reach += k @ size
    return acc.view(complex), floor, reach


def _direct_filon(l: int, x, t, g: float, tol: float):
    """psi^(l) at every (x, t) by Filon quadrature in u = k^2 on the panels
    0..J-1, panel 0 graded by ORIGIN_GRADING, one J and node set per call.

    The rule runs on the panel_edges cells and on the cells halved; the
    halved sum is returned with the estimate |fine - coarse| plus its
    rounding floor plus a bound on what lies past J.  At t = 0 (t = [0.])
    J = tail_panels, quadrature.direct_tail adds the rest and its last two
    orders are the bound; the halved pass keeps one sum per panel, so that
    no product of sines and weights (one BLAS call) spans more than a panel,
    and the floor adds the rounding of the phases k x.  At t > 0 J = truncation_panels of
    the earliest t, and the bound is three times the largest of the last
    five panel sums, kept apart from the head; where J is
    TRUNCATION_PANEL_CAP the pass also cuts the head at (J/2)^2 and the
    estimate adds |S_J - S_{J/2}|, the panels J/2..J-1.  Returns the values,
    estimates and the panel and node counts (nodes of both levels).
    """
    at_zero = t[0] == 0.0
    if at_zero:
        n_panels = tail_panels(l, g)
        splits = np.arange(1.0, n_panels)
    else:
        n_panels = truncation_panels(l, float(t.min()), tol)
        # the head ends at the edge (J - 5)^2, each of the last five panels at
        # the next square; where the cap binds the head also splits at (J/2)^2
        splits = np.arange(n_panels - 5.0, n_panels)
    capped = not at_zero and n_panels == TRUNCATION_PANEL_CAP
    if capped:
        splits = np.append(n_panels // 2, splits)
    coarse = np.union1d(ORIGIN_GRADING, panel_edges(g, n_panels)) ** 2
    fine = refine_edges(coarse, 2)
    sums, floor, reach = _filon_sums(l, x, t, g, fine, np.searchsorted(fine, splits**2))
    values = sums.sum(axis=0)
    if at_zero:
        values = values.real
        floor = floor + np.multiply.outer(x, reach)
        tail, beyond = (a[:, None] for a in direct_tail(l, x, g, n_panels, DIRECT_CHUNK * 128))
    else:
        beyond = 3.0 * np.max(np.abs(sums[-5:]), axis=0)
    estimates = (np.abs(values - _filon_sums(l, x, t, g, coarse)[0][0])
                 + beyond + np.finfo(float).eps * floor)
    if capped:
        estimates += np.abs(sums[1:].sum(axis=0))
    if at_zero:
        values = values + tail
    return values, estimates, (n_panels, len(GL_NODES) * (len(coarse) + len(fine) - 2))


def _direct_values(l: int, x, t, g: float, tol: float):
    """psi^(l) at every (x, t) by quadrature of the spectral integral on the real axis.

    _direct_filon takes the times below 1e-12 as one t = 0, where the panel
    sums to J end in the closed-form integral of the integrand's large-k
    expansion, and the rest together on one t-free node set, so there is no
    upper limit on t.  Returns points x times arrays of the values and of
    each (x, t)'s error estimate (infinite where a value is not finite), and
    a times x 2 array of the panel and node counts.
    """
    x, t = _inputs("direct", l, x, t, g)
    values = np.empty((len(x), len(t)), dtype=complex)
    estimates = np.empty((len(x), len(t)))
    counts = np.zeros((len(t), 2), dtype=int)
    for part, ts in ((t < 1e-12, np.zeros(1)), (t >= 1e-12, t[t >= 1e-12])):
        if part.any():
            v, e, counts[part] = _direct_filon(l, x, ts, g, tol)
            values[:, part], estimates[:, part] = v, e
    values *= SPECTRAL_PREFACTOR
    estimates *= SPECTRAL_PREFACTOR
    estimates[~np.isfinite(values)] = math.inf
    return values, estimates, counts


def direct_field(l: int, x_grid, t: float, g: float, tol: float = 1e-6) -> WaveField:
    """psi^(l) on a grid by panel quadrature of the spectral integral.

    Raises AccuracyError (carrying the best field and the estimate) when the
    target cannot be certified; meta records the panel and node counts.
    """
    x, ts = _inputs("direct", l, x_grid, t, g)
    values, estimates, counts = _direct_values(l, x, ts, g, tol)
    return _certified_field("direct", l, x, ts, g, tol, values, estimates,
                            panels=int(counts[0, 0]), nodes=int(counts[0, 1]))


# ---------------------------------------------------------------------------
# exponential (residue) part
# ---------------------------------------------------------------------------

def mixing_weight(l: int, k, g: float):
    """Residue weight of pole k in the evolution of initial mode l.

    V = g (-1)^(l+n) 2 l k sqrt(1 - 2 pi i g k) / [(l^2 - k^2)(1 + (1 - 2 pi i k) g)]
    without the (-1)^(l+n) sign, which the caller applies per pole index.
    """
    k = np.asarray(k, dtype=complex)
    root = np.sqrt(1.0 - 2j * math.pi * g * k)
    return g * 2.0 * l * k * root / ((l**2 - k**2) * (1.0 + (1.0 - 2j * math.pi * k) * g))


def _pole_weights(l, table: PoleTable) -> np.ndarray:
    """Signed residue weights of every pole; a column of l gives one row per l."""
    signs = (-1) ** (l + table.n)
    return signs * mixing_weight(l, table.k_values, table.g)


def _pole_sum(x, ks, coeff, t) -> np.ndarray:
    """sqrt(2/pi) sum_n coeff_n sin(k_n x) e^{-i k_n^2 t} as a points x times array.

    sin(k x) is formed once; every t follows from one product with the
    poles x times matrix of weighted phases.
    """
    phases = coeff[:, None] * np.exp(np.multiply.outer(-1j * ks**2, t))
    return SQRT_2_OVER_PI * (np.sin(np.outer(x, ks)) @ phases)


def exponential_tail_estimate(l: int, t, table: PoleTable):
    """Size of the first pole term beyond the table, at a time or an array of times.

    |V_(l,N+1)| is taken as |V_(l,N)| N/(N+1), a 1/n fall-off, where the measured
    one is n^(-3/2); the width of the next pole is extrapolated with the n^3 law.
    """
    n = len(table)
    v_last = abs(complex(_pole_weights(l, table)[-1]))
    gamma_next = table.gamma[-1] * ((n + 1) / n) ** 3
    sin_growth = math.cosh(abs(table[n].imag) * math.pi)
    return v_last * (n / (n + 1)) * sin_growth * np.exp(-0.5 * gamma_next * np.asarray(t))


def _exponential_values(l: int, x, t, g: float, table: PoleTable):
    """Residue sum at every (x, t), and the tail estimate of each t.

    Returns the points x times values and the per-t tails, and warns once
    when some t is 0.
    """
    x, t = _inputs("exponential", l, x, t, g)
    if abs(table.g - g) > 1e-15:
        raise ValueError(f"pole table was built at g={table.g}, not g={g}")
    values = _pole_sum(x, table.k_values, _pole_weights(l, table), t)
    if np.any(t == 0):
        warnings.warn(
            "exponential part alone does not reproduce the t=0 state: the "
            "residue series converges like 1/n there",
            stacklevel=3,
        )
    return values, exponential_tail_estimate(l, t, table)


def exponential_field(l: int, x_grid, t: float, g: float, table: PoleTable,
                      tol: float | None = None) -> WaveField:
    """Exponential part of psi^(l): truncated residue sum over the pole table.

    With tol, a tail estimate above it raises AccuracyError (the pole table
    is too short).
    """
    x, ts = _inputs("exponential", l, x_grid, t, g)
    values, tails = _exponential_values(l, x, ts, g, table)
    if tol is not None:
        _certify("exponential", l, x, ts, g, tol, tails[None, :], None)
    return WaveField(x, float(t), values[:, 0],
                     {"tail_estimate": float(tails[0]), "n_poles": len(table)})


# ---------------------------------------------------------------------------
# power (rotated-ray) part
# ---------------------------------------------------------------------------

_ROT = cmath.exp(-1j * math.pi / 4.0)

# U, V, the x phase and the Gaussian factors of one block of _ray_sums hold at
# most about RAY_CHUNK doubles each, so the memory of a ray sum does not grow
# with its node count.
RAY_CHUNK = 2**15


def _ray_sums(l, x, t, g, levels):
    """GL-15 sums of the ray integrand at every (x, t) on each cell set of levels, with tails.

    The integrand is p^(l)(kappa e^{-i pi/4}; x, g) e^{-kappa^2 t} in
    overflow-free form.  Along the ray both sines and the coefficient b grow
    like exp(c kappa), which overflows doubles near kappa ~ 700/(pi + x) even
    though their combination decays.  Factoring the dominant exponentials
    analytically:

        sin(pi k) sin(k x)/(4 a b) = -(1/16) e^{i k (x - pi)} A_pi A_x / (a B),
        A_mu = 1 - e^{-2 i k mu},
        a = -i/2 - delta A_pi,
        B = b e^{-2 i pi k} = (i/2)(1 - A_pi) + delta A_pi,

    with delta = 1/(4 pi g k); every exponential that remains has a
    non-positive real exponent on the ray.  Only e^{i k (x - pi)} A_x depends
    on x, and it is real arithmetic but for one phase per node.  With
    k = kappa (c - i s), (c, s) = (cos, sin)(pi/4), theta = kappa c x and
    phi = kappa c pi, the exponentials split into phases and real decays,
    e^{i k (x - pi)} = e^{-i phi} e^{i theta} E_b and
    e^{-2 i k x} = e^{-2 i theta} (1 + E_d), with E_b = e^{kappa s (x - pi)}
    <= 1 and E_d = expm1(-2 kappa s x), so that

        -e^{i k (x - pi)} A_x = e^{i k (x - pi)} expm1(-2 i k x)
            = e^{-i phi} (U - i V),
        U = cos(theta) E_b E_d,  V = sin(theta) E_b (2 + E_d).

    U and V are the only nodes x points arrays: one cos, one sin and two real
    exponentials per element, all with non-positive exponents.  At x = 0,
    E_d = 0 and sin(theta) = 0, so the sum is exactly 0.  The same split
    gives A_pi = -expm1(-2 pi i k) = -E_pi + 2 i (1 + E_pi) sin(phi) e^{-i phi}
    with E_pi = expm1(-2 pi kappa s), so no complex exponential is left.

    e^{-i phi}, the remaining per-node factor and the GL weight make one
    complex coefficient q per node, and every (x, t) of a cell set is
    sum_n (U - i V) q_n e^{-kappa_n^2 t}: one real product of U and of V with
    the interleaved (re, im) nodes x times matrix.  The nodes of every cell
    set go in blocks of whole cells whose U, V and Gaussian arrays hold at
    most about RAY_CHUNK doubles; the per-node factors are formed once for
    all cell sets.

    Returns the sums, cell sets x points x times, and the tail of each (x, t)
    on the last cell set, the one a ladder step's estimate needs: C/K, with C
    the 1/k^2 envelope constant measured over the last cell and K the last
    edge; a sum that is not finite gets an infinite tail.
    """
    nodes, wts = gl_nodes_weights(*levels)
    ends = list(accumulate(len(GL_NODES) * (len(edges) - 1) for edges in levels))
    c, s = _ROT.real, -_ROT.imag
    kappa_c, kappa_s, kappa2 = c * nodes, s * nodes, nodes * nodes
    phi = kappa_c * math.pi  # theta at x = pi, rounded alike
    rot_phi = np.empty(len(nodes), dtype=complex)  # e^{-i phi}
    np.cos(phi, out=rot_phi.real)
    sin_phi = np.sin(phi)
    np.negative(sin_phi, out=rot_phi.imag)
    e_pi = np.expm1((-2.0 * math.pi) * kappa_s)
    a_pi = 2j * ((1.0 + e_pi) * sin_phi) * rot_phi - e_pi
    k = nodes * _ROT
    delta = 1.0 / (4.0 * math.pi * g * k)
    a_coef = -0.5j - delta * a_pi
    b_wrapped = 0.5j * (1.0 - a_pi) + delta * a_pi
    # -(1/16) e^{i k (x - pi)} A_pi A_x / (a B) = (1/16) A_pi e^{-i phi} (U - i V) / (a B)
    per_node = (-1) ** l * l / 16.0 * a_pi / (a_coef * b_wrapped * (k**2 - l**2))
    coef = per_node * rot_phi * wts
    x_less_pi, minus_2x, minus_t = x - math.pi, -2.0 * x, -t
    # per cell set, u.T @ (q e^{-kappa^2 t}) and v.T @ (...) as interleaved (re, im) columns
    acc = np.zeros((len(levels), 2, len(x), 2 * len(t)))
    step = len(GL_NODES) * max(1, RAY_CHUNK // (len(GL_NODES) * max(len(x), 2 * len(t))))
    for lo in range(0, ends[-1], step):
        hi = min(lo + step, ends[-1])
        uv = np.empty((2, hi - lo, len(x)))
        u, v = uv
        work = np.multiply.outer(kappa_c[lo:hi], x)  # theta
        np.cos(work, out=u)
        np.sin(work, out=v)
        np.exp(np.multiply.outer(kappa_s[lo:hi], x_less_pi, out=work), out=work)  # E_b
        uv *= work
        np.expm1(np.multiply.outer(kappa_s[lo:hi], minus_2x, out=work), out=work)  # E_d
        u *= work
        work += 2.0
        v *= work
        del work
        gauss = np.exp(np.multiply.outer(kappa2[lo:hi], minus_t))
        q = (coef[lo:hi, None] * gauss).view(np.float64)
        for level, (a, b) in enumerate(zip([0, *ends], ends)):
            a, b = max(a, lo) - lo, min(b, hi) - lo
            if a < b:
                acc[level] += uv[:, a:b].transpose(0, 2, 1) @ q[a:b]
    # the last cell is in the last block; its envelope is |f| kappa^2/K with
    # |f| = |per_node| |U - i V| e^{-kappa^2 t}
    last = slice(-len(GL_NODES), None)
    size = np.abs(per_node[last, None]) * np.hypot(u[last], v[last])
    decay = gauss[last] * (kappa2[last, None] / levels[-1][-1])
    envelope = (size[:, :, None] * decay[:, None, :]).max(axis=0)
    sums = acc[:, 0].view(complex) - 1j * acc[:, 1].view(complex)
    return sums, np.where(np.isfinite(sums[-1]), envelope, math.inf)


def _power_values(l: int, x, t, g: float, tol: float):
    """Power part at every (x, t) by quadrature along the ray arg k = -pi/4.

    t is a time or an array of times.  Returns points x times arrays of the
    values and of each (x, t)'s error estimate |cur - prev| + tail.  The
    times t > 0 of one band 4^b <= t < 4^(b+1) share one cell set; t = 0 is
    one more band, on the cells of the point nearest the barrier, whose
    cutoff (scaling with 1/(pi - x)) is the farthest.  Every (x, t) climbs
    the cell ladder base -> x2 -> x4 -> x8 and leaves it at the first level
    whose estimate meets tol.  Every (x, t) needs the first pair, base and
    x2, so one _ray_sums call evaluates both; each further level evaluates
    only the points and times that still hold an (x, t) above tol, and
    updates only those.  An (x, t) that ends above tol (such as the marginal
    point (pi, 0)) keeps its last value.
    """
    x, t = _inputs("power", l, x, t, g)
    bands = {}
    for j, tj in enumerate(t.tolist()):
        bands.setdefault(ray_band(tj) if tj > 0 else 0.0, []).append(j)
    x_far = float(x.max(initial=0.0))
    values = np.empty((len(x), len(t)), dtype=complex)
    estimates = np.empty((len(x), len(t)))
    for band, cols in bands.items():
        cols = np.array(cols)
        edges = ray_cell_edges(band, x_far)
        (base, cur), tails = _ray_sums(l, x, t[cols], g, (edges, refine_edges(edges, 2)))
        est = np.abs(cur - base) + tails
        values[:, cols], estimates[:, cols] = cur, est
        active = ~(est <= tol)
        for factor in (4, 8):
            if not active.any():
                break
            r, c = active.any(axis=1), active.any(axis=0)
            block = np.ix_(r, cols[c])
            live = active[np.ix_(r, c)]
            (cur,), tails = _ray_sums(l, x[r], t[cols[c]], g, (refine_edges(edges, factor),))
            est = np.abs(cur - values[block]) + tails
            values[block] = np.where(live, cur, values[block])
            estimates[block] = np.where(live, est, estimates[block])
            active[np.ix_(r, c)] = live & ~(est <= tol)
    return _ROT * SPECTRAL_PREFACTOR * values, estimates


def psi_power_quad(l: int, x: float, t: float, g: float, tol: float = 1e-8) -> complex:
    """Power part of psi^(l) at one point by quadrature along the ray arg k = -pi/4.

    Convergent for every t >= 0 away from the single marginal point
    (x, t) = (pi, 0), where the tail envelope is 1/k and the measured tail
    estimate cannot drop below the tolerance; that case raises AccuracyError
    with the cutoff-limited value attached.
    """
    values, estimates = _power_values(l, x, t, g, tol)
    value = complex(values[0, 0])
    _certify("power", l, [x], [t], g, tol, estimates, value)
    return value


def power_field(l: int, x_grid, t: float, g: float, tol: float = 1e-8) -> WaveField:
    """Power part on a grid by one batched ray quadrature.

    When some point misses tol, AccuracyError names the worst point and
    carries the whole field as `best` (None for a field that is not finite).
    """
    x, ts = _inputs("power", l, x_grid, t, g)
    values, estimates = _power_values(l, x, ts, g, tol)
    return _certified_field("power", l, x, ts, g, tol, values, estimates)


def _asymptotic_values(l: int, x, t, g: float):
    """Two-term large-time form of the power part at every (x, t).

    Returns a points x times array; amplitude ~ t^(-3/2).  Useful for
    t >~ 10; better than 1% beyond t ~ 10^3.
    """
    x, t = _inputs("asymptotic", l, x, t, g)
    x, t = x[:, None], t[None, :]
    gp = g / (1.0 + g)
    bracket = (1.0 / l**2 + math.pi**2 / 6.0 + (2.0 / 3.0) * math.pi**2 * gp - math.pi**2 * gp**2
               - x**2 / 6.0)
    lead = cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0) * (-1) ** l / l * gp**2 * x / t**1.5
    return lead * (1.0 - 1.5j / t * bracket)


def asymptotic_field(l: int, x_grid, t: float, g: float) -> WaveField:
    """Two-term large-time form of the power part on a grid."""
    x, ts = _inputs("asymptotic", l, x_grid, t, g)
    return WaveField(x, float(t), _asymptotic_values(l, x, ts, g)[:, 0])


# ---------------------------------------------------------------------------
# first-order resonance model (norm curves of the published kind)
# ---------------------------------------------------------------------------

def first_order_weight(l: int, n: int, g: float) -> float:
    """Renormalized mixing weight to first order: delta_{ln} + g A_{ln}."""
    if l == n:
        return 1.0
    return g * (-1) ** (l + n) * 2.0 * l * n / (l**2 - n**2)


def resonance_term_norm(l: int, n: int, g: float, t) -> np.ndarray:
    """Cavity norm of the single pole-n term in the first-order model.

    The renormalized pole states are unit-normalized at t = 0, so the term
    contributes |delta + g A|^2 e^{-Gamma_2 t} with the order-g^2 width.
    Survival-probability crossover times quoted for this model belong to
    this approximation; already at g = 0.2 the exact width of the lowest
    pole is 2.6x smaller than 4 pi g^2, displacing the exponential-to-power
    handover from t ~ 32 to t ~ 99.
    """
    w = first_order_weight(l, n, g)
    return w * w * np.exp(-width_pert(n, g, order=2) * np.asarray(t, dtype=float))


def resonance_exponential_norm(l: int, g: float, n_poles: int, t) -> np.ndarray:
    """Incoherent sum of the first-order pole-term norms."""
    t = np.asarray(t, dtype=float)
    return sum((resonance_term_norm(l, n, g, t) for n in range(1, n_poles + 1)), np.zeros_like(t))
