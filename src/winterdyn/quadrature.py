"""Panel quadrature machinery for the spectral and ray integrals.

The direct spectral integral runs over [0, inf) split at the zeros of
sin(k pi), i.e. unit panels [j, j+1].  Two features of the integrand decide
the subdivision inside a panel:

* a resonance spike near k = n(1 - g + g^2) of width ~ pi n^2 g^2 (the dip of
  |a b|), resolved by geometrically graded cells around the spike;
* period-one wiggles of 1/(4ab) whose amplitude grows like 1/(4 pi g k)
  toward small k, resolved by a baseline subdivision tied to that amplitude.

The phase exp(-i k^2 t) is linear in u = k^2, so the cells are mapped to u
and integrated by Filon quadrature (Iserles & Norsett, Proc. R. Soc. A 461,
1383 (2005)): the non-oscillatory factor is interpolated at the GL-15 nodes
of each cell and the interpolant is integrated against e^{-iut} exactly.  A
cell of centre u_c and half-width H weights node m by
H e^{-i u_c t} filon_moments(H t)[m], so the node set does not depend on t;
at t = 0 the moments are the GL-15 weights.  For t > 0 the panel sum is
truncated where the panel integrals, decaying like 1/(t j^3), drop below
the tolerance (truncation_panels).  At t = 0 they decay only like 1/j, and
the panels stop at J = tail_panels, past which direct_tail integrates the
integrand's large-k expansion in closed form, term by term a generalized
exponential integral E_n (expint).

The caller (evolution._direct_values) builds one node set from the
panel_edges of the panels of a call and takes sin(k x) block by block of
nodes from sin_blocks, which forms it by angle addition on a np.linspace
grid of two or more points (three complex exponentials per node, then
products), by np.sin on any other, then one real matrix product per block
and group of cells.  So no nodes x points array over all panels is ever
formed.
"""

from __future__ import annotations

import math

import numpy as np

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

# Most panels a t > 0 direct evaluation truncates at.
TRUNCATION_PANEL_CAP = 800

# Spherical Bessel orders j_0 .. j_14 of the Filon moments (the GL-15 degree),
# and the order their downward recurrence starts from.
BESSEL_ORDERS = len(GL_NODES)
MILLER_START = 60

# Highest power of 1/k in the large-k expansion that direct_tail integrates.
TAIL_ORDER = 12

# Farthest ray cutoff at t = 0, reached as x -> pi.
RAY_K_CAP = 4096.0


def panel_edges(g: float, n_panels: int) -> np.ndarray:
    """Sorted cell edges in k of the unit panels [j, j+1], j < n_panels.

    Panel j has sub = 1, 4, 8 or 16 equal cells, by the amplitude 1/(4 pi g
    (j + 1/2)) of the period-1 wiggles of 1/(4ab), with edges j + i/sub as
    np.linspace forms them.  The panels within half a panel of the spike
    k_r = n(1 - g + g^2), n = j + 1, add k_r and k_r -+ w 2^m < 1 inside them,
    w = pi n^2 g^2/4 clipped to [1e-9, 1/4].
    """
    j = np.arange(n_panels)
    delta = 1.0 / (4.0 * math.pi * g * (j + 0.5))
    sub = np.select([delta < 0.02, delta < 0.1, delta < 0.3], [1, 4, 8], 16)[:, None]
    i = np.arange(16)
    baseline = (j[:, None] + i * (1.0 / sub))[i < sub]
    kr = (j + 1) * (1.0 - g + g * g)
    near = (j - 0.5 < kr) & (kr < j + 1.5)
    n, kr, lo = j[near] + 1, kr[near, None], j[near, None]
    # in this operation order: regrouping it as pi n^2 can change the last bit
    w = np.minimum(np.maximum(math.pi * n * n * g * g / 4.0, 1e-9), 0.25)[:, None]
    steps = w * 2.0 ** np.arange(30)  # w >= 1e-9 reaches 1 within 30 doublings
    steps[steps >= 1.0] = np.inf  # k_r -+ inf lies in no panel
    spike = np.concatenate([kr, kr - steps, kr + steps], axis=1)
    spike = spike[(lo < spike) & (spike < lo + 1)]
    return np.unique(np.concatenate([baseline, [float(n_panels)], spike]))


def gl_nodes_weights(*edge_sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GL-15 nodes and weights on each consecutive [edges[i], edges[i+1]] cell.

    With several edge arrays, the cells of each in turn.
    """
    lo = np.concatenate([edges[:-1] for edges in edge_sets])
    hi = np.concatenate([edges[1:] for edges in edge_sets])
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()
    weights = (half[:, None] * GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _angle_split(x: np.ndarray) -> tuple[int, int]:
    """The p x q slots of sin_blocks' tables for the points x, or (0, 0).

    For n >= 2 points that are x_0 + j dx, j < n, to within 4 ulps of the
    largest |x| (every np.linspace grid), q = ceil(sqrt(n)) and
    p = ceil(n/q), so point j = q a + r sits in slot (a, r).  One point, or a
    grid that is not arithmetic, gets (0, 0): sin_blocks then calls np.sin.
    """
    n = len(x)
    if n < 2:
        return 0, 0
    dx = (x[-1] - x[0]) / (n - 1)
    drift = np.abs(x - (x[0] + np.arange(n) * dx)).max()
    if not drift <= 4.0 * np.finfo(float).eps * np.abs(x).max():
        return 0, 0
    q = math.isqrt(n - 1) + 1
    return -(-n // q), q


def _phase_rows(first: np.ndarray, step: np.ndarray, rows: int) -> np.ndarray:
    """first step^i for i < rows, by repeated products (np.cumprod over the
    complex rows took 2.5 times as long)."""
    out = np.empty((rows, len(first)), dtype=complex)
    out[0] = first
    for i in range(1, rows):
        np.multiply(out[i - 1], step, out=out[i])
    return out


def sine_rounds(x: np.ndarray) -> int:
    """The roundings each sine of sin_blocks carries for the points x, in units
    of eps: 1 + p + q on its angle-addition tables, 1 for np.sin."""
    p, q = _angle_split(x)
    return 1 + p + q


def sin_blocks(x: np.ndarray, k: np.ndarray, max_doubles: int):
    """sin(x k^T) block by block of the nodes k: yields (lo, sines), sines the
    contiguous real array sin(x k[lo : lo + sines.shape[1]]^T), which the
    next block may overwrite.

    On a grid that _angle_split accepts, x_j = x_0 + (q a + r) dx and
    sin(k x_j) = Im(e^{i A_a} e^{i B_r}), A_a = k (x_0 + q dx a), B_r = k dx r.
    Per node, e^{ik x_0}, e^{ik q dx} and e^{ik dx} are the only complex
    exponentials; repeated products give the p phases e^{i A_a} and the q
    phases e^{i B_r}, and a block's sines are the first n slots of their
    p x q products, a complex basis of at most max_doubles doubles, copied
    into one table that every block reuses.  Any other grid takes np.sin on
    blocks of at most max_doubles sines.
    """
    p, q = _angle_split(x)
    n = len(x)
    per_block = max(1, max_doubles // max(2 * p * q, n, 1))
    if p:
        dx = (x[-1] - x[0]) / (n - 1)
        basis = np.empty((p, q, min(per_block, len(k))), dtype=complex)
        table = np.empty(n * basis.shape[-1])
    for lo in range(0, len(k), per_block):
        kb = k[lo : lo + per_block]
        if not p:
            yield lo, np.sin(np.multiply.outer(x, kb))
            continue
        rows_a = _phase_rows(np.exp(1j * (kb * x[0])), np.exp(1j * (kb * (q * dx))), p)
        rows_b = _phase_rows(np.ones(len(kb)), np.exp(1j * (kb * dx)), q)
        b = np.multiply(rows_a[:, None], rows_b, out=basis[..., : len(kb)])
        sines = table[: n * len(kb)].reshape(n, len(kb))
        np.copyto(sines, b.reshape(p * q, len(kb))[:n].imag)
        yield lo, sines


def _bessel_series(w: np.ndarray) -> np.ndarray:
    """j_n(w) = w^n/(2n+1)!! sum_m (-w^2/2)^m / (m! (2n+3)...(2n+2m+1)), for w < 1."""
    n, w = np.arange(BESSEL_ORDERS), w[:, None]
    term = total = np.ones((len(w), BESSEL_ORDERS))
    for m in range(1, 12):  # the first term left out is below 1e-19 of the sum
        term = term * (-0.5 * w**2) / (m * (2.0 * n + 2 * m + 1))
        total = total + term
    return w**n / np.cumprod(2.0 * n + 1.0) * total


def _bessel_j01(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j0 = np.sin(w) / w
    return j0, j0 / w - np.cos(w) / w


def _bessel_miller(w: np.ndarray) -> np.ndarray:
    """Miller's downward recurrence from order MILLER_START, for 1 <= w < 15.

    The recurrence gives j_n up to one factor, fitted by least squares to the
    closed forms of j_0 and j_1, which never vanish together.
    """
    f = np.zeros((len(w), MILLER_START + 2))
    f[:, MILLER_START] = 1.0  # f_0 stays below 1e101 for w >= 1
    for k in range(MILLER_START, 0, -1):
        f[:, k - 1] = (2 * k + 1) / w * f[:, k] - f[:, k + 1]
    j0, j1 = _bessel_j01(w)
    scale = (f[:, 0] * j0 + f[:, 1] * j1) / (f[:, 0] ** 2 + f[:, 1] ** 2)
    return f[:, :BESSEL_ORDERS] * scale[:, None]


def _bessel_upward(w: np.ndarray) -> np.ndarray:
    """Upward recurrence from the closed forms of j_0 and j_1, for w >= 15 > every order."""
    out = np.empty((len(w), BESSEL_ORDERS))
    out[:, 0], out[:, 1] = _bessel_j01(w)
    for k in range(1, BESSEL_ORDERS - 1):
        out[:, k + 1] = (2 * k + 1) / w * out[:, k] - out[:, k - 1]
    return out


def spherical_bessel_j(omega) -> np.ndarray:
    """j_0 .. j_14 at every omega >= 0, as an array of shape omega.shape + (15,).

    Each regime uses the form that is stable there: the power series below 1,
    Miller's downward recurrence up to 15 and the upward recurrence beyond.
    """
    w = np.asarray(omega, dtype=float)
    out = np.full(w.shape + (BESSEL_ORDERS,), np.nan)  # nan stays nan
    for part, regime in ((w < 1.0, _bessel_series), ((w >= 1.0) & (w < 15.0), _bessel_miller),
                         (w >= 15.0, _bessel_upward)):
        if part.any():
            out[part] = regime(w[part])
    return out


# Phi_m(omega) = sum_n FILON_BASIS[n, m] j_n(omega): the Legendre series of
# the GL-15 Lagrange basis, l_m(s) = w_m sum_n (n + 1/2) P_n(s_m) P_n(s),
# exact because GL-15 integrates l_m P_n exactly, with Rayleigh's
# int_{-1}^{1} P_n(s) e^{-i omega s} ds = 2 (-i)^n j_n(omega).
_N = np.arange(BESSEL_ORDERS)
FILON_BASIS = (GL_WEIGHTS[:, None] * (2 * _N + 1) * np.array([1, -1j, -1, 1j])[_N % 4]
               * np.polynomial.legendre.legvander(GL_NODES, BESSEL_ORDERS - 1)).T


def filon_moments(omega) -> np.ndarray:
    """Phi_m(omega) = int_{-1}^{1} l_m(s) e^{-i omega s} ds for the GL-15 Lagrange basis.

    Shape omega.shape + (15,); at omega = 0 these are the GL-15 weights.
    """
    return spherical_bessel_j(omega) @ FILON_BASIS


def truncation_panels(l: int, t: float, tol: float) -> int:
    """Panels needed so the first neglected panel integral is below ~tol/3.

    Uses the non-stationary-phase envelope |P_j| ~ l / (2 t j^3).
    """
    if t <= 0:
        raise ValueError("truncation_panels applies to t > 0 only")
    k = (3.4 * l / (t * max(tol, 1e-14))) ** (1.0 / 3.0)
    return int(np.clip(math.ceil(k), 48, TRUNCATION_PANEL_CAP))


def tail_panels(l: int, g: float) -> int:
    """Panels J summed before direct_tail takes over at t = 0.

    J = max(40, ceil(8/(pi g)), 8 l), so that at k >= J both ratios of the
    expansion, |z| <= 1/(pi g k) and l/k, are at most 1/8.
    """
    return max(40, math.ceil(8.0 / (math.pi * g)), 8 * l)


def _expint_series(z: np.ndarray, top: int) -> np.ndarray:
    """E_2 .. E_top at |z| < 1 by Abramowitz & Stegun 5.1.12: E_n(z) =
    (-z)^(n-1)/(n-1)! (psi(n) - ln z) - sum_{m != n-1} (-z)^m/((m-n+1) m!),
    with (-z)^(n-1) ln z = 0 at z = 0, so E_n(0) = 1/(n - 1)."""
    n = np.arange(2.0, top + 1.0)
    psi = np.cumsum(1.0 / np.arange(1.0, top)) - 0.5772156649015329  # psi(2) .. psi(top)
    log = np.log(np.where(z == 0.0, 1.0, z))
    total = np.zeros((len(z), top - 1), dtype=complex)
    term = np.ones_like(z)
    for m in range(24):  # the first term left out is below 1e-23
        if m:
            term = term * (-z) / m
        den = m - n + 1.0
        den[den == 0.0] = np.inf
        total -= term[:, None] / den
        if 1 <= m < top:  # the logarithmic term of n = m + 1
            total[:, m - 1] += term * (psi[m - 1] - log)
    return total


def _expint_fraction(z: np.ndarray, n) -> np.ndarray:
    """E_n at Re z >= 0, |z| >= 1 by the even form of the continued fraction
    A&S 5.1.22, e^-z/(z + n - 1 n/(z + n + 2 - 2 (n + 1)/(z + n + 4 - ...))),
    by the modified Lentz method until every step is 1 to 4 eps (about 90
    steps at |z| = 1 on the imaginary axis; to 1 eps, up to 175)."""
    b = z + n
    c = np.full(b.shape, 1e300, dtype=complex)
    d = h = 1.0 / b
    for i in range(1, 1000):
        a = -i * (n - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h = h * step
        if np.all(np.abs(step - 1.0) <= 4.0 * np.finfo(float).eps):
            break
    return h * np.exp(-z)


def expint(z: np.ndarray, top: int) -> np.ndarray:
    """E_n(z) = int_1^inf e^{-z s} s^-n ds, n = 2 .. top, at each z (1-d, Re z >= 0),
    shape len(z) x (top - 1): the series below |z| = 1, the continued
    fraction order by order up to |z| = 2 top, and beyond it the fraction at
    n = top and the downward recurrence E_n = (e^-z - n E_(n+1))/z
    (A&S 5.1.14), stable where |z| > n."""
    out = np.empty((len(z), top - 1), dtype=complex)
    near, far = np.abs(z) < 1.0, np.abs(z) >= 2.0 * top
    out[near] = _expint_series(z[near], top)
    out[~near & ~far] = _expint_fraction(z[~near & ~far, None], np.arange(2.0, top + 1.0))
    zf = z[far]
    column = [_expint_fraction(zf, float(top))]
    for n in range(top - 1, 1, -1):
        column.append((np.exp(-zf) - n * column[-1]) / zf)
    out[far] = np.stack(column[::-1], axis=1)
    return out


def tail_coefficients(l: int, g: float) -> np.ndarray:
    """C[n, j] of the direct kernel's large-k expansion, n <= N = TAIL_ORDER, j < N - 1:
    (-1)^l l sin(pi k)/((k^2 - l^2) 4 a b) = sum 2 Re(C[n, j] e^{i pi (2j + 1) k}) k^-n.

    On the real axis 4 a b = |1 + z|^2, z = i e (1 - E), e = 1/(2 pi g k),
    E = e^{2 pi i k}.  As 1 - 1/E = -(1 - E)/E, the order-d part of
    sum (-z)^a (-conj z)^b is (-i e)^d (1 - E)^d sum_{b <= d} E^-b, real, whose
    E^q coefficient, q >= 1, is (-1)^q binom(d - 1, q - 1); 1/(k^2 - l^2) =
    sum_m l^(2m) k^-(2m+2), and the conjugate terms e^{-i pi p k} are implied.
    """
    top = TAIL_ORDER - 2
    series = np.zeros((TAIL_ORDER + 1, top + 2), dtype=complex)  # coefficient of k^-n E^q
    for d in range(top + 1):
        powers = [float(d == 0)] + [(-1) ** q * math.comb(d - 1, q - 1) for q in range(1, d + 1)]
        part = (-0.5j / (math.pi * g)) ** d * np.array(powers)
        for m in range((TAIL_ORDER - d) // 2):
            series[d + 2 * m + 2, : d + 1] += l ** (2 * m) * part
    return (-1) ** l * l * (series[:, :-1] - series[:, 1:]) / 2j  # sin(pi k) E^q


def direct_tail(l: int, x: np.ndarray, g: float, J: int,
                max_doubles: int) -> tuple[np.ndarray, np.ndarray]:
    """int_J^inf kernel(k) sin(k x) dk at t = 0 at every x, and the size of its
    last two orders: each term of the expansion (tail_coefficients) times
    sin(k x) is 2 Re c e^{i w k} k^-n, w = pi (2j + 1) +- x >= 0, with
    int_J^inf e^{i w k} k^-n dk = J^(1-n) E_n(-i w J).  Points go in blocks
    whose E_n arrays hold at most about max_doubles doubles."""
    coef = tail_coefficients(l, g)[2:] * (-1j * float(J) ** -np.arange(1.0, TAIL_ORDER))[:, None]
    odd = math.pi * np.arange(1.0, 2.0 * TAIL_ORDER - 2.0, 2.0)
    per_block = max(1, max_doubles // (8 * odd.size * coef.shape[0]))
    orders = np.empty((len(x), TAIL_ORDER - 1))
    for b in range(0, len(x), per_block):
        xb = x[b : b + per_block, None]
        w = np.stack([odd + xb, odd - xb])  # 2 x points x j
        e = expint((-1j * J) * w.ravel(), TAIL_ORDER).reshape(w.shape + (-1,))
        orders[b : b + per_block] = np.einsum("pjn,nj->pn", e[0] - e[1], coef).real
    return orders.sum(axis=1), np.abs(orders[:, -2:]).sum(axis=1)


def ray_band(t: float) -> float:
    """Lower end 4^b of the band 4^b <= t < 4^(b+1) that holds t > 0.

    Exact at every power of 4: the binary exponent from math.frexp is an
    integer, where math.log(t, 4) can round 4^b just below b.
    """
    _, e = math.frexp(t)  # 2^(e-1) <= t < 2^e
    return math.ldexp(1.0, 2 * ((e - 1) // 2))


def ray_cell_edges(t: float, x: float) -> np.ndarray:
    """Cells along the rotated-ray parameter for exp(-k^2 t) damping.

    For t > 0 every time in the band 4^b <= t < 4^(b+1) gets the cells of
    t_b = 4^b, so one cell set serves a whole band of times; its cutoff is
    K = max(10, sqrt(36/t_b)), where exp(-K^2 t) <= e^-36 since t >= t_b.
    For t_b >= 1/4 the Gaussian factor confines the integrand to
    k <~ 6/sqrt(t_b) <= 12, which 12 equal cells cover, and geometric
    doubling reaches K.  At t = 0 the envelope decays like
    exp(-(pi - x) k / sqrt(2)), so the cutoff scales with 1/(pi - x); at
    x = pi, t = 0 the ray integral is marginally divergent and the caller
    must rely on the measured tail estimate.  The t = 0 cells are graded:
    1/2 wide up to k = 10, then growing by 1.5 up to the cutoff.  So are
    those of t_b < 1/4, up to K, since 12 equal cells would be wider than
    the unit-scale structure of the integrand near k = 0 (equal cells missed
    tol 1e-6 below t ~ 4e-3).
    """
    if t > 0:
        t_b = ray_band(t)
        k_max = max(10.0, math.sqrt(36.0 / t_b))
        core = 6.0 / math.sqrt(t_b)
    else:
        rate = (math.pi - x) / math.sqrt(2.0)
        k_max = min(max(10.0, 40.0 / max(rate, 1e-9)), RAY_K_CAP)
    if t > 0 and core <= 12.0:
        edges, growth = list(np.linspace(0.0, core, 13)), 2.0
    else:
        edges, growth = list(np.linspace(0.0, 10.0, 21)), 1.5
    while edges[-1] < k_max:
        edges.append(min(edges[-1] * growth, k_max))
    return np.array(edges)


def refine_edges(edges: np.ndarray, factor: int) -> np.ndarray:
    """Split every cell of an edge sequence into `factor` equal parts.

    Sub-edges are a + i (b - a)/factor, as np.linspace forms them; every
    original edge is kept exactly.
    """
    if factor <= 1:
        return edges
    offsets = np.arange(factor) * (np.diff(edges) / factor)[:, None]
    return np.append((edges[:-1, None] + offsets).ravel(), edges[-1])
