"""Panel quadrature machinery for the spectral and ray integrals.

The direct spectral integral runs over [0, inf) split at the zeros of
sin(k pi), i.e. unit panels [j, j+1].  Two features of the integrand decide
the subdivision inside a panel:

* a resonance spike near k = n(1 - g + g^2) of width ~ pi n^2 g^2 (the dip of
  |a b|), resolved by geometrically graded cells around the spike;
* period-one wiggles of 1/(4ab) whose amplitude grows like 1/(4 pi g k)
  toward small k, resolved by a baseline subdivision tied to that amplitude.

At t = 0 Gauss-Legendre 15 is applied on every cell and the infinite panel
sum is extrapolated with a windowed least-squares fit of the known tail model

    S_j = S + (-1)^j [cos(x j) A(j) + sin(x j) B(j)],  A, B ~ poly(1/j),

which degenerates to plain Richardson in 1/j at x = pi.  The integrand and
the model's design matrix are real at t = 0, so the partial sums of a point
are the one right-hand side of a real least-squares problem, and the problems
of many points are solved as one batch (tail_mode_fit).

For t > 0 the phase exp(-i k^2 t) is linear in u = k^2, so the same cells are
mapped to u and integrated by Filon quadrature (Iserles & Norsett, Proc. R.
Soc. A 461, 1383 (2005)): the non-oscillatory factor is interpolated at the
GL-15 nodes of each cell and the interpolant is integrated against e^{-iut}
exactly.  A cell of centre u_c and half-width H weights node m by
H e^{-i u_c t} filon_moments(H t)[m], so the node set does not depend on t.
The panel sum is truncated where the panel integrals, decaying like
1/(t j^3), drop below the tolerance.

The caller (evolution._direct_values) builds one node set from the
panel_edges of all its panels.  At t = 0 each point has its own panel count
(more panels just inside the barrier), and every smaller count's nodes are a
prefix of the largest count's.  Both times take sin(k x) block by block of
nodes from sin_blocks, which forms it by angle addition on a np.linspace
grid of two or more points (three complex exponentials per node, then
products), by np.sin on any other: at t = 0 one array reduction per block
gives its panel sums, at t > 0 one real matrix product per block and group
of cells.  So no nodes x points array over all panels is ever formed.
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

# Highest power of 1/j in the t = 0 tail model, and the lstsq cutoff of its fit.
TAIL_MAX_POWER = 6
TAIL_RCOND = 1e-11

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
    k = (3.4 * max(l, 1) / (t * max(tol, 1e-14))) ** (1.0 / 3.0)
    return int(np.clip(math.ceil(k), 48, TRUNCATION_PANEL_CAP))


def tail_mode_fit(partial_sums: np.ndarray, x: np.ndarray, j_lo: int, ends,
                  max_doubles: int) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolate the panel partial sums of many points to j = infinity at t = 0.

    Column i of the real partial_sums (panels x points) holds the partial sums
    of the point x[i]; each end in `ends` fits the window j_lo <= j < end.
    Returns (limits, residual_rms), each of shape len(ends) x points.

    The trig of the model is formed once per point, in one design tensor that
    serves every window, since a shorter window is a row prefix of a longer
    one.  Each window's fit is lstsq with cutoff TAIL_RCOND on the
    column-normalized model: an R-only QR of [A | S], whose 13 x 13
    triangle has the singular values of A, then the SVD of that triangle.
    Points go in blocks whose arrays hold at most about max_doubles doubles.

    The residual of the windowed fit is the natural error gauge: it stays at
    rounding level where the model holds and grows visibly in the one hard
    sliver 0 < pi - x << 1 where the slow mode cos((pi - x) j) barely rotates
    across the window.
    """
    js = np.arange(j_lo, max(ends))
    decay = (-1.0) ** (js % 2)[:, None] / (js + 1.0)[:, None] ** np.arange(1, TAIL_MAX_POWER + 1)
    n_model = 2 * TAIL_MAX_POWER + 1
    limits = np.empty((len(ends), len(x)))
    rms = np.empty((len(ends), len(x)))
    # about four arrays the size of a block's design tensor are alive at once
    per_block = max(1, max_doubles // (4 * (n_model + 1) * len(js)))
    for b in range(0, len(x), per_block):
        blk = slice(b, b + per_block)
        phase = np.multiply.outer(x[blk], js)
        design = np.empty(phase.shape + (n_model + 1,))
        design[..., 0] = 1.0
        design[..., 1 : TAIL_MAX_POWER + 1] = np.cos(phase)[..., None] * decay
        design[..., TAIL_MAX_POWER + 1 : n_model] = np.sin(phase)[..., None] * decay
        design[..., n_model] = partial_sums[j_lo : js[-1] + 1, blk].T
        for w, end in enumerate(ends):
            window = design[:, : end - j_lo].copy()
            norms = np.linalg.norm(window[..., :n_model], axis=1)
            # a column that vanishes on the window (sin(x j) at x = 0 or pi) is dropped
            window[..., :n_model] *= np.divide(1.0, norms, out=np.zeros_like(norms),
                                               where=norms > 1e-14)[:, None, :]
            r = np.linalg.qr(window, mode="r")
            u, s, vt = np.linalg.svd(r[:, :n_model, :n_model])
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > TAIL_RCOND * s[:, :1])
            rotated = u.transpose(0, 2, 1) @ r[:, :n_model, n_model:]
            coef = vt.transpose(0, 2, 1) @ (inv[..., None] * rotated)
            resid = window[..., n_model:] - window[..., :n_model] @ coef
            rms[w, blk] = np.sqrt(np.mean(resid[..., 0] ** 2, axis=-1))
            limits[w, blk] = coef[:, 0, 0] / norms[:, 0]
    return limits, rms


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
        if core <= 12.0:
            # the edges i core/12, i < 12, as np.linspace forms them, then
            # core 2^m for m = 0, 1, ... up to the first one >= K, which is
            # cut to K: K/core is 1 (t_b = 1/4) or 5/3 times a power of 2, so
            # the ceiling of its log2 is exact
            doublings = core * 2.0 ** np.arange(math.ceil(math.log2(k_max / core)) + 1)
            return np.append(np.arange(12.0) * (core / 12.0), np.minimum(doublings, k_max))
    else:
        rate = (math.pi - x) / math.sqrt(2.0)
        k_max = min(max(10.0, 40.0 / max(rate, 1e-9)), RAY_K_CAP)
    edges = list(np.linspace(0.0, 10.0, 21))
    while edges[-1] < k_max:
        edges.append(min(edges[-1] * 1.5, k_max))
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
