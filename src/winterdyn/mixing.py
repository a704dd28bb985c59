"""Mode-index matrix algebra: mixing, renormalization, counter-rotation.

The exponential parts of the metastable states are linear combinations of
pole states, psi_ex = V(g) Theta.  Rescaling each pole state by its
normalization constant Z^(n)(g) turns V into the renormalized mixing matrix
U = V Z, which to low orders in g is built from two fixed infinite matrices:

    A_{ln} = (-1)^(l+n) 2 l n / (l^2 - n^2)   (real antisymmetric, zero diag),
    H      = diag(1, 2, 3, ...).

U(g) = Id + g A + g^2 (A^2/2 - A/2 + i pi A H) + O(g^3); applying U^(-1) to
the initial mode vector yields states that evolve purely exponentially.
One table (_expansion) holds the g^0, g^1 and g^2 coefficients of V, Z, U
and the Neumann series of U^(-1), and every perturbative matrix reads it.
Everything here acts on the truncated index space n = 1..N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IllConditionedError
from .evolution import _cavity_norms, _pole_sum, _pole_weights
from .poles import PoleTable

COND_LIMIT = 1e8

# Cavity grid points of the contamination norm in diagonal_evolution_check.
CONTAMINATION_POINTS = 257


@dataclass(frozen=True)
class IndexMatrix:
    """A truncated N x N operator on mode-index space."""

    entries: np.ndarray
    label: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError("entries must be a square matrix")
        if not np.all(np.isfinite(self.entries)):
            raise DomainError(f"{self.label} has entries beyond floating-point range")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, ln: tuple[int, int]) -> complex:
        """Entry by 1-based physical indices (l, n)."""
        l, n = ln
        return complex(self.entries[l - 1, n - 1])


def _indices(N: int):
    if N < 2:
        raise DomainError("truncation N must be >= 2")
    idx = np.arange(1, N + 1, dtype=float)
    return idx[:, None], idx[None, :]


def matrix_A(N: int) -> IndexMatrix:
    """Antisymmetric generator A_{ln} = (-1)^(l+n) 2ln/(l^2 - n^2), zero diagonal."""
    l, n = _indices(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = (-1.0) ** (l + n) * 2.0 * l * n / (l**2 - n**2)
    np.fill_diagonal(ent, 0.0)
    return IndexMatrix(ent, "A")


def matrix_H(N: int) -> IndexMatrix:
    """Diagonal index matrix diag(1..N)."""
    _indices(N)
    return IndexMatrix(np.diag(np.arange(1.0, N + 1.0)), "H")


def matrix_AH(N: int) -> IndexMatrix:
    """Product A H: entries (-1)^(l+n) 2 l n^2/(l^2 - n^2), zero diagonal."""
    a = matrix_A(N).entries
    return IndexMatrix(a * np.arange(1.0, N + 1.0)[None, :], "AH")


def matrix_A_squared_closed(N: int) -> IndexMatrix:
    """Closed form of A^2 (infinite sums done analytically; symmetric).

    Off-diagonal: (-1)^(l+n+1) 4 l n (l^2 + n^2)/(l^2 - n^2)^2;
    diagonal:     -(pi^2 l^2 / 3 + 1/4).
    """
    l, n = _indices(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = (-1.0) ** (l + n + 1) * 4.0 * l * n * (l**2 + n**2) / (l**2 - n**2) ** 2
    diag = -(math.pi**2 * np.arange(1.0, N + 1.0) ** 2 / 3.0 + 0.25)
    np.fill_diagonal(ent, diag)
    return IndexMatrix(ent, "A_squared_closed")


# ---------------------------------------------------------------------------
# mixing matrix: exact and perturbative
# ---------------------------------------------------------------------------

def mixing_V_exact(g: float, table: PoleTable) -> IndexMatrix:
    """Exact mixing matrix on the truncation set by the pole table."""
    if abs(table.g - g) > 1e-15:
        raise ValueError(f"pole table was built at g={table.g}, not g={g}")
    N = len(table)
    ls = np.arange(1, N + 1)
    degenerate = np.any(np.abs(ls[:, None] ** 2 - table.k_values**2) < 1e-14, axis=1)
    if degenerate.any():
        raise DomainError(f"degenerate l^2 = k^2 for l={int(ls[degenerate][0])}")
    return IndexMatrix(_pole_weights(ls[:, None], table), "V_exact")


def _expansion(name: str, N: int, a2: np.ndarray | None = None) -> tuple:
    """Coefficient matrices of g^0, g^1 and g^2 in the expansion of V, Z, U or Uinv.

    U = V Z and "Uinv" is its Neumann series Id - g U_1 + g^2 (U_1^2 - U_2),
    with the closed-form A^2 standing in for U_1^2 = A^2 unless a2 is given.
    Only the series asked for is built.
    """
    _indices(N)
    h = np.arange(1.0, N + 1.0)
    eye = np.eye(N, dtype=complex)
    if name == "Z":
        return eye, 0.5 * eye, -0.125 * eye + 1.5j * math.pi * np.diag(h)
    a = matrix_A(N).entries
    a2 = matrix_A_squared_closed(N).entries if a2 is None else a2
    ah = a * h[None, :]
    if name == "V":
        v2 = 0.5 * a2 - a + 0.375 * np.eye(N) + 1j * math.pi * ah - 1.5j * math.pi * np.diag(h)
        return eye, a.astype(complex) - 0.5 * np.eye(N), v2.astype(complex)
    if name == "U":
        return eye, a, 0.5 * a2 - 0.5 * a + 1j * math.pi * ah
    return eye, -a, 0.5 * a2 + 0.5 * a - 1j * math.pi * ah  # "Uinv"


def _truncated(name: str, g: float, N: int, order: int, a2: np.ndarray | None = None):
    """The expansion of U or Uinv summed through g^order (1 or 2)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    c0, c1, c2 = _expansion(name, N, a2)
    ent = c0 + g * c1
    if order == 2:
        ent += g * g * c2
    return ent


def V_order(order: int, N: int) -> IndexMatrix:
    """Coefficient matrix of g^order (0, 1 or 2) in the expansion of V."""
    return IndexMatrix(_expansion("V", N)[order], f"V_order_{order}")


def Z_order(order: int, N: int) -> IndexMatrix:
    """Renormalization coefficient matrix of g^order (1 or 2); diagonal by construction."""
    return IndexMatrix(_expansion("Z", N)[order], f"Z_order_{order}")


def Z_exact(n: int, g: float, table: PoleTable) -> complex:
    """Normalization constant fixed by unit cavity norm of the pole state.

    |Z|^2 = (1/pi) [sinh(2 b pi)/(2b) - sin(2 a pi)/(2a)] for k = a + i b;
    the condition fixes only the modulus, and the phase is chosen real
    positive so that Z -> 1 + g/2 smoothly as g -> 0.
    """
    if abs(table.g - g) > 1e-15:
        raise ValueError(f"pole table was built at g={table.g}, not g={g}")
    k = table[n]
    alpha, beta = k.real, k.imag
    y = 2.0 * beta * math.pi
    if abs(y) < 1e-8:
        sinh_term = math.pi * (1.0 + y * y / 6.0)
    else:
        sinh_term = math.sinh(y) / (2.0 * beta)
    sin_term = math.sin(2.0 * alpha * math.pi) / (2.0 * alpha)
    return complex(math.sqrt((sinh_term - sin_term) / math.pi))


def U_truncated(g: float, N: int, order: int = 2) -> IndexMatrix:
    """Renormalized mixing matrix U = V Z through the requested order in g."""
    return IndexMatrix(_truncated("U", g, N, order), "U", meta={"g": g, "order": order})


def U_inverse(g: float, N: int, order: int = 2, mode: str = "numeric") -> IndexMatrix:
    """Inverse of the truncated U, by Neumann series or dense solve.

    Series mode sums the Neumann series of the expansion table through the
    order.  Numeric mode inverts U_truncated exactly within the truncation
    and records the residual ||U U^(-1) - Id||_inf; it refuses condition
    estimates above 1e8.
    """
    if mode == "series":
        return IndexMatrix(_truncated("Uinv", g, N, order), "U_inverse",
                           meta={"g": g, "order": order, "mode": mode})
    if mode == "numeric":
        u = _truncated("U", g, N, order)
        # an overflowed U has no condition number (LAPACK refuses inf and nan)
        cond = float(np.linalg.cond(u)) if np.all(np.isfinite(u)) else math.inf
        if not cond <= COND_LIMIT:
            raise IllConditionedError(
                f"U at N={N}, g={g} has condition estimate {cond:.2e} > {COND_LIMIT:.0e}"
            )
        inv = np.linalg.solve(u, np.eye(N, dtype=complex))
        residual = float(np.abs(u @ inv - np.eye(N)).sum(axis=1).max())
        return IndexMatrix(
            inv,
            "U_inverse",
            meta={"g": g, "order": order, "mode": mode, "residual": residual, "cond": cond},
        )
    raise ValueError("mode must be 'series' or 'numeric'")


# ---------------------------------------------------------------------------
# counter-rotation
# ---------------------------------------------------------------------------

def counter_rotate(l: int, g: float, N: int, order: int = 1, mode: str = "series") -> np.ndarray:
    """Row l of U^(-1): the box-mode coefficients of the state that evolves on pole l alone.

    The state is sqrt(2/pi) sum_n c_n sin(n x), c_n being entry n - 1 of the
    returned complex array.
    """
    if int(l) != l or not 1 <= l <= N:
        raise DomainError(f"need an integer 1 <= l <= N, got l={l}, N={N}")
    return U_inverse(g, N, order, mode).entries[int(l) - 1].copy()


def exponentiation_gap(g: float, N: int) -> tuple[float, float]:
    """Distances of U through order g^2 from exp[g (1 - g/2) A], with and without AH.

    With the i pi g^2 A H term subtracted (the first value) the gap is O(g^3);
    without it (the second) it is O(g^2), showing that no diagonal
    renormalization choice absorbs the A H term into the exponential.

    Both sides are built on the same truncated space: the g^2/2 A^2 term
    uses the truncated square A_N^2, matching what the matrix exponential of
    A_N produces.  Mixing in the closed-form (infinite) A^2 would leave an
    O(g^2/N) truncation mismatch that buries the O(g^3) signal.

    iM is Hermitian for the real antisymmetric M = g (1 - g/2) A_N, so
    exp(M) = v e^{-iw} v^H exactly with (w, v) = eigh(iM) (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003), the method for normal matrices).
    """
    a = matrix_A(N).entries
    u2 = _truncated("U", g, N, 2, a2=a @ a)
    # |M| is below the g^2 A_N^2 / 2 term of U, so a finite U has a finite M
    if not np.all(np.isfinite(u2)):
        raise DomainError(f"U at N={N}, g={g} is beyond floating-point range")
    w, v = np.linalg.eigh(1j * (g * (1.0 - 0.5 * g) * a))
    gap = u2 - (v * np.exp(-1j * w)) @ v.conj().T
    ah_subtracted = gap - 1j * math.pi * g * g * matrix_AH(N).entries
    return tuple(float(np.abs(d).sum(axis=1).max()) for d in (ah_subtracted, gap))


# ---------------------------------------------------------------------------
# diagonal-evolution verification
# ---------------------------------------------------------------------------

def diagonal_evolution_check(
    l: int,
    g: float,
    table: PoleTable | None,
    t_grid,
    order: int = 1,
    mode: str = "series",
) -> np.ndarray:
    """Cavity-integrated |contamination|^2 of the counter-rotated state at each time.

    The counter-rotated state evolved through the exponential machinery is
    sum_n (U^(-1) V)_{ln} theta^(n)(x, t); with the exact inverse this is
    exactly xi^(l) = theta^(l)/Z^(l), so any residue measures how much the
    approximate U^(-1) leaks other poles into the evolution.  At g = 0 the
    leak vanishes identically.  Note the returned norms are squared cavity
    norms; the contamination amplitude is their square root.  Raises
    DomainError unless l is a positive integer, and at g > 0 one of 1..N.
    """
    t_arr = np.asarray(t_grid, dtype=float)
    if l < 1 or int(l) != l:
        raise DomainError(f"need a positive integer l, got l={l}")
    l = int(l)
    if g == 0:
        return np.zeros_like(t_arr)
    if table is None:
        raise ValueError("a pole table is required for g != 0")
    N = len(table)
    if l > N:
        raise DomainError(f"need 1 <= l <= N, got l={l}")

    inv = U_inverse(g, N, order, mode).entries
    v = mixing_V_exact(g, table).entries
    coeff = (inv @ v)[l - 1].copy()
    coeff[l - 1] -= 1.0 / Z_exact(l, g, table)

    x = np.linspace(0.0, math.pi, CONTAMINATION_POINTS)
    delta = _pole_sum(x, table.k_values, coeff, t_arr)
    return _cavity_norms(x, delta)
