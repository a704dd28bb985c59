"""Resonance poles: complex zeros k^(n)(g) of the coefficient b(k, g).

Each zero in the octant Im k < 0, Re k > |Im k| carries a complex energy
eps = k^2 = omega - i Gamma/2, so omega = (Re k)^2 - (Im k)^2 and
Gamma = -4 Re k Im k.  The branch is fixed by k^(n)(0) = n.

b vanishes where exp(2 pi i k) = 1 - 2 pi i g k.  The log of that relation
on branch n, with the principal log,

    k = n + log(1 - 2 pi i g k) / (2 pi i),

is the Lambert-W closed form k_n = (1 - g W_{-n}(e^{1/g}/g)) / (2 pi i g)
(Corless et al., Adv. Comput. Math. 5, 329 (1996)) written in k.  It never
forms e^{1/g}, so it holds down to g -> 0, and since 1 - 2 pi i g k lies in
the lower half-plane the principal log puts Re k in (n - 1/2, n): n alone
fixes the branch, with no continuation in g.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OctantViolationError, PoleConvergenceError
from .spectrum import coef_b

DEFAULT_TOL = 1e-12
MAX_NEWTON_STEPS = 50


def width_pert(n: int, g: float, order: int = 2) -> float:
    """Perturbative decay width: 4 pi n^3 g^2 at order 2, times (1 - 4g) at order 3."""
    if n < 1:
        raise DomainError("mode index n must be >= 1")
    if order == 2:
        return 4.0 * math.pi * n**3 * g**2
    if order == 3:
        return 4.0 * math.pi * n**3 * g**2 * (1.0 - 4.0 * g)
    raise ValueError(f"order must be 2 or 3, got {order}")


def freq_pert(n: int, g: float, order: int = 1) -> float:
    """Perturbative frequency: n^2 (1 - 2g) at order 1, n^2 (1 - 2g + 3g^2) at order 2."""
    if n < 1:
        raise DomainError("mode index n must be >= 1")
    if order == 1:
        return n**2 * (1.0 - 2.0 * g)
    if order == 2:
        return n**2 * (1.0 - 2.0 * g + 3.0 * g**2)
    raise ValueError(f"order must be 1 or 2, got {order}")


@dataclass(frozen=True)
class Pole:
    """One resonance pole with its derived spectral data."""

    n: int
    k: complex
    energy: complex
    omega: float
    gamma: float
    residual: float

    def __post_init__(self):
        if not (self.k.imag < 0 and self.k.real > abs(self.k.imag)):
            raise OctantViolationError(
                f"pole n={self.n} at k={self.k} violates Im k < 0 < |Im k| < Re k",
                n=self.n,
            )


def _make_poles(ns, ks: np.ndarray, g: float) -> tuple[Pole, ...]:
    residuals = np.abs(coef_b(ks, g))
    return tuple(
        Pole(
            n=int(n),
            k=complex(k),
            energy=complex(k * k),
            omega=float(k.real**2 - k.imag**2),
            gamma=float(-4.0 * k.real * k.imag),
            residual=float(r),
        )
        for n, k, r in zip(ns, ks, residuals)
    )


def _solve(ns: np.ndarray, g: float, tol: float) -> np.ndarray:
    """Roots k^(n)(g) for every n in ns, by one vectorized Newton iteration.

    Newton runs on F(k) = k - n - log(1 - 2 pi i g k)/(2 pi i), with
    F'(k) = 1 + g/(1 - 2 pi i g k), seeded at k = n.  A root is accepted
    once the step and |b| are both below tol; each root stops moving when
    accepted, so its iterates do not depend on the other indices in ns.
    """
    if g <= 0:
        raise DomainError("pole solver requires coupling g > 0")
    if not tol > 0:
        raise DomainError("tol must be > 0")
    n = ns.astype(float)
    k = n.astype(complex)
    k_prev = np.full_like(k, np.nan)
    active = np.arange(len(k))
    for _ in range(MAX_NEWTON_STEPS):
        ka = k[active]
        w = 1.0 - 2j * math.pi * g * ka
        dk = (ka - n[active] - np.log(w) / (2j * math.pi)) / (1.0 + g / w)
        k_next = ka - dk
        residual = np.abs(coef_b(k_next, g))
        done = (np.abs(dk) < tol) & (residual < tol)
        stalled = ~done & ((k_next == ka) | (k_next == k_prev[active]))
        if stalled.any():
            # stalled at floating-point resolution; the slope 1/(2gk) sets
            # the smallest representable |b| near the root
            i = int(np.argmax(stalled))
            bad = int(ns[active[i]])
            raise PoleConvergenceError(
                f"n={bad}, g={g}: |b| floors at {residual[i]:.2e} (> tol {tol:.1e}) "
                "at double-precision resolution; loosen tol",
                n=bad,
                g=g,
            )
        k_prev[active] = ka
        k[active] = k_next
        active = active[~done]
        if not len(active):
            break
    else:
        bad = int(ns[active[0]])
        raise PoleConvergenceError(
            f"Newton did not converge for n={bad}, g={g} after {MAX_NEWTON_STEPS} "
            f"steps (|b| = {abs(complex(coef_b(k[active[0]], g))):.2e})",
            n=bad,
            g=g,
        )
    stray = np.abs(k - n) > 0.75 * n
    if stray.any():
        i = int(np.argmax(stray))
        raise PoleConvergenceError(
            f"root k={k[i]} strayed from the n={ns[i]} branch", n=int(ns[i]), g=g
        )
    return k


@dataclass(frozen=True)
class PoleTable:
    """All poles n = 1..N at a fixed coupling, with solver diagnostics."""

    g: float
    tol: float
    poles: tuple[Pole, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        re = [p.k.real for p in self.poles]
        if any(b <= a for a, b in zip(re, re[1:])):
            raise PoleConvergenceError("Re k^(n) not strictly increasing in n")
        ns = [p.n for p in self.poles]
        if ns != sorted(set(ns)):
            raise ValueError("pole indices must be strictly increasing")

    def __len__(self):
        return len(self.poles)

    def __getitem__(self, n: int) -> Pole:
        """Pole by physical index n (1-based)."""
        p = self.poles[n - 1]
        if p.n != n:
            raise KeyError(f"table does not hold contiguous indices; wanted n={n}")
        return p

    @property
    def k_values(self) -> np.ndarray:
        return np.array([p.k for p in self.poles])

    def to_json(self) -> str:
        return json.dumps(
            {
                "g": self.g,
                "tol": self.tol,
                "warnings": list(self.warnings),
                "poles": [
                    {
                        "n": p.n,
                        "re_k": p.k.real,
                        "im_k": p.k.imag,
                        "omega": p.omega,
                        "gamma": p.gamma,
                        "residual": p.residual,
                    }
                    for p in self.poles
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PoleTable":
        """Read a table; unknown fields, such as those older files carry, are ignored."""
        obj = json.loads(text)
        rows = obj["poles"]
        ks = np.array([complex(row["re_k"], row["im_k"]) for row in rows])
        return cls(
            g=obj["g"],
            tol=obj["tol"],
            poles=_make_poles([row["n"] for row in rows], ks, obj["g"]),
            warnings=tuple(obj.get("warnings", ())),
        )


def pole_table(g: float, N: int, tol: float = DEFAULT_TOL) -> PoleTable:
    """Solve for poles n = 1..N in one vectorized pass.

    A warning entry is recorded for every n whose perturbative width exceeds
    a tenth of its frequency (the resonance picture degrading), mirroring the
    physical cut Gamma << omega.
    """
    if N < 1:
        raise DomainError("table size N must be >= 1")
    ns = np.arange(1, N + 1)
    poles = _make_poles(ns, _solve(ns, g, tol), g)

    warn_rows = []
    for p in poles:
        w2 = width_pert(p.n, g, order=2)
        f1 = freq_pert(p.n, g, order=1)
        if w2 > 0.1 * abs(f1):
            warn_rows.append(
                f"n={p.n}: perturbative width {w2:.3g} exceeds 0.1*omega {0.1*abs(f1):.3g}; "
                "resonance picture marginal"
            )
    table = PoleTable(g=g, tol=tol, poles=poles, warnings=tuple(warn_rows))
    if warn_rows:
        first = warn_rows[0].split(":")[0]
        warnings.warn(
            f"{len(warn_rows)} of {N} poles have perturbative width above "
            f"0.1*omega (first at {first}); resonance picture marginal there "
            "(details in table.warnings)",
            stacklevel=2,
        )
    return table
