"""Continuum spectrum of the Winter model.

The Hamiltonian -d^2/dx^2 + (1/(pi g)) delta(x - pi) on the half-line with a
hard wall at x = 0 has, for repulsive coupling g > 0, a purely continuous
spectrum eps = k^2.  An eigenfunction is sin(kx) inside the cavity (0, pi)
and a(k,g) e^{ikx} + b(k,g) e^{-ikx} outside, with

    a(k,g) = -i/2 + [exp(-2 i pi k) - 1] / (4 pi g k),
    b(k,g) = +i/2 + [exp(+2 i pi k) - 1] / (4 pi g k).

Everything in this module is a pure function of its arguments; all complex
square roots take the principal branch (-pi < arg z <= pi).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi


def _check_kg(k, g):
    if np.any(np.asarray(g) == 0):
        raise DomainError("coupling g must be nonzero")
    if np.any(np.asarray(k) == 0):
        raise DomainError("wave number k must be nonzero")


def _cexpm1(z):
    """exp(z) - 1 for complex z without cancellation near z = 0."""
    re = np.real(z)
    im = np.imag(z)
    real_part = np.expm1(re) * np.cos(im) - 2.0 * np.sin(0.5 * im) ** 2
    imag_part = np.exp(re) * np.sin(im)
    return real_part + 1j * imag_part


def _phase_expm1(k):
    """exp(2 pi i k) - 1 computed as exp(2 pi i (k - round(Re k))) - 1.

    Shifting by the nearest integer is exact (e^{2 pi i n} = 1) and keeps the
    phase argument small near the resonances, where the naive product 2 pi k
    would carry absolute rounding ~ eps * k that floors |b| at the poles
    around 1e-11 for small couplings.
    """
    k = np.asarray(k, dtype=complex)
    kappa = k - np.round(np.real(k))
    return _cexpm1(1j * TWO_PI * kappa)


def coef_a(k, g):
    """Outgoing-wave coefficient a(k, g).  Accepts scalars or arrays."""
    _check_kg(k, g)
    k = np.asarray(k, dtype=complex)
    return -0.5j + _phase_expm1(-k) / (2.0 * TWO_PI * g * k)


def coef_b(k, g):
    """Incoming-wave coefficient b(k, g); its complex zeros are the resonance poles."""
    _check_kg(k, g)
    k = np.asarray(k, dtype=complex)
    return 0.5j + _phase_expm1(k) / (2.0 * TWO_PI * g * k)


def ab_product(k, g):
    """The product a(k,g) b(k,g).

    Real and positive for real k and real g; for complex k it vanishes at the
    resonance poles.
    """
    return coef_a(k, g) * coef_b(k, g)
