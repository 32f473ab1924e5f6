"""Exact-arithmetic reference for revivalkit.gausssum.

Every phase is reduced modulo 1 as a Fraction before any complex
exponential is taken, so periodicity checks are exact and the sequences
are reproducible to machine precision at any centre.
"""

import cmath
import math
from fractions import Fraction

import numpy as np


def unit_phase(x: Fraction) -> complex:
    """exp(-2 pi i x) with x reduced modulo 1 exactly first."""
    r = x - math.floor(x)
    return cmath.exp(-2j * math.pi * float(r))


def verify_periodicity(p: int, q: int, ell: int, m_values) -> bool:
    """Exact divisibility check q | (2 p ell m + p ell^2) for all m."""
    return all((2 * p * ell * m + p * ell * ell) % q == 0 for m in m_values)


def quadratic_phase_sequence(p: int, q: int, n0: int, n_values) -> np.ndarray:
    """Values exp(-2 pi i (p/q)(n - n0)^2), phases reduced exactly."""
    return np.array([unit_phase(Fraction(p * (int(n) - n0) ** 2, q)) for n in n_values])


def fourier_mode(k: int, ell: int, n_values) -> np.ndarray:
    """Basis sequence exp(-2 pi i k n / ell)."""
    return np.array([unit_phase(Fraction(k * int(n), ell)) for n in n_values])


def inner_product(u, v) -> complex:
    """Hermitian product (1/ell) sum_k u_k conj(v_k) over one period."""
    u, v = np.asarray(u), np.asarray(v)
    return complex(np.sum(u * np.conj(v)) / len(u))


def reconstruct(coeffs, n_values) -> np.ndarray:
    """Rebuild the quadratic phase sequence from its Fourier data."""
    ns = list(n_values)
    return sum(coeffs.values[k] * fourier_mode(k, coeffs.ell, ns) for k in range(coeffs.ell))
