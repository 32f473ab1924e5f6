"""Exact arithmetic of quadratic phase sequences and clone coefficients.

Every phase is reduced modulo 1 as a Fraction before any complex
exponential is taken, so periodicity checks are exact and the computed
moduli are reproducible to machine precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotCoprime, ParameterError, PeriodMismatch


def _require_coprime(p: int, q: int) -> None:
    if q < 1:
        raise ParameterError(f"q must be a positive integer, got {q}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")


def _unit_phase(x: Fraction) -> complex:
    """exp(-2 pi i x) with x reduced modulo 1 exactly first."""
    r = x - math.floor(x)
    return cmath.exp(-2j * math.pi * float(r))


@dataclass(frozen=True)
class PeriodicitySet:
    """Solution set of the periodicity congruence, as generator * Z."""

    generator: int
    description: str


def periodicity_set(p: int, q: int) -> PeriodicitySet:
    """Minimal period of n -> exp(-2 pi i (p/q)(n - n0)^2) and its lattice.

    q odd or q = 2 mod 4 gives q*Z; q divisible by 4 gives (q/2)*Z.
    """
    _require_coprime(p, q)
    if q % 2 == 1 or (q // 2) % 2 == 1:
        return PeriodicitySet(generator=q, description=f"{q}Z")
    return PeriodicitySet(generator=q // 2, description=f"{q // 2}Z")


def verify_periodicity(p: int, q: int, ell: int, m_values=None) -> bool:
    """Exact divisibility check q | (2 p ell m + p ell^2) for all m."""
    _require_coprime(p, q)
    if m_values is None:
        m_values = range(-1000, 1001)
    return all((2 * p * ell * m + p * ell * ell) % q == 0 for m in m_values)


def quadratic_phase_sequence(p: int, q: int, n0: int, n_values) -> np.ndarray:
    """Values exp(-2 pi i (p/q)(n - n0)^2), phases reduced exactly."""
    _require_coprime(p, q)
    return np.array(
        [_unit_phase(Fraction(p * (int(n) - n0) ** 2, q)) for n in n_values]
    )


def fourier_mode(k: int, ell: int, n_values) -> np.ndarray:
    """Basis sequence exp(-2 pi i k n / ell)."""
    return np.array([_unit_phase(Fraction(k * int(n), ell)) for n in n_values])


def inner_product(u, v) -> complex:
    """Hermitian product (1/ell) sum_k u_k conj(v_k) over one period."""
    u = np.asarray(u)
    v = np.asarray(v)
    if len(u) != len(v) or len(u) == 0:
        raise PeriodMismatch(
            f"sequences must share one period (got lengths {len(u)}, {len(v)})"
        )
    return complex(np.sum(u * np.conj(v)) / len(u))


@dataclass(frozen=True)
class RevivalCoefficients:
    """Fourier data of the quadratic phase sequence over one period."""

    p: int
    q: int
    n0: int
    ell: int
    values: np.ndarray
    phased: np.ndarray

    @property
    def moduli_squared(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def coefficients(p: int, q: int, n0: int) -> RevivalCoefficients:
    """Clone coefficients b_k and their recentred phases b~_k.

    b_k is the Hermitian projection of the quadratic phase sequence onto
    the mode exp(-2 pi i k n/ell): the conjugation flips the mode's sign,
    so b_k = (1/ell) sum_n exp(-2 pi i [(p/q)(n-n0)^2 - k n/ell]).
    b~_k = exp(-2 pi i k n0/ell) b_k recentres the expansion at n0.
    """
    _require_coprime(p, q)
    ell = periodicity_set(p, q).generator
    # common denominator q*ell: the numerators p ell (n - n0)^2 - k n q are
    # reduced mod q*ell in integers, with n0 first reduced in Python ints
    # so that no int64 product can overflow at any n0
    denom = q * ell
    n = np.arange(ell, dtype=np.int64)
    k = n[:, None]
    d = (n - n0 % q) % q
    nums = (p % q * ell * (d * d % q) - k * n * q) % denom
    phases = np.exp(-2j * np.pi * nums.astype(float) / denom)
    b = phases.sum(axis=1) / ell
    phased = np.exp(-2j * np.pi * ((n * (n0 % ell)) % ell / ell)) * b
    return RevivalCoefficients(p=p, q=q, n0=n0, ell=ell, values=b, phased=phased)


def modulus_law(p: int, q: int) -> tuple[int, np.ndarray]:
    """Closed-form |b_k|^2 table over the minimal period.

    q odd: all 1/q.  q = 2 mod 4: zero for even k, 2/q for odd k.
    q = 0 mod 4: period q/2 with all entries 2/q.
    """
    _require_coprime(p, q)
    if q % 2 == 1:
        return q, np.full(q, 1.0 / q)
    if (q // 2) % 2 == 1:
        table = np.zeros(q)
        table[1::2] = 2.0 / q
        return q, table
    return q // 2, np.full(q // 2, 2.0 / q)


def reconstruct(coeffs: RevivalCoefficients, n_values) -> np.ndarray:
    """Rebuild the quadratic phase sequence from its Fourier data."""
    out = np.zeros(len(list(n_values)), dtype=complex)
    ns = list(n_values)
    for k in range(coeffs.ell):
        out += coeffs.values[k] * fourier_mode(k, coeffs.ell, ns)
    return out
