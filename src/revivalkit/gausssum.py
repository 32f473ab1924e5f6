"""Periodicity lattice, clone coefficients and their modulus law.

Every phase is reduced modulo 1 in integers before any complex
exponential is taken, so the computed moduli are reproducible to machine
precision at any packet centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotCoprime, ParameterError


@dataclass(frozen=True)
class PeriodicitySet:
    """Solution set of the periodicity congruence, as generator * Z."""

    generator: int
    description: str


def periodicity_set(p: int, q: int) -> PeriodicitySet:
    """Minimal period of n -> exp(-2 pi i (p/q)(n - n0)^2) and its lattice.

    q odd or q = 2 mod 4 gives q*Z; q divisible by 4 gives (q/2)*Z.
    """
    if q < 1:
        raise ParameterError(f"q must be a positive integer, got {q}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    ell = q // 2 if q % 4 == 0 else q
    return PeriodicitySet(generator=ell, description=f"{ell}Z")


@dataclass(frozen=True)
class RevivalCoefficients:
    """Fourier data of the quadratic phase sequence over one period."""

    p: int
    q: int
    n0: int
    ell: int
    phased: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        """b_k = exp(2 pi i k n0/ell) b~_k, with k n0 reduced in integers.

        n0 is reduced in Python ints first, so that no int64 product can
        overflow at any n0.
        """
        k = np.arange(self.ell, dtype=np.int64)
        return np.exp(2j * np.pi * ((k * (self.n0 % self.ell)) % self.ell / self.ell)) * self.phased

    @property
    def moduli_squared(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def coefficients(p: int, q: int, n0: int) -> RevivalCoefficients:
    """Clone coefficients b_k and their recentred phases b~_k.

    b_k is the Hermitian projection of the quadratic phase sequence onto
    the mode exp(-2 pi i k n/ell): the conjugation flips the mode's sign,
    so b_k = (1/ell) sum_n exp(-2 pi i [(p/q)(n-n0)^2 - k n/ell]).
    b~_k = exp(-2 pi i k n0/ell) b_k recentres the expansion at n0, which
    with m = n - n0 over one period leaves the inverse FFT of
    exp(-2 pi i (p/q) m^2): b~ does not depend on n0, and b_k is b~_k
    times a unit phasor.  O(ell) memory.
    """
    ell = periodicity_set(p, q).generator
    # p m^2 is reduced mod q in integers
    m = np.arange(ell, dtype=np.int64)
    phased = np.fft.ifft(np.exp(-2j * np.pi * (p % q * (m * m % q) % q) / q))
    return RevivalCoefficients(p=p, q=q, n0=n0, ell=ell, phased=phased)


def modulus_law(p: int, q: int) -> tuple[int, np.ndarray]:
    """Closed-form |b_k|^2 table over the minimal period.

    q odd: all 1/q.  q = 2 mod 4: zero for even k, 2/q for odd k.
    q = 0 mod 4: period q/2 with all entries 2/q.
    """
    ell = periodicity_set(p, q).generator
    table = np.full(ell, (1.0 if q % 2 else 2.0) / q)
    if ell == q and q % 2 == 0:
        table[0::2] = 0.0
    return ell, table
