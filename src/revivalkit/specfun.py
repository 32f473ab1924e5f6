"""Complex log-Gamma and polygamma evaluations on the line 1/2 + iy.

The spectral model needs a continuous branch of arg Gamma(1/2 + iy) and
the first three polygamma functions at complex arguments, Re z > 0.
All four take one method: shift z by SHIFT with the recurrence
Gamma(z + 1) = z Gamma(z), and add Stirling's series or its derivative at
w = z + SHIFT (DLMF 5.11, 5.15).  The four series' coefficients come from
one table of Bernoulli numbers, each rounded once from its exact value.
All four vectorize in numpy alone and are accurate to a few ulp of
max(1, |value|) on the strip Re z = 1/2.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# B_2 ... B_16.  At |w| >= SHIFT + 1/2 the next term of each series is
# below 3e-16:
#   log Gamma(w) ~ (w - 1/2) log w - w + log(2 pi)/2 + sum_j B_2j / (2j (2j-1) w^(2j-1))
#   digamma(w)   ~ log w - 1/(2w) - sum_j B_2j / (2j w^(2j))
#   trigamma(w)  ~ 1/w + 1/(2w^2) + sum_j B_2j / w^(2j+1)
#   tetragamma(w) ~ -1/w^2 - 1/w^3 - sum_j (2j+1) B_2j / w^(2j+2)
_BERNOULLI = tuple(Fraction(*b) for b in ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
                                          (-691, 2730), (7, 6), (-3617, 510)))
SHIFT = 8
_LOGGAMMA_TAIL = tuple(float(b / (2 * j * (2 * j - 1))) for j, b in enumerate(_BERNOULLI, 1))
_DIGAMMA_TAIL = tuple(float(b / (2 * j)) for j, b in enumerate(_BERNOULLI, 1))
_TRIGAMMA_TAIL = tuple(float(b) for b in _BERNOULLI)
_TETRAGAMMA_TAIL = tuple(float(-(2 * j + 1) * b) for j, b in enumerate(_BERNOULLI, 1))


def _even_series(s, coeffs):
    """sum_j coeffs[j] s^(2j), by Horner's rule in s^2."""
    s2 = s * s
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * s2 + c
    return acc


def _stirling_args(x, y):
    """log |w|, arg w and 1/w at w = x + SHIFT + iy, from real parts (a
    seventh of the cost of numpy's complex log)."""
    big_x = x + SHIFT
    r2 = big_x * big_x + y * y
    return 0.5 * np.log(r2), np.arctan2(y, big_x), (big_x - 1j * y) / r2


def _arg_gamma(x, y):
    """arg Gamma(x + iy) = Im log Gamma(x + iy + SHIFT) - sum_k arg(x + k + iy).

    The factors are taken in pairs, whose arguments stay inside (-pi, pi)
    for x > 0, so one arctan2 serves two of them.
    """
    log_abs, phase, s = _stirling_args(x, y)
    out = (y * log_abs + (x + SHIFT - 0.5) * phase - y
           + np.imag(s * _even_series(s, _LOGGAMMA_TAIL)))
    y2 = y * y
    for k in range(0, SHIFT, 2):
        a, b = x + k, x + k + 1.0
        # (a + iy)(b + iy) = ab - y^2 + i y (a + b)
        out = out - np.arctan2(y * (a + b), a * b - y2)
    return out


def digamma(z):
    """Digamma at complex z with Re z > 0: digamma(z + SHIFT) - sum_k 1/(z + k)."""
    z = np.asarray(z, dtype=complex)
    log_abs, phase, s = _stirling_args(z.real, z.imag)
    out = log_abs + 1j * phase - 0.5 * s - s * s * _even_series(s, _DIGAMMA_TAIL)
    for k in range(0, SHIFT, 2):
        a, b = z + k, z + (k + 1)
        out = out - (a + b) / (a * b)
    return out


def trigamma(z):
    """Trigamma at complex z with Re z > 0: trigamma(z + SHIFT) + sum_k (z + k)^-2."""
    z = np.asarray(z, dtype=complex)
    s = 1.0 / (z + SHIFT)
    out = s + s * s * (0.5 + s * _even_series(s, _TRIGAMMA_TAIL))
    for k in range(SHIFT):
        r = 1.0 / (z + k)
        out = out + r * r
    return out


def tetragamma(z):
    """Tetragamma at complex z with Re z > 0: tetragamma(z + SHIFT) - 2 sum_k (z + k)^-3."""
    z = np.asarray(z, dtype=complex)
    s = 1.0 / (z + SHIFT)
    out = s * s * (s * (s * _even_series(s, _TETRAGAMMA_TAIL) - 1.0) - 1.0)
    for k in range(SHIFT):
        r = 1.0 / (z + k)
        out = out - 2.0 * (r * r * r)
    return out


def arg_gamma_half_line(y):
    """arg Gamma(1/2 + iy), vectorized over real y."""
    return _arg_gamma(0.5, np.asarray(y, dtype=float))
