"""Special-function layer against independent oracles."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revivalkit.specfun import (
    _DIGAMMA_TAIL,
    _LOGGAMMA_TAIL,
    arg_gamma_half_line,
    digamma,
    tetragamma,
    trigamma,
)


def arg_gamma_series(y: float, terms: int = 100000) -> float:
    """Weierstrass-product evaluation of arg Gamma(1/2 + iy)."""
    k = np.arange(1, terms + 1)
    z_re, z_im = 0.5, y
    series = y / k - np.arctan2(z_im / k, 1.0 + z_re / k)
    # tail of sum (y/k - arctan(...)) ~ (z_re*y)/k^2 -> Hurwitz-like correction
    tail = z_re * y / terms  # integral approximation of sum_{k>N} z_re*y/k^2
    return float(-np.arctan2(z_im, z_re) - np.euler_gamma * y + np.sum(series) + tail)


def test_arg_gamma_at_unit_height_vs_series():
    value = float(arg_gamma_half_line(1.0))
    oracle = arg_gamma_series(1.0)
    assert abs(value - oracle) <= 1e-10


def test_arg_gamma_at_half_is_zero():
    assert abs(float(arg_gamma_half_line(0.0))) == 0.0


SHIFTED_Y = [0.0, 0.3, -0.3, 3.0, -3.0, 7.0, -7.0, 25.0, -25.0, 1e3, -1e3, 1e6, -1e6, 1e10, -1e10]


@pytest.mark.parametrize("y", SHIFTED_Y)
def test_arg_gamma_and_digamma_against_mpmath(y):
    # the recurrence shift plus Stirling's series, from the axis to |y| = 1e10
    z = mpmath.mpc(0.5, y)
    want = float(mpmath.im(mpmath.loggamma(z)))
    assert abs(float(arg_gamma_half_line(y)) - want) <= 1e-14 * max(1.0, abs(want))
    want = complex(mpmath.digamma(z))
    assert abs(complex(digamma(0.5 + 1j * y)) - want) <= 1e-14 * max(1.0, abs(want))


def test_digamma_imag_reflection():
    # Im psi(1/2 + iy) = (pi/2) tanh(pi y)
    y = np.array([0.1, 0.7, 2.0, 10.0])
    got = np.imag(digamma(0.5 + 1j * y))
    want = 0.5 * np.pi * np.tanh(np.pi * y)
    assert np.max(np.abs(got - want)) < 1e-12


def test_stirling_tails_are_the_published_doubles():
    # the Bernoulli table gives these literals to the bit, so arg Gamma and
    # digamma keep their values
    assert _LOGGAMMA_TAIL == (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                              -691 / 360360, 1 / 156, -3617 / 122400)
    assert _DIGAMMA_TAIL == (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                             -691 / 32760, 1 / 12, -3617 / 8160)


@pytest.mark.parametrize("y", [-5.0, -1.3, -0.2, 0.4, 1.0, 2.7, 8.0] + SHIFTED_Y)
def test_polygamma_against_mpmath(y):
    z = 0.5 + 1j * y
    for fn, order in ((trigamma, 1), (tetragamma, 2)):
        got = complex(fn(z))
        want = complex(mpmath.psi(order, mpmath.mpc(0.5, y)))
        assert abs(got - want) <= 2e-15 * max(1.0, abs(want))


@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_trigamma_property_matches_mpmath(y):
    got = complex(trigamma(0.5 + 1j * y))
    want = complex(mpmath.psi(1, mpmath.mpc(0.5, y)))
    assert abs(got - want) <= 2e-15 * max(1.0, abs(want))


@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_tetragamma_property_matches_mpmath(y):
    got = complex(tetragamma(0.5 + 1j * y))
    want = complex(mpmath.psi(2, mpmath.mpc(0.5, y)))
    assert abs(got - want) <= 2e-15 * max(1.0, abs(want))


def test_arg_gamma_vectorizes():
    y = np.linspace(-3, 3, 11)
    vals = arg_gamma_half_line(y)
    assert vals.shape == y.shape
    # odd function of y
    assert np.max(np.abs(vals + vals[::-1])) < 1e-13


def test_arg_gamma_continuous_branch():
    # no 2*pi jumps across a fine sweep at large |y|
    y = np.linspace(5.0, 40.0, 20001)
    vals = arg_gamma_half_line(y)
    assert np.max(np.abs(np.diff(vals))) < 0.02
