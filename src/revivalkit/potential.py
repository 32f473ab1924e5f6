"""Double-well potentials and the classical mechanics attached to them.

Covers the confining wells with a non-degenerate barrier top at x = 0,
Hamiltonian flow with period detection near the saddle, and the
regularized action integrals of the two lobes of the level sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_jacobi

from .errors import (
    NonClosingOrbit,
    ParameterError,
    ToleranceFailure,
    TopologyError,
)

Array = np.ndarray


@dataclass(frozen=True)
class Potential:
    """A confining potential with a single barrier top at the origin."""

    evaluate: Callable[[Array], Array]
    first_derivative: Callable[[Array], Array]
    second_derivative: Callable[[Array], Array]
    descriptor: str
    domain_halfwidth: float
    even: bool = False

    def __call__(self, x):
        return self.evaluate(x)

    @property
    def curvature_scale(self) -> float:
        """sqrt(-V''(0)); the barrier-top instability rate."""
        return float(np.sqrt(-self.second_derivative(0.0)))


def canonical_double_well() -> Potential:
    """V(x) = x^4 - x^2; wells at +-1/sqrt(2), barrier top V(0) = 0."""
    return Potential(
        evaluate=lambda x: x**4 - x**2,
        first_derivative=lambda x: 4.0 * x**3 - 2.0 * x,
        second_derivative=lambda x: 12.0 * x**2 - 2.0,
        descriptor="quartic-double-well",
        domain_halfwidth=3.0,
        even=True,
    )


def harmonic_well(omega: float = 1.0) -> Potential:
    """V(x) = omega^2 x^2 / 2.  No barrier top; oracle for the grid solver."""
    return Potential(
        evaluate=lambda x: 0.5 * omega**2 * x**2,
        first_derivative=lambda x: omega**2 * x,
        second_derivative=lambda x: omega**2 + 0.0 * x,
        descriptor=f"harmonic(omega={omega:g})",
        domain_halfwidth=3.0,
        even=True,
    )


def validate_saddle(potential: Potential, tol: float = 1e-12) -> None:
    """Check the barrier-top normalization V(0)=0, V'(0)=0, V''(0)<0."""
    v0 = float(potential.evaluate(0.0))
    d0 = float(potential.first_derivative(0.0))
    c0 = float(potential.second_derivative(0.0))
    if abs(v0) > tol or abs(d0) > tol:
        raise ParameterError(
            f"potential {potential.descriptor!r}: barrier top must sit at the "
            f"origin with V(0)=V'(0)=0 (got V(0)={v0:g}, V'(0)={d0:g})"
        )
    if not c0 < 0.0:
        raise ParameterError(
            f"potential {potential.descriptor!r}: V''(0) must be negative "
            f"(got {c0:g})"
        )
    L = potential.domain_halfwidth
    if not (potential.evaluate(L) > 1.0 and potential.evaluate(-L) > 1.0):
        raise ParameterError(
            f"potential {potential.descriptor!r}: confinement V(+-L) > 1 "
            f"fails at L={L:g}"
        )


@dataclass(frozen=True)
class ClassicalOrbitResult:
    """Closed orbit of the classical Hamiltonian xi^2/2 + V(x)."""

    energy: float
    initial_point: tuple[float, float]
    period: float
    energy_drift: float


# Yoshida splitting coefficients (fourth-order symplectic composition).
_Y4_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y4_W0 = -(2.0 ** (1.0 / 3.0)) * _Y4_W1
_Y4_COEFFS = (_Y4_W1, _Y4_W0, _Y4_W1)


def flow_period(
    potential: Potential,
    h: float,
    dt: float = 1e-3,
    max_time: float = 200.0,
    drift_tol: float = 1e-9,
    closure_tol: float = 1e-6,
    sample_stride: int = 64,
) -> ClassicalOrbitResult:
    """Integrate the flow from (sqrt(h), 0) until its first return.

    The start point is the inner turning point of a right-lobe orbit, so
    the return is detected as the first sign change of xi from negative
    to positive, refined by bisection on a cubic Hermite model of xi(t).
    """
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h must lie in (0, 1), got {h:g}")
    grad = potential.first_derivative
    x0 = float(np.sqrt(h))
    e0 = 0.5 * 0.0 + float(potential.evaluate(x0))

    def step(x: float, xi: float, tau: float) -> tuple[float, float]:
        for c in _Y4_COEFFS:
            dtc = c * tau
            xi -= 0.5 * dtc * grad(x)
            x += dtc * xi
            xi -= 0.5 * dtc * grad(x)
        return x, xi

    x, xi, t = x0, 0.0, 0.0
    max_drift = 0.0
    n_steps = int(np.ceil(max_time / dt))
    for i in range(n_steps):
        px, pxi, pt = x, xi, t
        x, xi = step(x, xi, dt)
        t += dt
        if i % sample_stride == 0:
            max_drift = max(
                max_drift, abs(0.5 * xi * xi + float(potential.evaluate(x)) - e0)
            )
        if i > 4 and pxi < 0.0 <= xi:
            d0, d1 = -grad(px), -grad(x)

            def xi_model(s: float) -> float:
                h00 = 2 * s**3 - 3 * s**2 + 1
                h10 = s**3 - 2 * s**2 + s
                h01 = -2 * s**3 + 3 * s**2
                h11 = s**3 - s**2
                return h00 * pxi + h10 * dt * d0 + h01 * xi + h11 * dt * d1

            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if xi_model(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            s = 0.5 * (lo + hi)
            period = pt + s * dt
            h00 = 2 * s**3 - 3 * s**2 + 1
            h10 = s**3 - 2 * s**2 + s
            h01 = -2 * s**3 + 3 * s**2
            h11 = s**3 - s**2
            x_cross = h00 * px + h10 * dt * pxi + h01 * x + h11 * dt * xi
            drift = max(
                max_drift, abs(0.5 * xi * xi + float(potential.evaluate(x)) - e0)
            )
            if drift > drift_tol:
                raise ToleranceFailure(
                    f"energy drift {drift:.3e} exceeds {drift_tol:.3e}"
                )
            if abs(x_cross - x0) > closure_tol * max(1.0, abs(x0)):
                raise ToleranceFailure(
                    f"orbit closes {abs(x_cross - x0):.3e} away from its "
                    f"start (tolerance {closure_tol:.3e})"
                )
            return ClassicalOrbitResult(
                energy=e0,
                initial_point=(x0, 0.0),
                period=period,
                energy_drift=drift,
            )
    raise NonClosingOrbit(f"no return within t={max_time:g} (h={h:g})")


def turning_points(potential: Potential, energy: float, side: int) -> tuple[float, float]:
    """Bracket the x-interval of one half of the level set V <= energy.

    side=+1 gives the right lobe, side=-1 the left.  For energy >= 0 the
    inner edge is the origin (the level curve passes over the barrier).
    """
    L = potential.domain_halfwidth
    f = lambda x: float(potential.evaluate(x)) - energy
    # inner turning point sits near sqrt(2|E|)/w; start the scan below it
    start = 1e-12 if energy >= 0.0 else min(1e-12, 5e-3 * math.sqrt(abs(energy)))
    xs = side * np.geomspace(start, L, 2048)
    # a sample with V = E exactly counts as inside, so + 0 - still flips once
    inside = np.asarray(potential.evaluate(xs), dtype=float) - energy <= 0.0
    flips = np.nonzero(inside[:-1] != inside[1:])[0]
    if energy >= 0.0:
        if len(flips) < 1 or f(0.0) > 0.0:
            raise TopologyError(
                f"no outer turning point on side {side} at E={energy:g}"
            )
        outer = brentq(f, xs[flips[-1]], xs[flips[-1] + 1], xtol=1e-15)
        return (0.0, float(outer)) if side > 0 else (float(outer), 0.0)
    if len(flips) < 2:
        raise TopologyError(
            f"expected two turning points on side {side} at E={energy:g}"
        )
    a = brentq(f, xs[flips[0]], xs[flips[0] + 1], xtol=1e-15)
    b = brentq(f, xs[flips[-1]], xs[flips[-1] + 1], xtol=1e-15)
    lo, hi = sorted((float(a), float(b)))
    return lo, hi


@functools.lru_cache(maxsize=16)
def _jacobi_rule(n: int, alpha: float, beta: float) -> tuple[Array, Array]:
    """Gauss-Jacobi nodes and weights, computed once per rule and read-only."""
    u, wgt = roots_jacobi(n, alpha, beta)
    u.flags.writeable = False
    wgt.flags.writeable = False
    return u, wgt


def _sqrt_weighted_integral(
    integrand_sq: Callable[[Array], Array],
    a: float,
    b: float,
    left_power: float,
    right_power: float,
    n: int,
) -> float:
    """integral of sqrt(integrand_sq) over [a, b].

    integrand_sq vanishes like (x-a)^(2*left_power) at a and
    (b-x)^(2*right_power) at b; the zeros are absorbed into a
    Gauss-Jacobi rule so the quadrature sees a smooth factor.
    """
    u, wgt = _jacobi_rule(n, right_power, left_power)
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + rad * u
    weight = (1.0 - u) ** (2.0 * right_power) * (1.0 + u) ** (2.0 * left_power)
    smooth = integrand_sq(x) / (rad ** (2.0 * (left_power + right_power)) * weight)
    return rad ** (1.0 + left_power + right_power) * float(
        np.sum(wgt * np.sqrt(np.maximum(smooth, 0.0)))
    )


def lobe_action(potential: Potential, energy: float, side: int, n: int = 400) -> float:
    """Action of one lobe: 2 * integral of sqrt(2(E - V)) over the lobe.

    For energy >= 0 this is the half of the closed orbit with
    side * x >= 0 (the level curve crosses the barrier top).
    """
    a, b = turning_points(potential, energy, side)
    f2 = lambda x: 2.0 * (energy - np.asarray(potential.evaluate(x), dtype=float))
    if energy < 0.0:
        val = _sqrt_weighted_integral(f2, a, b, 0.5, 0.5, n)
    elif energy == 0.0:
        # the barrier-top end has a linear zero, not a square-root one
        lp, rp = (1.0, 0.5) if side > 0 else (0.5, 1.0)
        val = _sqrt_weighted_integral(f2, a, b, lp, rp, n)
    else:
        lp, rp = (0.0, 0.5) if side > 0 else (0.5, 0.0)
        val = _sqrt_weighted_integral(f2, a, b, lp, rp, n)
    return 2.0 * val


def leading_epsilon(potential: Potential, energy: float) -> float:
    """Leading-order normal-form coordinate E / sqrt(-V''(0))."""
    return energy / potential.curvature_scale


def regularized_action(
    potential: Potential, energy: float, side: int, n: int = 400
) -> float:
    """Lobe action with its log-singular part at E = 0 removed.

    The compensator eps0(E) (ln(|E|/w) - 1), w = sqrt(-V''(0)), leaves a
    function with a continuous first derivative across E = 0 and is
    normalized so that far from the barrier the quantization phases
    reduce to the plain action rules of a single well (below) and of the
    full orbit (above); cross-validation against the grid oracle pins
    this constant.
    """
    raw = lobe_action(potential, energy, side, n)
    if energy == 0.0:
        return raw
    w = potential.curvature_scale
    eps = leading_epsilon(potential, energy)
    return raw + eps * (float(np.log(abs(energy) / w)) - 1.0)

