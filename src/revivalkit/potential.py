"""Double-well potentials and the classical mechanics attached to them.

Covers the confining wells with a non-degenerate barrier top at x = 0,
Hamiltonian flow with period detection near the saddle, and the
regularized action integrals of the two lobes of the level sets.  The
turning points and actions take a whole array of energies in one pass;
every root, here and in the model, comes from util.bisect_lockstep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NonClosingOrbit,
    NumericalError,
    ParameterError,
    ToleranceFailure,
    TopologyError,
)
from .util import bisect_lockstep

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


def _quartic(x):
    x2 = x * x
    return x2 * x2 - x2


def canonical_double_well() -> Potential:
    """V(x) = x^4 - x^2; wells at +-1/sqrt(2), barrier top V(0) = 0.

    V, V' and V'' are written with multiplies, for scalars and arrays alike:
    numpy's general power is several times slower on the grid oracle's nodes.
    """
    return Potential(
        evaluate=_quartic,
        first_derivative=lambda x: (4.0 * x * x - 2.0) * x,
        second_derivative=lambda x: 12.0 * x * x - 2.0,
        descriptor="quartic-double-well",
        domain_halfwidth=3.0,
        even=True,
    )


def validate_saddle(potential: Potential) -> None:
    """Check the barrier-top normalization V(0)=0, V'(0)=0, V''(0)<0."""
    v0 = float(potential.evaluate(0.0))
    d0 = float(potential.first_derivative(0.0))
    c0 = float(potential.second_derivative(0.0))
    if abs(v0) > SADDLE_TOL or abs(d0) > SADDLE_TOL:
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


# V(0) and V'(0) must vanish within SADDLE_TOL; the orbit must close within
# CLOSURE_TOL * max(1, x0) of its start, by FLOW_MAX_TIME; the energy drift,
# sampled every DRIFT_STRIDE steps and at the return, within FLOW_DRIFT_TOL
SADDLE_TOL, CLOSURE_TOL, DRIFT_STRIDE = 1e-12, 1e-6, 64
FLOW_MAX_TIME, FLOW_DRIFT_TOL = 200.0, 1e-9


def _hermite(s, y0, d0, y1, d1):
    """Cubic Hermite interpolant on [0, 1] with end values y0, y1 and end slopes d0, d1."""
    return (
        (2 * s**3 - 3 * s**2 + 1) * y0
        + (s**3 - 2 * s**2 + s) * d0
        + (-2 * s**3 + 3 * s**2) * y1
        + (s**3 - s**2) * d1
    )


def flow_period(
    potential: Potential,
    h: float,
    dt: float = 1e-3,
) -> ClassicalOrbitResult:
    """Integrate the flow from (sqrt(h), 0) until its first return.

    Each step of length dt is Yoshida's fourth-order composition of three
    kick-drift-kick stages of lengths W1 dt, W0 dt, W1 dt, written out in
    the loop.  The start point is the inner turning point of a right-lobe
    orbit, so the return is detected as the first sign change of xi from
    negative to positive, refined by bisection on a cubic Hermite model of
    xi(t).
    """
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h must lie in (0, 1), got {h:g}")
    grad = potential.first_derivative
    x0 = float(np.sqrt(h))
    e0 = float(potential.evaluate(x0))
    # drift lengths W dt and half-kicks 0.5 W dt of the three stages
    d1, d0 = _Y4_W1 * dt, _Y4_W0 * dt
    k1, k0 = 0.5 * d1, 0.5 * d0

    def energy_error(x: float, xi: float) -> float:
        return abs(0.5 * xi * xi + float(potential.evaluate(x)) - e0)

    x, xi, t, force = x0, 0.0, 0.0, grad(x0)
    max_drift = 0.0
    n_steps = int(np.ceil(FLOW_MAX_TIME / dt))
    for i in range(n_steps):
        px, pxi, pt, pforce = x, xi, t, force
        # each drift ends where the next kick starts: V'(x) is evaluated once per drift
        xi -= k1 * force
        x += d1 * xi
        force = grad(x)
        xi -= k1 * force
        xi -= k0 * force
        x += d0 * xi
        force = grad(x)
        xi -= k0 * force
        xi -= k1 * force
        x += d1 * xi
        force = grad(x)
        xi -= k1 * force
        t += dt
        if i % DRIFT_STRIDE == 0:
            max_drift = max(max_drift, energy_error(x, xi))
        if i > 4 and pxi < 0.0 <= xi:
            # xi' = -V'(x); s in [0, 1] is the fraction of the step
            slope0, slope1 = -dt * pforce, -dt * force
            s = float(bisect_lockstep(
                lambda s: _hermite(s, pxi, slope0, xi, slope1),
                np.zeros(1), np.ones(1), np.array([pxi]), np.array([xi]), np.zeros(1),
            )[0])
            x_cross = _hermite(s, px, dt * pxi, x, dt * xi)
            drift = max(max_drift, energy_error(x, xi))
            if drift > FLOW_DRIFT_TOL:
                raise ToleranceFailure(f"energy drift {drift:.3e} exceeds {FLOW_DRIFT_TOL:.3e}")
            if abs(x_cross - x0) > CLOSURE_TOL * max(1.0, abs(x0)):
                raise ToleranceFailure(
                    f"orbit closes {abs(x_cross - x0):.3e} away from its "
                    f"start (tolerance {CLOSURE_TOL:.3e})"
                )
            return ClassicalOrbitResult(
                energy=e0, initial_point=(x0, 0.0), period=pt + s * dt, energy_drift=drift
            )
    raise NonClosingOrbit(f"no return within t={FLOW_MAX_TIME:g} (h={h:g})")


def _like(energy, values):
    """values as a float for a scalar energy, as the array for an array of energies."""
    return values if np.ndim(energy) else float(values[0])


def turning_points(potential: Potential, energy, side: int):
    """Bracket the x-interval of one half of the level set V <= energy.

    side=+1 gives the right lobe, side=-1 the left.  For energy >= 0 the
    inner edge is the origin (the level curve passes over the barrier).
    energy may be a 1-d array: each energy keeps its own scan grid and
    all turning points are bisected in one lockstep call, so every entry
    equals the scalar call's.  Returns (lo, hi), as floats or as arrays.
    """
    e = np.atleast_1d(np.asarray(energy, dtype=float))
    below = e < 0.0
    # inner turning point sits near sqrt(2|E|)/w; start the scan below it
    start = np.where(below, np.minimum(1e-12, 5e-3 * np.sqrt(np.abs(e))), 1e-12)
    xs = side * np.geomspace(start, potential.domain_halfwidth, 2048, axis=-1)
    fs = np.asarray(potential.evaluate(xs), dtype=float) - e[:, None]
    # a sample with V = E exactly counts as inside, so + 0 - still flips once
    inside = fs <= 0.0
    flips = inside[:, :-1] != inside[:, 1:]
    n_flips = flips.sum(axis=1)
    over_top = float(potential.evaluate(0.0)) > e
    bad = np.where(below, n_flips < 2, (n_flips < 1) | over_top)
    if np.any(bad):
        e_bad = float(e[np.argmax(bad)])
        if e_bad >= 0.0:
            raise TopologyError(f"no outer turning point on side {side} at E={e_bad:g}")
        raise TopologyError(f"expected two turning points on side {side} at E={e_bad:g}")
    # outer turning points in the last flip of every scan, inner ones in the
    # first flip of the scans below the barrier
    first = np.argmax(flips, axis=1)
    last = flips.shape[1] - 1 - np.argmax(flips[:, ::-1], axis=1)
    rows = np.concatenate([np.arange(len(e)), np.nonzero(below)[0]])
    cols = np.concatenate([last, first[below]])
    roots = bisect_lockstep(
        potential.evaluate, xs[rows, cols], xs[rows, cols + 1],
        fs[rows, cols], fs[rows, cols + 1], e[rows],
    )
    outer, inner = roots[: len(e)], np.zeros_like(e)
    inner[below] = roots[len(e):]
    lo, hi = (inner, outer) if side > 0 else (outer, inner)
    return _like(energy, lo), _like(energy, hi)


def _jacobi_pair(n: int, alpha: Array, beta: Array, t: Array) -> tuple[Array, Array]:
    """P_n and P_{n-1} of the Jacobi polynomials P_k^(alpha, beta) at u = 1 - t.

    The three-term recurrence runs in differences D_k = P_k - P_{k-1}
    (Reinsch's form): D_k = (e_k - f_k t) P_{k-1} + d_k D_{k-1}.  Its
    coefficients see t, not u = 1 - t, so near u = 1, where t is small, the
    values keep t's relative precision.  alpha, beta broadcast against t.
    """
    k = np.arange(2, n + 1, dtype=float)[:, None, None]
    c = 2.0 * k + alpha + beta
    den = 2.0 * k * (k + alpha + beta) * (c - 2.0)
    e = 2.0 * alpha * (alpha * (c - 1.0) - beta) / den
    f = (c - 2.0) * (c - 1.0) * c / den
    d = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * c / den
    p, dp = np.ones_like(t), alpha - 0.5 * (alpha + beta + 2.0) * t
    for ek, fk, dk in zip(e, f, d):
        p = p + dp
        dp = (ek - fk * t) * p + dk * dp
    return p + dp, p


# Newton steps in theta stop once every step is below NEWTON_RTOL * theta
NEWTON_RTOL, NEWTON_MAXITER = 1e-10, 12


@functools.lru_cache(maxsize=16)
def _jacobi_rule(n: int, alpha: float, beta: float) -> tuple[Array, Array, Array]:
    """Gauss-Jacobi nodes and weights for (1-u)^alpha (1+u)^beta, with the
    square of that weight at the nodes; computed once per rule and read-only.

    All nodes u = cos(theta) are found at once by Newton's method in theta,
    from the asymptotic first guesses of Hale and Townsend (SIAM J. Sci.
    Comput. 35, 2013).  The half nearer u = 1 is solved on P_n^(alpha, beta)
    and the half nearer u = -1 on P_n^(beta, alpha)(-u) at pi - theta, each
    at t = 2 sin^2(theta / 2): every node is resolved relative to its nearer
    end.  At a root (1 - u^2) P_n' is a constant times P_{n-1}, so the
    weights sin^2 theta / ((1 - u^2) P_n')^2 are sin^2 theta / P_{n-1}^2
    normalized to mu_0 = 2^(alpha+beta+1) B(alpha+1, beta+1).
    """
    ab = alpha + beta
    rho = n + 0.5 * (ab + 1.0)
    phi = (np.arange(1, n + 1) + 0.5 * alpha - 0.25) * np.pi / rho
    guess = phi + ((0.25 - alpha**2) / np.tan(0.5 * phi)
                   - (0.25 - beta**2) * np.tan(0.5 * phi)) / (4.0 * rho**2)
    # row 0 from u = 1 inward, row 1 from u = -1 inward; an odd n's middle
    # node sits in both rows
    half = (n + 1) // 2
    theta = np.stack([guess[:half], np.pi - guess[::-1][:half]])
    a, b = np.array([[alpha], [beta]]), np.array([[beta], [alpha]])
    c = 2.0 * n + ab
    converged = False
    for _ in range(NEWTON_MAXITER):
        t = 2.0 * np.sin(0.5 * theta) ** 2
        pn, pm = _jacobi_pair(n, a, b, t)
        if converged:
            break
        # (1 - u^2) P_n'(u) at u = 1 - t, from P_n and P_{n-1}
        slope = (n * (a - b - c * (1.0 - t)) * pn + 2.0 * (n + a) * (n + b) * pm) / c
        step = pn * np.sin(theta) / slope
        theta = theta + step
        converged = bool(np.all(np.abs(step) <= NEWTON_RTOL * theta))
    else:
        raise NumericalError(f"Gauss-Jacobi nodes ({n}, {alpha:g}, {beta:g}) did not converge")
    wgt = (np.sin(theta) / pm) ** 2
    u = np.concatenate([-np.cos(theta[1, : n - half]), np.cos(theta[0, ::-1])])
    wgt = np.concatenate([wgt[1, : n - half], wgt[0, ::-1]])
    mu0 = math.exp((ab + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
                   + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0))
    wgt *= mu0 / np.sum(wgt)
    weight_sq = (1.0 - u) ** (2.0 * alpha) * (1.0 + u) ** (2.0 * beta)
    for arr in (u, wgt, weight_sq):
        arr.flags.writeable = False
    return u, wgt, weight_sq


# exponent of the zero of 2(E - V) at the inner end of a lobe below, at and
# above the barrier energy: a turning point, the barrier top, the origin
_INNER_POWER = (0.5, 1.0, 0.0)


def lobe_action(potential: Potential, energy, side: int, n: int = 400):
    """Action of one lobe: 2 * integral of sqrt(2(E - V)) over the lobe.

    For energy >= 0 this is the half of the closed orbit with
    side * x >= 0 (the level curve crosses the barrier top).  The zeros
    of 2(E - V) at the lobe ends are absorbed into a Gauss-Jacobi rule,
    so the quadrature sees a smooth factor.  energy may be a 1-d array:
    all energies are integrated in one (energies x n) pass.
    """
    e = np.atleast_1d(np.asarray(energy, dtype=float))
    a, b = turning_points(potential, e, side)
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    kind = np.sign(e).astype(int) + 1
    u, wgt, weight_sq = np.empty((3, len(e), n))
    rad_den, rad_scale = np.empty((2, len(e)))
    for k in np.unique(kind).tolist():
        rows = kind == k
        # exponents of the zeros at the right end b and at the left end a
        alpha, beta = (0.5, _INNER_POWER[k]) if side > 0 else (_INNER_POWER[k], 0.5)
        u[rows], wgt[rows], weight_sq[rows] = _jacobi_rule(n, alpha, beta)
        rad_den[rows] = rad[rows] ** (2.0 * (alpha + beta))
        rad_scale[rows] = rad[rows] ** (1.0 + alpha + beta)
    x = mid[:, None] + rad[:, None] * u
    f2 = 2.0 * (e[:, None] - np.asarray(potential.evaluate(x), dtype=float))
    smooth = f2 / (rad_den[:, None] * weight_sq)
    val = rad_scale * np.sum(wgt * np.sqrt(np.maximum(smooth, 0.0)), axis=1)
    return _like(energy, 2.0 * val)


def leading_epsilon(potential: Potential, energy: float) -> float:
    """Leading-order normal-form coordinate E / sqrt(-V''(0))."""
    return energy / potential.curvature_scale


def regularized_action(potential: Potential, energy, side: int, n: int = 400):
    """Lobe action with its log-singular part at E = 0 removed.

    The compensator eps0(E) (ln(|E|/w) - 1), w = sqrt(-V''(0)), leaves a
    function with a continuous first derivative across E = 0 and is
    normalized so that far from the barrier the quantization phases
    reduce to the plain action rules of a single well (below) and of the
    full orbit (above); cross-validation against the grid oracle pins
    this constant.  energy may be a 1-d array, as in lobe_action.
    """
    e = np.atleast_1d(np.asarray(energy, dtype=float))
    raw = lobe_action(potential, e, side, n)
    w = potential.curvature_scale
    # the compensator vanishes at E = 0; |E| -> w there keeps its log finite
    log_e = np.log(np.where(e == 0.0, w, np.abs(e)) / w)
    return _like(energy, raw + leading_epsilon(potential, e) * (log_e - 1.0))
