"""Double-well potential, classical flow, and regularized actions."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect
from scipy.special import roots_jacobi

import revivalkit
from revivalkit import potential as potential_module
from revivalkit import util
from revivalkit.errors import (
    NonClosingOrbit,
    NumericalError,
    ParameterError,
    ToleranceFailure,
    TopologyError,
)
from revivalkit.potential import (
    canonical_double_well,
    flow_period,
    leading_epsilon,
    lobe_action,
    regularized_action,
    turning_points,
    validate_saddle,
)
from revivalkit.model import ACTION_DELTA, FIT_NODES, QUAD_NODES
from revivalkit.util import BISECT_LEVELS, BISECT_RTOL, BISECT_XTOL, bisect_lockstep, linear_fit


def _lockstep(func, xa, xb, targets):
    """bisect_lockstep on brackets given as lists, with the end values it expects."""
    xa, xb, targets = (np.asarray(v, dtype=float) for v in (xa, xb, targets))
    return bisect_lockstep(func, xa, xb, func(xa) - targets, func(xb) - targets, targets)


def _scipy_bisect(func, a, b, target, **kwargs):
    """scipy.optimize.bisect on one bracket of the elementwise func."""
    return bisect(lambda t: float(func(np.array([t]))[0]) - target, a, b,
                  xtol=BISECT_XTOL, rtol=BISECT_RTOL, **kwargs)


FIT_ENERGIES = ACTION_DELTA * np.cos((2 * np.arange(FIT_NODES) + 1) * np.pi / (2 * FIT_NODES))


class TestCanonicalWell:
    def test_saddle_normalization(self, quartic):
        assert quartic(0.0) == 0.0
        assert abs(quartic.first_derivative(0.0)) <= 1e-12
        assert quartic.second_derivative(0.0) == -2.0

    def test_well_minima(self, quartic):
        x = 1.0 / math.sqrt(2.0)
        assert abs(quartic(x) - (-0.25)) <= 1e-15
        assert abs(quartic(-x) - (-0.25)) <= 1e-15
        assert abs(quartic.first_derivative(x)) <= 1e-15

    def test_confinement_and_boundedness(self, quartic):
        xs = np.linspace(-quartic.domain_halfwidth, quartic.domain_halfwidth, 4001)
        vals = quartic(xs)
        assert np.min(vals) >= -0.25 - 1e-12
        assert quartic(quartic.domain_halfwidth) > 1.0

    def test_validate_saddle_accepts_quartic(self, quartic):
        validate_saddle(quartic)

    def test_validate_saddle_rejects_harmonic(self, harmonic_well):
        with pytest.raises(ParameterError):
            validate_saddle(harmonic_well())

    def test_multiplies_match_powers(self, quartic):
        # V, V' and V'' by multiplies against numpy's and Python's powers, within
        # 2 ulp of max(1, |largest term|): both round the terms before they cancel
        x = np.linspace(-6.0, 6.0, 100001)
        cases = ((quartic.evaluate, lambda x: x**4 - x**2, lambda x: x**4),
                 (quartic.first_derivative, lambda x: 4.0 * x**3 - 2.0 * x, lambda x: 4.0 * abs(x) ** 3),
                 (quartic.second_derivative, lambda x: 12.0 * x**2 - 2.0, lambda x: 12.0 * x**2))
        scalars = [float(s) for s in x[::97]] + [0.0, 1.0 / math.sqrt(2.0), -3.0]
        for got, powers, term in cases:
            tol = 2.0 * np.spacing(np.maximum(1.0, term(x)))
            assert np.all(np.abs(got(x) - powers(x)) <= tol)
            for s in scalars:
                value = got(s)
                assert type(value) is float
                assert abs(value - powers(s)) <= 2.0 * np.spacing(max(1.0, term(s))), s


# the three stage lengths of a Yoshida step, in units of dt
_Y4_COEFFS = (potential_module._Y4_W1, potential_module._Y4_W0, potential_module._Y4_W1)


def _two_force_flow(potential, h, dt=1e-3):
    """flow_period's period and drift from a loop over the three stages, with V'(x)
    evaluated at both ends of every drift."""
    grad = potential.first_derivative
    x0 = float(np.sqrt(h))
    e0 = float(potential.evaluate(x0))

    def energy_error(x, xi):
        return abs(0.5 * xi * xi + float(potential.evaluate(x)) - e0)

    x, xi, t, drift = x0, 0.0, 0.0, 0.0
    for i in itertools.count():
        px, pxi, pt = x, xi, t
        for c in _Y4_COEFFS:
            dtc = c * dt
            xi -= 0.5 * dtc * grad(x)
            x += dtc * xi
            xi -= 0.5 * dtc * grad(x)
        t += dt
        if i % potential_module.DRIFT_STRIDE == 0:
            drift = max(drift, energy_error(x, xi))
        if i > 4 and pxi < 0.0 <= xi:
            slope0, slope1 = -dt * grad(px), -dt * grad(x)
            s = float(bisect_lockstep(
                lambda s: potential_module._hermite(s, pxi, slope0, xi, slope1),
                np.zeros(1), np.ones(1), np.array([pxi]), np.array([xi]), np.zeros(1),
            )[0])
            return pt + s * dt, max(drift, energy_error(x, xi))


class TestFlowPeriod:
    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
    def test_one_force_per_drift(self, quartic, h):
        # three drifts a step, each ending where the next kick starts; the
        # crossing's Hermite slopes reuse the forces at the step's two ends
        calls = []

        def counted(x):
            calls.append(x)
            return quartic.first_derivative(x)

        orbit = flow_period(dataclasses.replace(quartic, first_derivative=counted), h)
        steps = math.floor(orbit.period / 1e-3) + 1
        assert len(calls) <= 3 * steps + 2
        assert (orbit.period, orbit.energy_drift) == _two_force_flow(quartic, h)

    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
    def test_skewed_well_matches_stage_loop(self, skewed, h):
        # the written-out stages against the loop over them, on a well with no reflection symmetry
        orbit = flow_period(skewed, h)
        assert (orbit.period, orbit.energy_drift) == _two_force_flow(skewed, h)

    def test_energy_drift_below_tolerance(self, quartic):
        orbit = flow_period(quartic, 1e-3)
        assert orbit.energy_drift <= 1e-9

    def test_period_refines_under_half_step(self, quartic):
        coarse = flow_period(quartic, 1e-3, dt=1e-3).period
        fine = flow_period(quartic, 1e-3, dt=5e-4).period
        assert abs(coarse - fine) / fine <= 1e-3  # well under the 1% oracle
        assert abs(coarse - fine) / fine <= 1e-2

    def test_log_law_across_sweep(self, quartic):
        hs = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        taus = [flow_period(quartic, h).period for h in hs]
        assert all(b > a for a, b in zip(taus, taus[1:]))  # increasing as h drops
        fit = linear_fit([abs(math.log(h)) for h in hs], taus)
        assert fit.max_abs_residual / fit.slope <= 0.02

    def test_initial_point_is_inner_turning_point(self, quartic):
        orbit = flow_period(quartic, 1e-4)
        x0, xi0 = orbit.initial_point
        assert xi0 == 0.0
        assert abs(quartic(x0) - orbit.energy) <= 1e-15

    def test_non_closing_orbit_raises(self, quartic, monkeypatch):
        monkeypatch.setattr(potential_module, "FLOW_MAX_TIME", 1.0)
        with pytest.raises(NonClosingOrbit):
            flow_period(quartic, 1e-3)

    def test_drift_tolerance_enforced(self, quartic, monkeypatch):
        monkeypatch.setattr(potential_module, "FLOW_DRIFT_TOL", 1e-14)
        with pytest.raises(ToleranceFailure):
            flow_period(quartic, 1e-3, dt=5e-2)

    def test_bad_h_rejected(self, quartic):
        with pytest.raises(ParameterError):
            flow_period(quartic, 2.0)


class TestTurningPoints:
    def test_below_barrier_two_points(self, quartic):
        a, b = turning_points(quartic, -0.05, +1)
        assert 0.0 < a < b
        assert abs(quartic(a) + 0.05) <= 1e-12
        assert abs(quartic(b) + 0.05) <= 1e-12

    def test_above_barrier_from_origin(self, quartic):
        a, b = turning_points(quartic, 0.05, +1)
        assert a == 0.0
        assert abs(quartic(b) - 0.05) <= 1e-12

    def test_left_side_mirrors_right(self, quartic):
        ra, rb = turning_points(quartic, -0.05, +1)
        la, lb = turning_points(quartic, -0.05, -1)
        assert abs(la + rb) <= 1e-12 and abs(lb + ra) <= 1e-12

    def test_below_wells_is_topology_error(self, quartic):
        with pytest.raises(TopologyError):
            turning_points(quartic, -0.3, +1)

    @given(st.floats(min_value=-0.09, max_value=0.09))
    @example(-5e-324)  # V - E is exactly 0 on the scan grid
    @settings(max_examples=40, deadline=None)
    def test_turning_points_lie_on_level_set(self, energy):
        quartic = canonical_double_well()
        a, b = turning_points(quartic, energy, +1)
        lo = a if energy < 0 else b
        assert abs(float(quartic(lo)) - energy) <= 1e-10
        assert abs(float(quartic(b)) - energy) <= 1e-10


class TestActions:
    def test_barrier_action_closed_form(self, quartic):
        # 2 * integral_0^1 sqrt(2(x^2 - x^4)) dx = 2 sqrt(2) / 3
        got = lobe_action(quartic, 0.0, +1)
        assert abs(got - 2.0 * math.sqrt(2.0) / 3.0) <= 1e-13

    def test_quadrature_refinement_oracle(self, quartic):
        for energy in (0.0, -0.03, 0.03):
            coarse = regularized_action(quartic, energy, +1, n=400)
            fine = regularized_action(quartic, energy, +1, n=800)
            assert abs(coarse - fine) <= 1e-6

    def test_epsilon_normalization(self, quartic):
        assert leading_epsilon(quartic, 0.0) == 0.0
        assert abs(leading_epsilon(quartic, 0.01) - 0.01 / math.sqrt(2.0)) <= 1e-15
        # numerical slope at the barrier energy
        d = 1e-6
        slope = (leading_epsilon(quartic, d) - leading_epsilon(quartic, -d)) / (2 * d)
        assert abs(slope - 1.0 / math.sqrt(2.0)) <= 1e-10

    def test_even_potential_symmetric_actions(self, quartic):
        for energy in (-0.06, -0.01, 0.02, 0.08):
            right = regularized_action(quartic, energy, +1)
            left = regularized_action(quartic, energy, -1)
            assert abs(right - left) <= 1e-10

    def test_regularized_action_is_smooth(self, quartic):
        # second divided differences bounded across the window, incl. E = 0
        es = np.array([-0.08, -0.04, -0.02, -0.01, -0.005, 0.005, 0.01, 0.02, 0.04, 0.08])
        vals = np.array([regularized_action(quartic, float(e), +1) for e in es])
        d1 = np.diff(vals) / np.diff(es)
        mid = 0.5 * (es[1:] + es[:-1])
        d2 = np.diff(d1) / np.diff(mid)
        assert np.max(np.abs(d2)) < 50.0

# (alpha, beta) of every rule lobe_action uses, and their mirror images
JACOBI_EXPONENTS = [(0.5, 0.5), (0.5, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 0.5)]


class TestJacobiRule:
    @pytest.mark.parametrize("alpha, beta", JACOBI_EXPONENTS)
    @pytest.mark.parametrize("n", [400, 600, 800])
    def test_nodes_match_scipy(self, n, alpha, beta):
        # scipy's Golub-Welsch rule, kept here as the reference
        u, _, _ = potential_module._jacobi_rule(n, alpha, beta)
        want, _ = roots_jacobi(n, alpha, beta)
        assert np.max(np.abs(u - want)) <= 4 * np.spacing(1.0)

    @pytest.mark.parametrize("n", [400, 600, 800, 2000])
    def test_weights_match_chebyshev_u_rule(self, n):
        # (1/2, 1/2) is Gauss-Chebyshev of the second kind: u_k = cos(k pi / (n+1)),
        # w_k = pi / (n+1) sin^2(k pi / (n+1)); sin is taken on the nearer end's angle.
        # The recurrence's rounding floor is O(n eps) in each weight; scipy's rule is
        # within 2e-9 at n = 600
        k = np.arange(1, n + 1)
        angle = np.minimum(k, n + 1 - k) * np.pi / (n + 1)
        u, wgt, _ = potential_module._jacobi_rule(n, 0.5, 0.5)
        assert np.max(np.abs(u - np.cos(k * np.pi / (n + 1))[::-1])) <= 4 * np.spacing(1.0)
        want = np.pi / (n + 1) * np.sin(angle) ** 2
        assert np.max(np.abs(wgt / want - 1.0)) <= 16 * n * np.finfo(float).eps

    @pytest.mark.parametrize("alpha, beta", JACOBI_EXPONENTS)
    @pytest.mark.parametrize("n", [400, 600, 800, 2000])
    def test_moments_exact(self, n, alpha, beta):
        # integral of (1+u)^m (1-u)^alpha (1+u)^beta = 2^(alpha+beta+m+1) B(alpha+1, beta+m+1);
        # the rule's sums are exact up to their rounding (scipy's rule: 2.7e-13)
        u, wgt, _ = potential_module._jacobi_rule(n, alpha, beta)
        for m in range(9):
            want = float(mpmath.mpf(2) ** (alpha + beta + m + 1) * mpmath.beta(alpha + 1, beta + m + 1))
            assert abs(np.sum(wgt * (1.0 + u) ** m) / want - 1.0) <= 2e-14, m

    def test_no_convergence_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(potential_module, "NEWTON_MAXITER", 2)
        with pytest.raises(NumericalError, match="did not converge"):
            potential_module._jacobi_rule.__wrapped__(600, 0.5, 0.0)


class TestBatchedEnergies:
    @pytest.mark.parametrize("side", [+1, -1])
    @pytest.mark.parametrize(
        "energies", [FIT_ENERGIES, np.array([0.0, -5e-324, -0.05, 0.05, 0.0])],
        ids=["fit-nodes", "mixed"],
    )
    def test_batch_equals_scalar_calls_bitwise(self, quartic, side, energies):
        lo, hi = turning_points(quartic, energies, side)
        vals = regularized_action(quartic, energies, side, QUAD_NODES)
        assert lo.shape == hi.shape == vals.shape == energies.shape
        for i, e in enumerate(energies.tolist()):
            assert turning_points(quartic, e, side) == (lo[i], hi[i])
            assert regularized_action(quartic, e, side, QUAD_NODES) == vals[i]

    def test_scalar_energy_returns_floats(self, quartic):
        assert type(regularized_action(quartic, -0.05, +1)) is float
        assert all(type(v) is float for v in turning_points(quartic, 0.05, -1))

    def test_batch_topology_error_names_the_energy(self, quartic):
        with pytest.raises(TopologyError, match="E=-0.3"):
            turning_points(quartic, np.array([-0.05, -0.3, 0.05]), +1)


class TestLockstepBisection:
    @pytest.mark.parametrize("side", [+1, -1])
    def test_scan_brackets_equal_scalar_bisect(self, quartic, side):
        # left-lobe scans run from high x to low x, so their brackets descend
        energies = np.array([-0.2, -0.05, -1e-6, 1e-6, 0.05])
        xs = side * np.geomspace(1e-12, quartic.domain_halfwidth, 2048)
        brackets = []
        for e in energies:
            inside = quartic(xs) - e <= 0.0
            brackets += [(xs[i], xs[i + 1], e) for i in np.nonzero(inside[:-1] != inside[1:])[0]]
        xa, xb, targets = np.array(brackets).T
        assert np.all((xb < xa) == (side < 0)) and len(xa) >= 7
        got = bisect_lockstep(quartic.evaluate, xa, xb, quartic(xa) - targets,
                              quartic(xb) - targets, targets)
        want = [
            bisect(lambda t: float(quartic(np.array([t]))[0]) - e, a, b,
                   xtol=BISECT_XTOL, rtol=BISECT_RTOL)
            for a, b, e in zip(xa.tolist(), xb.tolist(), targets.tolist())
        ]
        assert got.tolist() == want

    def test_brackets_close_at_every_level_of_one_call(self):
        # halving widths need consecutive step counts, so the brackets of one
        # call close at every level of its walk
        func = lambda x: np.asarray(x, dtype=float)
        xa = np.full(12, 0.1)
        xb = xa + 2.0 ** -np.arange(12)
        targets = xa + (xb - xa) / 3.0
        want = [_scipy_bisect(func, a, b, t, full_output=True)
                for a, b, t in zip(xa.tolist(), xb.tolist(), targets.tolist())]
        assert {r.iterations % BISECT_LEVELS for _, r in want} == set(range(BISECT_LEVELS))
        calls = []
        counted = lambda x: (calls.append(len(x)), func(x))[1]
        assert _lockstep(counted, xa, xb, targets).tolist() == [root for root, _ in want]
        # two end-value calls, then one call per BISECT_LEVELS steps
        steps = max(r.iterations for _, r in want)
        assert len(calls) - 2 <= math.ceil(steps / BISECT_LEVELS) < steps

    def test_exact_zero_on_the_walked_path(self):
        # the midpoints of [0, 1] run 0.5, 0.25, 0.375, 0.3125: the fourth
        # step lands on the first root, while the second bracket runs on
        func = lambda x: np.asarray(x, dtype=float)
        targets = [0.3125, 0.3]
        got = _lockstep(func, [0.0, 0.0], [1.0, 1.0], targets)
        assert got.tolist() == [_scipy_bisect(func, 0.0, 1.0, t) for t in targets]
        assert got[0] == 0.3125

    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_value_off_the_walked_path_is_ignored(self, value):
        # 0.75 is a second-level midpoint of [0, 1]; the walk to 0.3 turns
        # left at 0.5 and never reaches it
        seen = []

        def func(x):
            x = np.asarray(x, dtype=float)
            seen.extend(x.tolist())
            return np.where(x == 0.75, value, x - 0.3)

        got = _lockstep(func, [0.0], [1.0], [0.0])
        assert 0.75 in seen
        assert got.tolist() == [_scipy_bisect(func, 0.0, 1.0, 0.0)]

    def test_nan_on_the_walked_path_raises(self):
        func = lambda x: np.where(np.asarray(x) == 0.25, np.nan, np.asarray(x) - 0.3)
        with pytest.raises(ValueError):
            _scipy_bisect(func, 0.0, 1.0, 0.0)
        with pytest.raises(NumericalError, match="NaN"):
            _lockstep(func, [0.0], [1.0], [0.0])

    def test_descending_brackets(self):
        func = lambda x: np.asarray(x, dtype=float) ** 3
        targets = [0.3**3, 1.0 / 27.0, 0.71, 0.125]
        got = _lockstep(func, [1.0] * 4, [0.0] * 4, targets)
        assert got.tolist() == [_scipy_bisect(func, 1.0, 0.0, t) for t in targets]

    def test_iteration_cap_raises(self):
        # 100 halvings of a 2e20-wide bracket leave it far wider than the tolerance
        func = lambda x: np.asarray(x, dtype=float)
        with pytest.raises(RuntimeError):
            _scipy_bisect(func, -1e20, 1e20, 0.3)
        with pytest.raises(NumericalError, match="1 roots still open after 100"):
            _lockstep(func, [-1e20, 0.0], [1e20, 1.0], [0.3, 0.3])

    def test_cap_takes_fewer_levels_in_the_last_call(self, monkeypatch):
        # this bracket needs 7 steps: a cap of 7 ends on a 2-level call and
        # finds scipy's root, a cap of 6 ends on a 1-level call and fails
        func = lambda x: np.asarray(x, dtype=float)
        a, b, t = 0.1, 0.1 + 1e-13, 0.1 + 3e-14
        want, info = _scipy_bisect(func, a, b, t, maxiter=7, full_output=True)
        assert info.iterations == 7
        monkeypatch.setattr(util, "BISECT_MAXITER", 7)
        assert _lockstep(func, [a], [b], [t]).tolist() == [want]
        monkeypatch.setattr(util, "BISECT_MAXITER", 6)
        with pytest.raises(RuntimeError):
            _scipy_bisect(func, a, b, t, maxiter=6)
        with pytest.raises(NumericalError, match="after 6 bisections"):
            _lockstep(func, [a], [b], [t])

    def test_import_leaves_scipy_optimize_out(self):
        src = os.path.dirname(os.path.dirname(revivalkit.__file__))
        code = "import sys, revivalkit; print('scipy.optimize' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"
