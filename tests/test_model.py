"""Spectral model: phase functions, derivatives, families, ladder."""

import dataclasses
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial.chebyshev import chebval
from scipy.optimize import bisect

import revivalkit
from revivalkit import model as model_module
from revivalkit.dynamics import PhaseData
from revivalkit.errors import (
    DomainError,
    MonotonicityError,
    NumericalError,
    ParameterError,
    SupportError,
)
from revivalkit.model import (
    SpectralModel,
    interleaving_violations,
    ladder_point,
    select_alpha_near,
)
from revivalkit.packet import RADIUS_FACTOR, PacketSpec, select_centers
from revivalkit.util import linear_fit

TWO_PI = 2.0 * math.pi
# skewed well, h = 1e-4: the sum/difference table against two lobe fits
PHASE_SUM_DIFF_BOUND = 5e-11  # rad
ROOT_SUM_DIFF_BOUND = 5e-12  # in lambda
# panel table against the global interpolant, per derivative order 0..3,
# relative to the order's largest value, on a dense grid over [-delta, delta]
# and at the panel nodes; measured on both wells: 4.0e-16, 4.9e-16, 1.2e-13,
# 2.4e-13 (sum) and 4.8e-16, 1.7e-14, 3.1e-13, 2.1e-13 (difference, whose slope
# is small against its coefficients, so its float64 reference is noisier)
PANEL_BOUND = {"total": (1e-15, 1e-15, 5e-13, 5e-13), "diff": (1e-15, 5e-14, 5e-13, 5e-13)}


def _scalar_solve_on(self, func, lam_lo, lam_hi, n_grid=4097):
    """Reference root solver: one scipy.optimize.bisect per first bracket hit.

    The indices are enumerated as _solve_on does: one k past each end of
    the sampled range, then every k whose target 2 pi k lies in it.
    """
    grid = np.linspace(lam_lo, lam_hi, n_grid)
    fv = func(grid)
    lo, hi = min(fv[0], fv[-1]), max(fv[0], fv[-1])
    roots = {}
    for k in range(math.ceil(lo / TWO_PI) - 1, math.floor(hi / TWO_PI) + 2):
        target = TWO_PI * k
        if not lo <= target <= hi:
            continue
        i = np.nonzero((fv[:-1] - target) * (fv[1:] - target) <= 0.0)[0][0]
        roots[k] = bisect(
            lambda t: float(func(np.array([t]))[0]) - target,
            float(grid[i]), float(grid[i + 1]), xtol=1e-15, rtol=8.9e-16,
        )
    return roots


def _node_values(potential):
    """theta_+ + theta_- and theta_+ - theta_- (None if even) at the FIT_NODES table nodes."""
    nodes = model_module.ACTION_DELTA * np.cos(
        (2 * np.arange(model_module.FIT_NODES) + 1) * np.pi / (2 * model_module.FIT_NODES)
    )
    plus = model_module.regularized_action(potential, nodes, +1, model_module.QUAD_NODES)
    if potential.even:
        return nodes, 2.0 * plus, None
    minus = model_module.regularized_action(potential, nodes, -1, model_module.QUAD_NODES)
    return nodes, plus + minus, plus - minus


class _GlobalSeries:
    """The global degree-159 interpolant and its derivatives, with PanelSeries' calls."""

    def __init__(self, series):
        self.series = series

    def __call__(self, energy):
        return self.series[0](energy)

    def derivatives(self, energy):
        return np.stack([f(energy) for f in self.series[1:]])


@pytest.fixture(scope="module")
def global_tables(quartic, skewed):
    """Per well: the global interpolants and an ActionTable that evaluates them."""
    out = {}
    for potential in (quartic, skewed):
        _, total, diff = _node_values(potential)
        delta = model_module.ACTION_DELTA
        series = (model_module._interpolant(total, delta),
                  None if diff is None else model_module._interpolant(diff, delta))
        table = model_module.ActionTable(delta, _GlobalSeries(series[0]),
                                         None if diff is None else _GlobalSeries(series[1]), 0.0)
        out[potential.descriptor] = series, table
    return out


class TestActionTable:
    def test_one_batched_action_call_per_lobe_side(self, quartic, skewed, monkeypatch):
        sides, fits = [], []
        real = model_module.regularized_action

        def counted(potential, energies, side, n):
            sides.append(side)
            assert energies.shape == (model_module.FIT_NODES,)
            return real(potential, energies, side, n)

        real_interpolant = model_module._interpolant

        def counted_interpolant(values, delta):
            fits.append(real_interpolant(values, delta))
            return fits[-1]

        # looked up on the model module at call time, as the benchmark traces it
        monkeypatch.setattr(model_module, "regularized_action", counted)
        monkeypatch.setattr(model_module, "_interpolant", counted_interpolant)
        monkeypatch.setattr(model_module, "_TABLE_CACHE", {})
        skewed_table = model_module.build_action_table(skewed)
        assert sides == [+1, -1] and len(fits) == 2  # the sum and the difference
        even_table = model_module.build_action_table(quartic)
        # an even potential makes one interpolant and has no difference
        assert sides == [+1, -1, +1] and len(fits) == 3 and even_table.diff is None
        for series in fits:
            assert [f.coef.tolist() for f in series[1:]] == [
                series[0].deriv(k).coef.tolist() for k in (1, 2, 3)
            ]
        # the panels of every order come from those series: at each panel's
        # own nodes they agree with them to the table's chop bound and rounding
        for family, table, series in (("total", skewed_table.total, fits[0]),
                                      ("diff", skewed_table.diff, fits[1]),
                                      ("total", even_table.total, fits[2])):
            n = model_module.PANEL_NODES
            t = np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n))
            nodes = (table.centre[:, None] + table.halfwidth[:, None] * t).ravel()
            got = np.vstack([table(nodes)[None], table.derivatives(nodes)])
            for order, f in enumerate(series):
                want = f(nodes)
                bound = PANEL_BOUND[family][order] * np.max(np.abs(want))
                assert np.max(np.abs(got[order] - want)) <= bound

    def test_sum_and_difference_fits_match_two_lobe_fits(self, skewed):
        # the non-even table interpolates theta_+ +- theta_- instead of adding
        # two lobe interpolants: the same phases and roots up to their rounding
        table = model_module.build_action_table(skewed)
        nodes, _, _ = _node_values(skewed)
        lobes = []
        for side in (+1, -1):
            vals = model_module.regularized_action(skewed, nodes, side, model_module.QUAD_NODES)
            lobes.append(model_module._interpolant(vals, table.delta))
        plus, minus = lobes
        new = SpectralModel(skewed, 1e-4)
        old = SpectralModel(skewed, 1e-4)
        old.table = model_module._panel_table(
            table.delta,
            tuple(p + m for p, m in zip(plus, minus)),
            tuple(p - m for p, m in zip(plus, minus)),
        )
        lam = np.linspace(-20.0, 20.0, 4001)
        for family in ("alpha", "beta"):
            phase_new, phase_old = new._phase(family), old._phase(family)
            assert np.max(np.abs(phase_new(lam) - phase_old(lam))) <= PHASE_SUM_DIFF_BOUND
            for got, want in zip(new._derivatives(lam, family), old._derivatives(lam, family)):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        for got, want in (
            (new.solve_families().alpha_lambdas, old.solve_families().alpha_lambdas),
            (new.solve_families().beta_lambdas, old.solve_families().beta_lambdas),
            (new.solve_ladder(-0.4, 15), old.solve_ladder(-0.4, 15)),
        ):
            assert got.keys() == want.keys()
            assert max(abs(got[k] - want[k]) for k in got) <= ROOT_SUM_DIFF_BOUND

    @pytest.mark.parametrize("well", ["quartic", "skewed"])
    def test_interpolants_reproduce_the_node_values(self, request, well, global_tables):
        # the global interpolants, and the panels re-expanded from them
        potential = request.getfixturevalue(well)
        nodes, total, diff = _node_values(potential)
        for table in (model_module.build_action_table(potential),
                      global_tables[potential.descriptor][1]):
            assert np.max(np.abs(table.total(nodes) - total)) <= 1e-14
            if diff is not None:
                assert np.max(np.abs(table.diff(nodes) - diff)) <= 1e-14

    def test_model_path_loads_no_scipy(self):
        # scipy serves the grid oracle alone: import, table and a ladder point stay numpy-only
        src = os.path.dirname(os.path.dirname(revivalkit.__file__))
        code = (
            "import sys, revivalkit\n"
            "from revivalkit.model import build_action_table, ladder_point\n"
            "from revivalkit.packet import PacketSpec\n"
            "from revivalkit.potential import canonical_double_well\n"
            "build_action_table(canonical_double_well())\n"
            "ladder_point(canonical_double_well(), PacketSpec(energy=-0.5, gamma=0.3, gamma_prime=0.8, h=1e-8))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestPanelTable:
    @pytest.mark.parametrize("well", ["quartic", "skewed"])
    def test_panels_match_the_global_interpolant(self, request, well, global_tables):
        potential = request.getfixturevalue(well)
        table = model_module.build_action_table(potential)
        series, _ = global_tables[potential.descriptor]
        delta = table.delta
        energy = np.concatenate([np.linspace(-delta, delta, 20001), [0.0, 1e-12, -1e-12],
                                 table.total.breaks])
        near = np.abs(energy) <= 1e-3
        for family, panels, glob in (("total", table.total, series[0]),
                                     ("diff", table.diff, series[1])):
            if glob is None:
                continue
            got = np.vstack([panels(energy)[None], panels.derivatives(energy)])
            for order, f in enumerate(glob):
                want = f(energy)
                err = np.abs(got[order] - want)
                assert np.max(err) <= PANEL_BOUND[family][order] * np.max(np.abs(want)), (family, order)
            # near the barrier top, where 1/h magnifies it, each value is within
            # two ulp of the action sum (4.4e-16), as close as the two float64
            # Clenshaw passes can agree: each is off the exact interpolant by ~1 ulp
            ulp = np.spacing(np.abs(series[0][0](energy[near])))
            assert np.all(np.abs(got[0][near] - glob[0](energy[near])) <= 2.0 * ulp), family
            # scalar input: the same numbers, shaped like the input
            for e in (0.0, 1e-12, table.total.breaks[3]):
                assert panels(e) == panels(np.array([e]))[0]
                assert panels.derivatives(e).shape == (3,)
                assert np.array_equal(panels.derivatives(e), panels.derivatives(np.array([e]))[:, 0])
        # the chop drops a few rounding steps of any series at most (orders
        # 2-3 are cut at 16 steps of their largest coefficient)
        assert 0.0 < table.chop_bound <= 5e-15

    def test_build_needs_no_extended_precision(self, quartic, skewed, monkeypatch):
        # where numpy's longdouble is float64 (MSVC, macOS on arm64) the build is the same
        tables = [model_module.build_action_table(p) for p in (quartic, skewed)]
        monkeypatch.setattr(np, "longdouble", np.float64)
        monkeypatch.setattr(model_module, "_TABLE_CACHE", {})
        for potential, want in zip((quartic, skewed), tables):
            got = model_module.build_action_table(potential)
            assert got is not want
            for family in ("total", "diff"):
                a, b = getattr(got, family), getattr(want, family)
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(a.coef, b.coef) and np.array_equal(a.lengths, b.lengths)

    @pytest.mark.parametrize("well", ["quartic", "skewed"])
    def test_neighbouring_panels_agree_at_their_breaks(self, request, well):
        table = model_module.build_action_table(request.getfixturevalue(well))
        for panels in (table.total, table.diff):
            if panels is None:
                continue
            for order in range(4):
                coef, lengths = panels.coef[:, order], panels.lengths[order]
                ends = [(chebval(1.0, coef[: lengths[j], j]), chebval(-1.0, coef[: lengths[j + 1], j + 1]))
                        for j in range(model_module.PANELS - 1)]
                scale = np.max(np.abs(coef))
                assert max(abs(left - right) for left, right in ends) <= 1e-14 * scale

    def test_zero_energy_is_inside_the_middle_panel(self, quartic):
        breaks = model_module.build_action_table(quartic).total.breaks
        assert model_module.PANELS % 2 == 1 and len(breaks) == model_module.PANELS + 1
        mid = model_module.PANELS // 2
        assert breaks[mid] < 0.0 < breaks[mid + 1]
        assert not np.any(breaks == 0.0)
        assert np.all(np.diff(breaks) > 0.0)
        assert breaks[0] == -model_module.ACTION_DELTA and breaks[-1] == model_module.ACTION_DELTA

    def test_unresolved_panel_is_numerical_error(self, quartic, global_tables, monkeypatch):
        # too few nodes per panel for the degree-159 interpolant: refused, not chopped
        series, _ = global_tables[quartic.descriptor]
        monkeypatch.setattr(model_module, "PANEL_NODES", 16)
        with pytest.raises(NumericalError):
            model_module._panel_table(model_module.ACTION_DELTA, series[0], None)

    @pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-8, 1.27e-12])
    @pytest.mark.parametrize("well", ["quartic", "skewed"])
    def test_roots_stay_within_the_phase_resolution(self, request, well, h, global_tables):
        # the panels move each root by at most 3 rounding steps of the phase
        # (ulp(2 pi k) / |phase'|) from the root of the global interpolant
        potential = request.getfixturevalue(well)
        new, old = SpectralModel(potential, h), SpectralModel(potential, h)
        old.table = global_tables[potential.descriptor][1]
        spec = PacketSpec(energy=-0.5, gamma=0.3, gamma_prime=0.8, h=h)
        n_side = math.ceil(RADIUS_FACTOR * spec.width) + 3
        windows = new.solve_families(), old.solve_families()
        n0, _ = select_centers(windows[0], spec.energy)
        ladders = [m.solve_ladder(w.alpha_lambdas[n0], n_side) for m, w in zip((new, old), windows)]
        resolution = new.root_checks(windows[0], ladders[0])["max_root_resolution_lambda"]
        for got, want in ((windows[0].alpha_lambdas, windows[1].alpha_lambdas),
                          (windows[0].beta_lambdas, windows[1].beta_lambdas), ladders):
            assert got.keys() == want.keys()
            assert max(abs(got[k] - want[k]) for k in got) <= 3.0 * resolution


class TestPhaseFunctions:
    def test_f_at_center_is_action_term_plus_quarter_turn(self, model_1e3):
        # arg Gamma(1/2) = 0 and the log term vanishes at lambda = 0
        want = -float(model_1e3.table.total(0.0)) / (2.0 * model_1e3.h) + 0.5 * math.pi
        assert abs(float(model_1e3.f_h(0.0)) - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("g", [1e-9, math.pi - 1e-9, 1e-4])
    def test_general_angle_near_its_endpoints(self, skewed, monkeypatch, g):
        # arccos(cos g / sqrt(1 + q)) within ~1e-9 of 0 or pi, where the
        # arccos of the rounded argument loses ~1e-9 rad
        m = SpectralModel(skewed, 1e-4)
        monkeypatch.setattr(m, "_g", lambda lam: np.full_like(lam, g))
        lam = np.array([-20.0, -8.0, -3.0])
        with mpmath.workdps(40):
            for got, t in zip(m._tunneling_angle(lam), lam):
                q = mpmath.exp(2 * mpmath.pi * mpmath.mpf(t) / m.w)
                want = mpmath.acos(mpmath.cos(g) / mpmath.sqrt(1 + q))
                assert abs(mpmath.mpf(float(got)) - want) <= 1e-15, t

    def test_tunneling_angle_range(self, model_1e3):
        lam = np.linspace(-1, 1, 81)
        spread = model_1e3.z_h(lam) - model_1e3.y_h(lam)
        assert np.all(spread > 0.0)
        assert np.all(spread < TWO_PI)

    def test_exponential_weight_at_window_edge(self, model_1e3):
        # epsilon(h)/h = 1/sqrt(2), so the barrier weight is exp(2 pi / sqrt 2)
        y = model_1e3.epsilon_over_h(1.0)
        assert abs(y - 1.0 / math.sqrt(2.0)) <= 1e-15
        weight = math.exp(2.0 * math.pi * y)
        assert abs(weight - 85.01969522320721) <= 1e-10

    def test_domain_guard(self, model_1e3):
        with pytest.raises(DomainError):
            model_1e3.y_h(np.array([2000.0]))

    @pytest.mark.parametrize("h", [0.11, 0.2, 0.0, -1e-3, float("nan")])
    def test_h_outside_the_action_table_is_parameter_error(self, quartic, h):
        # the window [-h, h] lies inside the table's [-delta, delta] only for h <= delta
        with pytest.raises(ParameterError, match="half-width"):
            SpectralModel(quartic, h)
        assert SpectralModel(quartic, 0.1).h == 0.1

    def test_slope_dominated_by_log_term(self, model_1e4):
        # leading part ln(h)/sqrt(-V''(0)) = -6.5127 at h = 1e-4, O(1) rest
        slope = float(model_1e4._derivatives(np.array([0.0]))[0][0])
        lead = math.log(1e-4) / math.sqrt(2.0)
        assert abs(lead - (-6.512694)) <= 1e-6
        assert slope < 0.0
        assert abs(slope - lead) <= 6.0

    def test_slope_offset_is_h_independent(self, model_1e3, model_1e4):
        # at lambda = 0 the non-log terms cancel exactly in the h-difference;
        # away from 0 the action slope at lambda*h leaves a tiny remainder
        want = (math.log(1e-3) - math.log(1e-4)) / math.sqrt(2.0)
        for lam, tol in ((-0.6, 5e-3), (0.0, 1e-12), (0.4, 5e-3)):
            d = float(
                model_1e3._derivatives(np.array([lam]))[0][0]
                - model_1e4._derivatives(np.array([lam]))[0][0]
            )
            assert abs(d - want) <= tol

    def test_monotone_sampled_phases(self, model_1e4):
        lam = np.linspace(-1, 1, 801)
        for fn in (model_1e4.y_h, model_1e4.z_h):
            diffs = np.diff(fn(lam))
            assert np.all(diffs < 0.0)

    def test_curvature_bounded_across_sweep(self, quartic):
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            m = SpectralModel(quartic, h)
            lam = np.linspace(-1, 1, 101)
            assert np.max(np.abs(m._derivatives(lam)[1])) < 10.0


class TestDerivativeConsistency:
    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    @pytest.mark.parametrize("lam", [-0.8, -0.3, 0.0, 0.3, 0.8])
    def test_analytic_vs_central_difference(self, quartic, skewed, h, lam):
        # the skewed well runs the non-even branch: g, the general tunneling
        # angle and its chain-rule derivatives
        step = 1e-5

        def fd(fn):
            return (fn(lam + step) - fn(lam - step)) / (2 * step)

        for potential in (quartic, skewed):
            m = SpectralModel(potential, h)
            for family in ("alpha", "beta"):
                phase = m._phase(family)
                where = (potential.descriptor, family)

                def deriv(t, order):
                    return float(m._derivatives(np.array([t]), family)[order - 1][0])

                d1 = deriv(lam, 1)
                got = fd(lambda t: float(phase(np.array([t]))[0]))
                assert abs(got - d1) <= 1e-6 * abs(d1), where

                for order in (2, 3):
                    want = deriv(lam, order)
                    got = fd(lambda t: deriv(t, order - 1))
                    assert abs(got - want) <= 1e-6 * max(abs(want), 0.1), (*where, order)

    def test_general_angle_derivatives_against_mpmath(self, skewed):
        # a cubic g whose minimum 0.003 lies where q = e^{2z} ~ 2e-8, so that
        # 1 - u^2 ~ 1e-5: formed as 1 - u*u, it would lose ~1e-12 relative there
        shift = Polynomial([4.0, 1.0])
        g = 0.003 + 0.01 * shift**2 + 0.001 * shift**3
        m = SpectralModel(skewed, 1e-4)
        h = m.h
        # the table difference is 2h g(E/h), so its order-k derivative is 2 h^(1-k) g^(k)
        diff = SimpleNamespace(derivatives=lambda energy: np.array(
            [2.0 * h ** (1 - k) * g.deriv(k)(energy / h) for k in (1, 2, 3)]))
        m._g, m.table = g, dataclasses.replace(m.table, diff=diff)
        lam = np.linspace(-6.0, 3.0, 46)
        got = m._tunneling_angle_derivatives(lam)

        def angle(t):
            q = mpmath.exp(2 * mpmath.pi * t / m.w)
            return mpmath.acos(mpmath.cos(mpmath.polyval(g.coef[::-1].tolist(), t))
                               / mpmath.sqrt(1 + q))

        with mpmath.workdps(40):
            for order in (1, 2, 3):
                want = np.array([float(mpmath.diff(angle, mpmath.mpf(t), order)) for t in lam])
                err = np.max(np.abs(got[order - 1] - want))
                assert err <= 2e-14 * np.max(np.abs(want)), order

    @pytest.mark.parametrize("h", [1e-2, 1e-4, 1e-8, 1.27e-12])
    def test_slope_is_the_first_derivative_to_the_bit(self, quartic, skewed, h):
        # the ladder probe and the root resolution take the first derivative
        # alone; out to the table's domain at h = 1e-2 the energies span
        # several panels, whose series are padded to the longest order there
        for potential in (quartic, skewed):
            m = SpectralModel(potential, h)
            reach = min(0.95 * m.table.delta / h, 10.0)
            for lam in (np.linspace(-1.0, 1.0, 201), np.linspace(-reach, reach, 301),
                        np.array([-0.4])):
                for family in ("alpha", "beta"):
                    want = m._derivatives(lam, family)[0]
                    assert np.array_equal(m._slope(lam, family), want), (potential.descriptor, family)

    def test_beta_family_derivative(self, model_1e4):
        lam, step = 0.25, 1e-5
        z1 = float(model_1e4._derivatives(np.array([lam]), "beta")[0][0])
        fd = float(
            (model_1e4.z_h(np.array([lam + step]))
             - model_1e4.z_h(np.array([lam - step])))[0]
        ) / (2 * step)
        assert abs(fd - z1) <= 1e-6 * abs(z1)


class TestFamilies:
    def test_roots_reinserted(self, model_1e4, window_1e4):
        for k, lam in window_1e4.alpha_lambdas.items():
            resid = float(model_1e4.y_h(np.array([lam]))[0]) - TWO_PI * k
            assert abs(resid) <= 1e-10
        for l, lam in window_1e4.beta_lambdas.items():
            resid = float(model_1e4.z_h(np.array([lam]))[0]) - TWO_PI * l
            assert abs(resid) <= 1e-10

    def test_all_eigenvalues_in_window(self, window_1e4):
        for _, v in window_1e4.alphas + window_1e4.betas:
            assert -window_1e4.h <= v <= window_1e4.h

    def test_families_decrease_in_index(self, window_1e4):
        for fam in ("alpha", "beta"):
            pairs = sorted(window_1e4.family(fam))
            vals = [v for _, v in pairs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_interleaving(self, window_1e4):
        assert interleaving_violations(window_1e4) == 0
        betas = dict(window_1e4.betas)
        for k, alpha_k in window_1e4.alphas:
            if k in betas:
                assert alpha_k < betas[k]
            if k + 1 in betas:
                assert betas[k + 1] < alpha_k

    def test_count_proportional_to_log_scale(self, quartic):
        # integer counts staircase around the trend line, so the 5% residual
        # budget is read as the relative standard error of the fitted slope
        hs = [10 ** (-e / 3) for e in range(9, 37)]
        counts, lnhs = [], []
        for h in hs:
            m = SpectralModel(quartic, h)
            w = m.solve_families()
            counts.append(len(w.alphas))
            lnhs.append(abs(math.log(h)))
        x, y = np.asarray(lnhs), np.asarray(counts)
        fit = linear_fit(x, y)
        assert fit.slope > 0.0
        se = math.sqrt(
            np.sum((y - fit.slope * x - fit.intercept) ** 2) / (len(x) - 2)
        ) / math.sqrt(np.sum((x - x.mean()) ** 2))
        assert se / fit.slope <= 0.05

    def test_gap_scaled_band(self, quartic):
        scaled = []
        for h in (1e-3, 1e-4, 1e-5):
            m = SpectralModel(quartic, h)
            w = m.solve_families()
            lnh = abs(math.log(h))
            for fam in ("alpha", "beta"):
                scaled.extend(g * lnh / h for g in w.gaps(fam))
        lo, hi = min(scaled), max(scaled)
        assert hi / lo < 2.0  # tight band around 2 pi / slope-prefactor

    def test_csv_rows_schema(self, window_1e4):
        rows = window_1e4.csv_rows()
        assert all(len(r) == 5 for r in rows)
        fams = {r[0] for r in rows}
        assert fams == {"alpha", "beta"}


class TestLadderAndPhaseData:
    def test_ladder_extends_the_window(self, model_1e4, window_1e4):
        roots = model_1e4.solve_ladder(lam_center=-0.4, n_side=15)
        assert len(roots) >= 25
        for k, lam in window_1e4.alpha_lambdas.items():
            assert k in roots
            assert abs(roots[k] - lam) <= 1e-12

    @pytest.mark.parametrize(
        "well, h",
        [
            pytest.param("quartic", 1e-3, id="0.001"),
            pytest.param("quartic", 1e-4, id="0.0001"),
            # phase ulp 1.2e-4 rad: the roots sit on exact-zero plateaus
            pytest.param("quartic", 1.27e-12, id="1.27e-12"),
            pytest.param("skewed", 1e-4, id="skewed-0.0001"),
        ],
    )
    def test_lockstep_roots_equal_scalar_bisect(self, request, well, h, monkeypatch):
        m = SpectralModel(request.getfixturevalue(well), h)
        got = (m.solve_families(), m.solve_ladder(lam_center=-0.4, n_side=15))
        monkeypatch.setattr(SpectralModel, "_solve_on", _scalar_solve_on)
        want = (m.solve_families(), m.solve_ladder(lam_center=-0.4, n_side=15))
        assert got[0].alpha_lambdas == want[0].alpha_lambdas
        assert got[0].beta_lambdas == want[0].beta_lambdas
        assert got[1] == want[1] and len(got[1]) >= 20

    def test_ladder_phase_evaluation_count(self, quartic, monkeypatch):
        # one call on the 4097-point grid, then one per BISECT_LEVELS steps of
        # the 31 brackets; one step per call made 41 calls in all
        m = SpectralModel(quartic, 1e-4)
        sizes = []
        real = SpectralModel.y_h

        def counted(self, lam):
            sizes.append(np.size(lam))
            return real(self, lam)

        monkeypatch.setattr(SpectralModel, "y_h", counted)
        roots = m.solve_ladder(lam_center=-0.4, n_side=15)
        assert len(roots) == 31
        assert len(sizes) == 9 and sizes[0] == 4097

    @pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-8, 1.27e-12])
    @pytest.mark.parametrize("family", ["alpha", "beta"])
    def test_ladder_holds_every_index_within_n_side(self, quartic, h, family, monkeypatch):
        # gaps widen away from the barrier top: a reach sized by the gap at
        # the centre alone fell short (27 of 31 roots at n_side = 15, h = 1e-4)
        monkeypatch.setattr(model_module, "LADDER_FAMILY", family)
        m = SpectralModel(quartic, h)
        for lam_center in (-0.9, -0.4, 0.3):
            for n_side in (5, 15, 40):
                roots = m.solve_ladder(lam_center, n_side)
                k0 = select_alpha_near(roots, lam_center)
                assert sorted(roots) == list(range(k0 - n_side, k0 + n_side + 1))
                # k0 is the root nearest the centre among all roots, too
                wide = m._solve_on(m._phase(family), lam_center - 3.0, lam_center + 3.0)
                assert k0 == select_alpha_near(wide, lam_center)

    def test_short_first_reach_is_widened(self, quartic, monkeypatch):
        # slopes read 8x too steep make the first reach far too short: each
        # short side is doubled until it holds n_side roots past the nearest
        m = SpectralModel(quartic, 1e-4)
        want = m.solve_ladder(-0.4, 15)
        real = SpectralModel._slope
        monkeypatch.setattr(SpectralModel, "_slope",
                            lambda self, lam, family: 8.0 * real(self, lam, family))
        got = m.solve_ladder(-0.4, 15)
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in got) <= 1e-9

    def test_ladder_stops_at_the_table_domain(self, quartic):
        # at h = 1e-2 the domain |lambda h| <= 0.95 delta holds fewer than
        # 2 * 40 + 1 roots: the ladder is every root inside it
        m = SpectralModel(quartic, 1e-2)
        lam_max = 0.95 * m.table.delta / m.h
        roots = m.solve_ladder(-0.4, 40)
        assert roots == m._solve_on(m.y_h, -lam_max, lam_max, 4097)
        assert len(roots) < 81

    @pytest.mark.parametrize("slope", [3.0 * TWO_PI, -3.0 * TWO_PI])
    def test_targets_on_samples_pick_scalar_brackets(self, model_1e4, slope):
        # samples at -1, -0.5, 0, 0.5, 1 hit 2 pi k exactly at both ends and at 0
        func = lambda t: slope * np.asarray(t)
        got = model_1e4._solve_on(func, -1.0, 1.0, n_grid=5)
        assert got == _scalar_solve_on(model_1e4, func, -1.0, 1.0, n_grid=5)
        assert len(got) == 7 and got[0] == 0.0 and abs(got[3]) == 1.0

    @pytest.mark.parametrize(
        "start, slope, want",
        [
            # lo / 2 pi rounds to 19, though fl(2 pi 19) lies below lo
            pytest.param(np.nextafter(TWO_PI * 19, np.inf), 4.0, [20], id="lo-ulp-above-19"),
            # lo = fl(2 pi 13), though lo / 2 pi rounds above 13: the root is lambda = -1
            pytest.param(TWO_PI * 13, 1.0, [13], id="lo-on-13"),
            # the same two roundings at the top of a falling phase
            pytest.param(np.nextafter(TWO_PI * 17, -np.inf), -4.0, [16], id="hi-ulp-below-17"),
            pytest.param(TWO_PI * 11, -1.0, [11], id="hi-on-11"),
        ],
    )
    def test_targets_at_the_range_ends(self, model_1e4, start, slope, want):
        # a strictly monotone phase whose first sample sits on or one ulp off
        # fl(2 pi k): every target in [lo, hi], and no other, is bracketed
        func = lambda t: start + slope * (np.asarray(t) + 1.0)
        got = model_1e4._solve_on(func, -1.0, 1.0)
        assert sorted(got) == want
        assert got == _scalar_solve_on(model_1e4, func, -1.0, 1.0)
        for k in want:
            assert abs(got[k] - ((TWO_PI * k - start) / slope - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "func",
        [
            pytest.param(lambda t: 40.0 * np.sin(3.0 * np.asarray(t)), id="turning"),
            pytest.param(lambda t: np.where(np.asarray(t) > 0.5, np.nan, 40.0 * np.asarray(t)),
                         id="nan-sample"),
        ],
    )
    def test_non_monotone_phase_is_monotonicity_error(self, model_1e4, func):
        with pytest.raises(MonotonicityError):
            model_1e4._solve_on(func, -1.0, 1.0)

    def test_phase_data_inverse_derivatives(self, model_1e4):
        roots = model_1e4.solve_ladder(lam_center=-0.4, n_side=8)
        n0 = select_alpha_near(roots, -0.4)
        ph = model_1e4.phase_data(roots, n0)
        lam0 = roots[n0]
        yp = float(model_1e4._derivatives(np.array([lam0]))[0][0])
        assert abs(ph.a1 - 1.0 / yp) <= 1e-14
        assert abs(ph.t_hyp - yp) <= 1e-10
        # finite-difference check of a1 = dA/dx at x = 2 pi n0 via neighbors
        lam_p, lam_m = roots[n0 + 1], roots[n0 - 1]
        fd = (lam_p - lam_m) / (2 * TWO_PI)
        assert abs(fd - ph.a1) <= 0.05 * abs(ph.a1)

    @pytest.mark.parametrize(
        "well, h", [("quartic", 1e-4), ("quartic", 1.27e-12), ("skewed", 1e-3)]
    )
    def test_phase_data_equals_per_point_derivative_calls(self, request, well, h):
        m = SpectralModel(request.getfixturevalue(well), h)
        roots = m.solve_ladder(lam_center=-0.4, n_side=4)
        n0 = select_alpha_near(roots, -0.4)
        at_root = np.array([roots[n0]])
        yp, ypp, yppp = (float(d[0]) for d in m._derivatives(at_root))
        y1, y2, y3 = m._derivatives(np.linspace(-1.0, 1.0, 201))
        want = PhaseData(
            a0=roots[n0],
            a1=1.0 / yp,
            a2=-ypp / yp**3,
            a3=-yppp / yp**4 + 3.0 * ypp**2 / yp**5,
            a3_bound=float(np.max(np.abs(-y3 / y1**4 + 3.0 * y2**2 / y1**5))),
            curvature_at_root=ypp,
        )
        assert m.phase_data(roots, n0) == want

    def test_scaled_inverse_derivatives_bounded(self, quartic):
        # |A''| |ln h|^3 and |A'''| |ln h|^4 stay in a fixed band
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            m = SpectralModel(quartic, h)
            roots = m.solve_ladder(lam_center=-0.45, n_side=5)
            n0 = select_alpha_near(roots, -0.45)
            ph = m.phase_data(roots, n0)
            lnh = abs(math.log(h))
            assert 0.05 < abs(ph.a2) * lnh**3 < 5.0
            assert ph.a3_bound * lnh**4 < 40.0

    def test_center_index_times_h_converges(self, quartic):
        values = []
        for h in (1e-4, 1e-5, 1e-6, 1e-7):
            m = SpectralModel(quartic, h)
            w = m.solve_families()
            n0, _ = select_centers(w, 0.0)
            values.append(n0 * h)
        diffs = [abs(a - b) for a, b in zip(values, values[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert abs(values[-1]) > 0.01  # limit is a nonzero constant

    def test_hyperbolic_period_linear_in_log_scale(self, quartic):
        lnhs, periods = [], []
        for h in (1e-3, 3.16e-4, 1e-4, 3.16e-5, 1e-5, 3.16e-6, 1e-6):
            m = SpectralModel(quartic, h)
            roots = m.solve_ladder(lam_center=-0.45, n_side=5)
            n0 = select_alpha_near(roots, -0.45)
            periods.append(abs(m.phase_data(roots, n0).t_hyp))
            lnhs.append(abs(math.log(h)))
        fit = linear_fit(lnhs, periods)
        assert fit.rms_residual / np.mean(periods) <= 0.05


class TestLadderPoint:
    # the packet defaults of the evolve and revival commands
    EVOLVE, REVIVAL = (0.9, 0.2), (0.3, 0.8)

    @pytest.mark.parametrize(
        "h, gammas",
        [(1e-3, EVOLVE), (1e-4, EVOLVE), (1e-3, REVIVAL), (1e-4, REVIVAL)],
        ids=["evolve-0.001", "evolve-0.0001", "revival-0.001", "revival-0.0001"],
    )
    def test_packet_is_never_clipped(self, quartic, h, gammas):
        # evolve's packet at h = 1e-4 kept 83 of its 121 indices before the
        # ladder reached past the widening gaps
        spec = PacketSpec(energy=-0.45, gamma=gammas[0], gamma_prime=gammas[1], h=h)
        point = ladder_point(quartic, spec)
        radius = math.ceil(RADIUS_FACTOR * spec.width)
        center = point.packet.center
        assert point.packet.indices.tolist() == list(range(center - radius, center + radius + 1))

    @pytest.mark.parametrize(
        "h, gammas", [(1e-2, EVOLVE), (3e-3, EVOLVE), (1e-2, REVIVAL)],
        ids=["evolve-0.01", "evolve-0.003", "revival-0.01"],
    )
    def test_clipped_packet_is_refused(self, quartic, h, gammas):
        spec = PacketSpec(energy=-0.45, gamma=gammas[0], gamma_prime=gammas[1], h=h)
        with pytest.raises(SupportError, match="does not reach"):
            ladder_point(quartic, spec)
