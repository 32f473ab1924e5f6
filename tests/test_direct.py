"""Grid-discretized operator oracle."""

import math

import numpy as np
import pytest

from revivalkit.direct import (
    _count_below,
    discretize,
    resolution_bound,
    window_spectrum,
)
from revivalkit.errors import ResolutionError, TruncationError
from revivalkit.potential import Potential, canonical_double_well, harmonic_well


def tilted_well():
    return Potential(
        evaluate=lambda x: x**4 - x**2 + 0.05 * x,
        first_derivative=lambda x: 4 * x**3 - 2 * x + 0.05,
        second_derivative=lambda x: 12 * x**2 - 2.0,
        descriptor="tilted",
        domain_halfwidth=3.0,
        even=False,
    )


@pytest.fixture(scope="module")
def op_1e2():
    return discretize(canonical_double_well(), 1e-2, order=4)


@pytest.fixture(scope="module")
def spectrum_1e2(op_1e2):
    return window_spectrum(op_1e2)


class TestDiscretize:
    def test_matrix_symmetric_exactly(self, op_1e2):
        diff = op_1e2.matrix - op_1e2.matrix.T
        assert diff.nnz == 0

    def test_grid_contains_origin(self, op_1e2):
        assert np.min(np.abs(op_1e2.grid)) == 0.0

    def test_resolution_guard(self):
        V = canonical_double_well()
        bound = resolution_bound(V, 1e-2)
        with pytest.raises(ResolutionError):
            discretize(V, 1e-2, dx=3 * bound)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            discretize(canonical_double_well(), 1e-2, L=1.0)

    def test_harmonic_oracle(self):
        # an omega = 1/4 well puts four levels h omega (n + 1/2) inside [-h, h], to 0.1%
        h, omega = 1e-2, 0.25
        want = h * omega * (np.arange(4) + 0.5)
        for order in (2, 4):
            op = discretize(harmonic_well(omega=omega), h, L=6.0, order=order)
            vals = window_spectrum(op).eigenvalues
            assert len(vals) == len(want), order
            assert np.max(np.abs(vals - want) / want) <= 1e-3, order

    def test_doubling_L_leaves_window_unchanged(self):
        V = canonical_double_well()
        vals = {}
        for L in (3.0, 6.0):
            op = discretize(V, 1e-2, L=L, dx=1e-3, order=4)
            vals[L] = window_spectrum(op).eigenvalues
        assert len(vals[3.0]) == len(vals[6.0])
        assert np.max(np.abs(vals[3.0] - vals[6.0])) <= 1e-12


class TestWindowSpectrum:
    def test_all_values_inside_window(self, spectrum_1e2):
        assert np.all(np.abs(spectrum_1e2.eigenvalues) <= spectrum_1e2.h)

    def test_parities_alternate(self, spectrum_1e2):
        pars = spectrum_1e2.parities
        assert len(pars) >= 2
        assert all(a != b for a, b in zip(pars, pars[1:]))

    def test_refinement_stability_fourth_order(self):
        V = canonical_double_well()
        h = 1e-2
        bound = resolution_bound(V, h)
        a = window_spectrum(discretize(V, h, dx=bound, order=4)).eigenvalues
        b = window_spectrum(discretize(V, h, dx=bound / 2, order=4)).eigenvalues
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) <= 1e-3 * h / abs(math.log(h))

    def test_refinement_stability_second_order(self):
        V = canonical_double_well()
        h = 1e-2
        dx = resolution_bound(V, h) / 8
        a = window_spectrum(discretize(V, h, dx=dx, order=2)).eigenvalues
        b = window_spectrum(discretize(V, h, dx=dx / 2, order=2)).eigenvalues
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) <= 1e-3 * h / abs(math.log(h))

    def test_orders_agree(self):
        V = canonical_double_well()
        h = 1e-2
        a = window_spectrum(discretize(V, h, order=2)).eigenvalues
        b = window_spectrum(discretize(V, h, order=4)).eigenvalues
        a = a[np.abs(a) <= 0.9 * h]
        b = b[np.abs(b) <= 0.9 * h]
        assert len(a) == len(b)
        # order-2 at the bound spacing carries a visible O(dx^2) shift
        assert np.max(np.abs(a - b)) <= 2e-2 * h

    def test_repeated_solves_agree_bitwise(self, op_1e2, spectrum_1e2):
        # a fixed Lanczos start vector makes the grid spectrum reproducible
        again = window_spectrum(op_1e2)
        assert np.array_equal(again.eigenvalues, spectrum_1e2.eigenvalues)
        assert again.parities == spectrum_1e2.parities

    def test_asymmetric_potential_gets_no_parity(self):
        sp = window_spectrum(discretize(tilted_well(), 1e-2, order=4))
        assert all(p == "n/a" for p in sp.parities)

    def test_csv_rows_have_parity_column(self, spectrum_1e2):
        rows = list(spectrum_1e2.csv_rows())
        assert all(len(r) == 6 for r in rows)
        assert rows[0][0] == "n/a"  # family split not derivable from values
        assert rows[0][5] in ("even", "odd")


class TestDenseReference:
    """The banded solves against every eigenvalue of the dense matrix (~1k points)."""

    H = 5e-2

    @pytest.fixture(scope="class", params=[(w, o) for w in ("quartic", "tilted") for o in (2, 4)],
                    ids=lambda p: f"{p[0]}-order{p[1]}")
    def case(self, request):
        well, order = request.param
        potential = canonical_double_well() if well == "quartic" else tilted_well()
        op = discretize(potential, self.H, order=order)
        return op, np.linalg.eigvalsh(op.matrix.toarray())

    def test_window_matches_dense(self, case):
        op, dense = case
        want = dense[np.abs(dense) <= self.H]
        sp = window_spectrum(op)
        assert len(want) > 0
        assert len(sp.eigenvalues) == len(want)
        scale = np.max(np.abs(op.matrix.diagonal()))
        assert np.max(np.abs(sp.eigenvalues - want)) <= 1e-12 * scale
        assert sp.eigenvectors.shape == (op.matrix.shape[0], len(want))

    def test_count_below_matches_dense(self, case):
        op, dense = case
        rng = np.random.default_rng(11)
        shifts = np.concatenate([[-self.H, self.H], rng.uniform(-3 * self.H, 3 * self.H, 4),
                                 rng.uniform(dense[0], dense[-1], 2)])
        for shift in shifts:
            assert _count_below(op.matrix, shift) == np.count_nonzero(dense < shift), shift

    @pytest.mark.parametrize("order", [2, 4])
    def test_empty_window(self, order):
        # levels at 4h (n + 1/2): the lowest, 2h, lies above the window
        op = discretize(harmonic_well(omega=4.0), self.H, order=order)
        assert _count_below(op.matrix, self.H) == 0
        sp = window_spectrum(op)
        assert sp.eigenvalues.shape == (0,)
        assert sp.eigenvectors.shape == (op.matrix.shape[0], 0)
        assert sp.parities == []


class TestDualBackend:
    def test_peak_structure_matches_model(self, quartic):
        """Window-family packets evolved from both backends recur in step."""
        from revivalkit.dynamics import detect_peaks, exact_series
        from revivalkit.model import SpectralModel
        from revivalkit.packet import PacketSpec, build_coefficients

        h = 1e-4
        model = SpectralModel(quartic, h)
        window = model.solve_families()
        op = discretize(quartic, h, order=4)
        sp = window_spectrum(op)
        spec = PacketSpec(energy=-0.2, gamma=0.3, gamma_prime=0.8, h=h)

        def correlation_period(values):
            vals = np.sort(np.asarray(values)) / h
            ladder = {i: v for i, v in enumerate(vals)}
            center = int(np.argmin(np.abs(vals - spec.energy)))
            pk = build_coefficients(spec, center, index_set=ladder.keys())
            period = 2 * math.pi / np.mean(np.diff(vals))
            t = np.linspace(0.0, 3.2 * period, 4001)
            c = np.abs(exact_series(ladder, pk, t))
            peaks = detect_peaks(t, c, threshold=0.6)
            return peaks.period_estimate

        for fam, parity in (("alpha", "even"), ("beta", "odd")):
            model_vals = [v for _, v in window.family(fam)]
            direct_vals = sp.parity_family(parity)
            t_model = correlation_period(model_vals)
            t_direct = correlation_period(direct_vals)
            assert t_model is not None and t_direct is not None
            assert abs(t_model - t_direct) / t_model <= 0.05
