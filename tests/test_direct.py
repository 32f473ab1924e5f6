"""Grid-discretized operator oracle."""

import dataclasses
import math

import numpy as np
import pytest

from revivalkit.direct import (
    AGMON_DECAY,
    DiscretizedOperator,
    _count_below,
    _parity_blocks,
    discretize,
    resolution_bound,
    window_spectrum,
)
from revivalkit.errors import ParameterError, ResolutionError, TruncationError
from revivalkit.potential import Potential, canonical_double_well


def tilted_well():
    return Potential(
        evaluate=lambda x: x**4 - x**2 + 0.05 * x,
        first_derivative=lambda x: 4 * x**3 - 2 * x + 0.05,
        second_derivative=lambda x: 12 * x**2 - 2.0,
        descriptor="tilted",
        domain_halfwidth=3.0,
        even=False,
    )


def bumped_well():
    """x^4 - x^2 plus Gaussian bumps of height 2 and width 0.15 at x = +-0.5.

    At h = 1e-2 each bump alone holds ~59 h of Agmon distance, inside the outer
    turning points x ~ +-1.005.  The bumps sit on both sides because the cut is
    symmetric: the farther wall wins, so a bump on one side only would hide an
    integral started at the origin behind the other side's wall.
    """
    w = 0.15

    def bumps(x, deriv):
        # sum over the bump centres of d^n/dx^n 2 exp(-u^2), u = (x - c) / w
        out = 0.0
        for c in (-0.5, 0.5):
            u = (x - c) / w
            poly = (1.0, -2.0 * u / w, (4.0 * u**2 - 2.0) / w**2)[deriv]
            out = out + 2.0 * poly * np.exp(-(u**2))
        return out

    return Potential(
        evaluate=lambda x: x**4 - x**2 + bumps(x, 0),
        first_derivative=lambda x: 4 * x**3 - 2 * x + bumps(x, 1),
        second_derivative=lambda x: 12 * x**2 - 2.0 + bumps(x, 2),
        descriptor="bumped",
        domain_halfwidth=3.0,
        even=True,
    )


def full_operator(potential, h, order, L=None):
    """The uncut operator on [-L, L] (the whole domain by default), assembled here as discretize's reference."""
    L = potential.domain_halfwidth if L is None else L
    n_cells = math.ceil(2.0 * L / resolution_bound(potential, h))
    n_cells += n_cells % 2
    x = np.linspace(-L, L, n_cells + 1)[1:-1]
    dx = float(x[1] - x[0])
    n, k, v = len(x), h * h / (2.0 * dx * dx), potential.evaluate(x)
    if order == 2:
        bands = [2.0 * k + v, np.full(n - 1, -k)]
    else:
        bands = [30.0 * k / 12.0 + v, np.full(n - 1, -16.0 * k / 12.0), np.full(n - 2, k / 12.0)]
    return DiscretizedOperator(potential=potential, h=h, grid=x, dx=dx, order=order, bands=bands,
                               halfwidth=L, wall_decay=math.nan)


def reflection_bases(n):
    """Orthonormal reflection bases of an n-node grid: e_c, (e_{c+j} +- e_{c-j}) / sqrt(2)."""
    c = n // 2
    pairs = np.zeros((n, c))
    pairs[c + 1:] = np.eye(c) / math.sqrt(2.0)
    mirror = pairs[::-1]
    centre = np.zeros((n, 1))
    centre[c] = 1.0
    return {"even": np.hstack([centre, pairs + mirror]), "odd": pairs - mirror}


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
            discretize(dataclasses.replace(canonical_double_well(), domain_halfwidth=1.0), 1e-2)

    def test_harmonic_oracle(self, harmonic_well):
        # an omega = 1/4 well puts four levels h omega (n + 1/2) inside [-h, h], to 0.1%
        h, omega = 1e-2, 0.25
        want = h * omega * (np.arange(4) + 0.5)
        V = dataclasses.replace(harmonic_well(omega=omega), domain_halfwidth=6.0)
        for order in (2, 4):
            op = discretize(V, h, order=order)
            vals = window_spectrum(op).eigenvalues
            assert len(vals) == len(want), order
            assert np.max(np.abs(vals - want) / want) <= 1e-3, order

    def test_doubling_L_leaves_window_unchanged(self):
        V = canonical_double_well()
        vals = {}
        for L in (3.0, 6.0):
            op = discretize(dataclasses.replace(V, domain_halfwidth=L), 1e-2, dx=1e-3, order=4)
            vals[L] = window_spectrum(op).eigenvalues
        assert len(vals[3.0]) == len(vals[6.0])
        assert np.max(np.abs(vals[3.0] - vals[6.0])) <= 1e-12


class TestBands:
    """The operator is its bands; the sparse matrix is built from them on first read only."""

    H = 5e-2

    @pytest.fixture(scope="class", params=[(w, o) for w in ("quartic", "tilted") for o in (2, 4)],
                    ids=lambda p: f"{p[0]}-order{p[1]}")
    def op(self, request):
        well, order = request.param
        potential = canonical_double_well() if well == "quartic" else tilted_well()
        return discretize(potential, self.H, order=order)

    def test_matrix_is_the_bands(self, op):
        assert len(op.bands) == op.order // 2 + 1
        dense = np.diag(op.bands[0]) + sum(np.diag(b, o) + np.diag(b, -o) for o, b in enumerate(op.bands) if o)
        assert np.array_equal(op.matrix.toarray(), dense)
        assert op.matrix is op.matrix

    def test_bands_are_the_matrix_diagonals(self, op):
        # what _parity_blocks folds: the bands it used to read back from the matrix
        assert all(np.array_equal(b, op.matrix.diagonal(o)) for o, b in enumerate(op.bands))
        if not op.potential.even:
            ((parity, bands),) = _parity_blocks(op)
            assert parity == "n/a" and bands is op.bands

    @pytest.mark.parametrize("well", ["quartic", "tilted"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_window_solve_builds_no_matrix(self, well, order):
        potential = canonical_double_well() if well == "quartic" else tilted_well()
        op = discretize(potential, self.H, order=order)
        assert len(window_spectrum(op).eigenvalues) > 0
        assert "matrix" not in vars(op)


class TestDomainCut:
    """The Agmon cut against the full [-3, 3] operator: the same window eigenpairs."""

    @pytest.fixture(scope="class", params=[(w, o, h) for w in ("quartic", "tilted") for o in (2, 4)
                                           for h in (1e-2, 1e-3)],
                    ids=lambda p: f"{p[0]}-order{p[1]}-h{p[2]:g}")
    def case(self, request):
        well, order, h = request.param
        potential = canonical_double_well() if well == "quartic" else tilted_well()
        return discretize(potential, h, order=order), full_operator(potential, h, order)

    def test_matrix_is_central_block(self, case):
        cut, full = case
        n, N = len(cut.grid), len(full.grid)
        assert n < N and (N - n) % 2 == 0
        lo = (N - n) // 2
        assert cut.dx == full.dx
        assert np.array_equal(cut.grid, full.grid[lo:lo + n])
        block = full.matrix[lo:lo + n, lo:lo + n]
        assert block.shape == cut.matrix.shape
        assert (block != cut.matrix).nnz == 0

    def test_grid_symmetric_about_origin(self, case):
        cut, _ = case
        n = len(cut.grid)
        assert n % 2 == 1 and cut.grid[n // 2] == 0.0
        assert np.max(np.abs(cut.grid + cut.grid[::-1])) <= 4 * np.spacing(cut.halfwidth)
        assert cut.grid[-1] < cut.halfwidth < cut.grid[-1] + 1.5 * cut.dx
        assert cut.wall_decay >= AGMON_DECAY

    def test_window_unchanged(self, case):
        cut, full = case
        a, b = window_spectrum(cut), window_spectrum(full)
        assert len(a.eigenvalues) == len(b.eigenvalues) > 0
        assert a.parities == b.parities
        scale = np.max(np.abs(cut.matrix.diagonal()))
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-12 * scale

    def test_distance_counted_from_outer_turning_point(self):
        # integrated from the origin, a bump alone would reach 40 h and put the
        # walls at x ~ +-0.54, short of the outer turning points
        h = 1e-2
        V = bumped_well()
        op = discretize(V, h, order=4)
        assert op.wall_decay >= AGMON_DECAY
        xs = np.linspace(-op.halfwidth, op.halfwidth, 400001)
        allowed = xs[V.evaluate(xs) <= h]
        assert op.grid[0] < allowed[0] and allowed[-1] < op.grid[-1]
        assert allowed[-1] > 1.0  # the outer turning point, past the bump
        g = np.sqrt(2.0 * np.maximum(V.evaluate(xs) - h, 0.0))
        steps = 0.5 * (g[1:] + g[:-1]) * np.diff(xs)
        for side in (xs[1:] <= allowed[0], xs[:-1] >= allowed[-1]):
            # a quadrature of its own, 200x finer than the grid: slack for its error only
            assert np.sum(steps[side]) >= 0.999 * AGMON_DECAY * h

    @pytest.mark.parametrize("h", [0.5, 0.9])
    def test_short_domain_is_grown(self, h):
        # the quartic's [-3, 3] ends at Agmon distance ~21 h (h = 0.5) and
        # ~11 h (h = 0.9): the domain doubles to [-6, 6], which is cut at 40 h
        V = canonical_double_well()
        op = discretize(V, h, order=4)
        full = full_operator(V, h, 4, L=6.0)
        assert op.wall_decay >= AGMON_DECAY
        assert 3.0 < op.halfwidth < 6.0
        n, N = len(op.grid), len(full.grid)
        lo = (N - n) // 2
        assert np.array_equal(op.grid, full.grid[lo:lo + n])
        assert (full.matrix[lo:lo + n, lo:lo + n] != op.matrix).nnz == 0

    def test_no_wall_on_any_doubling_is_truncation_error(self):
        # V = x^2 e^(3 - |x|) confines at |x| = 3 but decays beyond it, so no
        # doubling of the domain reaches a wall
        V = Potential(
            evaluate=lambda x: x**2 * np.exp(3.0 - np.abs(x)),
            first_derivative=lambda x: (2.0 * x - x * np.abs(x)) * np.exp(3.0 - np.abs(x)),
            second_derivative=lambda x: (2.0 - 4.0 * np.abs(x) + x**2) * np.exp(3.0 - np.abs(x)),
            descriptor="leaky",
            domain_halfwidth=3.0,
            even=True,
        )
        with pytest.raises(TruncationError, match="no Agmon wall"):
            discretize(V, 0.5, order=2)


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

    @pytest.mark.parametrize("order", [2, 4])
    def test_relative_residual_of_window_pairs(self, order):
        # the spectrum manifest's max_relative_residual; the CLI runs order 4 only
        op = discretize(canonical_double_well(), 1e-2, order=order)
        spectrum = window_spectrum(op)
        vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
        residuals = np.linalg.norm(op.matrix @ vecs - vecs * vals, axis=0)
        assert len(vals) > 0
        assert np.max(residuals) / np.max(np.abs(op.matrix.diagonal())) <= 1e-12

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
    def test_vectors_exactly_even_or_odd(self, order):
        sp = window_spectrum(discretize(canonical_double_well(), self.H, order=order))
        assert {"even", "odd"} == set(sp.parities)
        for vec, parity in zip(sp.eigenvectors.T, sp.parities):
            assert np.array_equal(vec[::-1], vec if parity == "even" else -vec), parity

    @pytest.mark.parametrize("order", [2, 4])
    def test_each_parity_matches_its_dense_block(self, order):
        op = discretize(canonical_double_well(), self.H, order=order)
        sp = window_spectrum(op)
        dense = op.matrix.toarray()
        scale = np.max(np.abs(op.matrix.diagonal()))
        for parity, basis in reflection_bases(op.matrix.shape[0]).items():
            assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0.0, atol=1e-15)
            block = np.linalg.eigvalsh(basis.T @ dense @ basis)
            want = block[np.abs(block) <= self.H]
            got = sp.eigenvalues[[p == parity for p in sp.parities]]
            assert len(want) > 0 and len(got) == len(want), parity
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, parity

    def test_wide_band_fold_matches_dense(self):
        # a bandwidth-4 operator, the 9-point stencil on the quartic's grid: bands 2, 3
        # and 4 all couple rows across the centre, and each coupling enters the fold
        op = discretize(canonical_double_well(), self.H)
        n, k = len(op.grid), self.H**2 / (2.0 * op.dx**2)
        weights = np.array([14350.0, -8064.0, 1008.0, -128.0, 9.0]) / 5040.0
        bands = [np.full(n - o, w * k) for o, w in enumerate(weights)]
        bands[0] += canonical_double_well().evaluate(op.grid)
        op = dataclasses.replace(op, order=8, bands=bands)
        mat = op.matrix
        scale = np.max(np.abs(bands[0]))
        bases = reflection_bases(n)
        for parity, block in _parity_blocks(op):
            folded = sum(np.diag(b, o) + np.diag(b, -o) for o, b in enumerate(block) if o)
            folded += np.diag(block[0])
            want = bases[parity].T @ mat.toarray() @ bases[parity]
            assert np.max(np.abs(folded - want)) <= 1e-12 * scale, parity

    def test_false_even_flag_is_parameter_error(self):
        # the tilted well's values under an even flag: its operator is not reflection-symmetric
        flagged = dataclasses.replace(tilted_well(), even=True)
        for order in (2, 4):
            with pytest.raises(ParameterError, match="not reflection-symmetric"):
                window_spectrum(discretize(flagged, self.H, order=order))

    @pytest.mark.parametrize("order", [2, 4])
    def test_empty_window(self, order, harmonic_well):
        # levels at 4h (n + 1/2): the lowest, 2h, lies above the window; an even
        # potential, so both of its blocks come back empty
        op = discretize(harmonic_well(omega=4.0), self.H, order=order)
        assert _count_below(op.matrix, self.H) == 0
        sp = window_spectrum(op)
        assert sp.eigenvalues.shape == (0,)
        assert sp.eigenvectors.shape == (op.matrix.shape[0], 0)
        assert sp.parities == []


class TestDualBackend:
    def test_peak_structure_matches_model(self, quartic):
        """Window-family packets evolved from both backends recur in step."""
        from peaks import detect_peaks
        from revivalkit.dynamics import exact_series
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
            direct_vals = [v for v, p in zip(sp.eigenvalues, sp.parities) if p == parity]
            t_model = correlation_period(model_vals)
            t_direct = correlation_period(direct_vals)
            assert t_model is not None and t_direct is not None
            assert abs(t_model - t_direct) / t_model <= 0.05
